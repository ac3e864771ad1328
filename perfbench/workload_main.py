"""One workload in one fresh process (started by ``run.py``).

Modes:

* ``setup``: set the workload up, report ``setup_s`` and exit;
* ``measure``: set up, run the untraced timed loop for ``--seconds``,
  check every result, report the end-to-end metrics;
* ``trace``: set up with spans on, then alternate untraced and traced
  blocks of the closed loop, check, report the per-layer metrics (from
  the traced blocks) and the tracing overhead (traced minus untraced).

``setup_s`` runs from ``--t0`` (the parent's ``time.monotonic()`` just
before it started this process, so interpreter start-up and imports
count) until the first request is ready. The result is one JSON object
on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

#: Alternating untraced/traced blocks of a ``trace`` run.
TRACE_BLOCKS = 6


def peak_rss_mib(pids) -> float:
    """Sum of the peak resident sizes (VmHWM) of this process and ``pids``."""
    total_kib = 0
    for pid in ["self", *pids]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            pass  # a worker that already exited
    return total_kib / 1024.0


def tail_percentile(latencies):
    """(value, percentile) of the reported tail latency.

    p90 where there are at least 100 samples; otherwise the highest
    percentile with at least ten samples beyond it, i.e. the eleventh
    largest sample.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 100:
        rank = math.ceil(0.9 * n)
    else:
        rank = n - 10
    if rank < 1:
        raise ValueError(f"{n} requests are too few for a tail percentile")
    return ordered[rank - 1], 100.0 * rank / n


def neighbours(latencies, percentile: float):
    """Latencies (ms) two percentile points below and above ``percentile``.

    A diagnostic: when a reported percentile falls in a gap between two
    latency clusters, these two are far apart.
    """
    ordered = sorted(latencies)
    n = len(ordered)

    def at(q: float) -> float:
        return ordered[min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))] * 1e3

    return at(percentile - 2.0), at(percentile + 2.0)


def end_to_end(phase, workload, setup_s: float) -> dict:
    tail, tail_pct = tail_percentile(phase.latencies)
    return {
        "setup_s": setup_s,
        "req_per_s": len(phase.latencies) / phase.wall,
        "req_p50_ms": statistics.median(phase.latencies) * 1e3,
        "req_p90_ms": tail * 1e3,
        "evals_per_s": phase.evals / phase.wall,
        "best_snr_db": workload.canary_snr(),
        "peak_rss_mb": peak_rss_mib(workload.child_pids()),
        "_requests": len(phase.latencies),
        "_tail_percentile": tail_pct,
        "_neighbours": {
            "req_p50_ms": neighbours(phase.latencies, 50.0),
            "req_p90_ms": neighbours(phase.latencies, tail_pct),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    import spans
    from workloads import WORKLOADS, Phase

    recorder = spans.Recorder()
    instrumentation = spans.Instrumentation(recorder)
    workload = WORKLOADS[args.workload](args.seed, os.getcwd())
    tracing = args.mode == "trace"
    if tracing:
        instrumentation.install()
    workload.setup()
    setup_s = time.monotonic() - args.t0
    resident_model_bytes = spans.cached_model_bytes()
    out = {"setup_s": setup_s}
    try:
        if args.mode == "measure":
            phase = workload.run(args.seconds)
            out["metrics"] = end_to_end(phase, workload, setup_s)
        elif tracing:
            instrumentation.uninstall()
            setup_spans, recorder.spans = recorder.spans, []
            # Untraced and traced blocks alternate, so a slow host period
            # does not land on one side of the overhead estimate.
            untraced, traced, deltas = Phase(), Phase(), {}
            for block in range(TRACE_BLOCKS):
                if block % 2 == 0:
                    untraced.extend(workload.run(args.seconds / TRACE_BLOCKS))
                    continue
                before = workload.counters()
                instrumentation.install()
                traced.extend(workload.run(args.seconds / TRACE_BLOCKS, recorder))
                instrumentation.uninstall()
                after = workload.counters()
                for key, value in after.items():
                    deltas[key] = deltas.get(key, 0) + value - before.get(key, 0)
            layers = spans.layer_metrics(
                recorder.spans, len(traced.latencies), deltas, setup_spans,
                resident_model_bytes,
            )
            base_p50 = statistics.median(untraced.latencies)
            layers["trace.overhead_p50_pct"] = (
                100.0 * (statistics.median(traced.latencies) - base_p50) / base_p50,
                "%",
            )
            base_rate = len(untraced.latencies) / untraced.wall
            layers["trace.overhead_req_per_s_pct"] = (
                100.0 * (len(traced.latencies) / traced.wall - base_rate) / base_rate,
                "%",
            )
            layers["trace.spans_per_request"] = (
                len(recorder.spans) / max(1, len(traced.latencies)),
                "count",
            )
            out["layers"] = layers
            out["dominant"] = spans.dominant_layers(recorder.spans, len(traced.latencies))
        if args.mode != "setup":
            workload.check()
            out["attempted"] = workload.attempted
            out["failed"] = workload.failed
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
