"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py                                   # all workloads
    python3 perfbench/run.py --workload paper_dse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload service_mixed --seed 1 --seconds 30 --trace 1

Each workload runs in fresh processes started from this script, with every
``PHONOCMAP_*`` variable removed from the environment and a private
working directory (model cache, daemon socket) under ``.perfbench_work/``
that is deleted afterwards:

* ``--trace 0``: two set-up-only processes and one measuring process.
  ``setup_s`` is the median of the three set-ups; every other metric comes
  from the measuring process's untraced closed loop of ``--seconds``.
* ``--trace 1``: one process that sets up with spans on, alternates
  untraced and traced blocks of the closed loop, and reports the per-layer
  metrics, the self time by layer and the tracing overhead.

Before and after each workload a fixed pure-Python loop and a fixed numpy
gather are timed. That host reference is printed as a diagnostic only: it
is never a metric and never scales one; it tells a slow host period from
a regression.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check failed or a workload process did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("paper_dse", "arch_build", "service_mixed")

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "evals_per_s": "1/s",
    "best_snr_db": "dB",
    "peak_rss_mb": "MiB",
}

#: Set-up-only processes per measured run, besides the measuring one.
SETUP_ONLY_RUNS = 2
#: Seconds a workload process may take beyond its timed loop.
CHILD_SLACK_S = 90


def host_reference() -> dict:
    """Median times of a fixed pure-Python loop and a fixed numpy gather."""
    import numpy as np

    def py_loop():
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return total

    rng = np.random.default_rng(0)
    table = rng.random((1024, 1024))
    rows = rng.integers(0, 1024, size=(256, 40))
    cols = rng.integers(0, 1024, size=(256, 40))

    def gather():
        return float(table[rows[:, :, None], cols[:, None, :]].sum())

    out = {}
    for name, func in (("py_loop_ms", py_loop), ("np_gather_ms", gather)):
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            func()
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = statistics.median(times)
    return out


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PHONOCMAP_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Freed memory stays with the process: arrays up to 32 MiB (a 6x6
    # coupling matrix is 13 MiB) come from the heap, which grows in
    # 256 MiB steps and is never trimmed. Warm requests then reuse
    # resident pages instead of faulting fresh ones in. Under the glibc
    # defaults arch_build makes 8x more page faults per run, and on a
    # virtual machine whose freed pages go back to the host that cost
    # follows the host's load, not the program's.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(4 << 30)
    env["MALLOC_TOP_PAD_"] = str(256 << 20)
    return env


def stop_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run one workload process in a private directory; return its JSON."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=WORK)
    command = [
        sys.executable,
        str(HERE / "workload_main.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
    ]
    try:
        t0 = time.monotonic()
        process = subprocess.Popen(
            command + ["--t0", repr(t0)],
            cwd=workdir,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = process.communicate(timeout=seconds + CHILD_SLACK_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise RuntimeError(f"{workload} ({mode}) timed out")
        finally:
            # Pool workers share the session; none may outlive the run.
            stop_group(process.pid)
        lines = stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} ({mode}) exited with {process.returncode}")
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float) -> dict:
    setups = [
        run_child(workload, seed, seconds, "setup")["setup_s"]
        for _ in range(SETUP_ONLY_RUNS)
    ]
    result = run_child(workload, seed, seconds, "measure")
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def report_measure(workload: str, result: dict) -> None:
    metrics = result["metrics"]
    n = metrics["_requests"]
    print(f"[{workload}] {n} requests, {result['attempted']} operations checked, "
          f"{result['failed']} failed")
    for name, unit in END_TO_END_UNITS.items():
        if name == "setup_s":
            samples = f"median of {len(result['setup_samples'])} set-ups"
        elif name == "best_snr_db":
            samples = "canary requests fixed by the seed"
        elif name == "peak_rss_mb":
            samples = "VmHWM summed over processes"
        elif name == "req_p90_ms":
            samples = f"p{metrics['_tail_percentile']:.1f} of {n} requests"
        else:
            samples = f"{n} requests"
        if name in metrics["_neighbours"]:
            below, above = metrics["_neighbours"][name]
            samples += f"; +-2 points: {below:.2f}..{above:.2f} ms"
        print(f"  {name:<14} {metrics[name]:>12.4f} {unit:<4} ({samples})")


def report_trace(workload: str, result: dict) -> None:
    print(f"[{workload}] traced: {result['attempted']} operations checked, "
          f"{result['failed']} failed")
    print("  self time by layer, ms per request:")
    for layer, ms in result["dominant"]:
        print(f"    {layer:<12} {ms:>10.3f}")
    for name, (value, unit) in result["layers"].items():
        print(f"  {name:<32} {value:>14.4f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"benchmark: no program sources at {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        before = host_reference()
        try:
            if args.trace:
                result = run_child(name, args.seed, args.seconds, "trace")
            else:
                result = measure(name, args.seed, args.seconds)
        except (RuntimeError, ValueError) as error:
            print(f"benchmark: {error}", file=sys.stderr)
            return 1
        after = host_reference()
        print(f"[{name}] host reference (diagnostic only): before "
              + ", ".join(f"{k}={v:.2f}" for k, v in before.items())
              + "; after "
              + ", ".join(f"{k}={v:.2f}" for k, v in after.items()))
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        if args.trace:
            report_trace(name, result)
            for metric, (value, unit) in result["layers"].items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
        else:
            report_measure(name, result)
            for metric, unit in END_TO_END_UNITS.items():
                metrics[prefix + metric] = {"value": result["metrics"][metric], "unit": unit}
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
