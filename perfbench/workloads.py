"""The benchmark's three workloads.

Each workload builds everything it serves in :meth:`setup` (one-time lazy
work included, so it is charged to ``setup_s``), then answers requests in
a closed loop in :meth:`run`: the next request is sent only after the
previous one completed. Inputs derive from the ``--seed`` argument only.
Every result is verified against an independent computation, outside the
timed wall: ``paper_dse`` and ``arch_build`` check each request as it
completes, ``service_mixed`` compares its kept responses with offline runs
in :meth:`check`. Each request whose check fails, or whose response is
not ok, counts as a failed operation.

* ``paper_dse``: Table II. All five strategies on the paper's CGs that fit
  a 4x4 network, mesh and torus, plus mpeg4 x torus at ``routes=3``
  (joint mapping x routing). One request is one
  ``DesignSpaceExplorer.run``.
* ``arch_build``: opening a new 6x6 Crux mesh: path elaboration, cold
  model build with a write to a private disk cache, a read back from it,
  and one random population scored on the memory-mapped model.
* ``service_mixed``: an in-process daemon on a unix socket with a
  2-worker pool, driven by two blocking clients with a mix of
  ``evaluate``, ``distribution`` and ``optimize`` requests.
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from spans import STRATEGIES, NullRecorder

#: Requests whose results feed ``best_snr_db`` come first in a run and are
#: fixed by the seed, so the canary is deterministic per seed.
PAPER_CANARY_CYCLES = 2
ARCH_CANARY_REQUESTS = 25
SERVICE_CANARY_CYCLES = 6


class Phase:
    """What one timed loop produced."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.evals = 0
        self.wall = 0.0

    def extend(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.evals += other.evals
        self.wall += other.wall


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _request_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _same_bytes(a, b) -> bool:
    """Byte-for-byte equality of two arrays (NaN payloads included)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a.reshape(-1).view(np.uint8), b.reshape(-1).view(np.uint8))
    )


def program_counters() -> Dict[str, float]:
    """Counters the program keeps itself (read, never reset)."""
    from repro.core.pool import executor_stats
    from repro.models import coupling

    totals = executor_stats()["totals"]
    return {
        "model_builds": coupling.BUILD_COUNT,
        "pool_tasks": totals["tasks_dispatched"],
        "pool_retries": totals["tasks_retried"],
    }


class Workload:
    """Shared state: seed, private model cache, operation counts."""

    name = "?"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = int(seed)
        self.cache_dir = os.path.join(workdir, "model-cache")
        os.makedirs(self.cache_dir, exist_ok=True)
        self.attempted = 0
        self.failed = 0

    def counters(self) -> Dict[str, float]:
        return program_counters()

    def child_pids(self) -> List[int]:
        import multiprocessing

        return [p.pid for p in multiprocessing.active_children()]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# paper_dse
# ---------------------------------------------------------------------------


class PaperDSE(Workload):
    """Table II: every strategy on every 4x4 paper CG, mesh and torus."""

    name = "paper_dse"
    APPS = ("263dec_mp3dec", "263enc_mp3enc", "mpeg4", "mwd", "pip", "vopd")
    BUDGET = 1000

    def setup(self) -> None:
        from repro.analysis.experiments import build_case_study_network
        from repro.appgraph import load_benchmark
        from repro.core import DesignSpaceExplorer, MappingEvaluator, MappingProblem

        problems = []
        for app in self.APPS:
            for topology in ("mesh", "torus"):
                network = build_case_study_network(topology, 4)
                problems.append(MappingProblem(load_benchmark(app), network))
        problems.append(
            MappingProblem(
                load_benchmark("mpeg4"), build_case_study_network("torus", 4), routes=3
            )
        )
        self.explorers = [
            DesignSpaceExplorer(p, n_workers=1, model_cache_dir=self.cache_dir)
            for p in problems
        ]
        # Warm-up: the first delta use of each model builds its transpose,
        # the first strategy run of each kind touches its code paths.
        for explorer in self.explorers:
            for strategy in STRATEGIES:
                explorer.run(strategy, budget=60, seed=0)
        self.cycles_done = 0
        self.canary: List[float] = []
        # Fresh full evaluators, independent of the explorers', re-score
        # every result.
        self.oracles = [MappingEvaluator(e.problem) for e in self.explorers]

    def run(self, seconds: float, rec=None) -> Phase:
        rec = rec or NullRecorder()
        phase = Phase()
        while not phase.latencies or phase.wall < seconds or (
            self.cycles_done < PAPER_CANARY_CYCLES
        ):
            for position, (problem, strategy) in enumerate(self._cycle(self.cycles_done)):
                seed = _request_seed(self.seed, 1, self.cycles_done, position)
                rec.request_id = self.attempted
                t0 = time.perf_counter()
                result = self.explorers[problem].run(strategy, budget=self.BUDGET, seed=seed)
                elapsed = time.perf_counter() - t0
                rec.request_id = None
                phase.latencies.append(elapsed)
                phase.wall += elapsed
                phase.evals += result.evaluations
                if self.cycles_done < PAPER_CANARY_CYCLES:
                    self.canary.append(result.best_metrics.worst_snr_db)
                # Checked as it completes, outside the timed wall and
                # outside any trace: the check is not part of the request.
                rec.paused = True
                try:
                    self._check(problem, result)
                finally:
                    rec.paused = False
            self.cycles_done += 1
        return phase

    def _cycle(self, cycle: int) -> List[tuple]:
        """One Table II sweep: every (problem, strategy) pair once.

        Each pair has equal weight, and runs are made of whole cycles, so
        the mix is the same in every run. Each strategy runs as one block
        over all problems; strategies and problems come in an order drawn
        from the seed. With 13 problems per strategy the pooled latencies
        leave no gap between strategies: p50 and p90 fall where latencies
        are dense (the report prints each percentile's neighbours).
        """
        rng = _stream(self.seed, 0, cycle)
        return [
            (problem, STRATEGIES[strategy])
            for strategy in rng.permutation(len(STRATEGIES))
            for problem in rng.permutation(len(self.explorers))
        ]

    def canary_snr(self) -> float:
        return float(np.mean(self.canary))

    def _check(self, problem: int, result) -> None:
        """Re-score the best design vector with the full evaluator."""
        self.attempted += 1
        vector = result.best_mapping.assignment
        if result.route_genes is not None:
            vector = np.concatenate([vector, result.route_genes])
        rescored = self.oracles[problem].evaluate(vector)
        believed = result.history[-1][1] if result.history else np.nan
        ok = (
            result.evaluations == self.BUDGET
            and rescored.score == result.best_score
            and rescored.worst_snr_db == result.best_metrics.worst_snr_db
            and abs(believed - rescored.score) <= 1e-9
        )
        if not ok:
            self.failed += 1

    def check(self) -> None:
        pass  # every request was checked as it completed


# ---------------------------------------------------------------------------
# arch_build
# ---------------------------------------------------------------------------


class ArchBuild(Workload):
    """Open a 6x6 Crux mesh the process has never seen, end to end."""

    name = "arch_build"
    SIDE = 6
    APP = "dvopd"  # 32 tasks: the paper maps it on 6x6
    #: Population sizes, cycled by request index. The spread of request
    #: sizes keeps the latency distribution continuous, so the median
    #: moves smoothly, not in a step, when the host's speed shifts.
    POPULATIONS = (512, 2048, 4096, 6144, 8192)
    SIGMA = 0.02

    def setup(self) -> None:
        from repro.appgraph import load_benchmark

        self.cg = load_benchmark(self.APP)
        self.requests = 0
        self.canary: List[float] = []
        # Warm-up: the first cold build in a process costs about twice a
        # later one (first-touch page faults, lazy imports).
        for index in range(2):
            self._request((1, index), NullRecorder(), check=False)

    def _network(self, key):
        from repro.noc import PhotonicNoC, mesh
        from repro.photonics.parameters import PhysicalParameters, perturbed

        # Each request sweeps its own device point: a network signature
        # no cache of the process has seen.
        params = perturbed(
            PhysicalParameters(), self.SIGMA, _stream(self.seed, 2, *key)
        )
        return PhotonicNoC(mesh(self.SIDE, self.SIDE), router="crux", params=params)

    def _request(self, key, rec, check: bool, phase: Optional[Phase] = None):
        from repro.core import MappingEvaluator, MappingProblem
        from repro.models.coupling import CouplingModel, clear_model_cache

        t0 = time.perf_counter()
        network = self._network(key)
        network.all_paths()
        cold = CouplingModel.for_network(network, cache_dir=self.cache_dir)
        clear_model_cache()
        reopened = CouplingModel.for_network(network, cache_dir=self.cache_dir)
        problem = MappingProblem(self.cg, network)
        evaluator = MappingEvaluator(problem, model_cache_dir=self.cache_dir)
        size = self.POPULATIONS[key[-1] % len(self.POPULATIONS)]
        population = evaluator.random_vector_batch(size, _stream(self.seed, 3, *key))
        metrics = evaluator.evaluate_batch(population)
        elapsed = time.perf_counter() - t0
        if check:
            self.attempted += 1
            rec.paused = True  # the check is not part of the request
            try:
                if not self._check(network, problem, cold, reopened, population, metrics):
                    self.failed += 1
            finally:
                rec.paused = False
        # Opening an architecture includes releasing it: the request ends
        # with a full collection of the cyclic garbage it left (the path
        # tables), so each request pays for its own garbage once and the
        # next one starts from the same heap.
        t0 = time.perf_counter()
        del network, cold, reopened, problem, evaluator
        clear_model_cache()
        gc.collect()
        elapsed += time.perf_counter() - t0
        shutil.rmtree(self.cache_dir)
        os.makedirs(self.cache_dir)
        if phase is not None:
            phase.latencies.append(elapsed)
            phase.wall += elapsed
            phase.evals += len(population)
        return metrics

    @staticmethod
    def _check(network, problem, cold, reopened, population, metrics) -> bool:
        """Reopened model byte-equal to the cold build; identical scores."""
        from repro.core import MappingEvaluator
        from repro.models.coupling import CouplingModel

        if not isinstance(reopened.coupling_linear, np.memmap):
            return False
        for name in ("signal_linear", "insertion_loss_db", "coupling_linear"):
            if not _same_bytes(getattr(cold, name), getattr(reopened, name)):
                return False
        CouplingModel.register(CouplingModel.cache_key(network, cold.coupling_linear.dtype), cold)
        oracle = MappingEvaluator(problem).evaluate_batch(population)
        return all(
            _same_bytes(getattr(oracle, name), getattr(metrics, name))
            for name in ("worst_insertion_loss_db", "worst_snr_db", "score")
        )

    def run(self, seconds: float, rec=None) -> Phase:
        rec = rec or NullRecorder()
        phase = Phase()
        # The correctness checks run between requests; they are not part
        # of any request and are left out of the timed wall.
        while phase.wall < seconds or self.requests < ARCH_CANARY_REQUESTS:
            rec.request_id = self.requests
            metrics = self._request((0, self.requests), rec, check=True, phase=phase)
            rec.request_id = None
            if self.requests < ARCH_CANARY_REQUESTS:
                self.canary.append(float(metrics.worst_snr_db.max()))
            self.requests += 1
        return phase

    def canary_snr(self) -> float:
        return float(np.mean(self.canary))

    def check(self) -> None:
        pass  # every request was checked as it completed


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------


class ServiceMixed(Workload):
    """The daemon under two closed-loop clients."""

    name = "service_mixed"
    APP = "vopd"
    N_WORKERS = 2
    N_CLIENTS = 2
    #: One cycle of each client: every request kind once, in an order
    #: drawn from the seed. Latencies sort as evaluate < optimize <
    #: distribution (the distribution response carries every sample), so
    #: with equal weights the median falls in the middle of the optimize
    #: cluster and p90 inside the distribution one. Random search is the
    #: optimize strategy: its batches coalesce and shard like the
    #: sweeps', where the GA's per-generation Python work would contend
    #: for the interpreter lock with the daemon's threads and make the
    #: latency depend on chance overlaps.
    MIX = (
        ("evaluate", {"n_random": 256}),
        ("optimize", {"strategy": "rs", "budget": 2048}),
        ("distribution", {"samples": 4096, "batch_size": 2048}),
    )
    #: Every this many requests of a client, the response is kept and
    #: compared bit for bit with the equivalent offline run.
    SAMPLE_EVERY = 10

    def setup(self) -> None:
        from repro.service import ServiceClient, ServiceCore, ServiceServer

        self.socket_path = "service.sock"  # relative: short, inside the workdir
        self.core = ServiceCore(n_workers=self.N_WORKERS, model_cache_dir=self.cache_dir)
        self.server = ServiceServer(self.core, socket_path=self.socket_path)
        self.server.start()
        self.clients = [
            ServiceClient(socket_path=self.socket_path) for _ in range(self.N_CLIENTS)
        ]
        self.cycles = [0] * self.N_CLIENTS
        self.kept: List[tuple] = []
        self.canary: List[float] = []
        self._lock = threading.Lock()
        # Warm-up: model build, coalescer, pool spawn (a sharded flight)
        # and every request kind, once from each client.
        for client_index, client in enumerate(self.clients):
            for j, (kind, knobs) in enumerate(self.MIX):
                body = client.request(self._payload(kind, knobs, seed=j + 10 * client_index))
                if not body.get("ok"):
                    raise RuntimeError(f"warm-up request failed: {body}")

    def _payload(self, kind: str, knobs: dict, seed: int) -> dict:
        return {"kind": kind, "app": self.APP, "seed": seed, **knobs}

    def _client_loop(self, client_index: int, seconds: float, start: float, rec, phase):
        client = self.clients[client_index]
        first = True
        while first or time.perf_counter() - start < seconds or (
            self.cycles[client_index] < SERVICE_CANARY_CYCLES
        ):
            first = False
            cycle = self.cycles[client_index]
            order = _stream(self.seed, 4, client_index, cycle).permutation(len(self.MIX))
            for position, j in enumerate(order):
                kind, knobs = self.MIX[j]
                seed = _request_seed(self.seed, 5, client_index, cycle, position)
                payload = self._payload(kind, knobs, seed)
                rid = (client_index * 1000 + cycle) * len(self.MIX) + position
                traced = not isinstance(rec, NullRecorder)
                if traced:
                    rec.request_id = rid
                    payload = {**payload, "trace_id": rid}
                t0 = time.perf_counter()
                index = rec.begin("service.client")
                try:
                    body = client.request(payload)
                except Exception as error:  # noqa: BLE001 — counted as failed
                    body = {"ok": False, "error": repr(error)}
                rec.end(index)
                elapsed = time.perf_counter() - t0
                rec.request_id = None
                payload.pop("trace_id", None)
                ok = bool(body.get("ok"))
                result = body.get("result", {})
                with self._lock:
                    self.attempted += 1
                    phase.latencies.append(elapsed)
                    if not ok:
                        self.failed += 1
                        continue
                    phase.evals += self._evals(kind, result)
                    if cycle < SERVICE_CANARY_CYCLES:
                        self.canary.append(self._best_snr(kind, result))
                    if (cycle * len(self.MIX) + position) % self.SAMPLE_EVERY == 0:
                        self.kept.append((payload, self._compact(result)))
            self.cycles[client_index] += 1

    @staticmethod
    def _compact(result: dict) -> dict:
        """Float lists as float64 arrays: exact, and not scanned by the GC."""
        return {
            key: np.asarray(value, dtype=np.float64)
            if key in ("worst_snr_db", "worst_insertion_loss_db", "worst_loss_db", "score")
            and isinstance(value, list)
            else value
            for key, value in result.items()
            if key not in ("snr_summary", "loss_summary", "best_mapping")
        }

    @staticmethod
    def _evals(kind: str, result: dict) -> int:
        if kind == "evaluate":
            return int(result["n_mappings"])
        if kind == "distribution":
            return int(result["n_samples"])
        return int(result["evaluations"])

    @staticmethod
    def _best_snr(kind: str, result: dict) -> float:
        if kind == "optimize":
            return float(result["worst_snr_db"])
        return float(max(result["worst_snr_db"]))

    def run(self, seconds: float, rec=None) -> Phase:
        rec = rec or NullRecorder()
        phase = Phase()
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(i, seconds, start, rec, phase),
                name=f"bench-client-{i}",
            )
            for i in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall = time.perf_counter() - start
        return phase

    def canary_snr(self) -> float:
        return float(np.mean(self.canary))

    def counters(self) -> Dict[str, float]:
        counters = program_counters()
        stats = self.core.stats()
        totals = stats["coalescing"]["totals"]
        counters.update(
            flights=totals["flights"],
            batches=totals["batches"],
            rejected=stats["rejected_queue_full"] + self.failed,
        )
        return counters

    def check(self) -> None:
        """Compare kept responses with the equivalent offline runs."""
        from repro.analysis.distribution import random_mapping_distribution
        from repro.analysis.experiments import build_case_study_network
        from repro.appgraph import grid_side_for, load_benchmark
        from repro.core import DesignSpaceExplorer, MappingEvaluator, MappingProblem

        cg = load_benchmark(self.APP)
        network = build_case_study_network("mesh", grid_side_for(cg))
        problem = MappingProblem(cg, network)
        evaluator = MappingEvaluator(problem)
        for payload, result in self.kept:
            kind, seed = payload["kind"], payload["seed"]
            if kind == "evaluate":
                rows = evaluator.random_vector_batch(payload["n_random"], np.random.default_rng(seed))
                metrics = evaluator.evaluate_batch(rows)
                same = (
                    _same_bytes(result["worst_snr_db"], metrics.worst_snr_db)
                    and _same_bytes(result["worst_insertion_loss_db"], metrics.worst_insertion_loss_db)
                    and _same_bytes(result["score"], metrics.score)
                )
            elif kind == "distribution":
                offline = random_mapping_distribution(
                    cg, network, n_samples=payload["samples"], seed=seed,
                    batch_size=payload["batch_size"],
                )
                same = _same_bytes(result["worst_snr_db"], offline.worst_snr_db) and _same_bytes(
                    result["worst_loss_db"], offline.worst_loss_db
                )
            else:
                offline = DesignSpaceExplorer(problem).run(
                    payload["strategy"], budget=payload["budget"], seed=seed
                )
                same = (
                    result["best_score"] == float(offline.best_score)
                    and result["assignment"] == [int(t) for t in offline.best_mapping.assignment]
                    and result["evaluations"] == offline.evaluations
                    and result["history"] == [[int(n), float(s)] for n, s in offline.history]
                    and result["worst_snr_db"] == float(offline.best_metrics.worst_snr_db)
                )
            if not same:
                self.failed += 1

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


WORKLOADS = {cls.name: cls for cls in (PaperDSE, ArchBuild, ServiceMixed)}
