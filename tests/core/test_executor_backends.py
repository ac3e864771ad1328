"""Executor-protocol tests: backends, pool keys, and failure recovery.

Covers the local side of the executor abstraction — the
:class:`InlineBackend`, the pool-key / registry plumbing,
:func:`executor_stats` — plus the regression tests for backend-owned
failure handling: a killed pool worker mid-batch (or mid-compare) is
absorbed by exactly one automatic resubmission against the rebuilt
pool, with bit-identical results — the contract of
:func:`repro.core.pool.submit_tasks`, the one dispatch path.
"""

from __future__ import annotations

import os
import signal
import time

from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph.benchmarks import grid_side_for, load_benchmark
from repro.core import pool as pool_registry
from repro.core.dse import DesignSpaceExplorer
from repro.core.evaluator import MappingEvaluator
from repro.core.executor import InlineBackend, LocalProcessBackend
from repro.core.mapping import random_assignment_batch
from repro.core.pool import (
    executor_stats,
    get_pool,
    pool_key,
    release_pools,
    shutdown_pools,
    submit_tasks,
)
from repro.core.problem import MappingProblem


@pytest.fixture(scope="module")
def problem():
    cg = load_benchmark("mwd")
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    return MappingProblem(cg, network, "snr")


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    shutdown_pools()


def _rows(problem, n, seed):
    rng = np.random.default_rng(seed)
    return random_assignment_batch(n, problem.cg.n_tasks, problem.n_tiles, rng)


def _kill_one_pool_worker(pool) -> None:
    """SIGKILL one live process of a local pool (spawning it first)."""
    executor = pool.executor
    executor.submit(os.getpid).result()  # force at least one worker up
    pid = next(iter(executor._processes))
    os.kill(pid, signal.SIGKILL)
    time.sleep(0.1)  # let the executor's management thread notice


class TestPoolKey:
    def test_executor_spec_is_the_last_component(self, problem):
        key = pool_key(problem, np.float64, 2)
        assert key[-1] == "local"
        inline = pool_key(problem, np.float64, 2, executor="inline")
        assert inline[:-1] == key[:-1]
        assert inline[-1] == "inline"

    def test_objective_free_prefix_is_stable(self, problem):
        # The service coalescer groups on key[:5]; appending the
        # executor spec must not have changed that prefix's meaning.
        key = pool_key(problem, np.float64, 1, "dense")
        assert key[2] == "float64"
        assert key[3] == "dense"
        assert key[4] == ""  # no variation spec on this problem
        assert len(key) == 7

    def test_variation_fingerprint_in_the_key(self, problem):
        from repro.photonics import VariationSpec

        varied = MappingProblem(
            problem.cg,
            problem.network,
            "robust_snr",
            variation=VariationSpec(n_samples=4, seed=3),
        )
        key = pool_key(varied, np.float64, 1, "dense")
        assert key[4] == varied.variation_fingerprint
        assert key[4].startswith("n=4,")
        # The fingerprint is objective-free context: same spec, same slot.
        assert key[:4] == pool_key(problem, np.float64, 1, "dense")[:4]

    def test_tcp_spec_is_normalized_into_the_key(self, problem):
        key = pool_key(problem, np.float64, 2, executor="tcp://h:9")
        assert key[-1] == "tcp://h:9"


class TestInlineBackend:
    def test_get_pool_dispatches_to_inline(self, problem):
        pool = get_pool(problem, np.float64, 2, "dense", executor="inline")
        assert isinstance(pool, InlineBackend)
        assert pool.kind == "inline"
        # Same spec: same instance. Different spec: different backend.
        assert get_pool(problem, np.float64, 2, "dense", executor="inline") is pool
        local = get_pool(problem, np.float64, 2, "dense")
        assert isinstance(local, LocalProcessBackend)
        assert local is not pool

    def test_inline_futures_complete_synchronously(self, problem):
        from repro.core.parallel import evaluate_shard_task

        pool = get_pool(problem, np.float64, 2, "dense", executor="inline")
        rows = _rows(problem, 8, seed=1)
        future = pool.submit(evaluate_shard_task, rows)
        assert future.done()
        tables = future.result()
        reference = MappingEvaluator(problem)._evaluate_rows(rows)
        for expected, got in zip(reference, tables):
            np.testing.assert_array_equal(expected, got)
        assert pool.tasks_dispatched == 1

    def test_inline_task_error_does_not_break_the_backend(self, problem):
        from repro.core.parallel import evaluate_shard_task

        pool = get_pool(problem, np.float64, 2, "dense", executor="inline")
        future = pool.submit(evaluate_shard_task, "not an array")
        assert future.exception() is not None
        assert not pool.broken  # task-level failure, not executor-level

    def test_closed_inline_backend_is_replaced(self, problem):
        pool = get_pool(problem, np.float64, 2, "dense", executor="inline")
        pool.close()
        assert not pool.alive()
        with pytest.raises(RuntimeError):
            pool.submit(os.getpid)
        assert pool.broken  # submit-time failure marks it
        rebuilt = get_pool(problem, np.float64, 2, "dense", executor="inline")
        assert rebuilt is not pool

    def test_evaluator_inline_matches_sequential(self, problem):
        rows = _rows(problem, 256, seed=5)
        sequential = MappingEvaluator(problem).evaluate_batch(rows)
        inline = MappingEvaluator(
            problem, n_workers=4, executor="inline"
        ).submit_batch(rows, min_shard_rows=32).result()
        np.testing.assert_array_equal(sequential.score, inline.score)
        np.testing.assert_array_equal(
            sequential.worst_snr_db, inline.worst_snr_db
        )


class TestExecutorStats:
    def test_stats_snapshot_live_backends(self, problem):
        get_pool(problem, np.float64, 2, "dense", executor="inline")
        stats = executor_stats()
        kinds = [entry["kind"] for entry in stats["backends"]]
        assert "inline" in kinds
        assert set(stats["totals"]) == {
            "tasks_dispatched", "tasks_retried", "workers",
            "tasks_degraded", "degraded",
        }

    def test_stats_skips_registry_stand_ins(self, problem):
        class Fake:
            broken = False

            def close(self, wait=True):
                pass

        key = ("fake", "fake")
        pool_registry._register_pool(key, Fake())
        try:
            executor_stats()  # must not raise on info-less stand-ins
        finally:
            pool_registry._POOLS.pop(key, None)


class TestBrokenPoolRecovery:
    """Satellite: one automatic resubmit against the rebuilt pool."""

    def test_batch_survives_worker_killed_mid_batch(self, problem):
        rows = _rows(problem, 512, seed=9)
        reference = MappingEvaluator(problem).evaluate_batch(rows)
        evaluator = MappingEvaluator(problem, n_workers=2)
        # Warm the pool, then kill one of its workers: the in-flight
        # futures fail with BrokenProcessPool and the pending batch must
        # transparently resubmit against the rebuilt pool.
        pool = get_pool(
            problem, np.float64, 2, evaluator.backend,
            model_cache_dir=evaluator.model_cache_dir,
        )
        _kill_one_pool_worker(pool)
        metrics = evaluator.submit_batch(rows, min_shard_rows=32).result()
        np.testing.assert_array_equal(reference.score, metrics.score)
        np.testing.assert_array_equal(
            reference.worst_snr_db, metrics.worst_snr_db
        )
        assert pool.broken
        rebuilt = get_pool(
            problem, np.float64, 2, evaluator.backend,
            model_cache_dir=evaluator.model_cache_dir,
        )
        assert rebuilt is not pool
        assert not rebuilt.broken

    def test_task_error_is_not_retried(self, problem):
        # A deterministic task-level failure would fail identically on a
        # fresh pool: it must surface at once, with no resubmission.
        calls = []

        def failing(value):
            calls.append(value)
            raise ValueError("deterministic")

        tasks = submit_tasks(
            failing, [(1,), (2,)], problem, np.float64, 2, executor="inline"
        )
        with pytest.raises(ValueError):
            tasks.results()
        assert calls == [1, 2]  # never resubmitted
        backend = get_pool(problem, np.float64, 2, executor="inline")
        assert not backend.broken
        assert backend.tasks_retried == 0

    def test_executor_failure_is_resubmitted_exactly_once(self, problem):
        seen = []

        def dies_first_time(value):
            seen.append(value)
            if seen.count(value) == 1:
                raise BrokenProcessPool("worker died")
            return value * 10

        first = get_pool(problem, np.float64, 2, executor="inline")
        tasks = submit_tasks(
            dies_first_time, [(1,), (2,), (3,)], problem, np.float64, 2,
            executor="inline",
        )
        assert first.broken  # the done-callback saw BrokenExecutor
        assert tasks.results() == [10, 20, 30]
        assert seen == [1, 2, 3, 1, 2, 3]
        fresh = get_pool(problem, np.float64, 2, executor="inline")
        assert fresh is not first
        assert fresh.tasks_retried == 3  # one per resubmitted task
        assert executor_stats()["totals"]["tasks_retried"] == 3

    def test_second_executor_failure_surfaces(self, problem):
        calls = []

        def always_dies(value):
            calls.append(value)
            raise BrokenProcessPool("worker died")

        tasks = submit_tasks(
            always_dies, [(1,), (2,)], problem, np.float64, 2,
            executor="inline",
        )
        with pytest.raises(BrokenProcessPool):
            tasks.results()
        assert calls == [1, 2, 1, 2]  # the one resubmission, no more

    def test_dse_absorbs_release_racing_submit(self, problem, monkeypatch):
        """A ``release_pools`` landing between fetching a pool and
        submitting to it must cost a re-fetch, never the run."""
        reference = DesignSpaceExplorer(
            problem, n_workers=2, executor="inline"
        ).compare(["rs", "ga"], budget=200, seed=5)
        real_get_pool = pool_registry.get_pool
        races = []

        def racing_get_pool(problem, *args, **kwargs):
            pool = real_get_pool(problem, *args, **kwargs)
            if not races:
                races.append(pool)
                release_pools(problem)  # closes the pool just handed out
            return pool

        monkeypatch.setattr(pool_registry, "get_pool", racing_get_pool)
        explorer = DesignSpaceExplorer(problem, n_workers=2, executor="inline")
        results = explorer.compare(["rs", "ga"], budget=200, seed=5)
        assert len(races) == 1 and not races[0].alive()
        for name in reference:
            assert results[name].best_score == reference[name].best_score
            assert results[name].history == reference[name].history

    def test_dse_compare_survives_worker_kill(self, problem):
        explorer = DesignSpaceExplorer(problem, n_workers=2)
        reference = DesignSpaceExplorer(
            problem, n_workers=2, executor="inline"
        ).compare(["rs", "ga"], budget=400, seed=13)
        pool = get_pool(
            problem, np.float64, 2, explorer.backend,
            model_cache_dir=explorer.model_cache_dir,
        )
        _kill_one_pool_worker(pool)
        results = explorer.compare(["rs", "ga"], budget=400, seed=13)
        for name in reference:
            assert results[name].best_score == reference[name].best_score
            assert results[name].history == reference[name].history
            assert results[name].evaluations == reference[name].evaluations
        assert pool.broken

    def test_dse_chain_run_survives_worker_kill(self, problem):
        explorer = DesignSpaceExplorer(problem, n_workers=2)
        reference = DesignSpaceExplorer(problem, n_workers=2).run(
            "sa", budget=600, seed=21
        )
        pool = get_pool(
            problem, np.float64, 2, explorer.backend,
            model_cache_dir=explorer.model_cache_dir,
        )
        _kill_one_pool_worker(pool)
        result = explorer.run("sa", budget=600, seed=21)
        assert result.best_score == reference.best_score
        assert result.evaluations == reference.evaluations
        assert result.history == reference.history
