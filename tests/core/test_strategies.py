"""Random search, simulated annealing, tabu search, registry, explorer."""

import numpy as np
import pytest

from repro.core import (
    DesignSpaceExplorer,
    MappingProblem,
    MappingStrategy,
    PAPER_STRATEGIES,
    available_strategies,
    create_strategy,
    register_strategy,
)
from repro.core.mapping import random_assignment
from repro.core.strategy import BestTracker
from repro.errors import ConfigurationError, OptimizationError


@pytest.fixture()
def explorer(pip_cg, mesh3_network):
    return DesignSpaceExplorer(MappingProblem(pip_cg, mesh3_network))


class TestRandomSearch:
    def test_exact_budget(self, explorer):
        result = explorer.run("rs", budget=555, seed=0)
        assert result.evaluations == 555

    def test_best_of_batch_kept(self, explorer):
        result = explorer.run("rs", budget=2000, seed=1)
        assert np.isfinite(result.best_score) or result.best_score > 0

    def test_more_budget_never_worse(self, explorer):
        small = explorer.run("rs", budget=200, seed=9)
        large = explorer.run("rs", budget=4000, seed=9)
        assert large.best_score >= small.best_score


class TestSimulatedAnnealing:
    def test_respects_budget(self, explorer):
        result = explorer.run("sa", budget=600, seed=0)
        assert result.evaluations <= 600

    def test_improves(self, explorer):
        result = explorer.run("sa", budget=3000, seed=2)
        assert result.best_score >= result.history[0][1]

    def test_proposals_valid(self, pip_cg, rng):
        from repro.core import SimulatedAnnealing

        strategy = SimulatedAnnealing()
        assignment = random_assignment(8, 9, rng)
        for _ in range(200):
            proposal = strategy._propose(assignment, 9, rng)
            assert len(np.unique(proposal)) == 8
            assert proposal.min() >= 0 and proposal.max() < 9

    def test_hyperparameter_validation(self):
        from repro.core import SimulatedAnnealing

        with pytest.raises(OptimizationError):
            SimulatedAnnealing(calibration_samples=1)
        with pytest.raises(OptimizationError):
            SimulatedAnnealing(final_temperature_ratio=2.0)

    def test_budget_of_one_not_overspent_by_calibration(self, explorer):
        """Calibration is clamped to the budget: a budget of 1 spends
        exactly 1 evaluation, not a 2-sample calibration batch."""
        result = explorer.run("sa", budget=1, seed=0)
        assert result.evaluations == 1


class TestTabuSearch:
    def test_respects_budget(self, explorer):
        result = explorer.run("tabu", budget=800, seed=0)
        assert result.evaluations <= 800

    def test_improves(self, explorer):
        result = explorer.run("tabu", budget=3000, seed=4)
        assert result.best_score >= result.history[0][1]

    def test_hyperparameter_validation(self):
        from repro.core import TabuSearch

        with pytest.raises(OptimizationError):
            TabuSearch(neighbourhood_size=0)
        with pytest.raises(OptimizationError):
            TabuSearch(tenure=0)

    def test_reversal_keys_cover_both_swap_tasks(self):
        """Undoing a swap can be keyed with either task as the primary
        ((a, old_a, b) and (b, old_b, a) are the same swap), so both
        tasks' return keys must go tabu; a relocation has one."""
        from repro.core import TabuSearch

        current = np.array([4, 7, 2, 0], dtype=np.int64)
        swap = (1, 2, 2)  # task 1 onto task 2's tile
        assert TabuSearch._reversal_keys(swap, current) == [(1, 7), (2, 2)]
        relocation = (3, 5, -1)
        assert TabuSearch._reversal_keys(relocation, current) == [(3, 0)]

    @pytest.mark.parametrize("use_delta", [True, False])
    def test_partner_cannot_undo_swap_next_iteration(
        self, pip_cg, mesh3_network, monkeypatch, use_delta
    ):
        """Regression: with only the primary task's key pushed, a swap
        expressed with the partner task as the primary — legal under the
        ``Move`` contract, though today's ``swap_moves`` enumeration
        happens to canonicalize orientation — was admissible on the very
        next iteration and undid the move. Script two neighbourhoods — a
        forced swap, then its partner-orientation reversal next to a
        decoy — and require the search to take the decoy (the reversal
        cannot aspire: the undone assignment's score never strictly
        beats the incumbent best)."""
        import repro.core.tabu as tabu_module

        state = {"step": 0}

        def scripted_moves(assignment, n_tiles):
            step = state["step"]
            state["step"] = step + 1
            if step == 0:
                state["initial"] = assignment.copy()
                tile0, tile1 = int(assignment[0]), int(assignment[1])
                occupied = {int(tile) for tile in assignment}
                state["empty"] = next(
                    tile for tile in range(n_tiles) if tile not in occupied
                )
                # Swap tasks 0 and 1 with task 1 as the primary...
                return [(1, tile0, 0)]
            if step == 1:
                # ...then offer the same swap with task 0 as the primary
                # (the partner-orientation undo) plus a decoy relocation.
                tile0 = int(state["initial"][0])
                return [(0, tile0, 1), (2, state["empty"], -1)]
            return []  # ends the search

        trail = []
        real_apply = tabu_module.apply_move

        def recording_apply(assignment, move):
            result = real_apply(assignment, move)
            trail.append(result.copy())
            return result

        monkeypatch.setattr(tabu_module, "swap_moves", scripted_moves)
        monkeypatch.setattr(tabu_module, "apply_move", recording_apply)
        problem = MappingProblem(pip_cg, mesh3_network)
        # Seed 1: the reversal scores strictly higher than the decoy, so
        # a bookkeeping hole would make the search take the undo.
        DesignSpaceExplorer(problem, use_delta=use_delta).run(
            "tabu", budget=16, seed=1
        )
        assert len(trail) == 2
        assert not np.array_equal(trail[1], state["initial"]), (
            "the partner-orientation reversal undid the swap"
        )


class TestRegistry:
    def test_paper_strategies_registered(self):
        for name in PAPER_STRATEGIES:
            assert name in available_strategies()

    def test_extensions_registered(self):
        assert "sa" in available_strategies()
        assert "tabu" in available_strategies()

    def test_create_with_hyperparameters(self):
        strategy = create_strategy("ga", population_size=10)
        assert strategy.population_size == 10

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            create_strategy("gradient_descent")

    def test_custom_strategy_plugs_in(self, explorer):
        class FirstRandom(MappingStrategy):
            name = "first_random_test"

            def _run(self, evaluator, budget, rng):
                tracker = BestTracker(evaluator)
                assignment = random_assignment(
                    evaluator.n_tasks, evaluator.n_tiles, rng
                )
                score = evaluator.evaluate_batch(assignment[None, :]).score[0]
                tracker.offer(assignment, float(score))
                return tracker.result(self.name)

        register_strategy("first_random_test", FirstRandom, overwrite=True)
        result = explorer.run("first_random_test", budget=10, seed=0)
        assert result.evaluations == 1

    def test_duck_typed_strategy_without_chain_attributes(self, explorer):
        """A plugin that does not subclass MappingStrategy has none of
        the chain-decomposition attributes; the explorer must treat it
        as non-decomposable (sequential) instead of raising, whatever
        ``n_workers`` says."""

        class DuckStrategy:
            name = "duck_typed_test"

            def optimize(self, evaluator, budget, rng=None, use_delta=True):
                rng = rng if rng is not None else np.random.default_rng()
                evaluator.reset_count()
                tracker = BestTracker(evaluator)
                assignment = random_assignment(
                    evaluator.n_tasks, evaluator.n_tiles, rng
                )
                score = evaluator.evaluate_batch(assignment[None, :]).score[0]
                tracker.offer(assignment, float(score))
                return tracker.result(self.name)

        register_strategy("duck_typed_test", DuckStrategy, overwrite=True)
        result = explorer.run("duck_typed_test", budget=10, seed=0,
                              n_workers=4)
        assert result.evaluations == 1


class TestExplorer:
    def test_compare_gives_equal_budget(self, explorer):
        results = explorer.compare(("rs", "r-pbla"), budget=400, seed=0)
        assert set(results) == {"rs", "r-pbla"}
        for result in results.values():
            assert result.evaluations <= 400

    def test_compare_default_strategies(self, explorer):
        results = explorer.compare(budget=300, seed=1)
        assert set(results) == set(PAPER_STRATEGIES)

    def test_run_rejects_params_with_instance(self, explorer):
        from repro.core import RandomSearch

        with pytest.raises(OptimizationError):
            explorer.run(RandomSearch(), budget=10, population=4)

    def test_zero_budget_rejected(self, explorer):
        with pytest.raises(OptimizationError):
            explorer.run("rs", budget=0)

    def test_optimizers_beat_random_search_on_average(self, explorer):
        """The paper's central claim, in miniature: heuristics beat RS."""
        budget = 2500
        rs = explorer.run("rs", budget=budget, seed=5)
        pbla = explorer.run("r-pbla", budget=budget, seed=5)
        assert pbla.best_score >= rs.best_score - 1.0

    def test_result_summary_readable(self, explorer):
        result = explorer.run("rs", budget=100, seed=0)
        text = result.summary()
        assert "rs" in text
        assert "evaluations" in text
