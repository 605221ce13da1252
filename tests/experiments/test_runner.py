"""Tests for scenario execution, serial and pooled."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ScenarioSpec,
    SweepRunner,
    expand_grid,
    run_scenario,
)


class TestPaymentsProbe:
    def test_overpayment_at_least_one(self):
        # VCG pays each transit node its cost plus a non-negative
        # premium, so total payment >= true transit cost on every
        # scenario (individual rationality).
        for seed in range(4):
            result = run_scenario(
                ScenarioSpec(topology="random", size=8, seed=seed)
            )
            assert result.ok
            assert result.values["overpayment_ratio"] >= 1.0 - 1e-9
            assert result.values["total_payment"] >= 0.0

    def test_declared_cost_rule_pays_exactly_cost(self):
        result = run_scenario(
            ScenarioSpec(
                topology="random", size=8, seed=1, payment_rule="declared-cost"
            )
        )
        assert result.ok
        assert result.values["overpayment_ratio"] == pytest.approx(1.0)

    def test_result_shape(self):
        spec = ScenarioSpec(topology="ring", size=6, seed=2, traffic="gravity")
        result = run_scenario(spec)
        assert result.scenario_id == spec.scenario_id()
        assert result.nodes == 6
        assert result.edges == 6
        assert result.flows == 30
        assert result.total_volume == pytest.approx(100.0)
        assert result.wall_time > 0
        row = result.to_row()
        assert row["scenario_id"] == result.scenario_id
        assert row["error"] == ""
        assert row["overpayment_ratio"] == result.values["overpayment_ratio"]

    def test_deterministic_across_runs(self):
        spec = ScenarioSpec(
            topology="random",
            size=10,
            seed=5,
            traffic="random-pairs",
            volume_dist="pareto",
        )
        one, two = run_scenario(spec), run_scenario(spec)
        assert one.values == two.values


class TestConvergenceProbe:
    def test_counts_positive_and_verified(self):
        result = run_scenario(
            ScenarioSpec(topology="random", size=6, seed=1, probe="convergence")
        )
        assert result.ok
        assert result.values["convergence_events"] > 0
        assert result.values["messages"] > 0

    def test_heterogeneous_delays_still_converge(self):
        result = run_scenario(
            ScenarioSpec(
                topology="random",
                size=6,
                seed=1,
                probe="convergence",
                link_delay_spread=0.8,
            )
        )
        # The convergence probe verifies routes against the oracle;
        # ok=True means the asynchronous run reached the same fixed point.
        assert result.ok


class TestDetectionProbe:
    def test_payment_underreport_detected_on_figure1(self):
        result = run_scenario(
            ScenarioSpec(
                topology="figure1",
                probe="detection",
                deviation="payment-underreport",
                deviant_index=2,  # 'C', the paper's manipulative node
            )
        )
        assert result.ok
        assert result.values["detected"] == 1.0
        assert result.values["deviator_gain"] < 0  # penalty makes it a loss

    def test_cost_lie_unprofitable_but_undetected(self):
        # Information-revelation lies are neutralised by VCG payments
        # (strategyproofness), not by the checkers: no flag, no gain.
        result = run_scenario(
            ScenarioSpec(
                topology="figure1",
                probe="detection",
                deviation="cost-lie",
                deviant_index=2,
            )
        )
        assert result.ok
        assert result.values["detected"] == 0.0
        assert result.values["deviator_gain"] <= 1e-9


class TestFaithfulnessProbe:
    def test_ring_is_faithful_on_small_catalogue(self):
        result = run_scenario(
            ScenarioSpec(topology="ring", size=4, seed=0, probe="faithfulness")
        )
        assert result.ok
        assert result.values["faithful"] == 1.0
        assert result.values["ic_holds"] == 1.0
        assert result.values["cc_holds"] == 1.0
        assert result.values["ac_holds"] == 1.0
        assert result.values["equilibrium_violations"] == 0.0

    def test_explicit_catalogue_subset(self):
        result = run_scenario(
            ScenarioSpec(
                topology="ring",
                size=4,
                seed=1,
                probe="faithfulness",
                faithfulness_deviations=("cost-lie",),
            )
        )
        assert result.ok
        assert result.values["faithful"] == 1.0


class TestSweepRunner:
    def _grid(self, count=6):
        return expand_grid(
            base={"topology": "random", "size": 6},
            axes={"seed": list(range(count))},
        )

    def test_serial_preserves_grid_order(self):
        scenarios = self._grid()
        results = SweepRunner(scenarios, workers=1).run()
        assert [r.spec for r in results] == scenarios

    def test_pooled_matches_serial(self):
        scenarios = self._grid()
        serial = SweepRunner(scenarios, workers=1).run()
        pooled = SweepRunner(scenarios, workers=2).run()
        assert [r.scenario_id for r in pooled] == [
            r.scenario_id for r in serial
        ]
        for a, b in zip(serial, pooled):
            assert a.values["total_payment"] == pytest.approx(
                b.values["total_payment"]
            )
            assert a.values["overpayment_ratio"] == pytest.approx(
                b.values["overpayment_ratio"]
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError):
            SweepRunner([], workers=1)

    def test_negative_workers_rejected(self):
        with pytest.raises(ExperimentError):
            SweepRunner(self._grid(2), workers=-1)

    def test_invalid_scenario_rejected_up_front(self):
        with pytest.raises(ExperimentError):
            SweepRunner([ScenarioSpec(topology="torus")], workers=1)

    def test_generator_failure_captured_per_cell(self):
        # A zero anchor passes spec validation but makes the pareto
        # cost draw raise at build time; that must become one error row
        # while the rest of the grid completes.
        scenarios = expand_grid(
            base={"topology": "random", "size": 6, "cost_dist": "pareto"},
            axes={"cost_low": [0.0, 1.0], "seed": [0, 1]},
        )
        results = SweepRunner(scenarios, workers=1).run()
        failed = [r for r in results if not r.ok]
        assert len(failed) == 2
        assert all("positive anchor" in r.error for r in failed)
        assert all(r.spec.cost_low == 0.0 for r in failed)
        assert all(r.ok for r in results if r.spec.cost_low == 1.0)

    def test_failed_scenario_captured_not_raised(self, monkeypatch):
        # A probe-level ReproError lands in the result's error field
        # instead of sinking the sweep.
        from repro.errors import ConvergenceError
        from repro.experiments import runner as runner_module

        def explode(spec, graph, traffic):
            raise ConvergenceError("event budget exhausted")

        monkeypatch.setitem(runner_module._PROBES, "payments", explode)
        results = SweepRunner(self._grid(2), workers=1).run()
        assert all(not r.ok for r in results)
        assert all("event budget" in r.error for r in results)
        assert all(r.to_row()["error"] for r in results)
