"""Unit tests for the Gillespie SSA simulator."""

import warnings

import numpy as np
import pytest

from repro import ModelBuilder
from repro.corpus import glycolysis_upper
from repro.errors import SimulationError
from repro.sim import GillespieSimulator, simulate_stochastic


def birth_death_model(birth=5.0, death=0.1, start=0.0):
    return (
        ModelBuilder("bd")
        .compartment("cell", size=1.0)
        .species("X", start, amount=True)
        .parameter("kb", birth)
        .parameter("kd", death)
        .reaction("birth", [], ["X"], formula="kb")
        .mass_action("death", ["X"], [], "kd")
        .build()
    )


def decay_model(k=0.5, start=1000.0):
    return (
        ModelBuilder("dec")
        .compartment("cell", size=1.0)
        .species("A", start, amount=True)
        .parameter("k", k)
        .mass_action("r", ["A"], [], "k")
        .build()
    )


class TestSSABasics:
    def test_deterministic_with_seed(self):
        model = decay_model()
        a = GillespieSimulator(model).run(2.0, np.random.default_rng(42))
        b = GillespieSimulator(model).run(2.0, np.random.default_rng(42))
        assert np.array_equal(a.column("A"), b.column("A"))

    def test_different_seeds_differ(self):
        model = decay_model()
        a = GillespieSimulator(model).run(2.0, np.random.default_rng(1))
        b = GillespieSimulator(model).run(2.0, np.random.default_rng(2))
        assert not np.array_equal(a.column("A"), b.column("A"))

    def test_counts_are_integers(self):
        trace = GillespieSimulator(decay_model()).run(
            1.0, np.random.default_rng(0)
        )
        values = trace.column("A")
        assert np.allclose(values, np.round(values))

    def test_decay_is_monotone_nonincreasing(self):
        trace = GillespieSimulator(decay_model()).run(
            5.0, np.random.default_rng(3)
        )
        diffs = np.diff(trace.column("A"))
        assert np.all(diffs <= 0)

    def test_absorbing_state_fills_tail(self):
        # All molecules decay; the trace must extend to t_end.
        trace = GillespieSimulator(decay_model(k=50.0, start=10.0)).run(
            10.0, np.random.default_rng(5)
        )
        assert trace.times[-1] == pytest.approx(10.0)
        assert trace.final()["A"] == 0.0

    def test_mean_decay_matches_ode(self):
        # Ensemble mean of the SSA tracks the deterministic solution.
        model = decay_model(k=1.0, start=500.0)
        traces = simulate_stochastic(model, t_end=1.0, runs=40, seed=7)
        finals = [t.final()["A"] for t in traces]
        expected = 500.0 * np.exp(-1.0)
        assert np.mean(finals) == pytest.approx(expected, rel=0.1)

    def test_birth_death_stationary_mean(self):
        # Birth-death stationary mean is kb/kd.
        model = birth_death_model(birth=5.0, death=0.1)
        traces = simulate_stochastic(model, t_end=100.0, runs=20, seed=11)
        finals = [t.final()["X"] for t in traces]
        assert np.mean(finals) == pytest.approx(50.0, rel=0.2)

    def test_boundary_species_not_consumed(self):
        model = (
            ModelBuilder("b")
            .compartment("cell", size=1.0)
            .species("S", 100.0, amount=True, boundary=True)
            .species("P", 0.0, amount=True)
            .parameter("k", 0.5)
            .mass_action("r", ["S"], ["P"], "k")
            .build()
        )
        trace = GillespieSimulator(model).run(2.0, np.random.default_rng(1))
        assert np.all(trace.column("S") == 100.0)
        assert trace.final()["P"] > 0


class TestSSAValidation:
    def test_no_reactions_rejected(self):
        model = (
            ModelBuilder("empty")
            .compartment("cell", size=1.0)
            .species("A", 1.0, amount=True)
            .build()
        )
        with pytest.raises(SimulationError):
            GillespieSimulator(model)

    def test_negative_t_end_rejected(self):
        with pytest.raises(SimulationError):
            GillespieSimulator(decay_model()).run(-1.0)

    @pytest.mark.parametrize(
        "t_end, grid_points, named",
        [
            (float("nan"), 101, "t_end"),
            (float("inf"), 101, "t_end"),
            (1.0, 0, "grid_points"),
            (1.0, -1, "grid_points"),
        ],
        ids=["nan-t_end", "inf-t_end", "zero-grid", "negative-grid"],
    )
    def test_hostile_run_arguments_rejected(self, t_end, grid_points, named):
        # A SimulationError naming the argument, before numpy sees it
        # (no RuntimeWarning, no ValueError, no empty trace).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=named):
                simulate_stochastic(
                    glycolysis_upper(), t_end, grid_points=grid_points
                )

    def test_max_events_guard(self):
        model = birth_death_model(birth=1e6, death=0.0)
        with pytest.raises(SimulationError):
            GillespieSimulator(model).run(
                10.0, np.random.default_rng(0), max_events=100
            )

    def test_run_many_deterministic_sequence(self):
        model = decay_model()
        first = GillespieSimulator(model).run_many(3, 1.0, seed=9)
        second = GillespieSimulator(model).run_many(3, 1.0, seed=9)
        for a, b in zip(first, second):
            assert np.array_equal(a.column("A"), b.column("A"))
