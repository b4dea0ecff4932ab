"""Stochastic simulation: Gillespie's direct method (SSA).

The paper's §4.1.4 evaluation uses the Monte Carlo Model Checker MC2,
which judges PLTL properties over sets of stochastic simulation runs;
this module provides those runs.  Propensities are evaluated from the
model's kinetic laws with the current molecule counts, so mass-action
models behave exactly as in Wilkinson's formulation the paper cites
for its Figure 6.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MathError, SimulationError
from repro.mathml.evaluator import Evaluator
from repro.sbml.model import Model
from repro.sim.trace import Trace

__all__ = ["GillespieSimulator", "simulate_stochastic"]


class GillespieSimulator:
    """Stochastic simulator bound to one model.

    Species values are interpreted as *molecule counts*; models using
    initial concentrations are converted by rounding
    ``concentration × volume_scale`` (``volume_scale`` defaults to 1,
    letting dimensionless toy models run unchanged — callers merging
    real concentration models should rescale, per Figure 6).
    """

    def __init__(self, model: Model, volume_scale: float = 1.0):
        self.model = model
        self.volume_scale = volume_scale
        self.evaluator = Evaluator(model.function_table())
        self._build()

    def _build(self) -> None:
        model = self.model
        self.species_ids = [s.id for s in model.species if s.id]
        self._dynamic = {
            s.id
            for s in model.species
            if s.id and not s.constant and not s.boundary_condition
        }
        self._reactions: List[Tuple[object, Dict[str, float], Dict[str, float]]] = []
        for reaction in model.reactions:
            law = reaction.kinetic_law
            if law is None or law.math is None:
                continue
            locals_env = {
                parameter.id: parameter.value
                for parameter in law.parameters
                if parameter.id is not None and parameter.value is not None
            }
            deltas: Dict[str, float] = {}
            for reference in reaction.reactants:
                deltas[reference.species] = (
                    deltas.get(reference.species, 0.0) - reference.stoichiometry
                )
            for reference in reaction.products:
                deltas[reference.species] = (
                    deltas.get(reference.species, 0.0) + reference.stoichiometry
                )
            self._reactions.append((law.math, locals_env, deltas))
        if not self._reactions:
            raise SimulationError(
                "model has no kinetic laws; nothing to simulate"
            )

    def initial_counts(self) -> Dict[str, float]:
        """Molecule counts at t = 0."""
        counts: Dict[str, float] = {}
        for species in self.model.species:
            if species.id is None:
                continue
            if species.initial_amount is not None:
                counts[species.id] = float(round(species.initial_amount))
            elif species.initial_concentration is not None:
                counts[species.id] = float(
                    round(species.initial_concentration * self.volume_scale)
                )
            else:
                counts[species.id] = 0.0
        return counts

    def _base_env(self) -> Dict[str, float]:
        env: Dict[str, float] = {"time": 0.0}
        for compartment in self.model.compartments:
            if compartment.id is not None:
                env[compartment.id] = (
                    compartment.size if compartment.size is not None else 1.0
                )
        for parameter in self.model.parameters:
            if parameter.id is not None:
                env[parameter.id] = (
                    parameter.value if parameter.value is not None else 0.0
                )
        return env

    def run(
        self,
        t_end: float,
        rng: Optional[np.random.Generator] = None,
        grid_points: int = 101,
        max_events: int = 1_000_000,
    ) -> Trace:
        """One SSA trajectory, sampled onto a uniform grid.

        The trajectory is piecewise constant; sampling uses the value
        in force at each grid time.
        """
        if not (np.isfinite(t_end) and t_end > 0):
            raise SimulationError(
                f"t_end must be finite and positive, got {t_end}"
            )
        if grid_points < 1:
            raise SimulationError(
                f"grid_points must be at least 1, got {grid_points}"
            )
        rng = rng if rng is not None else np.random.default_rng()
        counts = self.initial_counts()
        base_env = self._base_env()
        grid = np.linspace(0.0, t_end, grid_points)
        samples = {name: np.empty(grid_points) for name in self.species_ids}
        grid_index = 0
        t = 0.0
        events = 0

        def record_until(limit: float) -> None:
            nonlocal grid_index
            while grid_index < grid_points and grid[grid_index] <= limit:
                for name in self.species_ids:
                    samples[name][grid_index] = counts[name]
                grid_index += 1

        while t < t_end:
            if events >= max_events:
                raise SimulationError(
                    f"SSA exceeded {max_events} events at t={t:g}"
                )
            env = dict(base_env)
            env.update(counts)
            env["time"] = t
            propensities = []
            for math, locals_env, _ in self._reactions:
                call_env = dict(env, **locals_env) if locals_env else env
                try:
                    a = self.evaluator.evaluate(math, call_env)
                except MathError as exc:
                    raise SimulationError(
                        f"propensity evaluation failed: {exc}"
                    ) from exc
                propensities.append(max(0.0, a))
            total = float(sum(propensities))
            if total <= 0.0:
                break  # absorbed: nothing can fire any more
            wait = rng.exponential(1.0 / total)
            next_t = t + wait
            record_until(min(next_t, t_end))
            if next_t > t_end:
                t = t_end
                break
            choice = rng.uniform(0.0, total)
            cumulative = 0.0
            chosen = len(self._reactions) - 1
            for index, a in enumerate(propensities):
                cumulative += a
                if choice <= cumulative:
                    chosen = index
                    break
            _, _, deltas = self._reactions[chosen]
            for species_id, delta in deltas.items():
                if species_id in self._dynamic:
                    counts[species_id] = max(
                        0.0, counts[species_id] + delta
                    )
            t = next_t
            events += 1
        record_until(t_end)
        # Fill any tail (absorbed state) with the final counts.
        while grid_index < grid_points:
            for name in self.species_ids:
                samples[name][grid_index] = counts[name]
            grid_index += 1
        return Trace(grid, samples)

    def run_many(
        self,
        runs: int,
        t_end: float,
        seed: int = 0,
        grid_points: int = 101,
    ) -> List[Trace]:
        """Independent trajectories with a seeded generator sequence
        (deterministic across processes — benchmarks rely on it)."""
        return [
            self.run(
                t_end,
                rng=np.random.default_rng(seed + index),
                grid_points=grid_points,
            )
            for index in range(runs)
        ]


def simulate_stochastic(
    model: Model,
    t_end: float,
    runs: int = 1,
    seed: int = 0,
    grid_points: int = 101,
) -> List[Trace]:
    """One-call SSA simulation returning ``runs`` trajectories."""
    simulator = GillespieSimulator(model)
    return simulator.run_many(runs, t_end, seed, grid_points)
