"""Deterministic (ODE) simulation of SBML models.

Builds the rate equations from a model's reactions, rules and events,
then integrates them with the library's RK4/RKF45 integrators.  The
simulator covers the SBML subset the corpus and examples use:

* mass-action and Michaelis–Menten kinetic laws (paper Figs 10-12) and
  arbitrary MathML rate expressions,
* reaction-local parameters (shadowing globals),
* assignment rules (recomputed at every evaluation), rate rules,
* initial assignments (evaluated once at t=0),
* events with optional delays, firing on a rising trigger edge,
* concentration- and amount-based species (a kinetic law yields
  substance/time; concentration species divide by compartment volume).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MathError, SimulationError
from repro.mathml.ast import MathNode
from repro.mathml.evaluator import Evaluator
from repro.sbml.components import AssignmentRule, RateRule
from repro.sbml.model import Model
from repro.sim.integrators import rk4
from repro.sim.trace import Trace

__all__ = ["OdeSimulator", "simulate"]


class OdeSimulator:
    """Deterministic simulator bound to one model."""

    def __init__(self, model: Model):
        self.model = model
        self.evaluator = Evaluator(model.function_table())
        self._build()

    # ------------------------------------------------------------------

    def _build(self) -> None:
        model = self.model
        rate_ruled = {
            rule.variable
            for rule in model.rules
            if isinstance(rule, RateRule) and rule.variable
        }
        assigned = {
            rule.variable
            for rule in model.rules
            if isinstance(rule, AssignmentRule) and rule.variable
        }

        # Dynamic state: species changed by reactions or rate rules,
        # plus any parameter/compartment under a rate rule.  Boundary
        # and constant species stay fixed unless a rate rule drives
        # them; assignment-ruled quantities are derived, not state.
        self.state_ids: List[str] = []
        for species in model.species:
            if species.id is None or species.id in assigned:
                continue
            if species.constant:
                continue
            if species.boundary_condition and species.id not in rate_ruled:
                continue
            self.state_ids.append(species.id)
        for parameter in model.parameters:
            if parameter.id in rate_ruled and parameter.id not in assigned:
                self.state_ids.append(parameter.id)
        for compartment in model.compartments:
            if compartment.id in rate_ruled and compartment.id not in assigned:
                self.state_ids.append(compartment.id)
        self._state_pos = {name: i for i, name in enumerate(self.state_ids)}

        self._rate_rules: List[Tuple[str, MathNode]] = [
            (rule.variable, rule.math)
            for rule in model.rules
            if isinstance(rule, RateRule) and rule.variable and rule.math
        ]
        self._assignment_rules: List[Tuple[str, MathNode]] = [
            (rule.variable, rule.math)
            for rule in model.rules
            if isinstance(rule, AssignmentRule) and rule.variable and rule.math
        ]

        # Per-reaction: (kinetic math, local-parameter env, species
        # deltas, concentration divisor per species).
        self._reactions = []
        self._species_volume: Dict[str, float] = {}
        self._species_is_conc: Dict[str, bool] = {}
        for species in model.species:
            if species.id is None:
                continue
            compartment = model.get_compartment(species.compartment or "")
            volume = (
                compartment.size
                if compartment is not None and compartment.size is not None
                else 1.0
            )
            self._species_volume[species.id] = volume
            self._species_is_conc[species.id] = (
                species.initial_concentration is not None
                and not species.has_only_substance_units
            )
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

        self._events = []
        for event in model.events:
            if event.trigger is None or event.trigger.math is None:
                continue
            delay_math = event.delay.math if event.delay is not None else None
            assignments = [
                (assignment.variable, assignment.math)
                for assignment in event.assignments
                if assignment.math is not None
            ]
            self._events.append((event.trigger.math, delay_math, assignments))

    # ------------------------------------------------------------------

    def initial_environment(self) -> Dict[str, float]:
        """Quantity values at t = 0, initial assignments applied."""
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
        for species in self.model.species:
            if species.id is not None:
                value = species.initial_value()
                env[species.id] = value if value is not None else 0.0
        pending = [
            ia
            for ia in self.model.initial_assignments
            if ia.math is not None and ia.symbol is not None
        ]
        for _ in range(max(1, len(pending))):
            remaining = []
            for ia in pending:
                try:
                    env[ia.symbol] = self.evaluator.evaluate(ia.math, env)
                except MathError:
                    remaining.append(ia)
            if not remaining:
                break
            pending = remaining
        self._apply_assignment_rules(env)
        return env

    def _apply_assignment_rules(self, env: Dict[str, float]) -> None:
        # Two sweeps handle one level of rule-to-rule dependency
        # without a topological sort.
        for _ in range(2):
            for variable, math in self._assignment_rules:
                try:
                    env[variable] = self.evaluator.evaluate(math, env)
                except MathError as exc:
                    raise SimulationError(
                        f"assignment rule for {variable!r} failed: {exc}"
                    ) from exc

    def _env_from_state(
        self, t: float, y: np.ndarray, base: Dict[str, float]
    ) -> Dict[str, float]:
        env = dict(base)
        env["time"] = t
        for name, position in self._state_pos.items():
            env[name] = float(y[position])
        self._apply_assignment_rules(env)
        return env

    def derivatives(
        self, t: float, y: np.ndarray, base_env: Dict[str, float]
    ) -> np.ndarray:
        """dy/dt at state ``y`` (kinetic laws give substance/time;
        concentration species divide by their compartment volume)."""
        env = self._env_from_state(t, y, base_env)
        dydt = np.zeros(len(self.state_ids))
        for math, locals_env, deltas in self._reactions:
            if locals_env:
                call_env = dict(env)
                call_env.update(locals_env)
            else:
                call_env = env
            try:
                rate = self.evaluator.evaluate(math, call_env)
            except MathError as exc:
                raise SimulationError(f"kinetic law failed: {exc}") from exc
            for species_id, delta in deltas.items():
                position = self._state_pos.get(species_id)
                if position is None:
                    continue
                flow = delta * rate
                if self._species_is_conc.get(species_id, False):
                    flow /= self._species_volume[species_id]
                dydt[position] += flow
        for variable, math in self._rate_rules:
            position = self._state_pos.get(variable)
            if position is None:
                continue
            try:
                dydt[position] += self.evaluator.evaluate(math, env)
            except MathError as exc:
                raise SimulationError(
                    f"rate rule for {variable!r} failed: {exc}"
                ) from exc
        return dydt

    # ------------------------------------------------------------------

    def run(
        self,
        t_end: float,
        steps: int = 1000,
        record: Optional[List[str]] = None,
    ) -> Trace:
        """Integrate to ``t_end`` with ``steps`` fixed RK4 steps.

        Events are checked after every step (rising-edge semantics,
        delays honoured via a pending queue).  ``record`` defaults to
        every species.
        """
        if not (math.isfinite(t_end) and t_end > 0):
            raise SimulationError(
                f"t_end must be finite and positive, got {t_end}"
            )
        if steps < 1:
            raise SimulationError(f"steps must be at least 1, got {steps}")
        base_env = self.initial_environment()
        y = np.array(
            [base_env[name] for name in self.state_ids], dtype=float
        )
        record_ids = record or [
            species.id for species in self.model.species if species.id
        ]
        times = np.linspace(0.0, t_end, steps + 1)
        samples = {name: [] for name in record_ids}

        trigger_state = [
            self._eval_trigger(trigger, 0.0, y, base_env)
            for trigger, _, _ in self._events
        ]
        pending: List[Tuple[float, List[Tuple[str, MathNode]]]] = []

        def sample(t: float, y: np.ndarray) -> None:
            env = self._env_from_state(t, y, base_env)
            for name in record_ids:
                samples[name].append(env.get(name, 0.0))

        sample(0.0, y)
        h = t_end / steps
        f = lambda t, state: self.derivatives(t, state, base_env)
        for index in range(steps):
            t = times[index]
            _, states = rk4(f, y, t, t + h, 1)
            y = states[-1]
            t_next = times[index + 1]
            # Fire due delayed events.
            still_pending = []
            for due, assignments in pending:
                if due <= t_next:
                    y = self._fire(assignments, t_next, y, base_env)
                else:
                    still_pending.append((due, assignments))
            pending = still_pending
            # Rising-edge triggers.
            for event_index, (trigger, delay_math, assignments) in enumerate(
                self._events
            ):
                now = self._eval_trigger(trigger, t_next, y, base_env)
                if now and not trigger_state[event_index]:
                    if delay_math is None:
                        y = self._fire(assignments, t_next, y, base_env)
                    else:
                        env = self._env_from_state(t_next, y, base_env)
                        delay = self.evaluator.evaluate(delay_math, env)
                        pending.append((t_next + delay, assignments))
                trigger_state[event_index] = now
            sample(t_next, y)
        return Trace(times, samples)

    def _eval_trigger(
        self, trigger: MathNode, t: float, y: np.ndarray, base_env
    ) -> bool:
        env = self._env_from_state(t, y, base_env)
        try:
            return self.evaluator.evaluate(trigger, env) != 0.0
        except MathError:
            return False

    def _fire(
        self,
        assignments: List[Tuple[str, MathNode]],
        t: float,
        y: np.ndarray,
        base_env: Dict[str, float],
    ) -> np.ndarray:
        env = self._env_from_state(t, y, base_env)
        # Evaluate all right-hand sides first (simultaneous semantics).
        values = {
            variable: self.evaluator.evaluate(math, env)
            for variable, math in assignments
        }
        y = y.copy()
        for variable, value in values.items():
            position = self._state_pos.get(variable)
            if position is not None:
                y[position] = value
            else:
                base_env[variable] = value
        return y


def simulate(
    model: Model,
    t_end: float,
    steps: int = 1000,
    record: Optional[List[str]] = None,
) -> Trace:
    """One-call deterministic simulation (paper §4.1.2's workflow)."""
    return OdeSimulator(model).run(t_end, steps, record)
