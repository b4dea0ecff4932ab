"""SBMLCompose — the unsupervised model-composition engine.

This is the paper's primary contribution.  :class:`Composer` takes
two models and produces one composed model plus a
:class:`MergeReport` (sessions drive it:
``compose_all([a, b]).pair()`` is the pairwise merge):

* Figure 4's phase order drives the merge: function definitions,
  unit definitions, compartment types, species types, compartments,
  species, parameters, (initial assignments,) rules, constraints,
  reactions, events.
* Figure 5's generic component merge runs inside every phase: look the
  second model's component up in a per-type index of the first model's
  components; duplicates are united (an id mapping is recorded and
  conflicts checked); non-duplicates are renamed if their id collides
  and then added.
* Figure 7's commutative math patterns decide equality of kinetic
  laws, rules, constraints, function definitions and triggers.
* Figure 6's mole/molecule conversions reconcile initial values and
  mass-action rate constants before a conflict is declared.
* Initial values of all component attributes are collected *before*
  composition begins (paper §3, last paragraph) and used during
  conflict checking; initial assignments are evaluated so their
  equality is decidable — the paper's improvement over semanticSBML.

The composed model is always a fresh object; neither input is
modified.  Every phase is split into a *decision* (probe, compare,
claim an id, record the mapping, insert into the phase's overlay) and
a *materialisation* (adopt or move the component, rewrite its
references, append it to the target); decide-only merges — the
all-pairs sweep, which needs only the report — skip the second half
and build no model at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ConflictError, MathError
from repro.mathml.ast import Apply, Identifier, Lambda, MathNode, Number
from repro.mathml.evaluator import Evaluator
from repro.core.conflicts import (
    compare_species_initial,
    compare_values,
    reconcile_rate_constants,
)
from repro.core.index import ComponentIndex, HashIndex, OverlayIndex, make_index
from repro.core.mapping import IdMapping
from repro.core.options import CONFLICTS_ERROR, ComposeOptions
from repro.core.pattern_cache import PatternCache
from repro.core.report import MergeReport
from repro.sbml.components import (
    AssignmentRule,
    Compartment,
    Event,
    KineticLaw,
    RateRule,
    Reaction,
    Species,
)
from repro.sbml.model import Model
from repro.units.definitions import UnitDefinition
from repro.units.registry import UnitRegistry

__all__ = [
    "Composer",
    "AccumState",
    "ModelIndexSet",
    "BoundIndexSet",
    "SourceKeyMap",
    "index_options_key",
]

@dataclass
class AccumState:
    """Derived per-model artifacts carried across fold/tree steps.

    Composing ``second`` into ``first`` needs three things derived
    from ``first`` — its used-id set, its unit registry and its
    evaluated initial-value environment — and rebuilding them from the
    accumulator on every step of an n-model fold is the remaining
    O(n²) term of session execution.  A step that starts from a
    carried ``AccumState`` skips the rebuild, and every step returns
    the updated state for the model it produced: ``used_ids`` absorbs
    the ids the merge claimed, ``registry`` is refreshed by the
    unit-definition phase, and ``initial`` absorbs the source model's
    environment under the final id mapping (united components keep the
    target's value, exactly as re-collection would read them off the
    merged model, since conflicts keep the first model's attribute).
    A merge never writes the state while its phases run, so the
    all-pairs engine hands every decide-only merge an input's
    precomputed artifacts as they are.

    The state is only valid for the exact model object it was produced
    with; it must be dropped when the model is copied or mutated
    outside the engine.
    """

    used_ids: Set[str]
    registry: UnitRegistry
    initial: Dict[str, float]


class Composer:
    """Reusable composition engine bound to a set of options.

    A Composer instance keeps a pattern cache across :meth:`compose`
    calls — ``pattern_cache``, or one of its own: the cache is keyed
    by structural digest, so sweeps that compose the same models
    repeatedly — the paper's Figure 8 experiment is 187 appearances
    per model — reuse canonical patterns instead of rebuilding them.
    """

    def __init__(
        self,
        options: Optional[ComposeOptions] = None,
        *,
        pattern_cache: Optional[PatternCache] = None,
    ):
        self.options = options or ComposeOptions()
        self._cache = (
            pattern_cache if pattern_cache is not None else PatternCache()
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def compose(self, first: Model, second: Model) -> Tuple[Model, MergeReport]:
        """Compose ``second`` into a copy of ``first``; neither input
        is mutated."""
        model, report, _ = self.compose_step(first, second, carry_state=False)
        return model, report

    def compose_step(
        self,
        first: Model,
        second: Model,
        *,
        copy_target: bool = True,
        source_owned: bool = False,
        source_registry: Optional[UnitRegistry] = None,
        source_initial: Optional[Dict[str, float]] = None,
        target_state: Optional[AccumState] = None,
        source_state: Optional[AccumState] = None,
        carry_state: bool = True,
        decide_only: bool = False,
        target_indexes: Optional["BoundIndexSet"] = None,
        source_keys: Optional["SourceKeyMap"] = None,
    ) -> Tuple[Optional[Model], MergeReport, Optional[AccumState]]:
        """One merge step of ``second`` into ``first``, with carried
        accumulator state.

        * ``copy_target=False`` mutates ``first`` in place instead of
          copying it — the session fold's accumulator trick, which
          turns the O(n²) copying of a naive left fold into O(n).  The
          second model is never mutated unless ``source_owned``.
        * ``source_registry`` and ``source_initial`` inject ``second``'s
          unit registry and evaluated initial values when the caller
          has already computed them (a session's per-input memo).
        * ``target_state`` supplies ``first``'s derived artifacts
          (used ids, unit registry, initial values) from the previous
          step instead of rebuilding them from the accumulator —
          killing the per-step O(accumulator) re-collection.
        * ``source_owned`` marks ``second`` as an intermediate the
          caller will discard: its components are *moved* into the
          target instead of copied (tree plans merge two intermediates
          at every internal node; copying made tree execution
          O(n log n) in component copies where the fold is O(n)).
        * ``source_state`` supplies ``second``'s artifacts the same
          way (an executed subtree already knows its registry and
          initial values).
        * ``decide_only`` runs only the decision half of every phase
          and builds no merged model: neither input is copied or
          written (beyond the droppable per-object key caches), the
          returned model and state are ``None`` and only the report
          means anything.  The all-pairs engine, which discards every
          merged model anyway, runs this way; ``copy_target``,
          ``source_owned`` and ``carry_state`` are ignored then.
        * ``target_indexes`` supplies ``first``'s phase indexes as a
          :class:`BoundIndexSet` bound to ``first`` itself (the
          all-pairs engine's decide-only merges): phases then probe a
          copy-on-write :class:`~repro.core.index.OverlayIndex` over
          the shared frozen base instead of rebuilding the target side
          of the index from scratch.  Phases whose fresh keys would
          depend on a non-empty id mapping fall back to the fresh
          build.
        * ``source_keys`` supplies ``second``'s :class:`SourceKeyMap`
          (the all-pairs engine keeps one per model).  A decide-only
          merge that also has ``target_indexes`` under the ``hash``
          strategy then decides only the species and reactions that
          can meet the target one at a time, and claims the rest in
          bulk with the same outcome.

        Returns ``(model, report, state)`` where ``state`` is the
        updated :class:`AccumState` for the returned model, or ``None``
        when it could not be carried (the caller rebuilds lazily).
        Callers that discard the state (one-shot pairwise merges)
        pass ``carry_state=False`` to skip computing it — the update
        includes an initial-assignment fixed-point pass over the
        merged model that only chained steps need.
        """
        report = MergeReport()
        # Figure 5 lines 1-2: an empty model composes to the other.
        if decide_only and (first.is_empty() or second.is_empty()):
            return None, report, None
        if first.is_empty():
            if source_owned:
                return second, report, source_state
            return second.copy(), report, None
        if second.is_empty():
            if copy_target:
                return first.copy(), report, None
            return first, report, target_state

        copy_target = copy_target and not decide_only
        source_owned = source_owned and not decide_only
        target = first.copy() if copy_target else first
        if copy_target:
            # Derived artifacts reference the original's component
            # objects; they are not carried across a copy.
            target_state = None
        # An un-owned source is never mutated: every phase copies a
        # component before touching it, so reading `second` directly is
        # safe and skips a full model copy.  An owned source's
        # components are adopted (moved) instead.
        source = second
        mapping = IdMapping()
        state = _MergeState(
            target=target,
            source=source,
            mapping=mapping,
            report=report,
            options=self.options,
            used_ids=(
                target_state.used_ids
                if target_state is not None
                else set(target.global_ids())
                | {ud.id for ud in target.unit_definitions if ud.id}
            ),
            target_registry=(
                target_state.registry
                if target_state is not None
                else target.unit_registry()
            ),
            source_registry=(
                source_state.registry
                if source_state is not None
                else source_registry
                if source_registry is not None
                else source.unit_registry()
            ),
            initial_values=(
                target_state.initial
                if target_state is not None
                else _collect_initial_values(target),
                source_state.initial
                if source_state is not None
                else source_initial
                if source_initial is not None
                else _collect_initial_values(source),
            ),
            pattern_cache=self._cache,
            source_owned=source_owned,
            decide_only=decide_only,
            indexes=target_indexes,
        )
        if (
            decide_only
            and target_indexes is not None
            and self.options.index == "hash"
        ):
            state.source_keys = source_keys

        # Figure 4 phase order, each phase timed into report.timings.
        for phase_name, phase in _PHASES:
            started = time.perf_counter()
            phase(state)
            report.timings[phase_name] = time.perf_counter() - started

        if decide_only:
            return None, report, None
        if target.name and source.name and target.name != source.name:
            target.name = f"{target.name} + {source.name}"
        return (
            target,
            report,
            self._carry_state(state) if carry_state else None,
        )

    @staticmethod
    def _carry_state(state: "_MergeState") -> AccumState:
        """The updated accumulator state after a merge.

        ``used_ids`` absorbs the ids this merge claimed, and the unit
        phase refreshed ``target_registry``.  The initial-value
        environment absorbs the source's values under the final id
        mapping, but only for components this merge *added* — renamed
        or carried over under their final ids.  United symbols are
        skipped entirely: the merged model keeps the first model's
        attribute (even when that attribute is absent and the source
        declared a value — a logged conflict, not an adoption), so
        re-collection off the merged model would bind exactly the
        target's env entry or nothing.  The merged model's initial
        assignments are then re-run against the updated env — the same
        fixed-point re-collection performs — so assignments that
        landed on united symbols override declared values exactly as a
        rebuild would.
        """
        target_initial = state.target_initial
        flat = state._flat()
        for symbol, value in state.source_initial.items():
            if symbol == "time":
                continue
            final = flat.get(symbol, symbol)
            if final in state.added_ids and final not in target_initial:
                target_initial[final] = value
        _apply_initial_assignments(state.target, target_initial)
        state.used_ids |= state.added_ids
        return AccumState(
            used_ids=state.used_ids,
            registry=state.target_registry,
            initial=target_initial,
        )


class _MergeState:
    """Mutable state shared by the per-phase mergers."""

    def __init__(
        self,
        target: Model,
        source: Model,
        mapping: IdMapping,
        report: MergeReport,
        options: ComposeOptions,
        used_ids: Set[str],
        target_registry: UnitRegistry,
        source_registry: UnitRegistry,
        initial_values: Tuple[Dict[str, float], Dict[str, float]],
        pattern_cache: PatternCache,
        source_owned: bool = False,
        decide_only: bool = False,
        indexes: Optional["BoundIndexSet"] = None,
    ):
        self.target = target
        self.source = source
        self.mapping = mapping
        self.report = report
        self.options = options
        #: Ids of the target before this merge; the phases never write
        #: it (``added_ids`` collects this merge's claims).
        self.used_ids = used_ids
        self.target_registry = target_registry
        self.source_registry = source_registry
        self.target_initial, self.source_initial = initial_values
        self._pattern_cache = pattern_cache
        self.source_owned = source_owned
        self.decide_only = decide_only
        self.indexes = indexes
        #: The source's :class:`SourceKeyMap` when this merge claims
        #: misses in bulk (see :func:`_merge_in_runs`), else ``None``.
        self.source_keys: Optional[SourceKeyMap] = None
        self.match_anything = options.match_anything
        # Ids claimed for components *added* by this merge (as opposed
        # to united into existing target components): with
        # ``used_ids`` they are the merged model's ids, and the carried
        # initial-value env absorbs source values for these only.
        self.added_ids: Set[str] = set()
        # What a decide-only merge would have appended to the target,
        # for the reads that must see components adopted earlier in
        # the same merge (a materialising merge reads the target).
        self.adopted_functions: Dict[str, Lambda] = {}
        self.adopted_units: List[UnitDefinition] = []
        self.adopted_compartments: List[Tuple[Optional[str], Compartment]] = []
        #: Adopted species id -> its (resolved) compartment.
        self.adopted_species: Dict[Optional[str], Optional[str]] = {}
        # Bound directly to the mapping: ``resolve_ref`` is the single
        # hottest call of a merge (every reference of every component
        # passes through it), and the instance attribute skips one
        # method-dispatch layer per call.  ``resolve`` already treats
        # ``None`` as "no reference".
        self.resolve_ref = mapping.resolve

    def adopt(self, component, **fields):
        """Materialise a source component for the target: the source's
        own object when the source is an owned intermediate about to be
        discarded (move semantics — no copy), a copy otherwise (input
        models are never mutated), with ``fields`` (rewritten
        references) set on it."""
        duplicate = component if self.source_owned else component.copy()
        for name, value in fields.items():
            setattr(duplicate, name, value)
        return duplicate

    def append(self, duplicate, source_id: Optional[str], adder) -> None:
        """Materialise an added component: ``duplicate`` (adopted, its
        references already rewritten) takes the id :meth:`claim_id`
        decides for ``source_id`` and is appended through ``adder``."""
        duplicate.id = self.claim_id(source_id)
        adder(duplicate)

    def phase_index(self, name: str) -> ComponentIndex:
        """The Figure 5 lookup index for one phase's target side.

        With a prebuilt :class:`BoundIndexSet` attached, returns a
        copy-on-write :class:`~repro.core.index.OverlayIndex` over the
        shared frozen base — inserts made while merging this phase's
        source components land in the overlay's private delta, never
        in the base another pair may be reading.  The base is only
        valid when its (empty-mapping) keys equal what a fresh build
        would produce *right now*: always true for the phases whose
        target keys never consult the mapping, and true for the rest
        exactly while the mapping table is empty (every recorded entry
        is non-identity by construction, so an empty table means every
        resolve is the identity and every math restriction is empty).
        Otherwise — or with no artifact attached — the index is built
        fresh from the live target, exactly as every merge used to.
        """
        bound = self.indexes
        if bound is not None and (
            name in _MAPPING_FREE_PHASES or not self.mapping._table
        ):
            return OverlayIndex(bound.for_phase(name), self.options.index)
        index = make_index(self.options.index)
        components = getattr(self.target, _PHASE_LISTS[name])
        for position, keys in _ROW_BUILDERS[name](self, self.target):
            index.add(keys, components[position])
        return index

    def _flat(self) -> Dict[str, str]:
        """The chain-resolved mapping (cached per version by
        :meth:`~repro.core.mapping.IdMapping.as_dict`; read-only)."""
        return self.mapping.as_dict()

    # -- id handling ---------------------------------------------------

    def fresh_id(self, base: str) -> str:
        """An id not yet used in the composed model."""
        candidate = f"{base}_{self.options.rename_suffix}"
        counter = 2
        while candidate in self.used_ids or candidate in self.added_ids:
            candidate = f"{base}_{self.options.rename_suffix}{counter}"
            counter += 1
        return candidate

    def claim_id(self, component_id: Optional[str]) -> Optional[str]:
        """The id an added source component takes in the composed
        model: its mapped id, or a fresh one (recorded as a rename)
        when that collides with an existing id.  The id is registered
        as used; the component itself is not touched."""
        if component_id is None:
            return None
        current = self.resolve_ref(component_id)
        if current in self.used_ids or current in self.added_ids:
            fresh = self.fresh_id(current)
            self.report.rename(component_id, fresh)
            self.mapping.add(component_id, fresh)
            current = fresh
        self.added_ids.add(current)
        return current

    def unite(self, component_type: str, first_id: str, second_id: str) -> None:
        """Record that a source component was united with a target one."""
        self.report.duplicate(component_type, first_id, second_id)
        if first_id and second_id:
            self.mapping.add(second_id, first_id)
            self.report.map_id(second_id, first_id)

    def conflict(
        self,
        component_type: str,
        component_id: str,
        attribute: str,
        first_value,
        second_value,
        resolution: str = "kept first model's value",
    ) -> None:
        """Record a conflict, honouring the conflict policy."""
        if self.options.conflicts == CONFLICTS_ERROR:
            raise ConflictError(
                f"{component_type} {component_id!r}: {attribute} "
                f"{first_value!r} vs {second_value!r}"
            )
        self.report.conflict(
            component_type,
            component_id,
            attribute,
            first_value,
            second_value,
            resolution,
        )

    # -- name / synonym keys --------------------------------------------

    def name_key(self, component) -> Optional[str]:
        """Synonym-canonical key for a component's label, or None when
        name matching is disabled or there is nothing to key on."""
        label = component.name or component.id
        if label is None:
            return None
        if self.options.match_synonyms:
            return f"name:{self.options.synonyms.canonical(label)}"
        if self.options.match_anything:
            return f"name:{label}"
        return None

    def keys_for(self, component, extra: Sequence[str] = ()) -> List[str]:
        """Index keys for a component: mapped id, name key, extras."""
        keys: List[str] = []
        if component.id is not None:
            keys.append(f"id:{self.mapping.resolve(component.id)}")
        name_key = self.name_key(component)
        if name_key is not None:
            keys.append(name_key)
        keys.extend(extra)
        return keys

    # -- math handling ---------------------------------------------------

    def math_key(self, math: MathNode) -> str:
        """Hashable equality key for an expression under the live
        mapping (heavy semantics: Figure 7 commutative pattern;
        otherwise: structural digest of the mapped expression).

        The structural path used to ``repr()`` the whole rewritten
        tree on every probe; the cached digest makes it O(1) after
        first sight — and the rewrite itself is copy-free when the
        mapping does not touch the expression, so the probe usually
        reduces to two cache reads.
        """
        if self.options.use_math_patterns:
            return "math:" + self._pattern_cache.pattern(math, self._flat())
        return "math:" + self.mapping.rewrite_math(math).digest()

    def math_equal(self, first: Optional[MathNode], second: Optional[MathNode]) -> bool:
        if first is None or second is None:
            return first is second
        return self.math_key(first) == self.math_key(second)

    def rewrite(self, math: Optional[MathNode]) -> Optional[MathNode]:
        """Apply the id mapping to an expression from the source model."""
        return self.mapping.rewrite_math(math)

    # ``resolve_ref`` is bound per instance in ``__init__`` (it is an
    # alias of ``self.mapping.resolve``); this stub documents the API.

    # -- reads of the composed model --------------------------------------
    # A materialising merge has appended every adopted component to the
    # target; a decide-only merge has recorded them instead, so these
    # reads consult the target and then those records.

    def target_compartment(self, compartment_id: str) -> Optional[Compartment]:
        found = self.target.get_compartment(compartment_id)
        if found is None:
            for adopted_id, compartment in self.adopted_compartments:
                if adopted_id == compartment_id:
                    return compartment
        return found

    def target_functions(self) -> Dict[str, Lambda]:
        table = self.target.function_table()
        table.update(self.adopted_functions)
        return table

    # -- evaluation -------------------------------------------------------

    def evaluate_source_math(self, math: MathNode) -> Optional[float]:
        """Numeric value of a source-model expression at time 0, or
        None when it cannot be evaluated."""
        return _try_evaluate(
            math, self.source.function_table(), self.source_initial
        )

    def evaluate_target_math(self, math: MathNode) -> Optional[float]:
        return _try_evaluate(math, self.target_functions(), self.target_initial)


# ---------------------------------------------------------------------------
# Initial-value collection (paper §3, final paragraph)
# ---------------------------------------------------------------------------


def _collect_initial_values(model: Model) -> Dict[str, float]:
    """Initial values of all component attributes, with initial
    assignments evaluated and overriding declared values."""
    env: Dict[str, float] = {"time": 0.0}
    for compartment in model.compartments:
        if compartment.id and compartment.size is not None:
            env[compartment.id] = compartment.size
    for species in model.species:
        value = species.initial_value()
        if species.id and value is not None:
            env[species.id] = value
    for parameter in model.parameters:
        if parameter.id and parameter.value is not None:
            env[parameter.id] = parameter.value
    _apply_initial_assignments(model, env)
    return env


def _apply_initial_assignments(model: Model, env: Dict[str, float]) -> None:
    """Evaluate the model's initial assignments into ``env``
    (assignments override declared values).  Initial assignments may
    depend on one another; a few fixed-point sweeps resolve chains
    without needing a dependency sort."""
    evaluator = Evaluator(model.function_table())
    pending = [ia for ia in model.initial_assignments if ia.math is not None]
    for _ in range(max(1, len(pending))):
        remaining = []
        for ia in pending:
            try:
                env[ia.symbol] = evaluator.evaluate(ia.math, env)
            except MathError:
                remaining.append(ia)
        if not remaining:
            break
        pending = remaining


def _try_evaluate(
    math: MathNode, functions: Dict[str, Lambda], env: Dict[str, float]
) -> Optional[float]:
    try:
        return Evaluator(functions).evaluate(math, env)
    except MathError:
        return None


# ---------------------------------------------------------------------------
# Phase: function definitions
# ---------------------------------------------------------------------------


def _rows_function_definitions(
    state: "_MergeState", model: Model
) -> Iterator[Tuple[int, Tuple[str, ...]]]:
    for position, fd in enumerate(model.function_definitions):
        keys = [f"id:{fd.id}"]
        if fd.math is not None:
            keys.append(state.math_key(fd.math))
        yield position, tuple(keys)


def _compose_function_definitions(state: _MergeState) -> None:
    index = state.phase_index("functionDefinitions")
    for fd in state.source.function_definitions:
        keys = [f"id:{state.resolve_ref(fd.id)}"]
        if fd.math is not None:
            keys.append(state.math_key(fd.math))
        match = index.find(keys) if state.match_anything else None
        if match is not None and state.math_equal(match.math, fd.math):
            state.unite("functionDefinition", match.id, fd.id)
            continue
        math = _rewrite_lambda(state, fd.math)
        if state.decide_only:
            fd_id = state.claim_id(fd.id)
            if fd_id and math is not None:
                state.adopted_functions[fd_id] = math
        else:
            state.append(
                state.adopt(fd, math=math),
                fd.id,
                state.target.add_function_definition,
            )
        state.report.added["functionDefinition"] += 1


def _rewrite_lambda(state: _MergeState, math: Optional[Lambda]) -> Optional[Lambda]:
    if math is None:
        return None
    rewritten = state.rewrite(math)
    return rewritten if isinstance(rewritten, Lambda) else math


# ---------------------------------------------------------------------------
# Phase: unit definitions
# ---------------------------------------------------------------------------


def _unit_key(definition: UnitDefinition) -> str:
    canonical = definition.canonical()
    # Round the factor so float dust cannot split equal units.
    return f"unit:{canonical.factor:.12e}:{canonical.dims}"


def _rows_unit_definitions(
    state: "_MergeState", model: Model
) -> Iterator[Tuple[int, Tuple[str, ...]]]:
    for position, ud in enumerate(model.unit_definitions):
        yield position, (f"id:{ud.id}", _unit_key(ud))


def _compose_unit_definitions(state: _MergeState) -> None:
    index = state.phase_index("unitDefinitions")
    added = False
    for ud in state.source.unit_definitions:
        keys = [f"id:{state.resolve_ref(ud.id)}", _unit_key(ud)]
        match = index.find(keys) if state.match_anything else None
        if match is not None and match.same_unit(ud):
            state.unite("unitDefinition", match.id, ud.id)
            continue
        # ``used_ids`` holds every unit-definition id of the target,
        # so the generic claim also keeps unit ids unique.
        if state.decide_only:
            ud_id = state.claim_id(ud.id)
            state.adopted_units.append(
                ud if ud_id == ud.id else state.adopt(ud, id=ud_id)
            )
        else:
            state.append(state.adopt(ud), ud.id, state.target.add_unit_definition)
        state.report.added["unitDefinition"] += 1
        added = True
    if added:
        state.target_registry = UnitRegistry(
            [*state.target.unit_definitions, *state.adopted_units]
        )


# ---------------------------------------------------------------------------
# Phases: compartment types / species types
# ---------------------------------------------------------------------------


def _rows_keys_for(
    state: "_MergeState", components
) -> Iterator[Tuple[int, Tuple[str, ...]]]:
    """Index rows for any phase keyed by :meth:`_MergeState.keys_for`
    (compartment types, species types, compartments, parameters)."""
    for position, component in enumerate(components):
        yield position, tuple(state.keys_for(component))


def _rows_compartment_types(state, model):
    return _rows_keys_for(state, model.compartment_types)


def _rows_species_types(state, model):
    return _rows_keys_for(state, model.species_types)


def _rows_compartments(state, model):
    return _rows_keys_for(state, model.compartments)


def _rows_parameters(state, model):
    return _rows_keys_for(state, model.parameters)


def _compose_simple_named(state: _MergeState, kind: str, phase: str, source_list, adder):
    index = state.phase_index(phase)
    for component in source_list:
        keys = state.keys_for(component)
        match = index.find(keys) if state.match_anything else None
        if match is not None:
            state.unite(kind, match.id, component.id)
            continue
        if state.decide_only:
            state.claim_id(component.id)
        else:
            state.append(state.adopt(component), component.id, adder)
        state.report.added[kind] += 1


def _compose_compartment_types(state: _MergeState) -> None:
    _compose_simple_named(
        state,
        "compartmentType",
        "compartmentTypes",
        state.source.compartment_types,
        state.target.add_compartment_type,
    )


def _compose_species_types(state: _MergeState) -> None:
    _compose_simple_named(
        state,
        "speciesType",
        "speciesTypes",
        state.source.species_types,
        state.target.add_species_type,
    )


# ---------------------------------------------------------------------------
# Phase: compartments
# ---------------------------------------------------------------------------


def _compose_compartments(state: _MergeState) -> None:
    index = state.phase_index("compartments")
    for compartment in state.source.compartments:
        keys = state.keys_for(compartment)
        match = index.find(keys) if state.match_anything else None
        if match is not None:
            state.unite("compartment", match.id, compartment.id)
            _check_compartment_conflicts(state, match, compartment)
            continue
        if state.decide_only:
            state.adopted_compartments.append(
                (state.claim_id(compartment.id), compartment)
            )
        else:
            resolve = state.resolve_ref
            duplicate = state.adopt(
                compartment,
                compartment_type=resolve(compartment.compartment_type),
                outside=resolve(compartment.outside),
                units=resolve(compartment.units),
            )
            state.append(duplicate, compartment.id, state.target.add_compartment)
        state.report.added["compartment"] += 1


def _check_compartment_conflicts(state: _MergeState, first, second) -> None:
    comparison = compare_values(
        first.size,
        second.size,
        first.units or "litre",
        second.units or "litre",
        state.target_registry if state.options.convert_units else None,
        state.source_registry,
        state.options.value_tolerance,
    )
    if not comparison.equal:
        state.conflict(
            "compartment", first.id, "size", first.size, second.size
        )
    elif comparison.note:
        state.report.warn(
            "unit-conversion", comparison.note, "compartment", first.id
        )
    if first.spatial_dimensions != second.spatial_dimensions:
        state.conflict(
            "compartment",
            first.id,
            "spatialDimensions",
            first.spatial_dimensions,
            second.spatial_dimensions,
        )


# ---------------------------------------------------------------------------
# Phase: species
# ---------------------------------------------------------------------------


def _rows_species(
    state: "_MergeState", model: Model
) -> Iterator[Tuple[int, Tuple[str, ...]]]:
    for position, species in enumerate(model.species):
        yield position, tuple(_species_keys(state, species, mapped=False))


def _compose_species(state: _MergeState) -> None:
    _merge_in_runs(state, "species", "species", _merge_species)


def _merge_species(state: _MergeState, index, species: Species) -> None:
    keys = _species_keys(state, species, mapped=True)
    match = index.find(keys) if state.match_anything else None
    if match is not None and _species_equal(state, match, species):
        state.unite("species", match.id, species.id)
        _check_species_conflicts(state, match, species)
        return
    compartment = state.resolve_ref(species.compartment)
    if state.decide_only:
        state.adopted_species[state.claim_id(species.id)] = compartment
    else:
        duplicate = state.adopt(
            species,
            compartment=compartment,
            species_type=state.resolve_ref(species.species_type),
            substance_units=state.resolve_ref(species.substance_units),
        )
        state.append(duplicate, species.id, state.target.add_species)
    state.report.added["species"] += 1


def _species_keys(state: _MergeState, species: Species, mapped: bool) -> List[str]:
    if state.decide_only and (not mapped or not state.mapping._table):
        # The unmapped keys are a pure function of (species, options) —
        # and the *mapped* keys coincide with them while the mapping
        # table is empty (every recorded entry is non-identity, so an
        # empty table makes resolve the identity).  The all-pairs
        # engine's decide-only merges read the input models' own
        # species in every pair a model appears in, so they cache the
        # keys on the object, tagged by the options that produced
        # them.  ``Species.copy()`` drops the cache, and callers treat
        # the returned list as read-only.  Session merges never cache
        # — their ``source_owned`` moves mutate adopted species (id,
        # compartment) in place, which would leave a stale cache on an
        # object a later step re-indexes.
        cached = species.__dict__.get("_keys_cache")
        if cached is not None and cached[0] is state.options:
            return cached[1]
        keys = _build_species_keys(state, species, mapped=False)
        species.__dict__["_keys_cache"] = (state.options, keys)
        return keys
    return _build_species_keys(state, species, mapped)


def _build_species_keys(
    state: _MergeState, species: Species, mapped: bool
) -> List[str]:
    compartment = (
        state.resolve_ref(species.compartment) if mapped else species.compartment
    )
    keys: List[str] = []
    species_id = (
        state.resolve_ref(species.id) if mapped else species.id
    )
    if species_id is not None:
        keys.append(f"id:{species_id}")
    label = species.name or species.id
    if label is not None and state.match_anything:
        if state.options.match_synonyms:
            canonical = state.options.synonyms.canonical(label)
        else:
            canonical = label
        # Scope name keys by compartment: same name in different
        # compartments is a different pool of molecules.
        keys.append(f"name:{canonical}@{compartment}")
    return keys


def _species_equal(state: _MergeState, first: Species, second: Species) -> bool:
    first_compartment = first.compartment
    second_compartment = state.resolve_ref(second.compartment)
    if first_compartment == second_compartment:
        return True
    if state.options.match_synonyms and first_compartment and second_compartment:
        return state.options.synonyms.are_synonyms(
            first_compartment, second_compartment
        )
    return False


def _check_species_conflicts(state: _MergeState, first: Species, second: Species) -> None:
    compartment = state.target_compartment(first.compartment or "")
    volume = compartment.size if compartment is not None else None
    comparison = compare_species_initial(
        first.initial_value(),
        second.initial_value(),
        first.initial_amount is not None,
        second.initial_amount is not None,
        volume,
        first.substance_units,
        second.substance_units,
        state.target_registry if state.options.convert_units else None,
        state.source_registry,
        max(state.options.value_tolerance, 1e-6),
    )
    if not comparison.equal:
        state.conflict(
            "species",
            first.id,
            "initial value",
            first.initial_value(),
            second.initial_value(),
        )
    elif comparison.note:
        state.report.warn(
            "unit-conversion", comparison.note, "species", first.id
        )
    if first.boundary_condition != second.boundary_condition:
        state.conflict(
            "species",
            first.id,
            "boundaryCondition",
            first.boundary_condition,
            second.boundary_condition,
        )
    if first.charge is not None and second.charge is not None and (
        first.charge != second.charge
    ):
        state.conflict(
            "species", first.id, "charge", first.charge, second.charge
        )


# ---------------------------------------------------------------------------
# Phase: parameters
# ---------------------------------------------------------------------------


def _compose_parameters(state: _MergeState) -> None:
    """Parameters are united only when provably equal.

    Paper §3: "All parameters in the original models have to be
    included in the composed model, as there is no way of confirming
    whether they are intended to be equal or not.  However, if two
    parameters have the same name, then one is renamed to avoid
    conflicts."  We confirm equality when both declare values that
    agree (after unit conversion); everything else is included under a
    fresh id with a warning.
    """
    index = state.phase_index("parameters")
    for parameter in state.source.parameters:
        keys = state.keys_for(parameter)
        match = index.find(keys) if state.match_anything else None
        if match is not None:
            comparison = compare_values(
                match.value,
                parameter.value,
                match.units,
                parameter.units,
                state.target_registry if state.options.convert_units else None,
                state.source_registry,
                state.options.value_tolerance,
            )
            # Constants unify only when both declare agreeing values
            # ("no way of confirming whether they are intended to be
            # equal" otherwise).  Non-constant parameters are state
            # variables determined by rules/events: like species, name
            # identity is their identity, with value disagreements
            # logged as conflicts.
            both_variable = not match.constant and not parameter.constant
            provably_equal = (
                comparison.equal
                and match.value is not None
                and parameter.value is not None
                and match.constant == parameter.constant
            )
            if provably_equal or (both_variable and comparison.equal):
                state.unite("parameter", match.id, parameter.id)
                if comparison.note:
                    state.report.warn(
                        "unit-conversion",
                        comparison.note,
                        "parameter",
                        match.id,
                    )
                continue
            if both_variable:
                state.unite("parameter", match.id, parameter.id)
                state.conflict(
                    "parameter",
                    match.id or "?",
                    "value",
                    match.value,
                    parameter.value,
                )
                continue
            # Same name, unconfirmed equality: include both, rename.
            units = state.resolve_ref(parameter.units)
            clash_id = _claim_clash_id(state, parameter, match)
            if not state.decide_only:
                state.target.add_parameter(
                    state.adopt(parameter, units=units, id=clash_id)
                )
            state.report.added["parameter"] += 1
            continue
        if state.decide_only:
            state.claim_id(parameter.id)
        else:
            duplicate = state.adopt(
                parameter, units=state.resolve_ref(parameter.units)
            )
            state.append(duplicate, parameter.id, state.target.add_parameter)
        state.report.added["parameter"] += 1


def _claim_clash_id(state: _MergeState, parameter, match) -> str:
    """Claim a fresh id for a source parameter that matched ``match``
    by name but not provably by value, and log the clash."""
    original = parameter.id
    current = state.resolve_ref(original) if original else None
    fresh = state.fresh_id(current or "parameter")
    if original is not None:
        state.report.rename(original, fresh)
        state.mapping.add(original, fresh)
    state.added_ids.add(fresh)
    state.report.warn(
        "parameter-clash",
        (
            f"parameter {original!r} matches {match.id!r} by name but "
            f"equality could not be confirmed "
            f"({match.value!r} vs {parameter.value!r}); kept both"
        ),
        "parameter",
        fresh,
    )
    return fresh


# ---------------------------------------------------------------------------
# Phase: initial assignments
# ---------------------------------------------------------------------------


def _rows_initial_assignments(
    state: "_MergeState", model: Model
) -> Iterator[Tuple[int, Tuple[str, ...]]]:
    for position, ia in enumerate(model.initial_assignments):
        yield position, (f"symbol:{ia.symbol}",)


def _compose_initial_assignments(state: _MergeState) -> None:
    index = state.phase_index("initialAssignments")
    for ia in state.source.initial_assignments:
        symbol = state.resolve_ref(ia.symbol)
        match = (
            index.find([f"symbol:{symbol}"])
            if state.match_anything
            else None
        )
        if match is not None:
            _merge_initial_assignment(state, match, ia)
            continue
        # Later source assignments probe this one through the overlay,
        # so even a decide-only merge inserts what materialisation
        # appends: the resolved symbol and the rewritten math.
        math = state.rewrite(ia.math)
        if state.decide_only and symbol == ia.symbol and math is ia.math:
            duplicate = ia
        else:
            duplicate = state.adopt(ia, symbol=symbol, math=math)
            if not state.decide_only:
                state.target.add_initial_assignment(duplicate)
        index.add([f"symbol:{symbol}"], duplicate)
        state.report.added["initialAssignment"] += 1


def _merge_initial_assignment(state: _MergeState, first, second) -> None:
    """Two initial assignments for one symbol: decide by math pattern,
    then by evaluation (the paper's novel capability)."""
    if state.math_equal(first.math, second.math):
        state.unite("initialAssignment", first.symbol, second.symbol)
        return
    if state.options.evaluate_initial_assignments:
        first_value = (
            state.evaluate_target_math(first.math)
            if first.math is not None
            else None
        )
        second_value = (
            state.evaluate_source_math(second.math)
            if second.math is not None
            else None
        )
        if (
            first_value is not None
            and second_value is not None
            and state.options.values_equal(first_value, second_value)
        ):
            state.unite("initialAssignment", first.symbol, second.symbol)
            state.report.warn(
                "math-evaluated",
                (
                    f"initial assignments for {first.symbol!r} differ "
                    f"syntactically but both evaluate to {first_value:g}"
                ),
                "initialAssignment",
                first.symbol,
            )
            return
    state.conflict(
        "initialAssignment",
        first.symbol or "?",
        "math",
        first.math,
        second.math,
        resolution="kept first model's initial assignment",
    )


# ---------------------------------------------------------------------------
# Phase: rules
# ---------------------------------------------------------------------------


def _rule_kind(rule) -> str:
    if isinstance(rule, AssignmentRule):
        return "assignmentRule"
    if isinstance(rule, RateRule):
        return "rateRule"
    return "algebraicRule"


def _rows_rules(
    state: "_MergeState", model: Model
) -> Iterator[Tuple[int, Tuple[str, ...]]]:
    for position, rule in enumerate(model.rules):
        yield position, tuple(_rule_keys(state, rule, mapped=False))


def _compose_rules(state: _MergeState) -> None:
    index = state.phase_index("rules")
    for rule in state.source.rules:
        keys = _rule_keys(state, rule, mapped=True)
        match = index.find(keys) if state.match_anything else None
        if match is not None and _rule_kind(match) == _rule_kind(rule):
            if state.math_equal(match.math, rule.math):
                state.unite(
                    _rule_kind(rule),
                    match.variable or "algebraic",
                    rule.variable or "algebraic",
                )
                continue
            # Same determined variable, different math: a model cannot
            # contain both; keep the first and log the conflict.
            state.conflict(
                _rule_kind(rule),
                match.variable or "algebraic",
                "math",
                match.math,
                rule.math,
                resolution="kept first model's rule",
            )
            continue
        # As for initial assignments, the overlay gets what
        # materialisation appends: resolved variable, rewritten math.
        math = state.rewrite(rule.math)
        variable = state.resolve_ref(rule.variable)
        if state.decide_only and variable == rule.variable and math is rule.math:
            duplicate = rule
        else:
            duplicate = state.adopt(rule, math=math)
            if variable is not None:
                duplicate.variable = variable
            if not state.decide_only:
                state.target.add_rule(duplicate)
        index.add(_rule_keys(state, duplicate, mapped=False), duplicate)
        state.report.added[_rule_kind(rule)] += 1


def _rule_keys(state: _MergeState, rule, mapped: bool) -> List[str]:
    if state.decide_only and not state.mapping._table:
        # With an empty mapping table the mapped and unmapped keys
        # coincide and are a pure function of (rule, options) — the
        # math restriction is empty and every resolve is the identity.
        # Decide-only merges cache them on the rule object exactly like
        # species keys and reaction signatures (read in every pair of
        # an all-pairs sweep; constructor-based ``copy()`` starts a
        # duplicate without the cache).  Session merges never cache:
        # their ``source_owned`` moves rewrite rule variables in place
        # on objects a later step re-keys.
        cached = rule.__dict__.get("_rule_keys_cache")
        if cached is not None and cached[0] is state.options:
            return cached[1]
        keys = _build_rule_keys(state, rule, mapped=False)
        rule.__dict__["_rule_keys_cache"] = (state.options, keys)
        return keys
    return _build_rule_keys(state, rule, mapped)


def _build_rule_keys(state: _MergeState, rule, mapped: bool) -> List[str]:
    kind = _rule_kind(rule)
    if rule.variable is not None:
        variable = state.resolve_ref(rule.variable) if mapped else rule.variable
        return [f"rule:{kind}:{variable}"]
    if rule.math is None:
        return [f"rule:{kind}:<empty>"]
    return [f"rule:{kind}:{state.math_key(rule.math)}"]


# ---------------------------------------------------------------------------
# Phase: constraints
# ---------------------------------------------------------------------------


def _rows_constraints(
    state: "_MergeState", model: Model
) -> Iterator[Tuple[int, Tuple[str, ...]]]:
    for position, constraint in enumerate(model.constraints):
        if constraint.math is not None:
            yield position, (state.math_key(constraint.math),)


def _compose_constraints(state: _MergeState) -> None:
    index = state.phase_index("constraints")
    for constraint in state.source.constraints:
        match = None
        if constraint.math is not None and state.match_anything:
            match = index.find([state.math_key(constraint.math)])
        if match is not None:
            state.unite(
                "constraint",
                match.message or "constraint",
                constraint.message or "constraint",
            )
            continue
        if not state.decide_only:
            state.target.add_constraint(
                state.adopt(constraint, math=state.rewrite(constraint.math))
            )
        state.report.added["constraint"] += 1


# ---------------------------------------------------------------------------
# Phase: reactions
# ---------------------------------------------------------------------------


def _reaction_signature(state: _MergeState, reaction: Reaction, mapped: bool) -> str:
    """Structural identity of a reaction: its mapped participants.

    The paper checks "the reactants, modifiers and products ... for
    equality"; stoichiometry is part of the check.

    The *unmapped* signature is a pure function of the reaction, so
    **decide-only** merges cache it on the reaction object — the
    all-pairs engine reads a model's own reaction objects in every
    pair the model appears in, which turns per-pair signature
    building into a once-per-model cost.  Caching is safe there
    because decide-only merges never mutate any component (and
    ``copy()`` drops the cache).  Session merges must NOT cache: their
    ``source_owned`` moves adopt intermediates *in place* and rewrite
    participant species on the very objects a later step re-probes,
    so a cached signature could go stale and make tree plans diverge
    from the fold.
    """
    if not mapped:
        if not state.decide_only:
            return _build_reaction_signature(reaction, _same_id)
        cached = reaction.__dict__.get("_unmapped_signature")
        if cached is not None:
            return cached
        signature = _build_reaction_signature(reaction, _same_id)
        reaction.__dict__["_unmapped_signature"] = signature
        return signature
    # A name is changed by the mapping iff it appears in the raw
    # table, so a reaction none of whose participants are mapped has
    # the unmapped (cached) signature.
    table = state.mapping._table
    if table:
        for references in (
            reaction.reactants, reaction.products, reaction.modifiers
        ):
            for reference in references:
                if reference.species in table:
                    return _build_reaction_signature(
                        reaction, state.mapping.resolve
                    )
    return _reaction_signature(state, reaction, mapped=False)


def _same_id(species: Optional[str]) -> Optional[str]:
    return species


def _build_reaction_signature(reaction: Reaction, resolve) -> str:
    def side(references) -> str:
        return "+".join(
            sorted(
                f"{resolve(reference.species)}*1"
                if reference.stoichiometry == 1
                else f"{resolve(reference.species)}"
                f"*{reference.stoichiometry:g}"
                for reference in references
            )
        )

    modifiers = sorted(resolve(m.species) for m in reaction.modifiers)
    return (
        f"rxn:{side(reaction.reactants)}>{side(reaction.products)}"
        f"|mod:{','.join(modifiers)}|rev:{int(reaction.reversible)}"
    )


def _law_comparison_math(
    state: _MergeState, law: Optional[KineticLaw]
) -> Optional[MathNode]:
    """Kinetic-law math with local parameters inlined by value, so two
    laws with identically-valued locals of different names compare
    equal.  The substituted form is cached per (law math, local
    values) so repeated compositions of the same models reuse it."""
    if law is None or law.math is None:
        return None
    locals_items = tuple(
        sorted(
            (parameter.id, parameter.value)
            for parameter in law.parameters
            if parameter.id is not None and parameter.value is not None
        )
    )
    if not locals_items:
        return law.math
    return state._pattern_cache.law_comparison_math(law.math, locals_items)


def _rows_reactions(
    state: "_MergeState", model: Model
) -> Iterator[Tuple[int, Tuple[str, ...]]]:
    for position, reaction in enumerate(model.reactions):
        yield position, (
            f"id:{reaction.id}",
            _reaction_signature(state, reaction, mapped=False),
        )


def _compose_reactions(state: _MergeState) -> None:
    _merge_in_runs(state, "reactions", "reaction", _merge_reaction)


def _merge_reaction(state: _MergeState, index, reaction: Reaction) -> None:
    signature = _reaction_signature(state, reaction, mapped=True)
    keys = [f"id:{state.resolve_ref(reaction.id)}", signature]
    match = index.find(keys) if state.match_anything else None
    if match is not None and _reactions_equal(state, match, reaction, signature):
        state.unite("reaction", match.id, reaction.id)
        return
    if state.decide_only:
        state.claim_id(reaction.id)
    else:
        state.append(
            _rewrite_reaction(state, reaction),
            reaction.id,
            state.target.add_reaction,
        )
    state.report.added["reaction"] += 1


def _reactions_equal(
    state: _MergeState, first: Reaction, second: Reaction, second_signature: str
) -> bool:
    first_signature = _reaction_signature(state, first, mapped=False)
    if first_signature != second_signature:
        return False
    first_math = _law_comparison_math(state, first.kinetic_law)
    second_math = _law_comparison_math(state, second.kinetic_law)
    if state.math_equal(first_math, second_math):
        return True
    # Same structure, different law.  Try the Figure 6 rate-constant
    # reconciliation before calling it a conflict.
    if state.options.convert_units and _rate_constants_reconcile(
        state, first, second
    ):
        return True
    state.conflict(
        "reaction",
        first.id or "?",
        "kineticLaw",
        first.kinetic_law.math if first.kinetic_law else None,
        second.kinetic_law.math if second.kinetic_law else None,
        resolution="kept first model's kinetic law",
    )
    return True  # structurally the same reaction: unite, first law wins


def _mass_action_constant(
    state: _MergeState, reaction: Reaction, evaluate
) -> Optional[float]:
    """Numeric rate constant if the reaction's law is mass action
    (k · Π reactants), else None; ``evaluate`` is the owning side's
    :meth:`_MergeState.evaluate_target_math` or
    :meth:`~_MergeState.evaluate_source_math`."""
    law = reaction.kinetic_law
    if law is None or law.math is None:
        return None
    math = _law_comparison_math(state, law)
    expected_ids = sorted(
        reference.species for reference in reaction.reactants
    )
    # Peel a product: exactly the reactant ids (with multiplicity by
    # stoichiometry) times one remaining factor = the constant.
    factors = (
        list(math.args) if isinstance(math, Apply) and math.op == "times" else [math]
    )
    remaining: List[MathNode] = []
    species_seen: List[str] = []
    for factor in factors:
        if isinstance(factor, Identifier) and factor.name in expected_ids:
            species_seen.append(factor.name)
        elif (
            isinstance(factor, Apply)
            and factor.op == "power"
            and isinstance(factor.args[0], Identifier)
            and factor.args[0].name in expected_ids
            and isinstance(factor.args[1], Number)
        ):
            species_seen.extend(
                [factor.args[0].name] * int(factor.args[1].value)
            )
        else:
            remaining.append(factor)
    expected_multiset = sorted(
        reference.species
        for reference in reaction.reactants
        for _ in range(int(reference.stoichiometry))
        if float(reference.stoichiometry).is_integer()
    )
    if sorted(species_seen) != expected_multiset or len(remaining) != 1:
        return None
    return evaluate(remaining[0])


def _rate_constants_reconcile(
    state: _MergeState, first: Reaction, second: Reaction
) -> bool:
    try:
        stoichiometries = [
            reference.stoichiometry for reference in first.reactants
        ]
        order = int(sum(stoichiometries))
        if any(
            not float(s).is_integer() for s in stoichiometries
        ) or order not in (0, 1, 2):
            return False
    except (TypeError, ValueError):
        return False
    first_k = _mass_action_constant(state, first, state.evaluate_target_math)
    second_k = _mass_action_constant(state, second, state.evaluate_source_math)
    if first_k is None or second_k is None:
        return False
    volume = None
    if first.reactants:
        # The (mapped) reactant may be a species this merge adopted.
        species_id = state.resolve_ref(first.reactants[0].species) or ""
        species = state.target.get_species(species_id)
        compartment_id = (
            species.compartment
            if species is not None
            else state.adopted_species.get(species_id)
        )
        if compartment_id:
            compartment = state.target_compartment(compartment_id)
            if compartment is not None:
                volume = compartment.size
    elif state.target.compartments:
        volume = state.target.compartments[0].size
    elif state.adopted_compartments:
        volume = state.adopted_compartments[0][1].size
    comparison = reconcile_rate_constants(
        first_k, second_k, order, volume, max(state.options.value_tolerance, 1e-6)
    )
    if comparison.equal and comparison.note:
        state.report.warn(
            "unit-conversion", comparison.note, "reaction", first.id
        )
    return comparison.equal


def _rewrite_reaction(state: _MergeState, reaction: Reaction) -> Reaction:
    duplicate = state.adopt(reaction)
    for reference in duplicate.reactants + duplicate.products:
        reference.species = state.resolve_ref(reference.species)
    for modifier in duplicate.modifiers:
        modifier.species = state.resolve_ref(modifier.species)
    law = duplicate.kinetic_law
    if law is not None and law.math is not None:
        # Restrict the mapping to the names the law actually uses —
        # O(law) instead of O(mapping) per reaction — minus the local
        # parameters, which shadow globals and must not be rewritten.
        flat = state._flat()
        relevant = {
            name: flat[name]
            for name in law.math.referenced_names()
            if name in flat
        }
        if relevant and law.parameters:
            for local_id in law.local_parameter_ids():
                relevant.pop(local_id, None)
        if relevant:
            law.math = law.math.rename(relevant)
        for parameter in law.parameters:
            parameter.units = state.resolve_ref(parameter.units)
    return duplicate


# ---------------------------------------------------------------------------
# Phase: events
# ---------------------------------------------------------------------------


def _event_key(state: _MergeState, event: Event, mapped: bool) -> str:
    if state.decide_only and not state.mapping._table:
        # Same discipline as rule keys: while the mapping table is
        # empty the mapped and unmapped event keys coincide and are a
        # pure function of (event, options), so decide-only merges
        # cache them on the event object (``Event.copy()`` builds
        # through the constructor, so duplicates start clean).
        # Session merges never cache — ``source_owned`` moves rewrite
        # assignment variables and trigger/delay math in place.
        cached = event.__dict__.get("_event_key_cache")
        if cached is not None and cached[0] is state.options:
            return cached[1]
        key = _build_event_key(state, event, mapped=False)
        event.__dict__["_event_key_cache"] = (state.options, key)
        return key
    return _build_event_key(state, event, mapped)


def _build_event_key(state: _MergeState, event: Event, mapped: bool) -> str:
    trigger = (
        state.math_key(event.trigger.math)
        if event.trigger is not None and event.trigger.math is not None
        else "<none>"
    )
    delay = (
        state.math_key(event.delay.math)
        if event.delay is not None and event.delay.math is not None
        else "<none>"
    )
    assignments = sorted(
        (
            state.resolve_ref(assignment.variable) if mapped else assignment.variable,
            state.math_key(assignment.math)
            if assignment.math is not None
            else "<none>",
        )
        for assignment in event.assignments
    )
    return f"event:{trigger}|{delay}|{assignments}"


def _rows_events(
    state: "_MergeState", model: Model
) -> Iterator[Tuple[int, Tuple[str, ...]]]:
    for position, event in enumerate(model.events):
        yield position, (
            f"id:{event.id}",
            _event_key(state, event, mapped=False),
        )


def _compose_events(state: _MergeState) -> None:
    index = state.phase_index("events")
    for event in state.source.events:
        keys = [
            f"id:{state.resolve_ref(event.id)}",
            _event_key(state, event, mapped=True),
        ]
        match = index.find(keys) if state.match_anything else None
        if match is not None and (
            _event_key(state, match, mapped=False)
            == _event_key(state, event, mapped=True)
        ):
            state.unite("event", match.id or "?", event.id or "?")
            continue
        if state.decide_only:
            state.claim_id(event.id)
        else:
            duplicate = state.adopt(event)
            if duplicate.trigger is not None:
                duplicate.trigger.math = state.rewrite(duplicate.trigger.math)
            if duplicate.delay is not None:
                duplicate.delay.math = state.rewrite(duplicate.delay.math)
            for assignment in duplicate.assignments:
                assignment.variable = state.resolve_ref(assignment.variable)
                assignment.math = state.rewrite(assignment.math)
            state.append(duplicate, event.id, state.target.add_event)
        state.report.added["event"] += 1


# Figure 4's phase order, named for the per-phase timing table.
_PHASES = (
    ("functionDefinitions", _compose_function_definitions),
    ("unitDefinitions", _compose_unit_definitions),
    ("compartmentTypes", _compose_compartment_types),
    ("speciesTypes", _compose_species_types),
    ("compartments", _compose_compartments),
    ("species", _compose_species),
    ("parameters", _compose_parameters),
    ("initialAssignments", _compose_initial_assignments),
    ("rules", _compose_rules),
    ("constraints", _compose_constraints),
    ("reactions", _compose_reactions),
    ("events", _compose_events),
)


# ---------------------------------------------------------------------------
# Per-model phase-index artifacts
# ---------------------------------------------------------------------------

#: Which model component list each phase indexes.
_PHASE_LISTS = {
    "functionDefinitions": "function_definitions",
    "unitDefinitions": "unit_definitions",
    "compartmentTypes": "compartment_types",
    "speciesTypes": "species_types",
    "compartments": "compartments",
    "species": "species",
    "parameters": "parameters",
    "initialAssignments": "initial_assignments",
    "rules": "rules",
    "constraints": "constraints",
    "reactions": "reactions",
    "events": "events",
}

#: Target-side index rows per phase — the single source of truth for
#: how each phase keys its target components, shared by the fresh
#: per-merge build and the per-model artifact build so the two can
#: never drift apart.
_ROW_BUILDERS = {
    "functionDefinitions": _rows_function_definitions,
    "unitDefinitions": _rows_unit_definitions,
    "compartmentTypes": _rows_compartment_types,
    "speciesTypes": _rows_species_types,
    "compartments": _rows_compartments,
    "species": _rows_species,
    "parameters": _rows_parameters,
    "initialAssignments": _rows_initial_assignments,
    "rules": _rows_rules,
    "constraints": _rows_constraints,
    "reactions": _rows_reactions,
    "events": _rows_events,
}

#: Phases whose target-side keys never consult the live id mapping:
#: function definitions are indexed before any source component is
#: processed (the mapping is empty at that point by construction), and
#: the other four key on raw ids, symbols, unmapped species fields or
#: unmapped reaction signatures.  Their prebuilt bases are valid in
#: *every* merge; the remaining phases resolve target ids (or restrict
#: math patterns) through the mapping, so their bases are only valid
#: while the mapping table is empty.
_MAPPING_FREE_PHASES = frozenset(
    (
        "functionDefinitions",
        "unitDefinitions",
        "species",
        "initialAssignments",
        "reactions",
    )
)


# ---------------------------------------------------------------------------
# Deciding only what overlaps: bulk claims of the species and reactions
# that miss the target
# ---------------------------------------------------------------------------


def _participants(reaction: Reaction) -> List[Optional[str]]:
    return [
        reference.species
        for references in (
            reaction.reactants,
            reaction.products,
            reaction.modifiers,
        )
        for reference in references
    ]


#: Per bulk phase, the names besides its id that a component's mapped
#: keys and its claim resolve: a species' compartment, a reaction's
#: participants.
_BULK_REFERENCES = {
    "species": lambda species: (species.compartment,),
    "reactions": _participants,
}


class _PhaseKeys:
    """One source model's unmapped keys for one bulk phase."""

    __slots__ = ("positions", "shared", "always", "ids", "references", "starts")

    def __init__(self, state: _MergeState, name: str):
        components = getattr(state.source, _PHASE_LISTS[name])
        #: Unmapped key -> position of the first component keyed by it.
        self.positions: Dict[str, int] = {}
        #: ``(key, position)`` of every later component sharing a key.
        self.shared: List[Tuple[str, int]] = []
        for position, keys in _ROW_BUILDERS[name](state, state.source):
            for key in keys:
                if self.positions.setdefault(key, position) != position:
                    self.shared.append((key, position))
        self.ids = [component.id for component in components]
        #: Positions every merge decides one at a time: no id, or the
        #: id of an earlier component (which renames it).
        always: Set[int] = set()
        seen: Set[Optional[str]] = set()
        for position, component_id in enumerate(self.ids):
            if component_id is None or component_id in seen:
                always.add(position)
            seen.add(component_id)
        self.always = frozenset(always)
        #: Every component's references, flat; component ``p`` owns
        #: ``references[starts[p]:starts[p + 1]]``.
        self.references: List[Optional[str]] = []
        self.starts = [0]
        references_of = _BULK_REFERENCES[name]
        for component in components:
            self.references.extend(references_of(component))
            self.starts.append(len(self.references))

    def decided(self, base: HashIndex, match_anything: bool) -> List[int]:
        """The positions, in source order, that are decided one at a
        time against ``base``: every one with an unmapped key in it,
        plus :attr:`always`."""
        if not match_anything:
            # Nothing is probed, so nothing can hit.
            return sorted(self.always)
        positions = self.positions
        base_keys = base.keys()
        hits = {positions[key] for key in base_keys & positions.keys()}
        hits.update(
            position for key, position in self.shared if key in base_keys
        )
        return sorted(hits.union(self.always))


class SourceKeyMap:
    """A source model's unmapped species and reaction keys, for the
    bulk claims of decide-only merges (:func:`_merge_in_runs`).

    Each phase's map is built on first use from the same row builders
    the target bases are built from, so its keys are the exact
    strings a probe would use while nothing the component references
    is mapped.  It holds a position per key, not a container per key.
    The all-pairs engine keeps one per model for one options set;
    like the bound bases, a racing duplicate build is identical.
    """

    __slots__ = ("_phases",)

    def __init__(self):
        self._phases: Dict[str, _PhaseKeys] = {}

    def for_phase(self, state: _MergeState, name: str) -> _PhaseKeys:
        keys = self._phases.get(name)
        if keys is None:
            keys = self._phases[name] = _PhaseKeys(state, name)
        return keys


def _merge_in_runs(state: _MergeState, name: str, kind: str, merge_one) -> None:
    """Run one phase: ``merge_one(state, index, component)`` on each
    source component in order, or, with :attr:`_MergeState.source_keys`
    set, only on those that can meet the target.

    The frozen hash base never grows in these phases, so a component
    none of whose unmapped keys the base holds misses it.  Between two
    decided components lies a run of such misses.  The per-component
    path would claim each one's own id, since nothing renames it,
    exactly when all of these hold, and then the run is claimed in one
    step:

    * no id of the run is used by the target or already claimed by
      this merge (a collision would rename it),
    * the mapping table holds none of its ids or references (its
      probe keys are then its unmapped keys, and its id and
      compartment resolve to themselves).

    Ids within a run are distinct and never ``None``, since
    :attr:`_PhaseKeys.always` decides those one at a time.  A run that
    fails a check is decided one component at a time, so ids, renames
    and the order of fresh ids are what the per-component path gives.
    """
    index = state.phase_index(name)
    components = getattr(state.source, _PHASE_LISTS[name])
    if state.source_keys is None:
        for component in components:
            merge_one(state, index, component)
        return
    phase = state.source_keys.for_phase(state, name)
    ids, references, starts = phase.ids, phase.references, phase.starts
    used_ids, added_ids = state.used_ids, state.added_ids
    table = state.mapping._table
    count = len(components)
    start = 0
    for stop in (*phase.decided(index.base, state.match_anything), count):
        if start < stop:
            run_ids = ids[start:stop]
            run_references = references[starts[start] : starts[stop]]
            if (
                used_ids.isdisjoint(run_ids)
                and added_ids.isdisjoint(run_ids)
                and (
                    not table
                    or (
                        table.keys().isdisjoint(run_ids)
                        and table.keys().isdisjoint(run_references)
                    )
                )
            ):
                added_ids.update(run_ids)
                if name == "species":
                    # Each unmapped compartment resolves to itself.
                    state.adopted_species.update(zip(run_ids, run_references))
                state.report.added[kind] += stop - start
            else:
                for component in components[start:stop]:
                    merge_one(state, index, component)
        if stop < count:
            merge_one(state, index, components[stop])
        start = stop + 1


def index_options_key(options: ComposeOptions) -> Tuple:
    """Stable fingerprint of every option that participates in index
    *keys* (not in index shape — the strategy is chosen at bind time).

    Two option sets with equal fingerprints produce byte-identical
    rows (and signatures) for any model, so artifacts tagged with this
    key can be reused across processes, and remote sweep workers can
    prove they decoded the coordinator's options faithfully.  The
    synonym table participates by content fingerprint because name
    keys canonicalise through it.
    """
    synonyms = options.synonyms if options.match_synonyms else None
    return (
        options.semantics,
        bool(options.use_math_patterns),
        synonyms.fingerprint() if synonyms is not None else None,
    )


def _index_keyer(
    model: Model,
    options: ComposeOptions,
    pattern_cache: PatternCache,
) -> _MergeState:
    """A degenerate merge state that key builders can run against:
    empty mapping, no registries — exactly the state a merge is in
    when it indexes its target side before touching any source
    component.  Reuses :class:`_MergeState` so the artifact build and
    the live merges share one implementation of every key function.
    """
    return _MergeState(
        target=model,
        source=model,
        mapping=IdMapping(),
        report=MergeReport(),
        options=options,
        used_ids=set(),
        target_registry=None,  # type: ignore[arg-type] — keys never consult it
        source_registry=None,  # type: ignore[arg-type]
        initial_values=({}, {}),
        pattern_cache=pattern_cache,
    )


class BoundIndexSet:
    """A :class:`ModelIndexSet` resolved against one live model.

    Rows reference components by list position; binding turns them
    into frozen :class:`~repro.core.index.ComponentIndex` bases
    holding the model's *own* component objects (never deserialised
    twins), built lazily per phase on first use and then shared by
    every merge — and every worker thread — that targets the model.
    Bases are frozen (:meth:`ComponentIndex.freeze`) and must never be
    mutated; merges write through a per-step
    :class:`~repro.core.index.OverlayIndex` instead.
    """

    __slots__ = ("_rows", "_model", "_options", "_bases")

    def __init__(
        self,
        rows: Dict[str, List[Tuple[int, Tuple[str, ...]]]],
        model: Model,
        options: ComposeOptions,
    ):
        self._rows = rows
        self._model = model
        self._options = options
        self._bases: Dict[str, ComponentIndex] = {}

    @property
    def model(self) -> Model:
        return self._model

    def for_phase(self, name: str) -> ComponentIndex:
        """The frozen base index for one phase (built on first use).

        Safe under concurrent callers: a racing duplicate build
        produces an identical index and the last assignment wins.
        """
        base = self._bases.get(name)
        if base is None:
            index = make_index(self._options.index)
            components = getattr(self._model, _PHASE_LISTS[name])
            for position, keys in self._rows.get(name, ()):
                index.add(keys, components[position])
            index.freeze()
            self._bases[name] = base = index
        return base


class ModelIndexSet:
    """Per-model phase-index artifact (paper Figure 5 line 5, hoisted).

    The lookup structure every phase builds over its target components
    is a pure function of ``(model, key-affecting options)`` — yet
    every ``compose_step`` used to rebuild all twelve of them from
    scratch, so an all-pairs sweep over *n* models rebuilt each
    model's indexes *n − 1* times.  A ``ModelIndexSet`` captures the
    index **rows** — ``(component position, key tuple)`` per phase,
    keyed exactly as the phase mergers key them — once per model.
    Rows are plain positional data, which a structural signature is
    derived from too.  :meth:`bind` materialises them against a live
    model as frozen per-phase bases; merges then probe copy-on-write
    overlays so the shared bases — and the backing model — stay
    bit-identical however many decide-only merges reuse them.
    """

    def __init__(
        self,
        rows: Dict[str, List[Tuple[int, Tuple[str, ...]]]],
        options_key: Tuple,
    ):
        self.rows = rows
        self.options_key = options_key

    @classmethod
    def build(
        cls,
        model: Model,
        options: Optional[ComposeOptions] = None,
        pattern_cache: Optional[PatternCache] = None,
    ) -> "ModelIndexSet":
        """Compute a model's index rows under the empty mapping.

        ``pattern_cache`` lets the caller route the math-key work of
        the build through a shared cache so pattern computation stays
        once-per-expression (the build makes its own cache otherwise).
        """
        options = options or ComposeOptions()
        if pattern_cache is None:
            pattern_cache = PatternCache()
        keyer = _index_keyer(model, options, pattern_cache)
        rows = {
            name: list(builder(keyer, model))
            for name, builder in _ROW_BUILDERS.items()
        }
        return cls(rows, index_options_key(options))

    def matches(self, options: ComposeOptions) -> bool:
        """Whether this set's rows are valid under ``options``."""
        return self.options_key == index_options_key(options)

    def bind(self, model: Model, options: ComposeOptions) -> BoundIndexSet:
        """Materialise the rows against a live model.

        The model must carry the same components, in the same list
        order, as the model the rows were built from — itself, any
        ``copy()`` of it, or any model with the same content digest.
        The view is *not* memoised here — a memo would pin the bound
        model alive for the artifact's lifetime — so a caller that
        re-binds the same model repeatedly (the all-pairs engine) must
        hold on to the returned view itself.
        """
        return BoundIndexSet(self.rows, model, options)
