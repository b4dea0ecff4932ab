"""Per-model structural signatures and the vectorized all-pairs prescreen.

The paper's match machinery is pairwise: deciding whether two models
share anything runs the full Figure 4/5 phase sequence.  Corpus-scale
workloads (the all-pairs sweep, "find matches for this model" against
a library) spend most of that work on structurally trivial pairs —
models that share no id, no name, no unit, no math pattern, or whose
only overlaps are verbatim copies of the same component (the shared
``cell`` compartment of every BioModels-style model).  Structural
signatures over network composition are a well-established cheap
discriminator (Holme et al., *Subnetwork hierarchies of biochemical
pathways*), and SIRN-style criteria-count matrices show how to score a
whole corpus against itself with array operations instead of a Python
loop per pair.

A :class:`ModelSignature` condenses one model into

* a **criteria-count vector** (component-type counts, species degree
  histogram, reaction arity histogram, math digest count — numpy
  ``int64``), stored per model by the corpus index, and
* a **key-hash set**: one 64-bit hash per distinct match key the model
  exposes — every non-``id:`` key of its
  :class:`~repro.core.compose.ModelIndexSet` rows (tagged by phase) and
  every used id (tagged ``ids``) — sorted into a ``uint64`` array so
  pair overlaps reduce to binary searches, with two aligned
  side-arrays: the owning component's **congruence fingerprint**
  (:attr:`~ModelSignature.key_fingerprints`) and a **primary** flag
  marking the one hash that stands for the whole component
  (:attr:`~ModelSignature.key_primary`).

The prune rule is written once: :func:`pair_counts` classifies one
target against a run of sources, :func:`gate` applies its three
gates and :func:`synthesized_counts` gives a pruned pair's outcome.
A :class:`Prescreen` runs it once per target row of a sweep, a
:class:`~repro.core.corpus_index.CorpusIndex` query once over the
candidates of its posting walk.  The rule is **sound** with respect
to the full matcher: a pair ``(target, source)`` is pruned only when

1. neither model is empty (the Figure 5 line 1–2 short-circuit makes
   empty pairs trivially synthesizable, so those *are* pruned, with
   ``united=0, added=0``),
2. every shared key hash is **congruent** — owned, in each model, by
   exactly one component, and the two owners are identical twins
   (equal fingerprints: same phase and class, equal in every field,
   maths by digest, the id included) of a synthesizable kind — and
3. the source is **self-clean** (:func:`_self_clean`): no duplicate
   global id across its collections, no duplicate initial-assignment
   symbol, no duplicate rule key — the ways a source can unite or
   rename against *itself* while being merged (the initial-assignment
   and rule phases index components as they add them).

Under those conditions the merge is known exactly without running a
single phase.  Identical twins unite — and because they carry equal
ids (or equal ia symbols / rule variables / constraint messages),
:meth:`~repro.core.mapping.IdMapping.add` drops the identity entry and
the id mapping provably stays **empty** for the whole merge, so every
probe key equals the prebuilt row key and the induction carries phase
to phase.  Every twin resolves to its counterpart (its ``id:`` probe,
or its unique single key for the id-less phases), passes the phase's
equality gate (identical math, identical unit, identical values — see
the kind conditions in :func:`_component_fingerprint`), and unites
with zero conflicts; every non-twin shares no key with the target, so
it adopts verbatim and ``claim_id`` never renames.  The outcome is
``united = #distinct twins`` (counted as shared *primary* hashes),
``added = source.component_count() - united``, ``renamed = 0``,
``conflicts = 0``.

Under ``semantics="none"`` options (``match_anything`` false) the
phases never probe, twins rename instead of uniting, and the twin
gate falls back to the disjointness-only criterion: any key overlap
blocks pruning.

Hash collisions only ever *reduce* pruning (two distinct keys hashing
together makes a pair look overlapping; ambiguous ownership zeroes the
fingerprint), never break soundness.  The conformance matrix pins
byte-identity of the prescreened sweep against the full sweep,
synthesized rows included.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compose import ModelIndexSet, index_options_key
from repro.core.options import ComposeOptions
from repro.sbml.components import (
    AlgebraicRule,
    AssignmentRule,
    Compartment,
    CompartmentType,
    Constraint,
    Event,
    FunctionDefinition,
    InitialAssignment,
    Parameter,
    RateRule,
    Reaction,
    Species,
    SpeciesType,
)
from repro.sbml.model import Model
from repro.units.definitions import UnitDefinition

__all__ = [
    "COUNTS_LENGTH",
    "ModelSignature",
    "Prescreen",
    "gate",
    "key_hash",
    "pair_counts",
    "source_run",
    "synthesized_counts",
]

#: Length of the criteria-count vector (see :func:`_criteria_counts`).
COUNTS_LENGTH = 26

#: The twelve phase component lists, in Figure 4 order — the first
#: twelve slots of the criteria-count vector.
_PHASE_ATTRS = (
    "function_definitions",
    "unit_definitions",
    "compartment_types",
    "species_types",
    "compartments",
    "species",
    "parameters",
    "initial_assignments",
    "rules",
    "constraints",
    "reactions",
    "events",
)

#: Phase names as the index rows spell them, aligned with
#: :data:`_PHASE_ATTRS`.
_PHASE_NAMES = (
    "functionDefinitions",
    "unitDefinitions",
    "compartmentTypes",
    "speciesTypes",
    "compartments",
    "species",
    "parameters",
    "initialAssignments",
    "rules",
    "constraints",
    "reactions",
    "events",
)

#: Collections whose components carry globally scoped ids (the
#: collections :meth:`~repro.sbml.model.Model.global_ids` walks).
_ID_ATTRS = (
    "function_definitions",
    "unit_definitions",
    "compartment_types",
    "species_types",
    "compartments",
    "species",
    "parameters",
    "reactions",
    "events",
)

_ID_ATTR_SET = frozenset(_ID_ATTRS)


def key_hash(tag: str, key: str) -> int:
    """64-bit hash of one tagged match key.

    Keys are tagged by the phase that indexes them (a compartment
    named ``k`` and a parameter named ``k`` can never meet in a phase
    probe, so their hashes must not collide by construction), or by
    ``"ids"`` for used-id membership (which *is* global: any source id
    equal to any used target id forces a rename in ``claim_id``).
    """
    digest = hashlib.blake2b(
        tag.encode("utf-8") + b"\x00" + key.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _math(node) -> str:
    """A math field: its cached digest, or ``None``."""
    return "None" if node is None else node.digest()


def _base(component) -> str:
    return (
        f"{component.id!r},{component.name!r},{component.metaid!r},"
        f"{component.notes!r},{component.sbo_term!r},"
        f"{component.annotations!r}"
    )


def _parameter(parameter: Parameter) -> str:
    return (
        f"{_base(parameter)},{parameter.value!r},{parameter.units!r},"
        f"{parameter.constant!r}"
    )


def _unit_definition(definition: UnitDefinition) -> str:
    units = ",".join(
        [
            f"({unit.kind!r},{unit.exponent!r},{unit.scale!r},"
            f"{unit.multiplier!r})"
            for unit in definition.units
        ]
    )
    return f"{definition.id!r},{definition.name!r},[{units}]"


def _compartment(compartment: Compartment) -> str:
    return (
        f"{_base(compartment)},{compartment.size!r},{compartment.units!r},"
        f"{compartment.spatial_dimensions!r},"
        f"{compartment.compartment_type!r},{compartment.outside!r},"
        f"{compartment.constant!r}"
    )


def _species(species: Species) -> str:
    return (
        f"{_base(species)},{species.compartment!r},"
        f"{species.initial_amount!r},{species.initial_concentration!r},"
        f"{species.substance_units!r},{species.has_only_substance_units!r},"
        f"{species.boundary_condition!r},{species.constant!r},"
        f"{species.species_type!r},{species.charge!r}"
    )


def _math_component(component) -> str:
    return f"{_base(component)},{_math(component.math)}"


def _initial_assignment(assignment: InitialAssignment) -> str:
    return (
        f"{_base(assignment)},{assignment.symbol!r},"
        f"{_math(assignment.math)}"
    )


def _variable_rule(rule) -> str:
    return f"{_base(rule)},{_math(rule.math)},{rule._variable!r}"


def _constraint(constraint: Constraint) -> str:
    return (
        f"{_base(constraint)},{_math(constraint.math)},"
        f"{constraint.message!r}"
    )


def _references(references) -> str:
    return ",".join(
        [f"({ref.species!r},{ref.stoichiometry!r})" for ref in references]
    )


def _reaction(reaction: Reaction) -> str:
    law = reaction.kinetic_law
    if law is None:
        law_text = "None"
    else:
        parameters = ",".join([f"({_parameter(p)})" for p in law.parameters])
        law_text = f"({_base(law)},{_math(law.math)},[{parameters}])"
    modifiers = ",".join([repr(ref.species) for ref in reaction.modifiers])
    return (
        f"{_base(reaction)},[{_references(reaction.reactants)}],"
        f"[{_references(reaction.products)}],[{modifiers}],{law_text},"
        f"{reaction.reversible!r},{reaction.fast!r}"
    )


def _math_holder(holder) -> str:
    """An event's trigger or delay: ``None``, or its math wrapped."""
    return "None" if holder is None else f"({_math(holder.math)})"


def _event(event: Event) -> str:
    assignments = ",".join(
        [
            f"({assignment.variable!r},{_math(assignment.math)})"
            for assignment in event.assignments
        ]
    )
    return (
        f"{_base(event)},{_math_holder(event.trigger)},"
        f"{_math_holder(event.delay)},[{assignments}]"
    )


#: One formatter per component class: every dataclass field, in field
#: order — strings, numbers and bools by ``repr``, each math field by
#: its cached :meth:`~repro.mathml.ast.MathNode.digest` (equal iff the
#: trees' ``repr`` is), nested references, laws, local parameters,
#: units and event assignments inline.  Every value is written so that
#: the text parses back, field by field, so the text is exactly as
#: fine as the component's own dataclass ``repr``.
_FORMATTERS: Dict[type, Callable[..., str]] = {
    FunctionDefinition: _math_component,
    UnitDefinition: _unit_definition,
    CompartmentType: _base,
    SpeciesType: _base,
    Compartment: _compartment,
    Species: _species,
    Parameter: _parameter,
    InitialAssignment: _initial_assignment,
    AlgebraicRule: _math_component,
    AssignmentRule: _variable_rule,
    RateRule: _variable_rule,
    Constraint: _constraint,
    Reaction: _reaction,
    Event: _event,
}


def _component_fingerprint(phase: str, component) -> int:
    """Congruence fingerprint of one component, ``0`` = never prunable.

    Two components with equal nonzero fingerprints are identical twins
    — same phase, same class, equal in every field, maths by digest
    (:data:`_FORMATTERS`) — and a twin provably unites *cleanly*: the
    phase equality gates compare identical maths, units and values,
    and the conflict checks compare a value with itself
    (``compare_values(v, v)`` and ``compare_values(None, None)`` are
    both equal with no note).  The one kind condition: a **constant
    parameter without a value** falls through ``provably_equal``
    ("no way of confirming whether they are intended to be equal",
    paper §3) into the rename branch, so it gets the ``0`` sentinel
    and any pair sharing its keys runs the full matcher.  So does a
    component of a class the table does not know.
    """
    formatter = _FORMATTERS.get(type(component))
    if formatter is None or (
        phase == "parameters"
        and component.constant
        and component.value is None
    ):
        return 0
    fingerprint = key_hash(
        "twin:" + phase, type(component).__name__ + ":" + formatter(component)
    )
    # ``0`` is reserved as the "not synthesizable" sentinel.
    return fingerprint or 1


def _criteria_counts(model: Model) -> np.ndarray:
    """The signature's criteria-count vector (SIRN-style).

    Layout: 12 component-list lengths (Figure 4 order), 5-bin
    species degree histogram (reactant/product participations:
    0,1,2,3,>=4), 5-bin reaction arity histogram (reactants +
    products: 0,1,2,3,>=4), reversible reaction count, edge count,
    distinct math digest count, network size.
    """
    counts = np.zeros(COUNTS_LENGTH, dtype=np.int64)
    for slot, attr in enumerate(_PHASE_ATTRS):
        counts[slot] = len(getattr(model, attr))
    degrees: Dict[str, int] = {
        species.id: 0 for species in model.species if species.id
    }
    reversible = 0
    for reaction in model.reactions:
        arity = 0
        for reference in list(reaction.reactants) + list(reaction.products):
            arity += 1
            if reference.species in degrees:
                degrees[reference.species] += 1
        counts[17 + min(arity, 4)] += 1
        if reaction.reversible:
            reversible += 1
    for degree in degrees.values():
        counts[12 + min(degree, 4)] += 1
    counts[22] = reversible
    counts[23] = model.num_edges()
    counts[24] = len({math.digest() for math in model.all_math()})
    counts[25] = model.network_size()
    return counts


def _self_clean(index_set: ModelIndexSet, repeated_id: bool) -> bool:
    """Whether the model can be merged into a congruent-or-disjoint
    target without interacting with *itself*.

    Three self-interactions exist even then: a global id repeated
    across the source's own collections (``repeated_id``) makes
    ``claim_id`` rename the second occurrence (the first added one
    registered the id as used); the initial-assignment and rule phases
    index source components as they add them, so a repeated
    initial-assignment symbol or rule key makes the source unite (or
    conflict) with its own earlier component.  A source that is not
    self-clean is never pruned — the full matcher decides.
    """
    if repeated_id:
        return False
    for phase in ("initialAssignments", "rules"):
        keys = [row[1] for row in index_set.rows.get(phase, ())]
        if len(keys) != len(set(keys)):
            return False
    return True


@dataclass
class ModelSignature:
    """Cheap structural summary of one model, under one option set.

    Stored in each :class:`~repro.core.artifact_store.ArtifactStore`
    entry; like the index rows it is derived from, it is tagged with
    the key-affecting options fingerprint
    (:func:`~repro.core.compose.index_options_key`) and consumers must
    check :meth:`matches` before trusting it.
    """

    options_key: Tuple
    component_count: int
    #: Criteria-count vector (:func:`_criteria_counts`), ``int64``.
    counts: np.ndarray
    #: Sorted distinct 64-bit hashes of every tagged match key.
    key_hashes: np.ndarray
    #: Aligned with :attr:`key_hashes`: the owning component's
    #: congruence fingerprint (:func:`_component_fingerprint`), or
    #: ``0`` when the key has multiple owners in this model or the
    #: owner is not of a synthesizable kind.
    key_fingerprints: np.ndarray
    #: Aligned with :attr:`key_hashes`: ``True`` for the one hash that
    #: stands for the whole component when counting united twins — the
    #: ``ids`` hash for id-bearing components, the first phase key for
    #: id-less ones (initial assignments, rules, constraints).
    key_primary: np.ndarray
    #: Whether a merge into a congruent-or-disjoint target provably
    #: never interacts with itself (see :func:`_self_clean`).
    self_clean: bool

    @classmethod
    def build(
        cls,
        model: Model,
        options: Optional[ComposeOptions] = None,
        *,
        index_set: Optional[ModelIndexSet] = None,
    ) -> "ModelSignature":
        """Compute a model's signature.

        ``index_set`` lets a caller that already derived the model's
        index rows under ``options`` (the prescreen) share them.
        """
        options = options or ComposeOptions()
        if index_set is None:
            index_set = ModelIndexSet.build(model, options)
        elif not index_set.matches(options):
            raise ValueError(
                "index_set was built under different key options"
            )
        # One record per (key, owner): the key's hash, the owner's
        # fingerprint and whether the key stands for the whole owner.
        # Each used id is hashed once; a key with two or more owners
        # (or a cross-tag collision) is resolved below.
        id_hashes: Dict[str, int] = {}
        id_count = 0
        hashes: List[int] = []
        fingerprints: List[int] = []
        primary: List[bool] = []
        for phase, attr in zip(_PHASE_NAMES, _PHASE_ATTRS):
            collection = getattr(model, attr)
            owned = [_component_fingerprint(phase, c) for c in collection]
            has_ids = attr in _ID_ATTR_SET
            if has_ids:
                for component, fingerprint in zip(collection, owned):
                    component_id = component.id
                    if component_id is None:
                        continue
                    id_count += 1
                    hash_value = id_hashes.get(component_id)
                    if hash_value is None:
                        hash_value = key_hash("ids", component_id)
                        id_hashes[component_id] = hash_value
                    hashes.append(hash_value)
                    fingerprints.append(fingerprint)
                    primary.append(True)
            for position, keys in index_set.rows.get(phase, ()):
                fingerprint = owned[position]
                # The component's "counts as one united twin" marker
                # rides on its ids hash when it has a global id, else
                # on its first phase key (ia symbol, rule key,
                # constraint math key).
                pending = not (has_ids and collection[position].id is not None)
                for key in dict.fromkeys(keys):
                    # ``id:`` keys are subsumed by the used-id hashes:
                    # a phase probe on ``id:x`` can only hit when the
                    # raw id ``x`` is shared, which the ``ids`` tag
                    # already reports (and unlike phase keys, id
                    # collisions matter across *all* phases via
                    # ``claim_id``).
                    if key.startswith("id:"):
                        continue
                    hashes.append(key_hash(phase, key))
                    fingerprints.append(fingerprint)
                    primary.append(pending)
                    pending = False
        key_hashes, at = np.unique(
            np.array(hashes, dtype=np.uint64), return_inverse=True
        )
        # A key owned once keeps its owner's fingerprint and primary
        # flag; a key owned twice is poisoned (``0``, not primary).
        single = np.bincount(at, minlength=key_hashes.size)[at] == 1
        key_fingerprints = np.zeros(key_hashes.size, dtype=np.uint64)
        key_fingerprints[at[single]] = np.array(
            fingerprints, dtype=np.uint64
        )[single]
        key_primary = np.zeros(key_hashes.size, dtype=bool)
        key_primary[at[single]] = np.array(primary, dtype=bool)[single]
        return cls(
            options_key=index_options_key(options),
            component_count=model.component_count(),
            counts=_criteria_counts(model),
            key_hashes=key_hashes,
            key_fingerprints=key_fingerprints,
            key_primary=key_primary & (key_fingerprints != 0),
            self_clean=_self_clean(index_set, len(id_hashes) < id_count),
        )

    def matches(self, options: ComposeOptions) -> bool:
        """Whether this signature is valid under ``options``."""
        return self.options_key == index_options_key(options)


_NO_KEYS = np.empty(0, dtype=np.uint64)

#: ``(hashes, fingerprints, owners)``: see :func:`source_run`.
SourceRun = Tuple[np.ndarray, np.ndarray, np.ndarray]


def source_run(
    signatures: Sequence[ModelSignature], positions: Sequence[int]
) -> SourceRun:
    """The sources' key hashes and congruence fingerprints back to
    back, each key owned by its source's position in the row."""
    lengths = [s.key_hashes.size for s in signatures]
    return (
        np.concatenate([_NO_KEYS, *(s.key_hashes for s in signatures)]),
        np.concatenate([_NO_KEYS, *(s.key_fingerprints for s in signatures)]),
        np.repeat(np.asarray(positions, dtype=np.intp), lengths),
    )


def pair_counts(
    target: ModelSignature, run: SourceRun, size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule's kernel: ``(shared, noncongruent, united)`` key counts
    of ``target`` against every owner of ``run``, as ``size``-long
    vectors.

    The sources' hashes are binary-searched into the target's sorted
    ones.  A shared key is *congruent* when both owners carry the same
    nonzero fingerprint; ``united`` counts the congruent keys primary
    in the target (one per twin component).
    """
    keys = target.key_hashes
    if keys.size == 0:
        return tuple(np.zeros(size, dtype=np.int64) for _ in range(3))
    hashes, fingerprints, owners = run
    at = np.minimum(np.searchsorted(keys, hashes), keys.size - 1)
    hit = keys[at] == hashes
    at, owners = at[hit], owners[hit]
    target_fps = target.key_fingerprints[at]
    congruent = (target_fps == fingerprints[hit]) & (target_fps != 0)
    twins = owners[congruent & target.key_primary[at]]
    return (
        np.bincount(owners, minlength=size),
        np.bincount(owners[~congruent], minlength=size),
        np.bincount(twins, minlength=size),
    )


def gate(
    counts: Tuple[np.ndarray, np.ndarray, np.ndarray],
    *,
    match_anything: bool,
    target_count: int,
    source_counts: np.ndarray,
    source_clean: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule's three gates over :func:`pair_counts`: ``(blocked,
    united, survives)`` per source.

    * **Twins**: ``blocked`` when a shared key is not congruent; a
      blocked pair unites nothing.  Under ``match_anything=False`` the
      phases never probe and twins rename, so every overlap blocks.
    * **Self-clean source**: an unclean source ``survives``, that is,
      runs the full matcher.
    * **Empty model**: a pair with an empty side never does (Figure 5
      lines 1–2).
    """
    shared, noncongruent, united = counts
    blocked = (noncongruent if match_anything else shared) > 0
    survives = (
        (blocked | ~source_clean) & (source_counts != 0) & (target_count != 0)
    )
    return blocked, np.where(blocked, 0, united), survives


def synthesized_counts(
    target_count: int, source_count: int, united: int
) -> Tuple[int, int, int, int]:
    """``(united, added, renamed, conflicts)`` of a pair the rule
    prunes: every twin unites and every other source component is
    adopted verbatim; a pair with an empty side adds nothing."""
    if target_count == 0 or source_count == 0:
        return (0, 0, 0, 0)
    return (united, source_count - united, 0, 0)


class Prescreen:
    """Vectorized structural prescreen over one corpus.

    Holds one :class:`ModelSignature` per model and, when built, fills
    one target row at a time through the prune rule the pair matrices
    of congruence blocks (:attr:`pair_blocked`), synthesized union
    counts (:attr:`pair_united`) and survivors:
    ``survivors()[i, j]`` is ``True`` when the pair *must* run the
    full matcher, ``False`` when its outcome is provably known and may
    be synthesized (see the module docstring for the soundness
    argument).  ``match_all(..., prescreen=True)`` builds one, and
    so does ``sbmlcompose sweep --prescreen``, once per command.
    """

    def __init__(
        self,
        signatures: Sequence[ModelSignature],
        options: Optional[ComposeOptions] = None,
    ):
        self.options = options or ComposeOptions()
        self.signatures = list(signatures)
        for position, signature in enumerate(self.signatures):
            if not signature.matches(self.options):
                raise ValueError(
                    f"signature {position} was built under different "
                    f"key options than this prescreen's"
                )
        self.component_counts = np.array(
            [signature.component_count for signature in self.signatures],
            dtype=np.int64,
        )
        self.self_clean = np.array(
            [signature.self_clean for signature in self.signatures],
            dtype=bool,
        )
        n = len(self.signatures)
        #: ``n x n``: ``True`` when some shared key is not owned by
        #: congruent identical twins — the pair cannot be synthesized.
        self.pair_blocked = np.zeros((n, n), dtype=bool)
        #: ``n x n``: the number of distinct identical-twin components
        #: the pair shares (``0`` where :attr:`pair_blocked`).
        self.pair_united = np.zeros((n, n), dtype=np.int64)
        self._survivors = np.zeros((n, n), dtype=bool)
        #: Per model, the index rows its signature was derived from,
        #: when :meth:`build` derived them (``None`` for handed
        #: signatures): the sweep engine binds a target's rows instead
        #: of building them again.
        self.index_sets: Optional[List[ModelIndexSet]] = None
        self._fill_rows()

    @classmethod
    def build(
        cls,
        models: Sequence[Model],
        options: Optional[ComposeOptions] = None,
    ) -> "Prescreen":
        """Derive one signature per model and screen the corpus,
        keeping each model's index rows (:attr:`index_sets`)."""
        options = options or ComposeOptions()
        index_sets = [ModelIndexSet.build(model, options) for model in models]
        screen = cls(
            [
                ModelSignature.build(model, options, index_set=rows)
                for model, rows in zip(models, index_sets)
            ],
            options,
        )
        screen.index_sets = index_sets
        return screen

    def __len__(self) -> int:
        return len(self.signatures)

    def _fill_rows(self) -> None:
        """Fill the pair tables one target row at a time through the
        rule.  A key that one model alone holds meets no other model's,
        so the run keeps the keys two or more models hold, in hash
        order (the binary searches then walk the target's keys in
        step); each self pair is counted against the target's own
        keys."""
        n = len(self.signatures)
        hashes, fingerprints, owners = source_run(self.signatures, range(n))
        _, inverse, holders = np.unique(
            hashes, return_inverse=True, return_counts=True
        )
        common = np.flatnonzero(holders[inverse] > 1)
        common = common[np.argsort(inverse[common], kind="stable")]
        run = (hashes[common], fingerprints[common], owners[common])
        for i, target in enumerate(self.signatures):
            counts = pair_counts(target, run, n)
            own = pair_counts(target, source_run([target], [0]), 1)
            for count, self_pair in zip(counts, own):
                count[i] = self_pair[0]
            (
                self.pair_blocked[i],
                self.pair_united[i],
                self._survivors[i],
            ) = gate(
                counts,
                match_anything=self.options.match_anything,
                target_count=int(self.component_counts[i]),
                source_counts=self.component_counts,
                source_clean=self.self_clean,
            )

    def survivors(self) -> np.ndarray:
        """Boolean pair matrix: ``True`` = run the full matcher.

        ``[i, j]`` reads "``j`` merged into ``i``" — the all-pairs
        engine's orientation.  A pair survives unless either side is
        empty (trivially synthesizable) or every shared key is owned
        by congruent identical twins *and* the source is self-clean.
        """
        return self._survivors

    def synthesized_counts(self, i: int, j: int) -> Tuple[int, int, int, int]:
        """``(united, added, renamed, conflicts)`` for a pruned pair
        (:func:`synthesized_counts`)."""
        return synthesized_counts(
            int(self.component_counts[i]),
            int(self.component_counts[j]),
            int(self.pair_united[i, j]),
        )
