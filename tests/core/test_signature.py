"""Per-model structural signatures and the vectorized prescreen.

Byte-identity of the prescreened sweep lives in the conformance
matrix (the eighth path); this file pins the signature layer itself —
the congruence fingerprint against the ``repr`` oracle, vector
layout, the prune rule's kernel and gates against the per-pair oracle
in ``reference_query.py``, the survivor algebra, and prescreens over
stored or handed signatures.
"""

import dataclasses
import importlib
import os
import typing
from pathlib import Path

import numpy as np
import pytest
from reference_query import (
    OPTION_SETS,
    congruence,
    gated_corpus,
    key_tables,
    query_scores,
    query_survivors,
    query_tables,
    repr_fingerprint,
)

from repro import ComposeOptions, ModelBuilder
from repro.core import signature as signature_module
from repro.core.artifact_store import ArtifactStore
from repro.core.compose import ModelIndexSet
from repro.core.match_all import match_all
from repro.core.options import SEMANTICS_NONE
from repro.core.signature import (
    COUNTS_LENGTH,
    ModelSignature,
    Prescreen,
    _FORMATTERS,
    _PHASE_ATTRS,
    _PHASE_NAMES,
    _component_fingerprint,
    gate,
    key_hash,
    pair_counts,
    source_run,
)
from repro.corpus import generate_corpus, semantic_suite
from repro.mathml import parse_infix
from repro.mathml.ast import Apply, Identifier, Lambda, MathNode, Number
from repro.sbml import Model
from repro.sbml.components import (
    AlgebraicRule,
    AssignmentRule,
    Compartment,
    CompartmentType,
    Constraint,
    Delay,
    Event,
    EventAssignment,
    FunctionDefinition,
    InitialAssignment,
    KineticLaw,
    ModifierSpeciesReference,
    Parameter,
    RateRule,
    Reaction,
    Species,
    SpeciesReference,
    SpeciesType,
    Trigger,
)
from repro.units.definitions import Unit, UnitDefinition


def _model(model_id="m", species=("A", "B"), value=0.5):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for name in species:
        builder = builder.species(name, 1.0)
    builder = builder.parameter("k", value)
    builder = builder.mass_action(
        f"r_{model_id}", [species[0]], [species[-1]], "k"
    )
    return builder.build()


def _classify(target, source):
    """``(shared, blocked, united)`` of one pair through the row
    kernel and the twin gate, checked against the per-pair oracle."""
    counts = pair_counts(target, source_run([source], [0]), 1)
    blocked, united, _ = gate(
        counts,
        match_anything=True,
        target_count=target.component_count,
        source_counts=np.array([source.component_count]),
        source_clean=np.array([source.self_clean]),
    )
    row = (int(counts[0][0]), bool(blocked[0]), int(united[0]))
    assert row == congruence(target, source)
    return row


def _component_classes():
    """``{class: phase}`` for every class a model's phase lists hold
    (a rule list holds the concrete rule classes)."""
    hints = typing.get_type_hints(Model)
    classes = {}
    for phase, attr in zip(_PHASE_NAMES, _PHASE_ATTRS):
        (pending,) = typing.get_args(hints[attr])
        stack = [pending]
        while stack:
            cls = stack.pop()
            subclasses = cls.__subclasses__()
            if subclasses:
                stack.extend(subclasses)
            else:
                classes[cls] = phase
    return classes


def _sbase(tag):
    return dict(
        id=tag,
        name=f"{tag} name",
        metaid=f"meta_{tag}",
        notes=f"{tag} notes",
        sbo_term="SBO:0000001",
        annotations={"is": [f"urn:{tag}"]},
    )


def _full_components():
    """One instance of each component class with every field set."""
    law = KineticLaw(
        math=parse_infix("k * A / (Km + A)"),
        parameters=[Parameter(value=3.0, units="u", **_sbase("kl"))],
        **_sbase("law"),
    )
    return [
        FunctionDefinition(
            math=Lambda(("x",), parse_infix("2 * x")), **_sbase("f")
        ),
        UnitDefinition("u", name="unit", units=[Unit("mole", 2, -3, 0.5)]),
        CompartmentType(**_sbase("ct")),
        SpeciesType(**_sbase("st")),
        Compartment(
            size=2.0,
            units="litre",
            spatial_dimensions=2,
            compartment_type="ct",
            outside="o",
            constant=False,
            **_sbase("c"),
        ),
        Species(
            compartment="c",
            initial_amount=1.0,
            initial_concentration=2.0,
            substance_units="mole",
            has_only_substance_units=True,
            boundary_condition=True,
            constant=True,
            species_type="st",
            charge=-2,
            **_sbase("A"),
        ),
        Parameter(value=1.0, units="u", constant=False, **_sbase("p")),
        InitialAssignment(
            symbol="p", math=parse_infix("2 * A"), **_sbase("ia")
        ),
        AlgebraicRule(math=parse_infix("A - B"), **_sbase("alg")),
        AssignmentRule(
            math=parse_infix("A + B"), _variable="p", **_sbase("asg")
        ),
        RateRule(math=parse_infix("k * A"), _variable="A", **_sbase("rr")),
        Constraint(
            math=parse_infix("A > 0"), message="keep A", **_sbase("con")
        ),
        Reaction(
            reactants=[SpeciesReference("A", 2.0)],
            products=[SpeciesReference("B", 1.0)],
            modifiers=[ModifierSpeciesReference("C")],
            kinetic_law=law,
            reversible=False,
            fast=True,
            **_sbase("r"),
        ),
        Event(
            trigger=Trigger(parse_infix("A > 1")),
            delay=Delay(parse_infix("2 * t")),
            assignments=[EventAssignment("A", parse_infix("A / 2"))],
            **_sbase("e"),
        ),
    ]


def _changed(value):
    """A different value of the same kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "_"
    if isinstance(value, dict):
        return {**value, "isVersionOf": ["urn:other"]}
    if isinstance(value, MathNode):
        return Apply("plus", (value, Identifier("other")))
    raise TypeError(f"no mutation for {value!r}")


def _mutants(obj):
    """``(field path, copy of obj with that one field changed)`` for
    every dataclass field of ``obj`` and, recursively, of the
    dataclasses it holds (a list through its first element, and one
    element more)."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, list):
            variants = [
                (f"[0].{path}", [mutant, *value[1:]])
                for path, mutant in _mutants(value[0])
            ]
            variants.append(("+", [*value, value[0]]))
        elif dataclasses.is_dataclass(value) and not isinstance(
            value, MathNode
        ):
            variants = [
                (f".{path}", mutant) for path, mutant in _mutants(value)
            ]
            variants.append(("=None", None))
        else:
            variants = [("", _changed(value))]
            if not isinstance(value, dict):
                variants.append(("=None", None))
        for suffix, new in variants:
            yield field.name + suffix, dataclasses.replace(
                obj, **{field.name: new}
            )


def _twins(models, fingerprint):
    """The twin partition: components grouped by fingerprint, each as
    ``(model, collection, position)``."""
    groups = {}
    for number, model in enumerate(models):
        for phase, attr in zip(_PHASE_NAMES, _PHASE_ATTRS):
            for position, component in enumerate(getattr(model, attr)):
                groups.setdefault(fingerprint(phase, component), []).append(
                    (number, attr, position)
                )
    return sorted(groups.values())


def _io_oracle_feature_models(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "sbml"))
    return importlib.import_module("test_io_oracle")._feature_models()


def _log_builds(monkeypatch, owner, log):
    """Patch the classmethod ``owner.build`` to append ``pid model.id``
    to the file ``log`` per call, so a call in a forked worker shows
    too; returns ``log``."""
    original = owner.build.__func__

    def logging(cls, model, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {model.id}\n")
        return original(cls, model, *args, **kwargs)

    monkeypatch.setattr(owner, "build", classmethod(logging))
    return log


def _assert_built_once_here(log, corpus):
    """``log`` holds one build per model of ``corpus``, every one made
    in this process."""
    builds = [line.split() for line in log.read_text().splitlines()]
    assert {pid for pid, _ in builds} == {str(os.getpid())}
    assert sorted(model for _, model in builds) == sorted(
        model.id for model in corpus
    )


class TestFingerprint:
    """The per-class formatters against the ``repr`` oracle."""

    def test_formatters_cover_exactly_the_component_classes(self):
        assert set(_FORMATTERS) == set(_component_classes())
        assert {type(c) for c in _full_components()} == set(_FORMATTERS)

    def test_every_field_moves_the_fingerprint(self):
        classes = _component_classes()
        checked = 0
        for component in _full_components():
            phase = classes[type(component)]
            original = _component_fingerprint(phase, component)
            assert original != 0
            for path, mutant in _mutants(component):
                assert repr(mutant) != repr(component), path
                assert _component_fingerprint(phase, mutant) != original, (
                    f"{type(component).__name__}.{path}"
                )
                checked += 1
        # Every field of the 14 classes and of the 8 nested ones.
        assert checked > 150

    @pytest.mark.parametrize(
        "corpus", ["seed-1", "seed-2", "seed-3", "semantic-suite", "features"]
    )
    def test_twin_partition_equals_the_repr_oracle(self, corpus, monkeypatch):
        if corpus == "semantic-suite":
            models = semantic_suite()
        elif corpus == "features":
            models = _io_oracle_feature_models(monkeypatch)
        else:
            models = generate_corpus(count=96, seed=int(corpus[-1]))
        twins = _twins(models, _component_fingerprint)
        assert twins == _twins(models, repr_fingerprint)
        # The partition is not trivial: some components are twins.
        assert any(len(group) > 1 for group in twins)

    def test_rule_classes_are_not_twins(self):
        """An assignment rule and a rate rule with equal fields differ
        by class alone, as their ``repr``s do."""
        math = parse_infix("k * A")
        fingerprints = {
            _component_fingerprint("rules", cls(math=math, _variable="A"))
            for cls in (AssignmentRule, RateRule)
        }
        assert len(fingerprints) == 2

    def test_empty_units_are_not_twins_of_no_units(self):
        """``<cn sbml:units="">`` reads as ``units=""``, which ``==``
        and ``repr`` tell apart from no units; so must the digest."""
        left = InitialAssignment(symbol="p", math=Number(1.0))
        right = InitialAssignment(symbol="p", math=Number(1.0, ""))
        assert repr(left) != repr(right)
        phase = "initialAssignments"
        assert _component_fingerprint(phase, left) != _component_fingerprint(
            phase, right
        )


class TestModelSignature:
    def test_vector_layout(self):
        signature = ModelSignature.build(_model())
        assert signature.counts.shape == (COUNTS_LENGTH,)
        assert signature.key_hashes.dtype == np.uint64
        hashes = signature.key_hashes
        assert np.array_equal(hashes, np.sort(hashes))
        assert len(np.unique(hashes)) == len(hashes)
        # Fingerprint and primary vectors are aligned with key_hashes.
        assert signature.key_fingerprints.shape == hashes.shape
        assert signature.key_primary.shape == hashes.shape
        assert signature.component_count > 0
        assert signature.self_clean

    def test_copy_shares_signature_content(self):
        model = _model()
        first = ModelSignature.build(model)
        second = ModelSignature.build(model.copy())
        assert np.array_equal(first.key_hashes, second.key_hashes)
        assert np.array_equal(
            first.key_fingerprints, second.key_fingerprints
        )
        assert np.array_equal(first.counts, second.counts)

    def test_matches_is_an_options_gate(self):
        signature = ModelSignature.build(_model(), ComposeOptions())
        assert signature.matches(ComposeOptions())
        assert not signature.matches(
            ComposeOptions(semantics=SEMANTICS_NONE)
        )

    def test_self_congruence_is_never_blocked(self):
        signature = ModelSignature.build(_model())
        shared, blocked, united = _classify(signature, signature)
        assert shared == len(signature.key_hashes)
        assert not blocked
        # Every component unites exactly once with its own twin.
        assert united == signature.component_count

    def test_shared_twins_unite_disjoint_rest_adds(self):
        left = ModelSignature.build(_model("a", species=("A", "B")))
        right = ModelSignature.build(_model("b", species=("X", "Y")))
        shared, blocked, united = _classify(left, right)
        # "cell" and "k" are identical twins; everything else is
        # disjoint — the canonical prunable pair.
        assert shared > 0
        assert not blocked
        assert united == 2

    def test_conflicting_value_blocks(self):
        left = ModelSignature.build(_model("a", species=("A", "B")))
        right = ModelSignature.build(
            _model("b", species=("X", "Y"), value=0.9)
        )
        shared, blocked, united = _classify(left, right)
        # Same parameter id "k", different value: the full matcher
        # would report a conflict, so the twin gate must block.
        assert shared > 0
        assert blocked
        assert united == 0

    def test_value_twins_are_congruent(self):
        left = ModelSignature.build(_model("a"))
        right = ModelSignature.build(_model("a"))
        shared, blocked, united = _classify(left, right)
        assert not blocked and united == left.component_count
        different = ModelSignature.build(_model("a", value=0.7))
        _, blocked, _ = _classify(left, different)
        assert blocked  # same parameter id, different value

    def test_key_owners_match_the_record_by_record_oracle(self):
        """The one ``np.unique``/``bincount`` pass resolves key owners
        as recording them one by one does, keys with two owners
        included: an id repeated across collections, and two species
        sharing a name in one compartment."""
        crowded = _model("crowded", species=("A", "B", "C"))
        crowded.species[1].name = crowded.species[2].name = "twin name"
        crowded.compartments.append(Compartment(id="k"))
        models = [*gated_corpus(generate_corpus(count=4, seed=3)), crowded]
        poisoned = 0
        for options in OPTION_SETS:
            for model in models:
                signature = ModelSignature.build(model, options)
                hashes, fingerprints, primary = key_tables(model, options)
                assert np.array_equal(signature.key_hashes, hashes)
                assert np.array_equal(signature.key_fingerprints, fingerprints)
                assert np.array_equal(signature.key_primary, primary)
            shared_id = key_hash("ids", "k")
            signature = ModelSignature.build(crowded, options)
            at = np.searchsorted(signature.key_hashes, np.uint64(shared_id))
            poisoned += int(signature.key_fingerprints[at] == 0)
        assert poisoned == len(OPTION_SETS)

    def test_empty_model_signature(self):
        signature = ModelSignature.build(Model(id="empty"))
        assert signature.component_count == 0
        assert len(signature.key_hashes) == 0

    def test_key_hash_is_tag_scoped(self):
        assert key_hash("ids", "A") != key_hash("species", "A")
        assert key_hash("ids", "A") == key_hash("ids", "A")


class TestPrescreen:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(count=8, seed=7)

    def test_matrix_shapes_and_diagonal(self, corpus):
        screen = Prescreen.build(corpus)
        n = len(corpus)
        assert len(screen) == n
        for matrix in (
            screen.pair_blocked,
            screen.pair_united,
            screen.survivors(),
        ):
            assert matrix.shape == (n, n)
        assert np.array_equal(screen.pair_blocked, screen.pair_blocked.T)
        # Shared-key counts, from the pairwise reference: each model
        # shares every one of its own keys, and sharing is symmetric.
        scores = np.array(
            [query_scores(screen, signature) for signature in screen.signatures]
        )
        for i, signature in enumerate(screen.signatures):
            assert scores[i, i] == len(signature.key_hashes)
        assert np.array_equal(scores, scores.T)

    def test_survivor_algebra(self, corpus):
        screen = Prescreen.build(corpus)
        survivors = screen.survivors()
        # A blocked pair always survives; an empty side never does.
        assert not survivors[np.array(screen.component_counts) == 0].any()
        blocked_nonempty = (
            screen.pair_blocked
            & (screen.component_counts[:, None] != 0)
            & (screen.component_counts[None, :] != 0)
        )
        assert (survivors | ~blocked_nonempty).all()
        rate = 1.0 - survivors[np.triu_indices(len(corpus))].mean()
        assert 0.0 <= rate <= 1.0
        # The motivating case: BioModels-like corpora share the "cell"
        # compartment everywhere, yet congruence still prunes.
        assert rate > 0.0

    def test_synthesized_counts_match_full_matcher(self, corpus):
        screen = Prescreen.build(corpus)
        survivors = screen.survivors()
        full = {(o.i, o.j): o for o in match_all(corpus).outcomes}
        checked = 0
        for (i, j), outcome in full.items():
            if survivors[i, j]:
                continue
            checked += 1
            assert screen.synthesized_counts(i, j) == (
                outcome.united,
                outcome.added,
                outcome.renamed,
                outcome.conflicts,
            )
        assert checked > 0

    def test_empty_pair_short_circuits(self):
        screen = Prescreen.build([_model(), Model(id="empty")])
        assert not screen.survivors()[0, 1]
        assert not screen.survivors()[1, 0]
        assert screen.synthesized_counts(0, 1) == (0, 0, 0, 0)

    def test_none_semantics_blocks_every_overlap(self, corpus):
        options = ComposeOptions(semantics=SEMANTICS_NONE)
        screen = Prescreen.build(corpus, options)
        # Twins rename instead of uniting under "none": no synthesized
        # union may ever be claimed, and any overlap must survive.
        assert not screen.pair_united.any()
        overlap = np.array(
            [query_scores(screen, signature) for signature in screen.signatures]
        ) > 0
        np.fill_diagonal(overlap, False)
        assert (screen.pair_blocked | ~overlap).all()

    def test_options_mismatch_rejected(self, corpus):
        signatures = [ModelSignature.build(model) for model in corpus]
        with pytest.raises(ValueError):
            Prescreen(signatures, ComposeOptions(semantics=SEMANTICS_NONE))

    def test_store_assisted_build_reuses_signatures(self, corpus, tmp_path):
        store = ArtifactStore(tmp_path)
        plain = Prescreen.build(corpus)
        for model in corpus:
            store.get_or_compute(model)
        stored = Prescreen(
            [store.get_or_compute(model).signature for model in corpus]
        )
        # Rehydrated signatures come from the store's entries and must
        # carry the exact same vectors.
        for mine, theirs in zip(plain.signatures, stored.signatures):
            assert np.array_equal(mine.key_hashes, theirs.key_hashes)
            assert np.array_equal(
                mine.key_fingerprints, theirs.key_fingerprints
            )
            assert np.array_equal(mine.key_primary, theirs.key_primary)
            assert np.array_equal(mine.counts, theirs.counts)
        assert np.array_equal(plain.survivors(), stored.survivors())

    def test_query_tables_agree_with_pair_matrices(self, corpus):
        """The prescreen's row kernel against the per-pair oracle
        under heavy, light and structural options, on a corpus that
        exercises all three gates: twins (every overlap blocking under
        structural options), a source that is not self-clean, and an
        empty model."""
        for options in OPTION_SETS:
            screen = Prescreen.build(gated_corpus(corpus), options)
            assert not screen.self_clean.all()
            assert (screen.component_counts == 0).any()
            for i, signature in enumerate(screen.signatures):
                _, blocked, united = query_tables(screen, signature)
                assert np.array_equal(blocked, screen.pair_blocked[i])
                assert np.array_equal(united, screen.pair_united[i])
                assert np.array_equal(
                    query_survivors(screen, signature),
                    screen.survivors()[i],
                )

    def test_prescreen_agrees_with_the_repr_oracle(self, corpus, monkeypatch):
        """Built from the ``repr`` fingerprint and from the formatters,
        the prescreen decides every pair alike under heavy, light and
        structural options."""
        models = gated_corpus(corpus)
        for options in OPTION_SETS:
            screen = Prescreen.build(models, options)
            with monkeypatch.context() as patch:
                patch.setattr(
                    signature_module, "_component_fingerprint", repr_fingerprint
                )
                oracle = Prescreen.build(models, options)
            assert np.array_equal(screen.survivors(), oracle.survivors())
            assert np.array_equal(screen.pair_blocked, oracle.pair_blocked)
            assert np.array_equal(screen.pair_united, oracle.pair_united)
            for mine, theirs in zip(screen.signatures, oracle.signatures):
                assert np.array_equal(mine.key_hashes, theirs.key_hashes)
                assert np.array_equal(mine.key_primary, theirs.key_primary)
                assert np.array_equal(
                    mine.key_fingerprints == 0, theirs.key_fingerprints == 0
                )
            # The oracle really built its own fingerprints.
            assert not np.array_equal(
                screen.signatures[0].key_fingerprints,
                oracle.signatures[0].key_fingerprints,
            )

    def test_query_rejects_mismatched_signature(self, corpus):
        screen = Prescreen.build(corpus)
        foreign = ModelSignature.build(
            _model(), ComposeOptions(semantics=SEMANTICS_NONE)
        )
        with pytest.raises(ValueError):
            query_tables(screen, foreign)

    def test_handed_signatures_are_used_when_they_match(self, corpus):
        signatures = [ModelSignature.build(model) for model in corpus]
        handed = Prescreen(signatures)
        for mine, theirs in zip(signatures, handed.signatures):
            assert theirs is mine
        assert np.array_equal(
            Prescreen.build(corpus).survivors(), handed.survivors()
        )
        # Built under other key options, they are refused.
        with pytest.raises(ValueError):
            Prescreen(signatures, ComposeOptions(semantics=SEMANTICS_NONE))

    def test_screened_process_sweep_builds_each_signature_once(
        self, corpus, monkeypatch, tmp_path
    ):
        """The prescreen derives each signature once, in this process;
        the workers, which only run the surviving pairs, derive none."""
        expected = [o.key() for o in match_all(corpus).outcomes]
        log = _log_builds(monkeypatch, ModelSignature, tmp_path / "builds.log")
        matrix = match_all(corpus, workers=2, backend="process", prescreen=True)
        _assert_built_once_here(log, corpus)
        assert matrix.pruned > 0
        assert [o.key() for o in matrix.outcomes] == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_binds_the_prescreen_rows(
        self, corpus, monkeypatch, tmp_path, workers
    ):
        """The prescreen builds each model's index rows once, in this
        process; neither the inline engine nor a forked local worker
        builds them again."""
        expected = [o.key() for o in match_all(corpus).outcomes]
        log = _log_builds(monkeypatch, ModelIndexSet, tmp_path / "builds.log")
        matrix = match_all(corpus, workers=workers, prescreen=True)
        _assert_built_once_here(log, corpus)
        assert [o.key() for o in matrix.outcomes] == expected
