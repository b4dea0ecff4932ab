"""Carried accumulator state and thread safety of shared state.

Sessions carry each accumulator's derived artifacts from step to step
instead of re-collecting them; these tests pin that the carried state
reproduces what re-collection computes.  They also pin the
concurrency regressions shared state invites: sessions composing on a
shared thread pool, and the synonym table's canonical-name memo.
"""

import concurrent.futures

import pytest

from repro import ComposeSession, ModelBuilder, compose_all
from repro.core.compose import AccumState


def _module_model(model_id, species, parameter="k", value=0.5, name=None):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for index, spec in enumerate(species):
        if isinstance(spec, tuple):
            spec_id, spec_name = spec
            builder = builder.species(spec_id, 1.0, name=spec_name)
        else:
            builder = builder.species(spec, 1.0)
    builder = builder.parameter(parameter, value)
    first = species[0][0] if isinstance(species[0], tuple) else species[0]
    last = species[-1][0] if isinstance(species[-1], tuple) else species[-1]
    builder = builder.mass_action(
        f"r_{model_id}", [first], [last], parameter
    )
    return builder.build()


@pytest.fixture
def overlapping_models():
    """Eight models with shared species, synonym unites, parameter
    clashes (renames) and an initial-value conflict — enough merge
    machinery that a scheduling bug would corrupt something."""
    models = [
        _module_model(f"m{i}", [f"S{i}", f"S{i + 1}"], parameter=f"k{i}")
        for i in range(6)
    ]
    # Same parameter id with different values: forces renames.
    models.append(_module_model("m6", ["S0", "S6"], parameter="k0", value=9.9))
    # Synonym-united species plus a conflicting initial value.
    conflicting = _module_model(
        "m7", [("glc", "glucose"), "S3"], parameter="k7"
    )
    conflicting.species[0].initial_amount = 777.0
    models.append(conflicting)
    return models


def fingerprint(result):
    """Everything the acceptance contract names: component ids,
    mappings, provenance (origins + history), and step records."""
    model = result.model
    return (
        sorted(s.id for s in model.species),
        sorted(r.id for r in model.reactions),
        sorted(p.id for p in model.parameters),
        sorted(c.id for c in model.compartments),
        result.report.mappings,
        dict(result.report.renamed),
        {
            key: (sorted(entry.origins), entry.history)
            for key, entry in result.provenance.items()
        },
        [(s.index, s.left, s.right, s.report.summary()) for s in result.steps],
    )


class TestIncrementalAccumState:
    def test_fold_matches_pairwise_chain(self, overlapping_models):
        # The carried state (used ids / registry / initial values)
        # must reproduce exactly what per-step re-collection computed:
        # chain one-shot pairwise merges, which re-collect every
        # accumulator from scratch, as the oracle.
        accumulator = overlapping_models[0]
        for model in overlapping_models[1:]:
            accumulator, _ = compose_all([accumulator, model]).pair()
        result = compose_all(overlapping_models, plan="fold")
        assert sorted(s.id for s in result.model.species) == sorted(
            s.id for s in accumulator.species
        )
        assert sorted(p.id for p in result.model.parameters) == sorted(
            p.id for p in accumulator.parameters
        )
        assert sorted(r.id for r in result.model.reactions) == sorted(
            r.id for r in accumulator.reactions
        )

    def test_carried_initial_values_feed_conflict_checks(self):
        # m3 conflicts with a species introduced by m2: the check reads
        # the accumulator's *carried* environment, which must contain
        # m2's values under their final ids.
        m1 = _module_model("m1", ["A", "B"], parameter="k1")
        m2 = _module_model("m2", ["B", "C"], parameter="k2")
        m3 = _module_model("m3", ["C", "D"], parameter="k3")
        m3.species[0].initial_amount = 777.0  # disagrees with m2's C
        result = compose_all([m1, m2, m3], plan="fold")
        assert any(
            c.component_id == "C" and c.attribute == "initial value"
            for c in result.report.conflicts
        )

    def test_compose_step_returns_carried_state(self):
        from repro import Composer

        a = _module_model("m1", ["A", "B"], parameter="k1")
        b = _module_model("m2", ["B", "C"], parameter="k2")
        composer = Composer()
        merged, _, state = composer.compose_step(a, b)
        assert isinstance(state, AccumState)
        assert set(merged.global_ids()) <= state.used_ids
        # Values from both inputs are present under final ids.
        assert state.initial["A"] == 1.0
        assert state.initial["C"] == 1.0

    def test_united_value_conflict_not_adopted_into_state(self):
        # Regression: target species X declares no initial value, the
        # united source X declares 5.0 — a logged conflict where the
        # merged model keeps the *absent* attribute.  Re-collection
        # would bind nothing for X, so the carried env must not adopt
        # the rejected source value.
        from repro import Composer, ModelBuilder
        from repro.core.compose import _collect_initial_values

        a = (
            ModelBuilder("m1")
            .compartment("cell", size=1.0)
            .species("X", None)
            .build()
        )
        b = (
            ModelBuilder("m2")
            .compartment("cell", size=1.0)
            .species("X", 5.0)
            .build()
        )
        merged, report, state = Composer().compose_step(a, b)
        assert state.initial.get("X") == _collect_initial_values(
            merged
        ).get("X")

    def test_added_initial_assignment_overrides_in_carried_state(self):
        # A source initial assignment landing on a united symbol
        # overrides the declared value on re-collection; the carried
        # env must agree.
        from repro import Composer
        from repro.core.compose import _collect_initial_values
        from repro.mathml.infix import parse_infix
        from repro.sbml.components import InitialAssignment

        a = _module_model("m1", ["A", "B"], parameter="k1")
        b = _module_model("m2", ["B", "C"], parameter="k2")
        b.add_initial_assignment(
            InitialAssignment(symbol="B", math=parse_infix("2 + 2"))
        )
        merged, _, state = Composer().compose_step(a, b)
        recollected = _collect_initial_values(merged)
        assert state.initial.get("B") == recollected.get("B") == 4.0


class TestConcurrentSessions:
    def test_two_sessions_on_a_shared_pool(self, overlapping_models):
        # Regression (issue satellite): PatternCache, the synonym
        # memo and the session artifact memos are shared state; two
        # sessions composing concurrently must not corrupt each other.
        reference = fingerprint(compose_all(overlapping_models, plan="tree"))
        sessions = [ComposeSession() for _ in range(2)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(session.compose_all, overlapping_models, "tree")
                for session in sessions
                for _ in range(2)
            ]
            results = [future.result() for future in futures]
        for result in results:
            assert fingerprint(result) == reference

    def test_synonym_canonical_memo_survives_concurrent_lookup(self):
        from repro.synonyms.builtin import builtin_synonyms

        table = builtin_synonyms()
        names = ["ATP", "glucose", "adenosine triphosphate", "D-glucose"]
        expected = {name: table.canonical(name) for name in names}
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(table.canonical, name)
                for _ in range(50)
                for name in names
            ]
            for name, future in zip(names * 50, futures):
                assert future.result() == expected[name]
