"""Per-model phase-index artifacts: build, bind, reuse, isolation.

The tentpole guarantees of :class:`~repro.core.compose.ModelIndexSet`:

* rows are a pure, picklable function of ``(model, key options)``,
  bindable to any model with the same component-list content;
* merges reuse the frozen bases through copy-on-write overlays — a
  sweep's decide-only merges must copy and append to no model, and
  leave the shared bases *and the backing models* bit-identical
  (digest-compared) to their pre-merge state;
* an engine builds its rows under its own options, never the defaults.
"""

import pickle

import pytest
from reference_sweep import reference_outcomes

from repro import ModelBuilder, match_all
from repro.core.artifact_store import model_digest
from repro.core.compose import (
    BoundIndexSet,
    ModelIndexSet,
    index_options_key,
)
from repro.core.index import HashIndex, OverlayIndex
from repro.core.match_all import _PairEngine, match_query
from repro.core.options import ComposeOptions
from repro.core.session import stable_labels
from repro.corpus import generate_corpus
from repro.sbml.model import Model


def _model(model_id="m", k=0.5, species=("A", "B")):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for position, species_id in enumerate(species):
        builder.species(species_id, float(position))
    builder.reaction(
        f"{model_id}_r1",
        [species[0]],
        [species[-1]],
        formula=f"k * {species[0]}",
        local_parameters={"k": k},
    )
    builder.parameter(f"{model_id}_p", 2.5)
    builder.assignment_rule(f"{model_id}_p2", f"2 * {species[0]}")
    builder.event(
        f"{model_id}_e", f"{species[0]} > 1", {species[-1]: "0"}
    )
    return builder.build()


class TestModelIndexSet:
    def test_rows_cover_every_phase(self):
        index_set = ModelIndexSet.build(_model())
        assert set(index_set.rows) == {
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
        }
        assert len(index_set.rows["species"]) == 2
        assert len(index_set.rows["reactions"]) == 1

    def test_bind_resolves_to_live_objects(self):
        model = _model()
        options = ComposeOptions()
        bound = ModelIndexSet.build(model, options).bind(model, options)
        base = bound.for_phase("species")
        assert base.find_one("id:A") is model.species[0]
        assert base.find_one("id:B") is model.species[1]
        # Rebinding to a copy resolves to the *copy's* objects — rows
        # are positional, never pinned to the original components.
        clone = model.copy()
        rebound = ModelIndexSet.build(model, options).bind(clone, options)
        assert rebound.for_phase("species").find_one("id:A") is clone.species[0]

    def test_bind_never_pins_the_bound_model(self):
        """bind() returns a fresh view and keeps no reference to the
        model — a memo here would pin the bound model alive for the
        artifact's lifetime.  Callers that want reuse (the pair
        engine) hold the BoundIndexSet themselves."""
        import weakref

        options = ComposeOptions()
        index_set = ModelIndexSet.build(_model(), options)
        model = _model()
        ref = weakref.ref(model)
        index_set.bind(model, options)
        del model
        assert ref() is None

    def test_pure_function_of_model(self):
        assert (
            ModelIndexSet.build(_model()).rows
            == ModelIndexSet.build(_model()).rows
        )

    def test_pickle_round_trip_preserves_rows(self):
        model = _model()
        options = ComposeOptions()
        index_set = ModelIndexSet.build(model, options)
        clone = pickle.loads(pickle.dumps(index_set))
        assert clone.rows == index_set.rows
        assert clone.options_key == index_set.options_key

    def test_options_key_distinguishes_semantics(self):
        heavy = ModelIndexSet.build(_model(), ComposeOptions())
        assert heavy.matches(ComposeOptions())
        assert not heavy.matches(ComposeOptions.light())
        assert not heavy.matches(
            ComposeOptions(use_math_patterns=False)
        )
        # The index *strategy* shapes the bound bases, not the rows.
        assert heavy.matches(ComposeOptions().with_index("sorted"))

    def test_options_key_tracks_synonym_table_content(self):
        base = index_options_key(ComposeOptions())
        options = ComposeOptions()
        options.synonyms.add_ring(["glucose-ish", "glc-ish"])
        assert index_options_key(options) != base


class TestOverlayIsolation:
    def test_adds_land_in_delta_not_base(self):
        base = HashIndex()
        base.add(["id:x"], "first")
        base.freeze()
        snapshot = dict(base._table)
        overlay = OverlayIndex(base, "hash")
        overlay.add(["id:y"], "second")
        overlay.add(["id:x"], "shadowed")
        assert base._table == snapshot
        assert overlay.find(["id:y"]) == "second"
        # First registration wins across the base/delta boundary.
        assert overlay.find(["id:x"]) == "first"

    def test_sweeps_never_copy_or_mutate_inputs(self, monkeypatch):
        """Sweeps run decide-only merges: during ``match_all`` and
        ``match_query`` no model is copied or appended to, every input
        serialises bit-identically afterwards, and every bound base
        index still holds the same keys bound to the same objects."""
        renaming = [
            ModelBuilder("L")
            .compartment("cell", size=1.0)
            .species("x", 1.0)
            .parameter("x_rate", 1.0)
            .build(),
            ModelBuilder("R")
            .compartment("vesicle", size=2.0)
            .species("x", 3.0)
            .parameter("x_rate", 4.0)
            .assignment_rule("x_conc", "x / 2")
            .event("R_e", "x > 1", {"x": "0"})
            .build(),
        ]
        models = (
            [_model("a"), _model("b", k=0.25, species=("A", "C"))]
            + renaming
            + generate_corpus(count=4, seed=7)
        )
        digests_before = [model_digest(model) for model in models]
        calls = []

        def spy(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in [n for n in vars(Model) if n.startswith("add_")] + ["copy"]:
            monkeypatch.setattr(Model, name, spy(name, getattr(Model, name)))

        bases = {}
        for_phase = BoundIndexSet.for_phase

        def snapshot(base):
            return {key: id(component) for key, component in base._table.items()}

        def recording_for_phase(self, name):
            base = for_phase(self, name)
            bases.setdefault(id(base), (base, snapshot(base)))
            return base

        monkeypatch.setattr(BoundIndexSet, "for_phase", recording_for_phase)
        sweep = match_all(models)
        match_query(models[0], models[1:])
        monkeypatch.undo()

        assert calls == []
        assert any(o.renamed for o in sweep.outcomes), "must exercise renames"
        assert bases, "must exercise bound bases"
        for base, before in bases.values():
            assert snapshot(base) == before
        # The only writes sweeps make to inputs are the droppable
        # per-object key caches, which canonical SBML never sees.
        assert [model_digest(model) for model in models] == digests_before

    def test_prebuilt_sweep_never_mutates_inputs(self):
        models = [_model("a"), _model("b", k=0.1)]
        before = [model_digest(model) for model in models]
        cold = match_all(models)
        warm = match_all(models)
        assert [model_digest(model) for model in models] == before
        assert [o.key() for o in warm.outcomes] == [
            o.key() for o in cold.outcomes
        ]


class TestEngineOptionMismatch:
    def test_engine_rebuilds_rows_for_other_semantics(self):
        """An engine running light semantics builds every target's
        rows under its own options — never the paper-default rows a
        stored signature is derived from — and its outcomes equal the
        fresh light sweep's."""
        from repro.core.shards import enumerate_pairs

        models = [_model("a"), _model("b", k=0.25), _model("c", k=0.1)]
        light = ComposeOptions.light()
        engine = _PairEngine(light, models, stable_labels(models))
        swept = [
            engine.run_pair(i, j) for i, j in enumerate_pairs(len(models))
        ]
        heavy_rows = ModelIndexSet.build(models[0], ComposeOptions()).rows
        light_rows = ModelIndexSet.build(models[0], light).rows
        assert light_rows != heavy_rows
        assert engine._indexes[0]._rows == light_rows
        assert [o.key() for o in swept] == [
            o.key() for o in reference_outcomes(models, light)
        ]

    def test_source_only_models_never_pay_the_index_build(self):
        """Index sets are bound lazily on first use as a *target*: a
        model only ever on the source side of its pairs keeps no
        bound indexes at all."""
        models = [_model("a"), _model("b", k=0.25)]
        engine = _PairEngine(None, models, stable_labels(models))
        engine.run_pair(0, 1)  # model 1 is source-only here
        assert 0 in engine._indexes
        assert 1 not in engine._indexes


class TestMappingGuardFallback:
    def test_rename_mid_merge_falls_back_and_agrees(self):
        """A source species sharing a target id but living in another
        compartment is adopted under a fresh id — a *rename*, which
        makes the mapping table non-empty before the parameters /
        rules / events phases.  Their prebuilt (empty-mapping) bases
        are then invalid; the engine must fall back to fresh builds
        and still match the fresh-index sweep bit for bit."""
        left = (
            ModelBuilder("L")
            .compartment("cell", size=1.0)
            .species("x", 1.0)
            .parameter("x_rate", 1.0)
            .build()
        )
        right = (
            ModelBuilder("R")
            .compartment("vesicle", size=2.0)
            .species("x", 3.0)  # same id, different compartment
            .parameter("x_rate", 4.0)  # same id, different value
            .assignment_rule("x_conc", "x / 2")
            .event("R_e", "x > 1", {"x": "0"})
            .build()
        )
        prebuilt = match_all([left, right])
        cross = next(o for o in prebuilt.outcomes if o.i == 0 and o.j == 1)
        assert cross.renamed > 0, "scenario must actually rename"
        assert [o.key() for o in prebuilt.outcomes] == [
            o.key() for o in reference_outcomes([left, right])
        ]
        # Inputs stay untouched either way.
        assert left.species[0].id == "x" and right.species[0].id == "x"


class TestIndexStrategies:
    @pytest.mark.parametrize("strategy", ["hash", "linear", "sorted"])
    def test_prebuilt_sweep_identical_across_strategies(self, strategy):
        models = [_model("a"), _model("b", k=0.25), _model("c", k=0.1)]
        options = ComposeOptions().with_index(strategy)
        prebuilt = match_all(models, options)
        assert [o.key() for o in prebuilt.outcomes] == [
            o.key() for o in reference_outcomes(models, options)
        ]
