"""ComposeSession / compose_all."""

import dataclasses

import pytest

from repro import ComposeOptions, ComposeSession, ModelBuilder
from repro.errors import ConflictError


def _chain_model(model_id, species, k_value=0.5):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for name in species:
        builder = builder.species(name, 1.0)
    builder = builder.parameter(f"k_{model_id}", k_value)
    builder = builder.mass_action(
        f"r_{model_id}", [species[0]], [species[-1]], f"k_{model_id}"
    )
    return builder.build()


@pytest.fixture
def ab_models():
    a = _chain_model("m1", ["A", "B"])
    b = _chain_model("m2", ["B", "C"])
    return a, b


class TestFluentOptions:
    @staticmethod
    def _fields_except_synonyms(options):
        return {
            f.name: getattr(options, f.name)
            for f in dataclasses.fields(options)
            if f.name != "synonyms"
        }

    def test_heavy_equals_dataclass_spelling(self):
        fluent = ComposeOptions.heavy()
        spelled = ComposeOptions(semantics="heavy")
        # builtin_synonyms() is a fresh instance per table by
        # contract, so compare every other field.
        assert self._fields_except_synonyms(
            fluent
        ) == self._fields_except_synonyms(spelled)
        assert fluent.synonyms is not None and spelled.synonyms is not None

    def test_light_and_structural_equal_dataclass_spellings(self):
        assert ComposeOptions.light() == ComposeOptions(semantics="light")
        assert ComposeOptions.structural() == ComposeOptions(
            semantics="none"
        )

    def test_with_index_and_strict(self):
        options = ComposeOptions.light().with_index("sorted").strict()
        assert options == ComposeOptions(
            semantics="light", index="sorted", conflicts="error"
        )

    def test_fluent_methods_do_not_mutate_receiver(self):
        base = ComposeOptions.light()
        base.strict()
        base.with_index("linear")
        assert base.conflicts == "warn"
        assert base.index == "hash"

    def test_overrides_pass_through(self):
        options = ComposeOptions.heavy(value_tolerance=1e-3)
        assert options.value_tolerance == 1e-3
        assert options.semantics == "heavy"


class TestComposeSession:
    def test_single_model_copies(self, ab_models):
        a, _ = ab_models
        result = ComposeSession().compose_all([a])
        assert result.model is not a
        assert sorted(s.id for s in result.model.species) == sorted(
            s.id for s in a.species
        )
        assert result.steps == []

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            ComposeSession().compose_all([])

    def test_inputs_never_mutated(self):
        models = [
            _chain_model("m1", ["A", "B"]),
            _chain_model("m2", ["B", "C"]),
            _chain_model("m3", ["C", "D"]),
        ]
        snapshots = [sorted(m.global_ids()) for m in models]
        ComposeSession().compose_all(models, plan="greedy")
        assert [sorted(m.global_ids()) for m in models] == snapshots

    def test_session_reusable_across_calls(self, ab_models):
        a, b = ab_models
        session = ComposeSession()
        first = session.compose(a, b)
        second = session.compose(a, b)
        assert sorted(s.id for s in first.model.species) == sorted(
            s.id for s in second.model.species
        )

    def test_result_carries_steps_and_timings(self):
        models = [
            _chain_model("m1", ["A", "B"]),
            _chain_model("m2", ["B", "C"]),
            _chain_model("m3", ["C", "D"]),
        ]
        result = ComposeSession().compose_all(models)
        assert len(result.steps) == 2
        assert result.steps[0].index == 1
        assert result.steps[0].left == "m1"
        assert result.steps[0].right == "m2"
        assert result.seconds > 0
        # Per-phase timings are summed across both steps.
        assert "species" in result.timings
        assert "reactions" in result.timings

    def test_merged_report_accumulates(self):
        models = [
            _chain_model("m1", ["A", "B"]),
            _chain_model("m2", ["B", "C"]),
            _chain_model("m3", ["C", "D"]),
        ]
        result = ComposeSession().compose_all(models)
        per_step_added = sum(
            step.report.total_added for step in result.steps
        )
        assert result.report.total_added == per_step_added
        per_step_duplicates = sum(
            len(step.report.duplicates) for step in result.steps
        )
        assert len(result.report.duplicates) == per_step_duplicates

    def test_duplicate_model_ids_get_unique_labels(self):
        a = _chain_model("same", ["A", "B"])
        b = _chain_model("same", ["B", "C"])
        result = ComposeSession().compose_all([a, b])
        labels = {result.steps[0].left, result.steps[0].right}
        assert labels == {"same", "same#2"}

    def test_strict_session_raises_on_conflict(self):
        a = _chain_model("m1", ["A", "B"])
        b = _chain_model("m2", ["A", "B"])
        b.compartments[0].size = 99.0
        session = ComposeSession(ComposeOptions.heavy().strict())
        with pytest.raises(ConflictError):
            session.compose_all([a, b])

    def test_empty_model_in_chain(self):
        empty = ModelBuilder("empty").build()
        a = _chain_model("m1", ["A", "B"])
        result = ComposeSession().compose_all([empty, a])
        assert sorted(s.id for s in result.model.species) == ["A", "B"]
        assert result.provenance["A"].origins == [("m1", "A")]

    def test_deep_fold_does_not_recurse(self):
        # A left-spine plan tree over 1200 models is 1200 levels deep;
        # the executor must not hit the interpreter recursion limit.
        models = [
            _chain_model(f"m{i}", [f"S{i}", f"S{i + 1}"])
            for i in range(1200)
        ]
        result = ComposeSession().compose_all(models, plan="fold")
        assert len(result.steps) == 1199
        assert len(result.model.species) == 1201

    def test_invalidate_refreshes_mutated_input(self):
        a = _chain_model("m1", ["A", "B"])
        b = _chain_model("m2", ["A", "B"])
        session = ComposeSession()
        first = session.compose(a, b)
        assert not first.report.conflicts
        # Mutate b's initial value; the memoised initial-value env is
        # stale until invalidated.
        b.species[0].initial_amount = 777.0
        session.invalidate(b)
        second = session.compose(a, b)
        assert any(
            c.attribute == "initial value" for c in second.report.conflicts
        )

    def test_invalidate_all_clears_pins(self):
        a = _chain_model("m1", ["A", "B"])
        b = _chain_model("m2", ["B", "C"])
        session = ComposeSession()
        session.compose(a, b)
        assert session._pinned
        session.invalidate()
        assert not session._pinned
        # Session still works after a full reset.
        result = session.compose(a, b)
        assert sorted(s.id for s in result.model.species) == ["A", "B", "C"]


def _clashing_model(step):
    """A model whose species ``A`` (in a compartment of its own) and
    parameter ``kf`` (with another value) rename against every other
    such model, so a step that adopts it records a mapping."""
    return (
        ModelBuilder(f"c{step}")
        .compartment("cell", size=1.0)
        .compartment(f"room{step}", size=2.0)
        .species("A", 1.0, compartment=f"room{step}")
        .species(f"S{step}", 1.0)
        .parameter("kf", 0.1 * step)
        .reaction(f"r{step}", ["A"], [f"S{step}"], formula="kf * A")
        .build()
    )


class TestCarriedIndexes:
    """Sessions carry the accumulator's phase bases between steps and
    extend them with what each step appends."""

    @staticmethod
    def _models():
        # Renames land in some steps and not in others.
        models = []
        for step in range(1, 7):
            models.append(_clashing_model(step))
            models.append(_chain_model(f"d{step}", [f"X{step}", f"Y{step}"]))
        return models

    @staticmethod
    def _spy_fresh_builds(monkeypatch):
        from repro.core import compose

        fresh = []
        rows = compose._rows

        def spy(state, name, model):
            fresh.append(name)
            return rows(state, name, model)

        monkeypatch.setattr(compose, "_rows", spy)
        return fresh

    def test_each_component_keyed_once(self, monkeypatch):
        from repro import Composer

        models = self._models()
        fresh = self._spy_fresh_builds(monkeypatch)
        composer = Composer()
        merged, report, state = composer.compose_step(models[0], models[1])
        renamed_steps = 0
        for model in models[2:]:
            merged, report, state = composer.compose_step(
                merged, model, copy_target=False, target_state=state
            )
            renamed_steps += bool(report.renamed)
        assert 0 < renamed_steps < len(models) - 2
        # Species and reactions are built fresh in the first step only.
        assert fresh.count("species") == fresh.count("reactions") == 1
        # Over the whole plan each base took one row per component of
        # the merged model, each row keyed to its own component.
        for name, components in (
            ("species", merged.species),
            ("reactions", merged.reactions),
        ):
            base = state.indexes.for_phase(name)
            assert len(base) == len(components)
            assert [base.find_one(f"id:{c.id}") for c in components] == (
                components
            )

    def test_probe_keys_become_rows(self, monkeypatch):
        from repro.core import compose

        # Disjoint inputs: only the first model's species, copied in
        # the first step and never probed, need their rows built.
        models = [_chain_model(f"m{i}", [f"A{i}", f"B{i}"]) for i in range(8)]
        built = []
        row = compose._ROW_KEYS["species"]

        def spy(state, species):
            built.append(species.id)
            return row(state, species)

        monkeypatch.setitem(compose._ROW_KEYS, "species", spy)
        result = ComposeSession().compose_all(models)
        assert len(result.model.species) == 16
        # Once by the first step's fresh build, once into the base.
        assert built == ["A0", "B0", "A0", "B0"]

    @pytest.mark.parametrize("plan", ["fold", "tree", "greedy"])
    def test_plans_build_fresh_only_where_the_target_is_an_input(
        self, plan, monkeypatch
    ):
        models = self._models()
        fresh = self._spy_fresh_builds(monkeypatch)
        result = ComposeSession().compose_all(models, plan=plan)
        # A step whose target is an input model copies it and builds
        # fresh; every other step probes the carried base.
        first_steps = sum(
            1 for step in result.steps if "(" not in step.left
        )
        assert fresh.count("species") == first_steps
        assert fresh.count("reactions") == first_steps

    @pytest.mark.parametrize("strategy", ["sorted", "linear"])
    def test_other_strategies_build_fresh_every_step(
        self, strategy, monkeypatch
    ):
        models = self._models()
        fresh = self._spy_fresh_builds(monkeypatch)
        result = ComposeSession(ComposeOptions(index=strategy)).compose_all(
            models
        )
        assert fresh.count("species") == len(result.steps)
        assert fresh.count("reactions") == len(result.steps)
