"""Merge-plan invariants and provenance guarantees."""

import pytest

from repro import ComposeOptions, ComposeSession, ModelBuilder, compose_all
from repro.core.plan import (
    BalancedTreePlan,
    GreedySimilarityPlan,
    LeftFoldPlan,
    MergePlan,
    make_plan,
    plan_names,
)


def _module(model_id, species, formula_parameter):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for name in species:
        builder = builder.species(name, 1.0)
    builder = builder.parameter(formula_parameter, 0.5)
    builder = builder.mass_action(
        f"r_{model_id}", [species[0]], [species[-1]], formula_parameter
    )
    return builder.build()


@pytest.fixture
def model_set():
    """Four overlapping modules with collision-free parameter ids."""
    return [
        _module("m1", ["A", "B"], "k1"),
        _module("m2", ["B", "C"], "k2"),
        _module("m3", ["C", "D"], "k3"),
        _module("m4", ["A", "D"], "k4"),
    ]


class TestPlanTrees:
    def test_fold_tree_shape(self, model_set):
        tree = LeftFoldPlan().tree(model_set, ComposeOptions())
        assert tree == (((0, 1), 2), 3)

    def test_balanced_tree_shape(self, model_set):
        tree = BalancedTreePlan().tree(model_set, ComposeOptions())
        assert tree == ((0, 1), (2, 3))

    def test_balanced_tree_odd_count(self, model_set):
        tree = BalancedTreePlan().tree(model_set[:3], ComposeOptions())
        assert tree == ((0, 1), 2)

    def test_greedy_is_deterministic(self, model_set):
        options = ComposeOptions()
        plan = GreedySimilarityPlan()
        assert plan.tree(model_set, options) == plan.tree(
            model_set, options
        )

    def test_greedy_follows_overlap(self):
        # m_far shares nothing; greedy must schedule it last.
        models = [
            _module("m1", ["A", "B"], "k1"),
            _module("m_far", ["X", "Y"], "kx"),
            _module("m2", ["A", "C"], "k2"),
        ]
        tree = GreedySimilarityPlan().tree(models, ComposeOptions())
        # Left fold over an ordering; the last fold step is m_far.
        assert tree[1] == 1

    def test_empty_model_list_rejected(self):
        for plan in (
            LeftFoldPlan(),
            BalancedTreePlan(),
            GreedySimilarityPlan(),
        ):
            with pytest.raises(ValueError):
                plan.tree([], ComposeOptions())

    def test_make_plan_names_and_instances(self):
        assert isinstance(make_plan("fold"), LeftFoldPlan)
        assert isinstance(make_plan("tree"), BalancedTreePlan)
        assert isinstance(make_plan("greedy"), GreedySimilarityPlan)
        custom = GreedySimilarityPlan()
        assert make_plan(custom) is custom
        with pytest.raises(ValueError):
            make_plan("nonsense")
        assert set(plan_names()) == {"fold", "tree", "greedy"}

    def test_custom_plan_subclass_usable(self, model_set):
        class ReversedFold(MergePlan):
            name = "reversed"

            def tree(self, models, options):
                node = len(models) - 1
                for index in range(len(models) - 2, -1, -1):
                    node = (node, index)
                return node

        result = ComposeSession().compose_all(
            model_set, plan=ReversedFold()
        )
        assert result.plan == "reversed"
        assert sorted(s.id for s in result.model.species) == [
            "A", "B", "C", "D",
        ]


class TestPlanInvariants:
    def test_all_plans_permutation_equivalent(self, model_set):
        results = {
            plan: compose_all(model_set, plan=plan)
            for plan in plan_names()
        }
        species_sets = {
            plan: sorted(s.id for s in result.model.species)
            for plan, result in results.items()
        }
        reaction_sets = {
            plan: sorted(r.id for r in result.model.reactions)
            for plan, result in results.items()
        }
        reference_species = species_sets["fold"]
        reference_reactions = reaction_sets["fold"]
        for plan in plan_names():
            assert species_sets[plan] == reference_species, plan
            assert reaction_sets[plan] == reference_reactions, plan

    def test_plans_equivalent_under_input_permutation(self, model_set):
        reordered = [model_set[2], model_set[0], model_set[3], model_set[1]]
        straight = compose_all(model_set, plan="greedy")
        shuffled = compose_all(reordered, plan="greedy")
        assert sorted(s.id for s in straight.model.species) == sorted(
            s.id for s in shuffled.model.species
        )


class TestProvenance:
    def test_every_component_maps_to_an_input(self, model_set):
        labels = {model.id for model in model_set}
        inputs = {model.id: set(model.global_ids()) for model in model_set}
        for plan in plan_names():
            result = compose_all(model_set, plan=plan)
            composed_ids = set(result.model.global_ids())
            assert set(result.provenance) == composed_ids, plan
            for entry in result.provenance.values():
                assert entry.origins, entry.id
                for label, original in entry.origins:
                    assert label in labels
                    assert original in inputs[label]

    def test_united_component_lists_all_origins(self, model_set):
        result = compose_all(model_set)
        origins = dict(result.provenance["B"].origins)
        assert origins == {"m1": "B", "m2": "B"}

    def test_rename_recorded_in_history(self):
        # Two constant parameters named k with different values: the
        # second is renamed, and provenance records the chain.
        a = _module("m1", ["A", "B"], "k")
        b = _module("m2", ["B", "C"], "k")
        b.parameters[0].value = 123.0
        result = compose_all([a, b])
        renamed = [
            entry
            for entry in result.provenance.values()
            if entry.origins == [("m2", "k")]
        ]
        assert len(renamed) == 1
        entry = renamed[0]
        assert entry.id != "k"
        assert entry.history[0] == "k"
        assert entry.history[-1] == entry.id
        assert result.report.mappings["k"] == entry.id

    def test_unite_and_rename_colliding_on_one_id(self):
        # Regression: source species "S2" unites into target id "glc"
        # by synonym while an unrelated source *parameter* "glc" is
        # renamed to "glc_m2".  The step report holds
        # {'S2': 'glc', 'glc': 'glc_m2'}; provenance must resolve each
        # source id exactly one hop, not walk S2 -> glc -> glc_m2.
        a = (
            ModelBuilder("m1")
            .compartment("cell", size=1.0)
            .species("glc", 1.0, name="glucose")
            .build()
        )
        b = (
            ModelBuilder("m2")
            .compartment("cell", size=1.0)
            .species("S2", 1.0, name="D-glucose")
            .parameter("glc", 7.0)
            .build()
        )
        result = compose_all([a, b])
        assert sorted(result.provenance["glc"].origins) == [
            ("m1", "glc"),
            ("m2", "S2"),
        ]
        assert result.provenance["glc_m2"].origins == [("m2", "glc")]
        assert "glc_m2 <- m2:glc" in result.provenance_log()

    def test_provenance_log_lines(self, model_set):
        result = compose_all(model_set)
        log = result.provenance_log()
        assert "PROVENANCE" in log
        assert "m1:A" in log
