"""Composition of math-carrying components: reactions, rules,
constraints, initial assignments, events (paper §3, Figures 7, 10-12).
"""

import pytest

from repro import ModelBuilder, ComposeOptions, compose_all
from repro.mathml import parse_infix
from repro.sbml import validate_model


def base(model_id):
    return ModelBuilder(model_id).compartment("cell", size=1.0)


class TestReactionMatching:
    def two_models_with_reaction(self, formula_a, formula_b, **species):
        builder_a = base("a")
        builder_b = base("b")
        for sid, value in species.items():
            builder_a.species(sid, value)
            builder_b.species(sid, value)
        builder_a.parameter("k1", 0.5).parameter("k2", 0.3)
        builder_b.parameter("k1", 0.5).parameter("k2", 0.3)
        a = builder_a.reaction(
            "rA", ["A"], ["B"], formula=formula_a
        ).build()
        b = builder_b.reaction(
            "rB", ["A"], ["B"], formula=formula_b
        ).build()
        return a, b

    def test_commutative_kinetic_laws_united(self):
        # The paper's flagship math case: operand order must not matter.
        a, b = self.two_models_with_reaction(
            "k1 * A * B", "B * k1 * A", A=1.0, B=2.0
        )
        merged, report = compose_all([a, b]).pair()
        assert len(merged.reactions) == 1
        assert report.mappings.get("rB") == "rA"

    def test_different_laws_same_structure_conflict_first_wins(self):
        a, b = self.two_models_with_reaction(
            "k1 * A", "k2 * A", A=1.0, B=0.0
        )
        merged, report = compose_all([a, b]).pair()
        assert len(merged.reactions) == 1
        assert merged.reactions[0].kinetic_law.math == parse_infix("k1 * A")
        assert any(c.attribute == "kineticLaw" for c in report.conflicts)

    def test_different_structure_not_united(self):
        a = (
            base("a")
            .species("A", 1.0)
            .species("B", 0.0)
            .parameter("k", 1.0)
            .mass_action("r1", ["A"], ["B"], "k")
            .build()
        )
        b = (
            base("b")
            .species("A", 1.0)
            .species("B", 0.0)
            .parameter("k", 1.0)
            .mass_action("r2", ["B"], ["A"], "k")  # reversed direction
            .build()
        )
        merged = compose_all([a, b]).model
        assert len(merged.reactions) == 2

    def test_stoichiometry_participates_in_identity(self):
        a = (
            base("a")
            .species("A", 1.0)
            .species("B", 0.0)
            .parameter("k", 1.0)
            .mass_action("r1", [("A", 2)], ["B"], "k")
            .build()
        )
        b = (
            base("b")
            .species("A", 1.0)
            .species("B", 0.0)
            .parameter("k", 1.0)
            .mass_action("r2", ["A"], ["B"], "k")
            .build()
        )
        merged = compose_all([a, b]).model
        assert len(merged.reactions) == 2

    def test_modifiers_participate_in_identity(self):
        a = (
            base("a")
            .species("S", 1.0)
            .species("P", 0.0)
            .species("E", 0.1)
            .parameter("Vmax", 1.0)
            .parameter("Km", 0.5)
            .michaelis_menten("r1", "S", "P", "Vmax", "Km", enzyme="E")
            .build()
        )
        b = (
            base("b")
            .species("S", 1.0)
            .species("P", 0.0)
            .parameter("Vmax", 1.0)
            .parameter("Km", 0.5)
            .michaelis_menten("r2", "S", "P", "Vmax", "Km")
            .build()
        )
        merged = compose_all([a, b]).model
        assert len(merged.reactions) == 2

    def test_michaelis_menten_laws_united_commutatively(self):
        # Fig 12 kinetics with reordered denominator.
        a = (
            base("a")
            .species("S", 1.0)
            .species("P", 0.0)
            .parameter("Vmax", 1.0)
            .parameter("Km", 0.5)
            .reaction("r1", ["S"], ["P"], formula="Vmax*S/(Km+S)")
            .build()
        )
        b = (
            base("b")
            .species("S", 1.0)
            .species("P", 0.0)
            .parameter("Vmax", 1.0)
            .parameter("Km", 0.5)
            .reaction("r2", ["S"], ["P"], formula="S*Vmax/(S+Km)")
            .build()
        )
        merged = compose_all([a, b]).model
        assert len(merged.reactions) == 1

    def test_local_parameters_compared_by_value(self):
        a = (
            base("a")
            .species("A", 1.0)
            .reaction("r1", ["A"], [], formula="k*A", local_parameters={"k": 2.0})
            .build()
        )
        b = (
            base("b")
            .species("A", 1.0)
            .reaction(
                "r2", ["A"], [], formula="rate*A", local_parameters={"rate": 2.0}
            )
            .build()
        )
        merged = compose_all([a, b]).model
        assert len(merged.reactions) == 1

    def test_local_parameters_different_value_conflict(self):
        a = (
            base("a")
            .species("A", 1.0)
            .reaction("r1", ["A"], [], formula="k*A", local_parameters={"k": 2.0})
            .build()
        )
        b = (
            base("b")
            .species("A", 1.0)
            .reaction("r2", ["A"], [], formula="k*A", local_parameters={"k": 3.0})
            .build()
        )
        merged, report = compose_all([a, b]).pair()
        assert len(merged.reactions) == 1  # same structure: united
        assert report.has_conflicts()

    def test_figure6_rate_constant_reconciliation(self):
        # First-order: deterministic and stochastic constants coincide,
        # but express k via differently-named globals.
        volume = 1e-15
        a = (
            ModelBuilder("a")
            .compartment("cell", size=volume)
            .species("A", 1.0)
            .parameter("k_det", 0.7)
            .reaction("r1", ["A"], [], formula="k_det * A")
            .build()
        )
        b = (
            ModelBuilder("b")
            .compartment("cell", size=volume)
            .species("A", 1.0)
            .parameter("c_stoch", 0.7)
            .reaction("r2", ["A"], [], formula="c_stoch * A")
            .build()
        )
        merged, report = compose_all([a, b]).pair()
        assert len(merged.reactions) == 1
        assert not any(
            c.attribute == "kineticLaw" for c in report.conflicts
        )

    def test_figure6_second_order_conversion_detected(self):
        # c = k / (nA V): a deterministic model (k) merged with its
        # stochastic counterpart (c) should reconcile, not conflict.
        volume = 1e-15
        k_det = 1e6
        c_stoch = k_det / (6.022e23 * volume)
        a = (
            ModelBuilder("a")
            .compartment("cell", size=volume)
            .species("A", 1.0)
            .species("B", 1.0)
            .species("AB", 0.0)
            .parameter("k", k_det)
            .mass_action("r1", ["A", "B"], ["AB"], "k")
            .build()
        )
        b = (
            ModelBuilder("b")
            .compartment("cell", size=volume)
            .species("A", 1.0)
            .species("B", 1.0)
            .species("AB", 0.0)
            .parameter("c", c_stoch)
            .mass_action("r2", ["A", "B"], ["AB"], "c")
            .build()
        )
        merged, report = compose_all([a, b]).pair()
        assert len(merged.reactions) == 1
        assert any("conversion" in w.message for w in report.warnings)
        assert not any(c.attribute == "kineticLaw" for c in report.conflicts)

    def test_adopted_law_follows_a_renamed_parameter(self):
        # ``k`` clashes by value, so the second model's ``k`` is renamed
        # and its global law must read the new id; a law whose local
        # parameter shadows ``k`` keeps it.
        a = base("a").species("A", 1.0).parameter("k", 0.1)
        a = a.reaction("rA", ["A"], [], formula="k * A").build()
        b = base("b").species("B", 1.0).parameter("k", 0.2)
        b = b.reaction("rB", ["B"], [], formula="k * B")
        b = b.reaction(
            "rL", [], ["B"], formula="k * cell", local_parameters={"k": 3.0}
        ).build()
        merged, report = compose_all([a, b]).pair()
        assert report.renamed == {"k": "k_m2"}
        assert merged.get_reaction("rB").kinetic_law.math == parse_infix(
            "k_m2 * B"
        )
        assert merged.get_reaction("rL").kinetic_law.math == parse_infix(
            "k * cell"
        )
        assert merged.get_reaction("rA").kinetic_law.math == parse_infix(
            "k * A"
        )


class TestRules:
    def test_identical_assignment_rules_united(self):
        a = (
            base("a")
            .species("A", 1.0)
            .parameter("total", constant=False)
            .assignment_rule("total", "A * 2")
            .build()
        )
        b = (
            base("b")
            .species("A", 1.0)
            .parameter("total", constant=False)
            .assignment_rule("total", "2 * A")
            .build()
        )
        merged = compose_all([a, b]).model
        assert len(merged.rules) == 1

    def test_conflicting_rules_first_wins(self):
        a = (
            base("a")
            .species("A", 1.0)
            .parameter("t", constant=False)
            .assignment_rule("t", "A * 2")
            .build()
        )
        b = (
            base("b")
            .species("A", 1.0)
            .parameter("t", constant=False)
            .assignment_rule("t", "A * 3")
            .build()
        )
        merged, report = compose_all([a, b]).pair()
        assert len(merged.rules) == 1
        assert merged.rules[0].math == parse_infix("A * 2")
        assert report.has_conflicts()
        assert validate_model(merged) == []

    def test_rate_rule_vs_assignment_rule_distinct(self):
        a = (
            base("a")
            .species("A", 1.0, boundary=True)
            .rate_rule("A", "-0.1 * A")
            .build()
        )
        b = (
            base("b")
            .species("B", 1.0)
            .parameter("p", constant=False)
            .assignment_rule("p", "B + 1")
            .build()
        )
        merged = compose_all([a, b]).model
        assert len(merged.rules) == 2

    def test_algebraic_rules_united_by_pattern(self):
        a = base("a").species("A", 1.0).algebraic_rule("A - 1").build()
        b = base("b").species("A", 1.0).algebraic_rule("A - 1").build()
        merged = compose_all([a, b]).model
        assert len(merged.rules) == 1

    def test_rule_variables_follow_species_mapping(self):
        a = base("a").species("atp", 1.0, name="ATP").build()
        b = (
            base("b")
            .species("s1", 1.0, name="adenosine triphosphate", boundary=True)
            .rate_rule("s1", "-0.1 * s1")
            .build()
        )
        merged, report = compose_all([a, b]).pair()
        assert merged.rules[0].variable == "atp"
        assert merged.rules[0].math == parse_infix("-0.1 * atp")


class TestInitialAssignments:
    def test_identical_united(self):
        a = base("a").species("A", 1.0).initial_assignment("A", "2 + 1").build()
        b = base("b").species("A", 1.0).initial_assignment("A", "1 + 2").build()
        merged = compose_all([a, b]).model
        assert len(merged.initial_assignments) == 1

    def test_evaluated_equality(self):
        # The paper's novelty vs semanticSBML: decide equality of
        # syntactically different initial assignments by evaluation.
        a = base("a").species("A", 1.0).initial_assignment("A", "2 * 3").build()
        b = base("b").species("A", 1.0).initial_assignment("A", "6").build()
        merged, report = compose_all([a, b]).pair()
        assert len(merged.initial_assignments) == 1
        assert not report.has_conflicts()
        assert any(w.code == "math-evaluated" for w in report.warnings)

    def test_unequal_values_conflict_first_wins(self):
        a = base("a").species("A", 1.0).initial_assignment("A", "6").build()
        b = base("b").species("A", 1.0).initial_assignment("A", "7").build()
        merged, report = compose_all([a, b]).pair()
        assert len(merged.initial_assignments) == 1
        assert report.has_conflicts()

    def test_evaluation_disabled_falls_back_to_conflict(self):
        options = ComposeOptions(evaluate_initial_assignments=False)
        a = base("a").species("A", 1.0).initial_assignment("A", "2 * 3").build()
        b = base("b").species("A", 1.0).initial_assignment("A", "6").build()
        report = compose_all([a, b], options=options).report
        assert report.has_conflicts()

    def test_distinct_symbols_union(self):
        a = base("a").species("A", 1.0).initial_assignment("A", "1").build()
        b = base("b").species("B", 1.0).initial_assignment("B", "2").build()
        merged = compose_all([a, b]).model
        assert len(merged.initial_assignments) == 2


class TestConstraints:
    def test_identical_constraints_united(self):
        a = base("a").species("A", 1.0).constraint("A >= 0").build()
        b = base("b").species("A", 1.0).constraint("0 <= A").build()
        merged = compose_all([a, b]).model
        # Note: `A >= 0` and `0 <= A` are NOT pattern-equal (different
        # operators); only commutativity is free. Expect 2.
        assert len(merged.constraints) == 2

    def test_commutative_constraints_united(self):
        a = base("a").species("A", 1.0).species("B", 1.0).constraint(
            "A + B <= 10"
        ).build()
        b = base("b").species("A", 1.0).species("B", 1.0).constraint(
            "B + A <= 10"
        ).build()
        merged = compose_all([a, b]).model
        assert len(merged.constraints) == 1

    def test_different_constraints_union(self):
        a = base("a").species("A", 1.0).constraint("A >= 0").build()
        b = base("b").species("A", 1.0).constraint("A <= 100").build()
        merged = compose_all([a, b]).model
        assert len(merged.constraints) == 2


class TestEvents:
    def test_identical_events_united(self):
        a = base("a").species("A", 1.0).event(
            "e1", "A < 0.5", {"A": "10"}
        ).build()
        b = base("b").species("A", 1.0).event(
            "e2", "A < 0.5", {"A": "10"}
        ).build()
        merged, report = compose_all([a, b]).pair()
        assert len(merged.events) == 1
        assert report.mappings.get("e2") == "e1"

    def test_different_trigger_union(self):
        a = base("a").species("A", 1.0).event("e1", "A < 0.5", {"A": "10"}).build()
        b = base("b").species("A", 1.0).event("e2", "A < 0.1", {"A": "10"}).build()
        merged = compose_all([a, b]).model
        assert len(merged.events) == 2

    def test_different_delay_union(self):
        a = base("a").species("A", 1.0).event("e1", "A < 0.5", {"A": "10"}).build()
        b = base("b").species("A", 1.0).event(
            "e2", "A < 0.5", {"A": "10"}, delay="3"
        ).build()
        merged = compose_all([a, b]).model
        assert len(merged.events) == 2

    def test_id_collision_renamed(self):
        a = base("a").species("A", 1.0).event("e", "A < 0.5", {"A": "10"}).build()
        b = base("b").species("A", 1.0).event("e", "A < 0.1", {"A": "10"}).build()
        merged, report = compose_all([a, b]).pair()
        assert len(merged.events) == 2
        assert "e" in report.renamed
        assert validate_model(merged) == []

    def test_event_math_follows_mapping(self):
        a = base("a").species("atp", 1.0, name="ATP").build()
        b = base("b").species("s9", 1.0, name="Adenosine Triphosphate").event(
            "refill", "s9 < 0.1", {"s9": "s9 + 1"}
        ).build()
        merged = compose_all([a, b]).model
        event = merged.get_event("refill")
        assert event.trigger.math == parse_infix("atp < 0.1")
        assert event.assignments[0].variable == "atp"
