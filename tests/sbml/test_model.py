"""Unit tests for the Model container."""

import pytest

from repro.errors import SBMLError
from repro.mathml import Identifier, Lambda
from repro.sbml import (
    Compartment,
    FunctionDefinition,
    Model,
    ModelBuilder,
    Parameter,
    Reaction,
    Species,
    SpeciesReference,
)


def small_model():
    return (
        ModelBuilder("m")
        .compartment("cell")
        .species("A", 10.0)
        .species("B", 0.0)
        .parameter("k1", 0.5)
        .mass_action("r1", ["A"], ["B"], "k1")
        .build()
    )


def test_add_and_get():
    model = small_model()
    assert model.get_species("A").id == "A"
    assert model.get_parameter("k1").value == 0.5
    assert model.get_reaction("r1") is not None
    assert model.get_species("missing") is None


def test_duplicate_id_rejected():
    model = Model(id="m")
    model.add_compartment(Compartment(id="c"))
    model.add_species(Species(id="s", compartment="c"))
    with pytest.raises(SBMLError):
        model.add_species(Species(id="s", compartment="c"))


def test_uniqueness_memo_follows_appends_and_rebinding():
    # The adders memoise each list's ids: appends keep the memo
    # current, and rebinding the list (the supported way to edit one)
    # makes the next add rescan it.
    model = small_model()
    model.add_parameter(Parameter(id="k2", value=1.0))
    with pytest.raises(SBMLError):
        model.add_parameter(Parameter(id="k2", value=2.0))
    model.parameters = list(model.parameters) + [Parameter(id="k9", value=3.0)]
    with pytest.raises(SBMLError):
        model.add_parameter(Parameter(id="k9", value=4.0))


def test_duplicate_across_types_allowed_by_adders():
    # Cross-type collisions are a *validation* error, not an add error:
    # composition must be able to construct them to detect conflicts.
    model = Model(id="m")
    model.add_compartment(Compartment(id="x"))
    model.add_parameter(Parameter(id="x"))
    assert len(model.global_ids()) == 1  # last one wins in the table


def test_network_size_nodes_plus_edges():
    model = small_model()
    assert model.num_nodes() == 2
    assert model.num_edges() == 1
    assert model.network_size() == 3


def test_network_size_multi_edge_reaction():
    model = (
        ModelBuilder("m")
        .compartment("cell")
        .species("A")
        .species("B")
        .species("C")
        .parameter("k", 1.0)
        .mass_action("r", ["A", "B"], ["C"], "k")
        .build()
    )
    # A->C and B->C arrows
    assert model.num_edges() == 2
    assert model.network_size() == 5


def test_component_count_and_is_empty():
    assert Model(id="m").is_empty()
    model = small_model()
    assert not model.is_empty()
    assert model.component_count() == 5  # cell, A, B, k1, r1


def test_global_ids_excludes_local_parameters():
    model = (
        ModelBuilder("m")
        .compartment("cell")
        .species("A")
        .reaction(
            "r",
            ["A"],
            [],
            formula="klocal * A",
            local_parameters={"klocal": 2.0},
        )
        .build()
    )
    assert "klocal" not in model.global_ids()
    assert "r" in model.global_ids()


def test_function_table():
    model = Model(id="m")
    model.add_function_definition(
        FunctionDefinition(id="f", math=Lambda(("x",), Identifier("x")))
    )
    table = model.function_table()
    assert set(table) == {"f"}


def test_copy_is_deep():
    model = small_model()
    duplicate = model.copy()
    duplicate.get_species("A").initial_concentration = 99.0
    duplicate.get_reaction("r1").reactants[0].stoichiometry = 7.0
    assert model.get_species("A").initial_concentration == 10.0
    assert model.get_reaction("r1").reactants[0].stoichiometry == 1.0


def test_copy_preserves_counts():
    model = small_model()
    duplicate = model.copy()
    assert duplicate.component_count() == model.component_count()
    assert duplicate.network_size() == model.network_size()


def test_all_math_yields_every_expression():
    model = (
        ModelBuilder("m")
        .compartment("cell")
        .species("A", 1.0)
        .parameter("k", 2.0)
        .function("f", ["x"], "2 * x")
        .initial_assignment("A", "k * 3")
        .assignment_rule("k2", "k + 1")
        .parameter("k2", constant=False)
        .constraint("A > 0")
        .mass_action("r", ["A"], [], "k")
        .event("e", "A < 0.1", {"A": "1"})
        .build()
    )
    expressions = list(model.all_math())
    # function, initial assignment, rule, constraint, kinetic law,
    # trigger, event assignment
    assert len(expressions) == 7


def test_unit_registry_includes_model_definitions():
    model = (
        ModelBuilder("m")
        .unit("per_second", [("second", -1, 0, 1.0)])
        .build()
    )
    registry = model.unit_registry()
    assert registry.same_unit("per_second", "hertz")
