"""Round-trip and parsing tests for the SBML reader/writer."""

import re

import pytest

from repro import compose_all, match_all
from repro.errors import SBMLParseError
from repro.mathml import parse_infix
from repro.mathml.parser import MAX_MATH_DEPTH
from repro.sbml import (
    Document,
    ModelBuilder,
    read_sbml,
    write_sbml,
)
from repro.sbml.validate import ERROR, validate_model

EXAMPLE = """<?xml version="1.0" encoding="UTF-8"?>
<sbml xmlns="http://www.sbml.org/sbml/level2/version4" level="2" version="4">
  <model id="example" name="Example model">
    <listOfUnitDefinitions>
      <unitDefinition id="per_second">
        <listOfUnits>
          <unit kind="second" exponent="-1"/>
        </listOfUnits>
      </unitDefinition>
    </listOfUnitDefinitions>
    <listOfCompartments>
      <compartment id="cell" size="1.0"/>
    </listOfCompartments>
    <listOfSpecies>
      <species id="A" compartment="cell" initialConcentration="10.0"/>
      <species id="B" compartment="cell" initialConcentration="0.0"/>
    </listOfSpecies>
    <listOfParameters>
      <parameter id="k1" value="0.5" units="per_second"/>
    </listOfParameters>
    <listOfReactions>
      <reaction id="r1" reversible="false">
        <listOfReactants>
          <speciesReference species="A"/>
        </listOfReactants>
        <listOfProducts>
          <speciesReference species="B"/>
        </listOfProducts>
        <kineticLaw>
          <math xmlns="http://www.w3.org/1998/Math/MathML">
            <apply><times/><ci>k1</ci><ci>A</ci></apply>
          </math>
        </kineticLaw>
      </reaction>
    </listOfReactions>
  </model>
</sbml>
"""


def test_read_example_document():
    document = read_sbml(EXAMPLE)
    assert document.level == 2
    assert document.version == 4
    model = document.model
    assert model.id == "example"
    assert model.name == "Example model"
    assert len(model.species) == 2
    assert model.get_species("A").initial_concentration == 10.0
    assert model.get_parameter("k1").units == "per_second"
    reaction = model.get_reaction("r1")
    assert not reaction.reversible
    assert reaction.kinetic_law.math == parse_infix("k1 * A")


def test_read_unit_definition():
    model = read_sbml(EXAMPLE).model
    ud = model.get_unit_definition("per_second")
    assert ud.units[0].kind == "second"
    assert ud.units[0].exponent == -1


def full_featured_model():
    return (
        ModelBuilder("full", name="Full featured")
        .unit("per_second", [("second", -1, 0, 1.0)])
        .unit("uM", [("mole", 1, -6, 1.0), ("litre", -1, 0, 1.0)])
        .compartment_type("vessel")
        .species_type("protein")
        .compartment("cell", size=1.0, compartment_type="vessel")
        .compartment("nucleus", size=0.1, outside="cell")
        .species("A", 10.0, species_type="protein")
        .species("B", 0.0, name="Product B")
        .species("X", 50.0, amount=True, compartment="nucleus")
        .parameter("k1", 0.5, units="per_second")
        .parameter("total", constant=False)
        .function("double_it", ["x"], "2 * x")
        .initial_assignment("total", "A + B")
        .assignment_rule("total", "A + B")
        .rate_rule("X", "-0.01 * X")
        .constraint("A >= 0", message="no negative A")
        .mass_action("r1", ["A"], ["B"], "k1")
        .reversible_mass_action("r2", ["B"], [("A", 2)], "k1", "k1")
        .event("e1", "A < 1", {"A": "10"}, delay="1")
        .annotate("A", "is", "urn:miriam:chebi:17234")
        .build()
    )


def test_full_round_trip():
    original = full_featured_model()
    text = write_sbml(original)
    restored = read_sbml(text).model

    assert restored.id == original.id
    assert restored.name == original.name
    assert len(restored.unit_definitions) == len(original.unit_definitions)
    assert len(restored.compartments) == 2
    assert len(restored.species) == 3
    assert len(restored.rules) == 2
    assert len(restored.constraints) == 1
    assert len(restored.reactions) == 2
    assert len(restored.events) == 1

    # Math survives.
    assert restored.get_reaction("r1").kinetic_law.math == parse_infix(
        "k1 * A"
    )
    assert restored.get_function_definition("double_it").math.params == ("x",)

    # Attributes survive.
    species_x = restored.get_species("X")
    assert species_x.initial_amount == 50.0
    assert species_x.has_only_substance_units
    assert restored.get_compartment("nucleus").outside == "cell"
    assert not restored.get_parameter("total").constant

    # Annotations survive.
    assert restored.get_species("A").annotations["is"] == [
        "urn:miriam:chebi:17234"
    ]

    # Stoichiometry survives.
    r2 = restored.get_reaction("r2")
    assert r2.products[0].stoichiometry == 2.0
    assert r2.reversible


def test_round_trip_is_stable():
    # write(read(write(m))) == write(m): determinism for the diff tool.
    original = full_featured_model()
    once = write_sbml(original)
    twice = write_sbml(read_sbml(once).model)
    assert once == twice


def test_zero_unit_multiplier_round_trips():
    # An explicit multiplier of 0 is kept; only an absent one means 1.
    model = (
        ModelBuilder("m")
        .unit("nothing", [("mole", 1, 0, 0.0), ("second", -1, 0, 1.0)])
        .build()
    )
    text = write_sbml(model)
    assert 'multiplier="0.0"' in text
    restored = read_sbml(text).model
    units = restored.get_unit_definition("nothing").units
    assert [unit.multiplier for unit in units] == [0.0, 1.0]
    assert write_sbml(restored) == text


def test_write_bare_model_wraps_in_document():
    model = ModelBuilder("m").compartment("c").build()
    text = write_sbml(model)
    assert 'level="2"' in text
    document = read_sbml(text)
    assert isinstance(document, Document)


def test_notes_round_trip():
    model = ModelBuilder("m").compartment("c").build()
    model.notes = "Composed by SBMLCompose"
    restored = read_sbml(write_sbml(model)).model
    assert restored.notes == "Composed by SBMLCompose"


def test_local_parameters_round_trip():
    model = (
        ModelBuilder("m")
        .compartment("c")
        .species("A")
        .reaction(
            "r", ["A"], [], formula="k * A", local_parameters={"k": 2.5}
        )
        .build()
    )
    restored = read_sbml(write_sbml(model)).model
    law = restored.get_reaction("r").kinetic_law
    assert law.parameters[0].id == "k"
    assert law.parameters[0].value == 2.5


def test_reject_non_sbml_root():
    with pytest.raises(SBMLParseError):
        read_sbml("<notsbml/>")


def test_reject_missing_model():
    with pytest.raises(SBMLParseError):
        read_sbml('<sbml xmlns="http://www.sbml.org/sbml/level2/version4"/>')


def test_reject_malformed_xml():
    with pytest.raises(SBMLParseError):
        read_sbml("<sbml><model id='x'>")


def test_reject_bad_number():
    bad = EXAMPLE.replace('size="1.0"', 'size="big"')
    with pytest.raises(SBMLParseError):
        read_sbml(bad)


def test_reject_bad_boolean():
    bad = EXAMPLE.replace('reversible="false"', 'reversible="maybe"')
    with pytest.raises(SBMLParseError):
        read_sbml(bad)


def test_reject_species_reference_without_species():
    bad = EXAMPLE.replace('species="A"/', "/")
    with pytest.raises(SBMLParseError):
        read_sbml(bad)


def test_reject_function_definition_without_lambda():
    text = """<sbml xmlns="http://www.sbml.org/sbml/level2/version4">
      <model id="m"><listOfFunctionDefinitions>
        <functionDefinition id="f">
          <math xmlns="http://www.w3.org/1998/Math/MathML"><cn>1</cn></math>
        </functionDefinition>
      </listOfFunctionDefinitions></model></sbml>"""
    with pytest.raises(SBMLParseError):
        read_sbml(text)


def test_file_round_trip(tmp_path):
    from repro.sbml import read_sbml_file, write_sbml_file

    model = full_featured_model()
    path = tmp_path / "model.xml"
    write_sbml_file(model, path)
    restored = read_sbml_file(path).model
    assert restored.id == model.id
    assert restored.component_count() == model.component_count()


# ---------------------------------------------------------------------------
# Deep MathML nesting
# ---------------------------------------------------------------------------


def _law_model(model_id="m"):
    return (
        ModelBuilder(model_id)
        .compartment("cell", size=1.0)
        .species("A", 1.0)
        .species("B", 0.0)
        .reaction(
            "r1", ["A"], ["B"], formula="k * A", local_parameters={"k": 0.5}
        )
        .build()
    )


def _deep_law_sbml(depth, model_id="deep"):
    """SBML whose kinetic law is ``A + 1 + ... + 1``, ``depth`` nested
    ``<apply>`` levels deep."""
    chain = "<apply><plus/>" * depth + "<ci>A</ci>" + "<cn>1</cn></apply>" * depth
    return re.sub(
        r"(<kineticLaw>.*?<math[^>]*>).*?(</math>)",
        lambda match: match.group(1) + chain + match.group(2),
        write_sbml(_law_model(model_id)),
        count=1,
        flags=re.DOTALL,
    )


class TestDeepMath:
    def test_very_deep_math_is_a_parse_error_naming_the_reaction(self):
        with pytest.raises(SBMLParseError, match="kineticLaw of 'r1'"):
            read_sbml(_deep_law_sbml(5000))

    def test_depth_cap_boundary(self):
        read_sbml(_deep_law_sbml(MAX_MATH_DEPTH))
        with pytest.raises(SBMLParseError, match="deeper than"):
            read_sbml(_deep_law_sbml(MAX_MATH_DEPTH + 1))

    def test_deepest_accepted_math_survives_compose_sweep_and_write(self):
        deep = read_sbml(_deep_law_sbml(MAX_MATH_DEPTH)).model
        shallow = _law_model("shallow")
        # Same reaction, different law: a logged kineticLaw conflict,
        # whose report renders the deep expression.
        result = compose_all([deep, shallow])
        conflicts = result.report.conflicts
        assert [c.attribute for c in conflicts] == ["kineticLaw"]
        assert str(conflicts[0]).startswith("CONFLICT")
        assert "WARNING (conflict)" in result.report.log_text()
        matrix = match_all([deep, shallow])
        cross = next(o for o in matrix.outcomes if (o.i, o.j) == (0, 1))
        assert cross.conflicts == len(conflicts)
        text = write_sbml(result.model)
        assert read_sbml(text).model.reactions[0].kinetic_law.math.digest() == (
            deep.reactions[0].kinetic_law.math.digest()
        )
        assert not [
            issue
            for issue in validate_model(result.model)
            if issue.severity == ERROR
        ]
