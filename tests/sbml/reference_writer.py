"""Reference SBML/MathML writer built on ElementTree.

The library's writers append text in one walk of the object model.
This is the writer they replaced: it builds an ElementTree, re-indents
it with ``ET.indent`` and serialises it with ``ET.tostring``.  The
oracle tests require the library's output to equal this module's,
byte for byte, so that ``model_digest`` (SHA-256 of the text) and
everything keyed on it stay valid.  Test-only: nothing in ``src/``
imports it.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from repro.mathml.ast import (
    Apply,
    Constant,
    Identifier,
    KNOWN_OPERATORS,
    Lambda,
    MathNode,
    Number,
    Piecewise,
)
from repro.mathml.parser import MATHML_NS
from repro.sbml.components import (
    AlgebraicRule,
    AssignmentRule,
    Compartment,
    Event,
    FunctionDefinition,
    Parameter,
    RateRule,
    Reaction,
    SBase,
    Species,
    SpeciesReference,
)
from repro.sbml.model import Document, Model
from repro.sbml.reader import SBML_L2V4_NS
from repro.units.definitions import UnitDefinition


_CSYMBOL_SYMBOLS = {
    "time": "http://www.sbml.org/sbml/symbols/time",
    "delay": "http://www.sbml.org/sbml/symbols/delay",
    "avogadro": "http://www.sbml.org/sbml/symbols/avogadro",
}


def reference_write_mathml(node: MathNode, indent: Optional[str] = None) -> str:
    """``write_mathml`` as ElementTree serialises it."""
    element = math_to_element(node)
    if indent is not None:
        ET.indent(element, space=indent)
    return ET.tostring(element, encoding="unicode")


def math_to_element(node: MathNode) -> ET.Element:
    """Build the ``<math>`` wrapper element for ``node``."""
    root = ET.Element("math", {"xmlns": MATHML_NS})
    root.append(_node_to_element(node))
    return root


def _node_to_element(node: MathNode) -> ET.Element:
    if isinstance(node, Number):
        return _number_element(node)
    if isinstance(node, Identifier):
        return _identifier_element(node)
    if isinstance(node, Constant):
        return ET.Element(node.name)
    if isinstance(node, Apply):
        return _apply_element(node)
    if isinstance(node, Lambda):
        return _lambda_element(node)
    if isinstance(node, Piecewise):
        return _piecewise_element(node)
    raise TypeError(f"cannot serialise {type(node).__name__}")


def _number_element(node: Number) -> ET.Element:
    element = ET.Element("cn")
    if node.is_integer() and abs(node.value) < 1e15:
        element.set("type", "integer")
        element.text = str(int(node.value))
    else:
        element.text = repr(node.value)
    if node.units is not None:
        element.set("units", node.units)
    return element


def _identifier_element(node: Identifier) -> ET.Element:
    url = _CSYMBOL_SYMBOLS.get(node.name)
    if url is not None:
        element = ET.Element("csymbol", {"definitionURL": url})
        element.text = node.name
        return element
    element = ET.Element("ci")
    element.text = node.name
    return element


def _apply_element(node: Apply) -> ET.Element:
    element = ET.Element("apply")
    if node.op == "root":
        # args are (degree, operand); degree 2 may be elided but we
        # always write it explicitly for round-trip stability.
        element.append(ET.Element("root"))
        degree = ET.Element("degree")
        degree.append(_node_to_element(node.args[0]))
        element.append(degree)
        element.append(_node_to_element(node.args[1]))
        return element
    if node.op == "log":
        element.append(ET.Element("log"))
        logbase = ET.Element("logbase")
        logbase.append(_node_to_element(node.args[0]))
        element.append(logbase)
        element.append(_node_to_element(node.args[1]))
        return element
    if node.op in KNOWN_OPERATORS:
        element.append(ET.Element(node.op))
    else:
        head = ET.Element("ci")
        head.text = node.op
        element.append(head)
    for arg in node.args:
        element.append(_node_to_element(arg))
    return element


def _lambda_element(node: Lambda) -> ET.Element:
    element = ET.Element("lambda")
    for param in node.params:
        bvar = ET.Element("bvar")
        ci = ET.Element("ci")
        ci.text = param
        bvar.append(ci)
        element.append(bvar)
    element.append(_node_to_element(node.body))
    return element


def _piecewise_element(node: Piecewise) -> ET.Element:
    element = ET.Element("piecewise")
    for value, condition in node.pieces:
        piece = ET.Element("piece")
        piece.append(_node_to_element(value))
        piece.append(_node_to_element(condition))
        element.append(piece)
    if node.otherwise is not None:
        otherwise = ET.Element("otherwise")
        otherwise.append(_node_to_element(node.otherwise))
        element.append(otherwise)
    return element


_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_BQBIOL_NS = "http://biomodels.net/biology-qualifiers/"


def reference_write_sbml(document_or_model, indent: Optional[str] = "  ") -> str:
    """``write_sbml`` as ElementTree serialises it."""
    if isinstance(document_or_model, Model):
        document = Document(model=document_or_model)
    else:
        document = document_or_model
    root = ET.Element(
        "sbml",
        {
            "xmlns": SBML_L2V4_NS,
            "level": str(document.level),
            "version": str(document.version),
        },
    )
    root.append(_model_element(document.model))
    if indent is not None:
        ET.indent(root, space=indent)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def _set_sbase(element: ET.Element, component: SBase) -> None:
    if component.id is not None:
        element.set("id", component.id)
    if component.name is not None:
        element.set("name", component.name)
    if component.metaid is not None:
        element.set("metaid", component.metaid)
    if component.sbo_term is not None:
        element.set("sboTerm", component.sbo_term)
    if component.notes:
        notes = ET.SubElement(element, "notes")
        paragraph = ET.SubElement(
            notes, "{http://www.w3.org/1999/xhtml}p"
        )
        paragraph.text = component.notes
    if component.annotations:
        element.append(_annotation_element(component))


def _annotation_element(component: SBase) -> ET.Element:
    annotation = ET.Element("annotation")
    rdf = ET.SubElement(annotation, f"{{{_RDF_NS}}}RDF")
    description = ET.SubElement(rdf, f"{{{_RDF_NS}}}Description")
    about = component.metaid or component.id or ""
    description.set(f"{{{_RDF_NS}}}about", f"#{about}")
    for qualifier in sorted(component.annotations):
        uris = component.annotations[qualifier]
        qualifier_element = ET.SubElement(
            description, f"{{{_BQBIOL_NS}}}{qualifier}"
        )
        bag = ET.SubElement(qualifier_element, f"{{{_RDF_NS}}}Bag")
        for uri in uris:
            li = ET.SubElement(bag, f"{{{_RDF_NS}}}li")
            li.set(f"{{{_RDF_NS}}}resource", uri)
    return annotation


def _append_math(element: ET.Element, math: Optional[MathNode]) -> None:
    if math is not None:
        element.append(math_to_element(math))


def _list_element(parent: ET.Element, name: str, items) -> Optional[ET.Element]:
    if not items:
        return None
    return ET.SubElement(parent, name)


def _model_element(model: Model) -> ET.Element:
    element = ET.Element("model")
    _set_sbase(element, model)

    container = _list_element(
        element, "listOfFunctionDefinitions", model.function_definitions
    )
    if container is not None:
        for fd in model.function_definitions:
            container.append(_function_definition_element(fd))

    container = _list_element(
        element, "listOfUnitDefinitions", model.unit_definitions
    )
    if container is not None:
        for ud in model.unit_definitions:
            container.append(_unit_definition_element(ud))

    container = _list_element(
        element, "listOfCompartmentTypes", model.compartment_types
    )
    if container is not None:
        for ct in model.compartment_types:
            item = ET.SubElement(container, "compartmentType")
            _set_sbase(item, ct)

    container = _list_element(element, "listOfSpeciesTypes", model.species_types)
    if container is not None:
        for st in model.species_types:
            item = ET.SubElement(container, "speciesType")
            _set_sbase(item, st)

    container = _list_element(element, "listOfCompartments", model.compartments)
    if container is not None:
        for compartment in model.compartments:
            container.append(_compartment_element(compartment))

    container = _list_element(element, "listOfSpecies", model.species)
    if container is not None:
        for species in model.species:
            container.append(_species_element(species))

    container = _list_element(element, "listOfParameters", model.parameters)
    if container is not None:
        for parameter in model.parameters:
            container.append(_parameter_element(parameter))

    container = _list_element(
        element, "listOfInitialAssignments", model.initial_assignments
    )
    if container is not None:
        for ia in model.initial_assignments:
            item = ET.SubElement(container, "initialAssignment")
            _set_sbase(item, ia)
            item.set("symbol", ia.symbol or "")
            _append_math(item, ia.math)

    container = _list_element(element, "listOfRules", model.rules)
    if container is not None:
        for rule in model.rules:
            container.append(_rule_element(rule))

    container = _list_element(element, "listOfConstraints", model.constraints)
    if container is not None:
        for constraint in model.constraints:
            item = ET.SubElement(container, "constraint")
            _set_sbase(item, constraint)
            _append_math(item, constraint.math)
            if constraint.message:
                message = ET.SubElement(item, "message")
                paragraph = ET.SubElement(
                    message, "{http://www.w3.org/1999/xhtml}p"
                )
                paragraph.text = constraint.message

    container = _list_element(element, "listOfReactions", model.reactions)
    if container is not None:
        for reaction in model.reactions:
            container.append(_reaction_element(reaction))

    container = _list_element(element, "listOfEvents", model.events)
    if container is not None:
        for event in model.events:
            container.append(_event_element(event))

    return element


def _function_definition_element(fd: FunctionDefinition) -> ET.Element:
    element = ET.Element("functionDefinition")
    _set_sbase(element, fd)
    _append_math(element, fd.math)
    return element


def _unit_definition_element(ud: UnitDefinition) -> ET.Element:
    element = ET.Element("unitDefinition")
    if ud.id is not None:
        element.set("id", ud.id)
    if ud.name is not None:
        element.set("name", ud.name)
    if ud.units:
        container = ET.SubElement(element, "listOfUnits")
        for unit in ud.units:
            item = ET.SubElement(container, "unit", {"kind": unit.kind})
            if unit.exponent != 1:
                item.set("exponent", str(unit.exponent))
            if unit.scale != 0:
                item.set("scale", str(unit.scale))
            if unit.multiplier != 1.0:
                item.set("multiplier", repr(unit.multiplier))
    return element


def _compartment_element(compartment: Compartment) -> ET.Element:
    element = ET.Element("compartment")
    _set_sbase(element, compartment)
    if compartment.size is not None:
        element.set("size", repr(compartment.size))
    if compartment.units is not None:
        element.set("units", compartment.units)
    if compartment.spatial_dimensions != 3:
        element.set("spatialDimensions", str(compartment.spatial_dimensions))
    if compartment.compartment_type is not None:
        element.set("compartmentType", compartment.compartment_type)
    if compartment.outside is not None:
        element.set("outside", compartment.outside)
    if not compartment.constant:
        element.set("constant", "false")
    return element


def _species_element(species: Species) -> ET.Element:
    element = ET.Element("species")
    _set_sbase(element, species)
    if species.compartment is not None:
        element.set("compartment", species.compartment)
    if species.initial_amount is not None:
        element.set("initialAmount", repr(species.initial_amount))
    if species.initial_concentration is not None:
        element.set("initialConcentration", repr(species.initial_concentration))
    if species.substance_units is not None:
        element.set("substanceUnits", species.substance_units)
    if species.has_only_substance_units:
        element.set("hasOnlySubstanceUnits", "true")
    if species.boundary_condition:
        element.set("boundaryCondition", "true")
    if species.constant:
        element.set("constant", "true")
    if species.species_type is not None:
        element.set("speciesType", species.species_type)
    if species.charge is not None:
        element.set("charge", str(species.charge))
    return element


def _parameter_element(parameter: Parameter) -> ET.Element:
    element = ET.Element("parameter")
    _set_sbase(element, parameter)
    if parameter.value is not None:
        element.set("value", repr(parameter.value))
    if parameter.units is not None:
        element.set("units", parameter.units)
    if not parameter.constant:
        element.set("constant", "false")
    return element


def _rule_element(rule) -> ET.Element:
    if isinstance(rule, AssignmentRule):
        element = ET.Element("assignmentRule")
        element.set("variable", rule.variable or "")
    elif isinstance(rule, RateRule):
        element = ET.Element("rateRule")
        element.set("variable", rule.variable or "")
    elif isinstance(rule, AlgebraicRule):
        element = ET.Element("algebraicRule")
    else:
        raise TypeError(f"unknown rule type {type(rule).__name__}")
    _set_sbase(element, rule)
    _append_math(element, rule.math)
    return element


def _species_reference_element(name: str, reference: SpeciesReference) -> ET.Element:
    element = ET.Element(name, {"species": reference.species})
    if reference.stoichiometry != 1.0:
        element.set("stoichiometry", repr(reference.stoichiometry))
    return element


def _reaction_element(reaction: Reaction) -> ET.Element:
    element = ET.Element("reaction")
    _set_sbase(element, reaction)
    if not reaction.reversible:
        element.set("reversible", "false")
    if reaction.fast:
        element.set("fast", "true")
    if reaction.reactants:
        container = ET.SubElement(element, "listOfReactants")
        for reference in reaction.reactants:
            container.append(
                _species_reference_element("speciesReference", reference)
            )
    if reaction.products:
        container = ET.SubElement(element, "listOfProducts")
        for reference in reaction.products:
            container.append(
                _species_reference_element("speciesReference", reference)
            )
    if reaction.modifiers:
        container = ET.SubElement(element, "listOfModifiers")
        for modifier in reaction.modifiers:
            ET.SubElement(
                container,
                "modifierSpeciesReference",
                {"species": modifier.species},
            )
    if reaction.kinetic_law is not None:
        law = ET.SubElement(element, "kineticLaw")
        _set_sbase(law, reaction.kinetic_law)
        _append_math(law, reaction.kinetic_law.math)
        if reaction.kinetic_law.parameters:
            container = ET.SubElement(law, "listOfParameters")
            for parameter in reaction.kinetic_law.parameters:
                container.append(_parameter_element(parameter))
    return element


def _event_element(event: Event) -> ET.Element:
    element = ET.Element("event")
    _set_sbase(element, event)
    if event.trigger is not None:
        trigger = ET.SubElement(element, "trigger")
        _append_math(trigger, event.trigger.math)
    if event.delay is not None:
        delay = ET.SubElement(element, "delay")
        _append_math(delay, event.delay.math)
    if event.assignments:
        container = ET.SubElement(element, "listOfEventAssignments")
        for assignment in event.assignments:
            item = ET.SubElement(
                container, "eventAssignment", {"variable": assignment.variable}
            )
            _append_math(item, assignment.math)
    return element
