"""SBML XML reader.

Parses SBML Level 2 documents (any version — lookup is by local
element name, so version-namespace differences don't matter) into the
:class:`~repro.sbml.model.Model` object model.  Math contents are
delegated to :mod:`repro.mathml.parser`; annotations use the
simplified MIRIAM scheme described in
:mod:`repro.sbml.components`.

Each element's children are visited once: :func:`_children` maps each
local name to the first child of that name (a repeated
``<listOfSpecies>``, ``<math>`` or ``<kineticLaw>`` is ignored, and an
unknown element is skipped whole), and each component is built by one
constructor call from its attributes and those children.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Optional

from repro.errors import MathParseError, ReproError, SBMLError, SBMLParseError
from repro.mathml.ast import Lambda
from repro.mathml.parser import local_name, parse_math_element
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
from repro.sbml.model import Document, Model
from repro.units.definitions import Unit, UnitDefinition

__all__ = ["read_sbml", "read_sbml_file", "SBML_L2V4_NS"]

SBML_L2V4_NS = "http://www.sbml.org/sbml/level2/version4"

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_BQBIOL_NS = "http://biomodels.net/biology-qualifiers/"
_BQMODEL_NS = "http://biomodels.net/model-qualifiers/"


def _children(element: ET.Element) -> Dict[str, ET.Element]:
    """The first child of each local name, in one pass."""
    found: Dict[str, ET.Element] = {}
    for child in element:
        found.setdefault(local_name(child.tag), child)
    return found


def _items(container: Optional[ET.Element], name: str) -> List[ET.Element]:
    """The children of a ``listOf*`` container named ``name``."""
    if container is None:
        return []
    return [child for child in container if local_name(child.tag) == name]


def _bool(element: ET.Element, attr: str, default: bool) -> bool:
    raw = element.get(attr)
    if raw is None:
        return default
    if raw in ("true", "1"):
        return True
    if raw in ("false", "0"):
        return False
    raise SBMLParseError(f"bad boolean {raw!r} for attribute {attr!r}")


def _float(
    element: ET.Element, attr: str, default: Optional[float] = None
) -> Optional[float]:
    raw = element.get(attr)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise SBMLParseError(f"bad number {raw!r} for attribute {attr!r}") from exc


def _int(element: ET.Element, attr: str, default: Optional[int] = None) -> Optional[int]:
    raw = element.get(attr)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise SBMLParseError(f"bad integer {raw!r} for attribute {attr!r}") from exc


def read_sbml(text: str) -> Document:
    """Parse an SBML document from a string."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SBMLParseError(f"malformed SBML XML: {exc}") from exc
    if local_name(root.tag) != "sbml":
        raise SBMLParseError(
            f"root element is <{local_name(root.tag)}>, expected <sbml>"
        )
    level = _int(root, "level", 2)
    version = _int(root, "version", 4)
    model_element = _children(root).get("model")
    if model_element is None:
        raise SBMLParseError("document has no <model>")
    model = _read_model(model_element)
    return Document(model=model, level=level, version=version)


def read_sbml_file(path) -> Document:
    """Parse an SBML document from a file path.

    Every failure is a :class:`~repro.errors.ReproError` whose message
    starts with the path: :func:`read_sbml`'s own error with the path
    prepended, an :class:`~repro.errors.SBMLParseError` for text that
    is not UTF-8, and an :class:`~repro.errors.SBMLError` for a file
    that cannot be read at all (missing, a directory, no permission).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise SBMLParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    except OSError as exc:
        raise SBMLError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return read_sbml(text)
    except ReproError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _sbase(element: ET.Element, children: Dict[str, ET.Element]) -> tuple:
    """The :class:`~repro.sbml.components.SBase` fields, in field order."""
    notes = children.get("notes")
    annotation = children.get("annotation")
    return (
        element.get("id"),
        element.get("name"),
        element.get("metaid"),
        None if notes is None else _text(notes),
        element.get("sboTerm"),
        {} if annotation is None else _read_annotations(annotation),
    )


def _text(element: ET.Element) -> Optional[str]:
    return "".join(element.itertext()).strip() or None


def _read_annotations(annotation: ET.Element) -> Dict[str, List[str]]:
    """Extract MIRIAM qualifier → resource URIs from an annotation."""
    table: Dict[str, List[str]] = {}
    for node in annotation.iter():
        namespace = node.tag.split("}", 1)[0].lstrip("{") if "}" in node.tag else ""
        if namespace in (_BQBIOL_NS, _BQMODEL_NS):
            qualifier = local_name(node.tag)
            uris = table.setdefault(qualifier, [])
            for li in node.iter():
                resource = li.get(f"{{{_RDF_NS}}}resource") or li.get("resource")
                if resource:
                    uris.append(resource)
    return {qualifier: uris for qualifier, uris in table.items() if uris}


def _read_math(children: Dict[str, ET.Element], context: str):
    math_element = children.get("math")
    if math_element is None:
        return None
    try:
        return parse_math_element(math_element)
    except MathParseError as exc:
        raise SBMLParseError(f"bad math in {context}: {exc}") from exc


# The readers below call each component's constructor positionally, in
# dataclass field order (the SBase fields first, from ``_sbase``):
# keyword arguments would double the cost of building a component.
# Attributes are checked in a fixed order that is not always field
# order (a reaction's booleans come before its species references), so
# such values are read into locals first: which of several bad
# attributes a document reports must not depend on a constructor.


def _read_model(element: ET.Element) -> Model:
    children = _children(element)
    model = Model(*_sbase(element, children))
    container = children.get
    for item in _items(container("listOfFunctionDefinitions"), "functionDefinition"):
        model.add_function_definition(_read_function_definition(item))
    for item in _items(container("listOfUnitDefinitions"), "unitDefinition"):
        model.add_unit_definition(_read_unit_definition(item))
    for item in _items(container("listOfCompartmentTypes"), "compartmentType"):
        model.add_compartment_type(CompartmentType(*_sbase(item, _children(item))))
    for item in _items(container("listOfSpeciesTypes"), "speciesType"):
        model.add_species_type(SpeciesType(*_sbase(item, _children(item))))
    for item in _items(container("listOfCompartments"), "compartment"):
        model.add_compartment(_read_compartment(item))
    for item in _items(container("listOfSpecies"), "species"):
        model.add_species(_read_species(item))
    for item in _items(container("listOfParameters"), "parameter"):
        model.add_parameter(_read_parameter(item))
    for item in _items(container("listOfInitialAssignments"), "initialAssignment"):
        model.add_initial_assignment(_read_initial_assignment(item))
    for item in container("listOfRules", ()):
        rule = _read_rule(item)
        if rule is not None:
            model.add_rule(rule)
    for item in _items(container("listOfConstraints"), "constraint"):
        model.add_constraint(_read_constraint(item))
    for item in _items(container("listOfReactions"), "reaction"):
        model.add_reaction(_read_reaction(item))
    for item in _items(container("listOfEvents"), "event"):
        model.add_event(_read_event(item))
    return model


def _read_function_definition(element: ET.Element) -> FunctionDefinition:
    children = _children(element)
    function_id = element.get("id")
    math = _read_math(children, f"functionDefinition {function_id!r}")
    if math is not None and not isinstance(math, Lambda):
        raise SBMLParseError(
            f"functionDefinition {function_id!r} math must be a <lambda>"
        )
    return FunctionDefinition(*_sbase(element, children), math)


def _read_unit_definition(element: ET.Element) -> UnitDefinition:
    definition_id = element.get("id")
    return UnitDefinition(
        definition_id,
        element.get("name"),
        [
            _read_unit(item, definition_id)
            for item in _items(_children(element).get("listOfUnits"), "unit")
        ],
    )


def _read_unit(element: ET.Element, definition_id: Optional[str]) -> Unit:
    kind = element.get("kind")
    if kind is None:
        raise SBMLParseError(
            f"<unit> without kind in unitDefinition {definition_id!r}"
        )
    return Unit(
        kind,
        _int(element, "exponent", 1),
        _int(element, "scale", 0),
        _float(element, "multiplier", 1.0),
    )


def _read_compartment(element: ET.Element) -> Compartment:
    return Compartment(
        *_sbase(element, _children(element)),
        _float(element, "size"),
        element.get("units"),
        _int(element, "spatialDimensions", 3),
        element.get("compartmentType"),
        element.get("outside"),
        _bool(element, "constant", True),
    )


def _read_species(element: ET.Element) -> Species:
    return Species(
        *_sbase(element, _children(element)),
        element.get("compartment"),
        _float(element, "initialAmount"),
        _float(element, "initialConcentration"),
        element.get("substanceUnits"),
        _bool(element, "hasOnlySubstanceUnits", False),
        _bool(element, "boundaryCondition", False),
        _bool(element, "constant", False),
        element.get("speciesType"),
        _int(element, "charge"),
    )


def _read_parameter(element: ET.Element) -> Parameter:
    return Parameter(
        *_sbase(element, _children(element)),
        _float(element, "value"),
        element.get("units"),
        _bool(element, "constant", True),
    )


def _read_initial_assignment(element: ET.Element) -> InitialAssignment:
    children = _children(element)
    symbol = element.get("symbol")
    if symbol is None:
        raise SBMLParseError("<initialAssignment> without symbol")
    return InitialAssignment(
        *_sbase(element, children),
        symbol,
        _read_math(children, f"initialAssignment for {symbol!r}"),
    )


def _read_rule(element: ET.Element):
    tag = local_name(element.tag)
    if tag == "algebraicRule":
        children = _children(element)
        return AlgebraicRule(
            *_sbase(element, children), _read_math(children, "algebraicRule")
        )
    if tag not in ("assignmentRule", "rateRule"):
        return None  # ignore unknown rule elements (annotations etc.)
    children = _children(element)
    variable = element.get("variable")
    if variable is None:
        raise SBMLParseError(f"<{tag}> without variable")
    rule_class = AssignmentRule if tag == "assignmentRule" else RateRule
    return rule_class(
        *_sbase(element, children),
        _read_math(children, f"{tag} for {variable!r}"),
        variable,
    )


def _read_constraint(element: ET.Element) -> Constraint:
    children = _children(element)
    message = children.get("message")
    return Constraint(
        *_sbase(element, children),
        _read_math(children, "constraint"),
        None if message is None else _text(message),
    )


def _read_species_reference(element: ET.Element) -> SpeciesReference:
    species = element.get("species")
    if species is None:
        raise SBMLParseError("<speciesReference> without species")
    return SpeciesReference(species, _float(element, "stoichiometry", 1.0))


def _read_modifier(element: ET.Element) -> ModifierSpeciesReference:
    species = element.get("species")
    if species is None:
        raise SBMLParseError("<modifierSpeciesReference> without species")
    return ModifierSpeciesReference(species)


def _read_reaction(element: ET.Element) -> Reaction:
    children = _children(element)
    sbase = _sbase(element, children)
    reversible = _bool(element, "reversible", True)
    fast = _bool(element, "fast", False)
    law = children.get("kineticLaw")
    return Reaction(
        *sbase,
        [
            _read_species_reference(item)
            for item in _items(children.get("listOfReactants"), "speciesReference")
        ],
        [
            _read_species_reference(item)
            for item in _items(children.get("listOfProducts"), "speciesReference")
        ],
        [
            _read_modifier(item)
            for item in _items(
                children.get("listOfModifiers"), "modifierSpeciesReference"
            )
        ],
        None if law is None else _read_kinetic_law(law, element.get("id")),
        reversible,
        fast,
    )


def _read_kinetic_law(element: ET.Element, reaction_id: Optional[str]) -> KineticLaw:
    children = _children(element)
    return KineticLaw(
        *_sbase(element, children),
        _read_math(children, f"kineticLaw of {reaction_id!r}"),
        [
            _read_parameter(item)
            for item in _items(children.get("listOfParameters"), "parameter")
        ],
    )


def _read_event(element: ET.Element) -> Event:
    children = _children(element)
    event_id = element.get("id")
    trigger = children.get("trigger")
    delay = children.get("delay")
    return Event(
        *_sbase(element, children),
        None if trigger is None else Trigger(
            _read_math(_children(trigger), f"trigger of event {event_id!r}")
        ),
        None if delay is None else Delay(
            _read_math(_children(delay), f"delay of event {event_id!r}")
        ),
        [
            _read_event_assignment(item)
            for item in _items(
                children.get("listOfEventAssignments"), "eventAssignment"
            )
        ],
    )


def _read_event_assignment(element: ET.Element) -> EventAssignment:
    variable = element.get("variable")
    if variable is None:
        raise SBMLParseError("<eventAssignment> without variable")
    return EventAssignment(
        variable,
        _read_math(_children(element), f"eventAssignment for {variable!r}"),
    )
