"""Reference SBML reader and MathML parser, as they were before the
one-pass walk.

``_child``/``_list_of`` rescan an element's children for every name
they look up, and every component is filled in attribute by attribute.
The oracle tests require the library's reader to return an equal
:class:`~repro.sbml.model.Model`, or raise the same exception class,
on every document this module reads.  It differs from the old reader
in one place only: an explicit unit ``multiplier`` of 0 is kept, where
the old reader turned it into 1.0.  Test-only: nothing in ``src/``
imports it.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Optional

from repro.errors import MathParseError, SBMLParseError
from repro.mathml.ast import (
    Apply,
    CONSTANT_NAMES,
    Constant,
    Identifier,
    KNOWN_OPERATORS,
    Lambda,
    MathNode,
    Number,
    Piecewise,
    UNARY_FUNCTIONS,
)
from repro.mathml.parser import MAX_MATH_DEPTH
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

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_BQBIOL_NS = "http://biomodels.net/biology-qualifiers/"
_BQMODEL_NS = "http://biomodels.net/model-qualifiers/"


def _local(tag: str) -> str:
    if "}" in tag:
        return tag.split("}", 1)[1]
    return tag


def _child(element: ET.Element, name: str) -> Optional[ET.Element]:
    for child in element:
        if _local(child.tag) == name:
            return child
    return None


def _children(element: ET.Element, name: str) -> List[ET.Element]:
    return [child for child in element if _local(child.tag) == name]


def _list_of(element: ET.Element, list_name: str, item_name: str) -> List[ET.Element]:
    container = _child(element, list_name)
    if container is None:
        return []
    return _children(container, item_name)


def _bool(element: ET.Element, attr: str, default: bool) -> bool:
    raw = element.get(attr)
    if raw is None:
        return default
    if raw in ("true", "1"):
        return True
    if raw in ("false", "0"):
        return False
    raise SBMLParseError(f"bad boolean {raw!r} for attribute {attr!r}")


def _float(element: ET.Element, attr: str) -> Optional[float]:
    raw = element.get(attr)
    if raw is None:
        return None
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


def reference_read_sbml(text: str) -> Document:
    """``read_sbml`` as it walked the tree before."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SBMLParseError(f"malformed SBML XML: {exc}") from exc
    if _local(root.tag) != "sbml":
        raise SBMLParseError(
            f"root element is <{_local(root.tag)}>, expected <sbml>"
        )
    level = _int(root, "level", 2)
    version = _int(root, "version", 4)
    model_element = _child(root, "model")
    if model_element is None:
        raise SBMLParseError("document has no <model>")
    model = _read_model(model_element)
    return Document(model=model, level=level, version=version)


def _read_sbase(element: ET.Element, component) -> None:
    """Populate the attributes shared by all components."""
    component.id = element.get("id")
    component.name = element.get("name")
    component.metaid = element.get("metaid")
    component.sbo_term = element.get("sboTerm")
    notes = _child(element, "notes")
    if notes is not None:
        component.notes = "".join(notes.itertext()).strip() or None
    annotation = _child(element, "annotation")
    if annotation is not None:
        component.annotations = _read_annotations(annotation)


def _read_annotations(annotation: ET.Element) -> Dict[str, List[str]]:
    """Extract MIRIAM qualifier → resource URIs from an annotation."""
    table: Dict[str, List[str]] = {}
    for node in annotation.iter():
        namespace = node.tag.split("}", 1)[0].lstrip("{") if "}" in node.tag else ""
        if namespace in (_BQBIOL_NS, _BQMODEL_NS):
            qualifier = _local(node.tag)
            uris = table.setdefault(qualifier, [])
            for li in node.iter():
                resource = li.get(f"{{{_RDF_NS}}}resource") or li.get("resource")
                if resource:
                    uris.append(resource)
    return {qualifier: uris for qualifier, uris in table.items() if uris}


def _read_math(element: ET.Element, context: str):
    math_element = _child(element, "math")
    if math_element is None:
        return None
    try:
        return reference_parse_math_element(math_element)
    except MathParseError as exc:
        raise SBMLParseError(f"bad math in {context}: {exc}") from exc


def _read_model(element: ET.Element) -> Model:
    model = Model()
    _read_sbase(element, model)

    for item in _list_of(element, "listOfFunctionDefinitions", "functionDefinition"):
        model.add_function_definition(_read_function_definition(item))
    for item in _list_of(element, "listOfUnitDefinitions", "unitDefinition"):
        model.add_unit_definition(_read_unit_definition(item))
    for item in _list_of(element, "listOfCompartmentTypes", "compartmentType"):
        component = CompartmentType()
        _read_sbase(item, component)
        model.add_compartment_type(component)
    for item in _list_of(element, "listOfSpeciesTypes", "speciesType"):
        component = SpeciesType()
        _read_sbase(item, component)
        model.add_species_type(component)
    for item in _list_of(element, "listOfCompartments", "compartment"):
        model.add_compartment(_read_compartment(item))
    for item in _list_of(element, "listOfSpecies", "species"):
        model.add_species(_read_species(item))
    for item in _list_of(element, "listOfParameters", "parameter"):
        model.add_parameter(_read_parameter(item))
    for item in _list_of(element, "listOfInitialAssignments", "initialAssignment"):
        model.add_initial_assignment(_read_initial_assignment(item))
    rules_container = _child(element, "listOfRules")
    if rules_container is not None:
        for item in rules_container:
            rule = _read_rule(item)
            if rule is not None:
                model.add_rule(rule)
    for item in _list_of(element, "listOfConstraints", "constraint"):
        model.add_constraint(_read_constraint(item))
    for item in _list_of(element, "listOfReactions", "reaction"):
        model.add_reaction(_read_reaction(item))
    for item in _list_of(element, "listOfEvents", "event"):
        model.add_event(_read_event(item))
    return model


def _read_function_definition(element: ET.Element) -> FunctionDefinition:
    component = FunctionDefinition()
    _read_sbase(element, component)
    math = _read_math(element, f"functionDefinition {component.id!r}")
    if math is not None and not isinstance(math, Lambda):
        raise SBMLParseError(
            f"functionDefinition {component.id!r} math must be a <lambda>"
        )
    component.math = math
    return component


def _read_unit_definition(element: ET.Element) -> UnitDefinition:
    definition = UnitDefinition(
        id=element.get("id"), name=element.get("name"), units=[]
    )
    for item in _list_of(element, "listOfUnits", "unit"):
        kind = item.get("kind")
        if kind is None:
            raise SBMLParseError(
                f"<unit> without kind in unitDefinition {definition.id!r}"
            )
        exponent = _int(item, "exponent", 1)
        scale = _int(item, "scale", 0)
        multiplier = _float(item, "multiplier")
        definition.units.append(
            Unit(
                kind=kind,
                exponent=exponent,
                scale=scale,
                # The one deliberate change since: ``or 1.0`` read an
                # explicit multiplier of 0 back as 1.0.
                multiplier=1.0 if multiplier is None else multiplier,
            )
        )
    return definition


def _read_compartment(element: ET.Element) -> Compartment:
    component = Compartment()
    _read_sbase(element, component)
    component.size = _float(element, "size")
    component.units = element.get("units")
    component.spatial_dimensions = _int(element, "spatialDimensions", 3)
    component.compartment_type = element.get("compartmentType")
    component.outside = element.get("outside")
    component.constant = _bool(element, "constant", True)
    return component


def _read_species(element: ET.Element) -> Species:
    component = Species()
    _read_sbase(element, component)
    component.compartment = element.get("compartment")
    component.initial_amount = _float(element, "initialAmount")
    component.initial_concentration = _float(element, "initialConcentration")
    component.substance_units = element.get("substanceUnits")
    component.has_only_substance_units = _bool(
        element, "hasOnlySubstanceUnits", False
    )
    component.boundary_condition = _bool(element, "boundaryCondition", False)
    component.constant = _bool(element, "constant", False)
    component.species_type = element.get("speciesType")
    component.charge = _int(element, "charge")
    return component


def _read_parameter(element: ET.Element) -> Parameter:
    component = Parameter()
    _read_sbase(element, component)
    component.value = _float(element, "value")
    component.units = element.get("units")
    component.constant = _bool(element, "constant", True)
    return component


def _read_initial_assignment(element: ET.Element) -> InitialAssignment:
    component = InitialAssignment()
    _read_sbase(element, component)
    component.symbol = element.get("symbol")
    if component.symbol is None:
        raise SBMLParseError("<initialAssignment> without symbol")
    component.math = _read_math(
        element, f"initialAssignment for {component.symbol!r}"
    )
    return component


def _read_rule(element: ET.Element):
    tag = _local(element.tag)
    if tag == "algebraicRule":
        rule = AlgebraicRule()
        _read_sbase(element, rule)
        rule.math = _read_math(element, "algebraicRule")
        return rule
    if tag in ("assignmentRule", "rateRule"):
        rule = AssignmentRule() if tag == "assignmentRule" else RateRule()
        _read_sbase(element, rule)
        variable = element.get("variable")
        if variable is None:
            raise SBMLParseError(f"<{tag}> without variable")
        rule.variable = variable
        rule.math = _read_math(element, f"{tag} for {variable!r}")
        return rule
    return None  # ignore unknown rule elements (annotations etc.)


def _read_constraint(element: ET.Element) -> Constraint:
    component = Constraint()
    _read_sbase(element, component)
    component.math = _read_math(element, "constraint")
    message = _child(element, "message")
    if message is not None:
        component.message = "".join(message.itertext()).strip() or None
    return component


def _read_species_reference(element: ET.Element) -> SpeciesReference:
    species = element.get("species")
    if species is None:
        raise SBMLParseError("<speciesReference> without species")
    stoichiometry = _float(element, "stoichiometry")
    return SpeciesReference(
        species=species,
        stoichiometry=1.0 if stoichiometry is None else stoichiometry,
    )


def _read_reaction(element: ET.Element) -> Reaction:
    component = Reaction()
    _read_sbase(element, component)
    component.reversible = _bool(element, "reversible", True)
    component.fast = _bool(element, "fast", False)
    for item in _list_of(element, "listOfReactants", "speciesReference"):
        component.reactants.append(_read_species_reference(item))
    for item in _list_of(element, "listOfProducts", "speciesReference"):
        component.products.append(_read_species_reference(item))
    for item in _list_of(element, "listOfModifiers", "modifierSpeciesReference"):
        species = item.get("species")
        if species is None:
            raise SBMLParseError("<modifierSpeciesReference> without species")
        component.modifiers.append(ModifierSpeciesReference(species))
    law_element = _child(element, "kineticLaw")
    if law_element is not None:
        law = KineticLaw()
        _read_sbase(law_element, law)
        law.math = _read_math(law_element, f"kineticLaw of {component.id!r}")
        for item in _list_of(law_element, "listOfParameters", "parameter"):
            law.parameters.append(_read_parameter(item))
        component.kinetic_law = law
    return component


def _read_event(element: ET.Element) -> Event:
    component = Event()
    _read_sbase(element, component)
    trigger_element = _child(element, "trigger")
    if trigger_element is not None:
        component.trigger = Trigger(
            _read_math(trigger_element, f"trigger of event {component.id!r}")
        )
    delay_element = _child(element, "delay")
    if delay_element is not None:
        component.delay = Delay(
            _read_math(delay_element, f"delay of event {component.id!r}")
        )
    for item in _list_of(element, "listOfEventAssignments", "eventAssignment"):
        variable = item.get("variable")
        if variable is None:
            raise SBMLParseError("<eventAssignment> without variable")
        component.assignments.append(
            EventAssignment(
                variable,
                _read_math(item, f"eventAssignment for {variable!r}"),
            )
        )
    return component


# -- MathML -----------------------------------------------------------

# csymbol definitionURLs defined by the SBML specification.
_CSYMBOL_URLS = {
    "http://www.sbml.org/sbml/symbols/time": "time",
    "http://www.sbml.org/sbml/symbols/delay": "delay",
    "http://www.sbml.org/sbml/symbols/avogadro": "avogadro",
}

# Attribute SBML uses to attach units to <cn> literals.
_SBML_UNITS_ATTRS = (
    "{http://www.sbml.org/sbml/level2/version4}units",
    "{http://www.sbml.org/sbml/level2}units",
    "{http://www.sbml.org/sbml/level3/version1/core}units",
    "units",
)


def reference_parse_math_element(element: ET.Element) -> MathNode:
    """``parse_math_element`` as it walked the tree before."""
    if _local(element.tag) == "math":
        children = list(element)
        if len(children) != 1:
            raise MathParseError(
                f"<math> must contain exactly one child, "
                f"found {len(children)}"
            )
        return _parse_node(children[0], 0)
    return _parse_node(element, 0)


def _parse_node(element: ET.Element, depth: int) -> MathNode:
    if depth > MAX_MATH_DEPTH:
        raise MathParseError(
            f"math nested deeper than {MAX_MATH_DEPTH} levels"
        )
    tag = _local(element.tag)
    if tag == "apply":
        return _parse_apply(element, depth)
    if tag == "ci":
        return _parse_ci(element)
    if tag == "cn":
        return _parse_cn(element)
    if tag == "csymbol":
        return _parse_csymbol(element)
    if tag in CONSTANT_NAMES:
        return Constant(tag)
    if tag == "piecewise":
        return _parse_piecewise(element, depth)
    if tag == "lambda":
        return _parse_lambda(element, depth)
    raise MathParseError(f"unsupported MathML element <{tag}>")


def _parse_ci(element: ET.Element) -> Identifier:
    name = (element.text or "").strip()
    if not name:
        raise MathParseError("<ci> with empty content")
    return Identifier(name)


def _parse_csymbol(element: ET.Element) -> Identifier:
    url = element.get("definitionURL", "")
    symbol = _CSYMBOL_URLS.get(url)
    if symbol is None:
        # Fall back on the visible text, which SBML tools commonly use.
        symbol = (element.text or "").strip()
    if not symbol:
        raise MathParseError(f"<csymbol> with unknown definitionURL {url!r}")
    return Identifier(symbol)


def _parse_cn(element: ET.Element) -> Number:
    cn_type = element.get("type", "real")
    units = None
    for attr in _SBML_UNITS_ATTRS:
        if element.get(attr) is not None:
            units = element.get(attr)
            break
    text = (element.text or "").strip()
    if cn_type in ("real", "integer", "double"):
        try:
            return Number(float(text), units)
        except ValueError as exc:
            raise MathParseError(f"bad <cn> literal {text!r}") from exc
    if cn_type in ("e-notation", "rational"):
        parts = _sep_parts(element)
        if len(parts) != 2:
            raise MathParseError(
                f"<cn type={cn_type!r}> needs two <sep>-separated parts"
            )
        try:
            first, second = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise MathParseError(f"bad <cn> parts {parts!r}") from exc
        if cn_type == "e-notation":
            return Number(first * 10.0**second, units)
        if second == 0:
            raise MathParseError("rational <cn> with zero denominator")
        return Number(first / second, units)
    raise MathParseError(f"unsupported <cn> type {cn_type!r}")


def _sep_parts(element: ET.Element) -> List[str]:
    """Collect the text fragments around ``<sep/>`` children."""
    parts = [(element.text or "").strip()]
    for child in element:
        if _local(child.tag) != "sep":
            raise MathParseError(
                f"unexpected <{_local(child.tag)}> inside <cn>"
            )
        parts.append((child.tail or "").strip())
    return parts


def _parse_apply(element: ET.Element, depth: int) -> MathNode:
    children = list(element)
    if not children:
        raise MathParseError("empty <apply>")
    head, *rest = children
    head_tag = _local(head.tag)

    # Qualifier-taking operators: root with <degree>, log with <logbase>.
    if head_tag == "root":
        degree, operands = _split_qualifier(rest, "degree", depth)
        if len(operands) != 1:
            raise MathParseError("<root> takes exactly one operand")
        if degree is None:
            degree = Number(2.0)
        return Apply("root", (degree, operands[0]))
    if head_tag == "log":
        base, operands = _split_qualifier(rest, "logbase", depth)
        if len(operands) != 1:
            raise MathParseError("<log> takes exactly one operand")
        if base is None:
            base = Number(10.0)
        return Apply("log", (base, operands[0]))

    args = tuple(_parse_node(child, depth + 1) for child in rest)
    if head_tag in KNOWN_OPERATORS:
        _check_arity(head_tag, len(args))
        return Apply(head_tag, args)
    if head_tag == "ci":
        # Call of a user-defined function.
        name = (head.text or "").strip()
        if not name:
            raise MathParseError("function call via empty <ci>")
        return Apply(name, args)
    if head_tag == "csymbol":
        symbol = _parse_csymbol(head)
        return Apply(symbol.name, args)
    raise MathParseError(f"unsupported operator <{head_tag}>")


def _split_qualifier(children, qualifier_tag, depth):
    """Separate a qualifier element (degree/logbase) from operands."""
    qualifier: Optional[MathNode] = None
    operands = []
    for child in children:
        if _local(child.tag) == qualifier_tag:
            inner = list(child)
            if len(inner) != 1:
                raise MathParseError(
                    f"<{qualifier_tag}> must wrap exactly one element"
                )
            qualifier = _parse_node(inner[0], depth + 1)
        else:
            operands.append(_parse_node(child, depth + 1))
    return qualifier, operands


_MIN_ARITY = {
    "plus": 0,
    "times": 0,
    "and": 0,
    "or": 0,
    "xor": 0,
    "minus": 1,
    "divide": 2,
    "power": 2,
    "not": 1,
    "eq": 2,
    "neq": 2,
    "gt": 2,
    "lt": 2,
    "geq": 2,
    "leq": 2,
}

_MAX_ARITY = {
    "minus": 2,
    "divide": 2,
    "power": 2,
    "not": 1,
    "neq": 2,
}


def _check_arity(op: str, count: int) -> None:
    if op in UNARY_FUNCTIONS and op != "log":
        if count != 1:
            raise MathParseError(f"<{op}> takes exactly one operand, got {count}")
        return
    minimum = _MIN_ARITY.get(op, 0)
    if count < minimum:
        raise MathParseError(
            f"<{op}> needs at least {minimum} operand(s), got {count}"
        )
    maximum = _MAX_ARITY.get(op)
    if maximum is not None and count > maximum:
        raise MathParseError(
            f"<{op}> takes at most {maximum} operand(s), got {count}"
        )


def _parse_piecewise(element: ET.Element, depth: int) -> Piecewise:
    pieces = []
    otherwise = None
    for child in element:
        tag = _local(child.tag)
        inner = list(child)
        if tag == "piece":
            if len(inner) != 2:
                raise MathParseError("<piece> must have value and condition")
            pieces.append(
                (_parse_node(inner[0], depth + 1), _parse_node(inner[1], depth + 1))
            )
        elif tag == "otherwise":
            if len(inner) != 1:
                raise MathParseError("<otherwise> must wrap one element")
            otherwise = _parse_node(inner[0], depth + 1)
        else:
            raise MathParseError(f"unexpected <{tag}> inside <piecewise>")
    return Piecewise(tuple(pieces), otherwise)


def _parse_lambda(element: ET.Element, depth: int) -> Lambda:
    params = []
    body = None
    for child in element:
        tag = _local(child.tag)
        if tag == "bvar":
            inner = list(child)
            if len(inner) != 1 or _local(inner[0].tag) != "ci":
                raise MathParseError("<bvar> must wrap a single <ci>")
            params.append((inner[0].text or "").strip())
        else:
            if body is not None:
                raise MathParseError("<lambda> with more than one body")
            body = _parse_node(child, depth + 1)
    if body is None:
        raise MathParseError("<lambda> without a body")
    return Lambda(tuple(params), body)
