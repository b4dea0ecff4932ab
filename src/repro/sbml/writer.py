"""SBML XML writer.

Serialises the object model back to SBML Level 2 Version 4.  Output is
deterministic (attribute and component order is fixed) so that the
structural diff in :mod:`repro.eval.sbml_diff` and the paper-style
textual comparison (§4.1.1) are stable across runs.

The text is appended to a list of strings in one walk of the model,
in ElementTree's layout (see :mod:`repro.mathml.writer`) with two
spaces per level.  :func:`~repro.core.artifact_store.model_digest` is
the SHA-256 of this text, so its bytes are part of every store key
and index entry; the tests hold them equal to the ElementTree
serialisation this writer replaced.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mathml.writer import emit_math, escape_attribute, escape_text
from repro.sbml.components import (
    AlgebraicRule,
    AssignmentRule,
    Compartment,
    Constraint,
    Event,
    Parameter,
    RateRule,
    Reaction,
    SBase,
    Species,
)
from repro.sbml.model import Document, Model
from repro.sbml.reader import SBML_L2V4_NS
from repro.units.definitions import UnitDefinition

__all__ = ["write_sbml", "write_sbml_file"]

_XHTML_NS = "http://www.w3.org/1999/xhtml"
_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_BQBIOL_NS = "http://biomodels.net/biology-qualifiers/"

#: Indentation per nesting level.
_SPACE = "  "

#: Prefixes of the namespaces ElementTree knows by name.  Any other
#: namespace is ``ns<N>``, N being how many the document used before.
_KNOWN_PREFIXES = {_XHTML_NS: "html", _RDF_NS: "rdf"}

# Indentation of the fixed levels: model, its lists, their items.
_PAD_MODEL = "\n" + _SPACE
_PAD_LIST = _PAD_MODEL + _SPACE
_PAD_ITEM = _PAD_LIST + _SPACE


def write_sbml(document_or_model) -> str:
    """Serialise a :class:`Document` (or bare :class:`Model`) to XML."""
    if isinstance(document_or_model, Model):
        document = Document(model=document_or_model)
    else:
        document = document_or_model
    out: List[str] = []
    namespaces: Dict[str, str] = {}
    _model(out, namespaces, document.model)
    declarations = "".join(
        f' xmlns:{prefix}="{uri}"'
        for uri, prefix in sorted(namespaces.items(), key=lambda item: item[1])
    )
    return (
        "<?xml version='1.0' encoding='utf-8'?>\n"
        f'<sbml{declarations} xmlns="{SBML_L2V4_NS}" '
        f'level="{document.level}" version="{document.version}">'
        + "".join(out)
        + "\n</sbml>"
    )


def write_sbml_file(document_or_model, path) -> None:
    """Serialise to a file."""
    text = write_sbml(document_or_model)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _prefix(namespaces: Dict[str, str], uri: str) -> str:
    prefix = namespaces.get(uri)
    if prefix is None:
        prefix = _KNOWN_PREFIXES.get(uri) or f"ns{len(namespaces)}"
        namespaces[uri] = prefix
    return prefix


def _end(out: List[str], start: int, pad: str, tag: str) -> None:
    """Close the element whose start tag, still open, is ``out[start]``:
    ``<tag ... />`` when nothing was written after it."""
    if len(out) == start + 1:
        out[start] += " />"
    else:
        out[start] += ">"
        out.append(f"{pad}</{tag}>")


def _sbase_attributes(component: SBase) -> str:
    attributes = ""
    if component.id is not None:
        attributes += f' id="{escape_attribute(component.id)}"'
    if component.name is not None:
        attributes += f' name="{escape_attribute(component.name)}"'
    if component.metaid is not None:
        attributes += f' metaid="{escape_attribute(component.metaid)}"'
    if component.sbo_term is not None:
        attributes += f' sboTerm="{escape_attribute(component.sbo_term)}"'
    return attributes


def _sbase_children(out: List[str], namespaces, component: SBase, pad: str) -> None:
    if component.notes:
        _paragraph(out, namespaces, "notes", component.notes, pad)
    if component.annotations:
        _annotation(out, namespaces, component, pad)


def _paragraph(out: List[str], namespaces, tag: str, text: str, pad: str) -> None:
    """``<tag>`` wrapping one XHTML paragraph (notes, constraint message)."""
    p = _prefix(namespaces, _XHTML_NS) + ":p"
    out.append(
        f"{pad}<{tag}>{pad}{_SPACE}<{p}>{escape_text(text)}</{p}>{pad}</{tag}>"
    )


def _annotation(out: List[str], namespaces, component: SBase, pad: str) -> None:
    rdf = _prefix(namespaces, _RDF_NS)
    pads = [pad + _SPACE * level for level in range(6)]
    about = escape_attribute(f"#{component.metaid or component.id or ''}")
    out.append(
        f"{pads[0]}<annotation>{pads[1]}<{rdf}:RDF>"
        f'{pads[2]}<{rdf}:Description {rdf}:about="{about}">'
    )
    bqbiol = _prefix(namespaces, _BQBIOL_NS)
    for qualifier in sorted(component.annotations):
        uris = component.annotations[qualifier]
        out.append(f"{pads[3]}<{bqbiol}:{qualifier}>")
        if uris:
            out.append(f"{pads[4]}<{rdf}:Bag>")
            for uri in uris:
                out.append(
                    f'{pads[5]}<{rdf}:li {rdf}:resource="{escape_attribute(uri)}" />'
                )
            out.append(f"{pads[4]}</{rdf}:Bag>")
        else:
            out.append(f"{pads[4]}<{rdf}:Bag />")
        out.append(f"{pads[3]}</{bqbiol}:{qualifier}>")
    out.append(
        f"{pads[2]}</{rdf}:Description>{pads[1]}</{rdf}:RDF>"
        f"{pads[0]}</annotation>"
    )


def _component(
    out: List[str], namespaces, tag: str, component: SBase, attributes: str,
    pad: str, math=None,
) -> None:
    """An element holding at most the SBase notes and annotation and a
    ``<math>``."""
    if math is None and not component.notes and not component.annotations:
        out.append(f"{pad}<{tag}{attributes} />")
        return
    inner = pad + _SPACE
    out.append(f"{pad}<{tag}{attributes}>")
    _sbase_children(out, namespaces, component, inner)
    if math is not None:
        emit_math(out, math, inner, _SPACE)
    out.append(f"{pad}</{tag}>")


def _model(out: List[str], namespaces, model: Model) -> None:
    start = len(out)
    out.append(f"{_PAD_MODEL}<model{_sbase_attributes(model)}")
    _sbase_children(out, namespaces, model, _PAD_LIST)
    for tag, items, emit in (
        ("listOfFunctionDefinitions", model.function_definitions, _function_definition),
        ("listOfUnitDefinitions", model.unit_definitions, _unit_definition),
        ("listOfCompartmentTypes", model.compartment_types, _compartment_type),
        ("listOfSpeciesTypes", model.species_types, _species_type),
        ("listOfCompartments", model.compartments, _compartment),
        ("listOfSpecies", model.species, _species),
        ("listOfParameters", model.parameters, _parameter),
        ("listOfInitialAssignments", model.initial_assignments, _initial_assignment),
        ("listOfRules", model.rules, _rule),
        ("listOfConstraints", model.constraints, _constraint),
        ("listOfReactions", model.reactions, _reaction),
        ("listOfEvents", model.events, _event),
    ):
        if items:
            out.append(f"{_PAD_LIST}<{tag}>")
            for item in items:
                emit(out, namespaces, item, _PAD_ITEM)
            out.append(f"{_PAD_LIST}</{tag}>")
    _end(out, start, _PAD_MODEL, "model")


def _function_definition(out: List[str], namespaces, fd, pad: str) -> None:
    _component(
        out, namespaces, "functionDefinition", fd, _sbase_attributes(fd), pad,
        fd.math,
    )


def _unit_definition(out: List[str], namespaces, ud: UnitDefinition, pad: str) -> None:
    attributes = ""
    if ud.id is not None:
        attributes += f' id="{escape_attribute(ud.id)}"'
    if ud.name is not None:
        attributes += f' name="{escape_attribute(ud.name)}"'
    if not ud.units:
        out.append(f"{pad}<unitDefinition{attributes} />")
        return
    inner = pad + _SPACE
    out.append(f"{pad}<unitDefinition{attributes}>{inner}<listOfUnits>")
    for unit in ud.units:
        item = f'{inner}{_SPACE}<unit kind="{escape_attribute(unit.kind)}"'
        if unit.exponent != 1:
            item += f' exponent="{unit.exponent}"'
        if unit.scale != 0:
            item += f' scale="{unit.scale}"'
        if unit.multiplier != 1.0:
            item += f' multiplier="{unit.multiplier!r}"'
        out.append(item + " />")
    out.append(f"{inner}</listOfUnits>{pad}</unitDefinition>")


def _compartment_type(out: List[str], namespaces, ct, pad: str) -> None:
    _component(out, namespaces, "compartmentType", ct, _sbase_attributes(ct), pad)


def _species_type(out: List[str], namespaces, st, pad: str) -> None:
    _component(out, namespaces, "speciesType", st, _sbase_attributes(st), pad)


def _compartment(
    out: List[str], namespaces, compartment: Compartment, pad: str
) -> None:
    attributes = _sbase_attributes(compartment)
    if compartment.size is not None:
        attributes += f' size="{compartment.size!r}"'
    if compartment.units is not None:
        attributes += f' units="{escape_attribute(compartment.units)}"'
    if compartment.spatial_dimensions != 3:
        attributes += f' spatialDimensions="{compartment.spatial_dimensions}"'
    if compartment.compartment_type is not None:
        attributes += (
            f' compartmentType="{escape_attribute(compartment.compartment_type)}"'
        )
    if compartment.outside is not None:
        attributes += f' outside="{escape_attribute(compartment.outside)}"'
    if not compartment.constant:
        attributes += ' constant="false"'
    _component(out, namespaces, "compartment", compartment, attributes, pad)


def _species(out: List[str], namespaces, species: Species, pad: str) -> None:
    attributes = _sbase_attributes(species)
    if species.compartment is not None:
        attributes += f' compartment="{escape_attribute(species.compartment)}"'
    if species.initial_amount is not None:
        attributes += f' initialAmount="{species.initial_amount!r}"'
    if species.initial_concentration is not None:
        attributes += f' initialConcentration="{species.initial_concentration!r}"'
    if species.substance_units is not None:
        attributes += (
            f' substanceUnits="{escape_attribute(species.substance_units)}"'
        )
    if species.has_only_substance_units:
        attributes += ' hasOnlySubstanceUnits="true"'
    if species.boundary_condition:
        attributes += ' boundaryCondition="true"'
    if species.constant:
        attributes += ' constant="true"'
    if species.species_type is not None:
        attributes += f' speciesType="{escape_attribute(species.species_type)}"'
    if species.charge is not None:
        attributes += f' charge="{species.charge}"'
    _component(out, namespaces, "species", species, attributes, pad)


def _parameter(out: List[str], namespaces, parameter: Parameter, pad: str) -> None:
    attributes = _sbase_attributes(parameter)
    if parameter.value is not None:
        attributes += f' value="{parameter.value!r}"'
    if parameter.units is not None:
        attributes += f' units="{escape_attribute(parameter.units)}"'
    if not parameter.constant:
        attributes += ' constant="false"'
    _component(out, namespaces, "parameter", parameter, attributes, pad)


def _initial_assignment(out: List[str], namespaces, ia, pad: str) -> None:
    symbol = escape_attribute(ia.symbol or "")
    attributes = f'{_sbase_attributes(ia)} symbol="{symbol}"'
    _component(out, namespaces, "initialAssignment", ia, attributes, pad, ia.math)


def _rule(out: List[str], namespaces, rule, pad: str) -> None:
    if isinstance(rule, (AssignmentRule, RateRule)):
        tag = "assignmentRule" if isinstance(rule, AssignmentRule) else "rateRule"
        variable = escape_attribute(rule.variable or "")
        attributes = f' variable="{variable}"{_sbase_attributes(rule)}'
    elif isinstance(rule, AlgebraicRule):
        tag = "algebraicRule"
        attributes = _sbase_attributes(rule)
    else:
        raise TypeError(f"unknown rule type {type(rule).__name__}")
    _component(out, namespaces, tag, rule, attributes, pad, rule.math)


def _constraint(out: List[str], namespaces, constraint: Constraint, pad: str) -> None:
    start = len(out)
    inner = pad + _SPACE
    out.append(f"{pad}<constraint{_sbase_attributes(constraint)}")
    _sbase_children(out, namespaces, constraint, inner)
    if constraint.math is not None:
        emit_math(out, constraint.math, inner, _SPACE)
    if constraint.message:
        _paragraph(out, namespaces, "message", constraint.message, inner)
    _end(out, start, pad, "constraint")


def _reaction(out: List[str], namespaces, reaction: Reaction, pad: str) -> None:
    start = len(out)
    inner = pad + _SPACE
    item_pad = inner + _SPACE
    attributes = _sbase_attributes(reaction)
    if not reaction.reversible:
        attributes += ' reversible="false"'
    if reaction.fast:
        attributes += ' fast="true"'
    out.append(f"{pad}<reaction{attributes}")
    _sbase_children(out, namespaces, reaction, inner)
    for tag, references in (
        ("listOfReactants", reaction.reactants),
        ("listOfProducts", reaction.products),
    ):
        if references:
            out.append(f"{inner}<{tag}>")
            for reference in references:
                item = (
                    f'{item_pad}<speciesReference '
                    f'species="{escape_attribute(reference.species)}"'
                )
                if reference.stoichiometry != 1.0:
                    item += f' stoichiometry="{reference.stoichiometry!r}"'
                out.append(item + " />")
            out.append(f"{inner}</{tag}>")
    if reaction.modifiers:
        out.append(f"{inner}<listOfModifiers>")
        for modifier in reaction.modifiers:
            out.append(
                f'{item_pad}<modifierSpeciesReference '
                f'species="{escape_attribute(modifier.species)}" />'
            )
        out.append(f"{inner}</listOfModifiers>")
    law = reaction.kinetic_law
    if law is not None:
        law_start = len(out)
        out.append(f"{inner}<kineticLaw{_sbase_attributes(law)}")
        _sbase_children(out, namespaces, law, item_pad)
        if law.math is not None:
            emit_math(out, law.math, item_pad, _SPACE)
        if law.parameters:
            parameter_pad = item_pad + _SPACE
            out.append(f"{item_pad}<listOfParameters>")
            for parameter in law.parameters:
                _parameter(out, namespaces, parameter, parameter_pad)
            out.append(f"{item_pad}</listOfParameters>")
        _end(out, law_start, inner, "kineticLaw")
    _end(out, start, pad, "reaction")


def _event(out: List[str], namespaces, event: Event, pad: str) -> None:
    start = len(out)
    inner = pad + _SPACE
    item_pad = inner + _SPACE
    out.append(f"{pad}<event{_sbase_attributes(event)}")
    _sbase_children(out, namespaces, event, inner)
    for tag, part in (("trigger", event.trigger), ("delay", event.delay)):
        if part is None:
            continue
        if part.math is None:
            out.append(f"{inner}<{tag} />")
        else:
            out.append(f"{inner}<{tag}>")
            emit_math(out, part.math, item_pad, _SPACE)
            out.append(f"{inner}</{tag}>")
    if event.assignments:
        out.append(f"{inner}<listOfEventAssignments>")
        for assignment in event.assignments:
            variable = escape_attribute(assignment.variable)
            item = f'{item_pad}<eventAssignment variable="{variable}"'
            if assignment.math is None:
                out.append(item + " />")
            else:
                out.append(item + ">")
                emit_math(out, assignment.math, item_pad + _SPACE, _SPACE)
                out.append(f"{item_pad}</eventAssignment>")
        out.append(f"{inner}</listOfEventAssignments>")
    _end(out, start, pad, "event")
