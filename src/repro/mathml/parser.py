"""MathML 2.0 parser producing :mod:`repro.mathml.ast` trees.

Supports the MathML subset defined by SBML Level 2: ``<apply>`` with
the arithmetic / relational / logical / transcendental operator tags,
``<ci>``, ``<cn>`` (``real``, ``integer``, ``e-notation`` and
``rational`` types), the named constants, ``<piecewise>``,
``<lambda>`` with ``<bvar>``, ``<degree>``/``<logbase>`` qualifiers
and ``<csymbol>`` for the ``time`` and ``delay`` symbols.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Optional

from repro.errors import MathParseError
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

__all__ = ["MATHML_NS", "MAX_MATH_DEPTH", "parse_mathml", "parse_math_element"]

MATHML_NS = "http://www.w3.org/1998/Math/MathML"

#: Deepest expression nesting accepted, in levels below the top node.
#: Deeper math is rejected as malformed instead of being handed to the
#: recursive passes downstream (digest, pattern, writer, evaluation),
#: which would exhaust the interpreter stack.  Generated corpora nest
#: 3 levels deep.
MAX_MATH_DEPTH = 128

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


#: Element tag -> local name, shared with the SBML reader so that
#: each tag string is split once per process, not once per element.
#: Capped, because hostile input can carry any number of distinct tags;
#: past the cap names are still split, just not remembered.
_LOCAL_NAMES: Dict[str, str] = {}
_LOCAL_NAMES_CAP = 1024


def local_name(tag: str) -> str:
    """Strip the XML namespace from an element tag."""
    local = _LOCAL_NAMES.get(tag)
    if local is None:
        local = tag.split("}", 1)[1] if "}" in tag else tag
        if len(_LOCAL_NAMES) < _LOCAL_NAMES_CAP:
            _LOCAL_NAMES[tag] = local
    return local


def parse_mathml(text: str) -> MathNode:
    """Parse a MathML document (a ``<math>`` element) from a string."""
    try:
        element = ET.fromstring(text)
    except ET.ParseError as exc:
        raise MathParseError(f"malformed MathML XML: {exc}") from exc
    return parse_math_element(element)


def parse_math_element(element: ET.Element) -> MathNode:
    """Parse a ``<math>`` element (or a bare content element)."""
    if local_name(element.tag) == "math":
        if len(element) != 1:
            raise MathParseError(
                f"<math> must contain exactly one child, "
                f"found {len(element)}"
            )
        return _parse_node(element[0], 0)
    return _parse_node(element, 0)


def _parse_node(element: ET.Element, depth: int) -> MathNode:
    if depth > MAX_MATH_DEPTH:
        raise MathParseError(
            f"math nested deeper than {MAX_MATH_DEPTH} levels"
        )
    tag = local_name(element.tag)
    parse = _NODE_PARSERS.get(tag)
    if parse is not None:
        return parse(element, depth)
    if tag in CONSTANT_NAMES:
        return Constant(tag)
    raise MathParseError(f"unsupported MathML element <{tag}>")


def _parse_ci(element: ET.Element, depth: int) -> Identifier:
    name = (element.text or "").strip()
    if not name:
        raise MathParseError("<ci> with empty content")
    return Identifier(name)


def _parse_csymbol(element: ET.Element, depth: int = 0) -> Identifier:
    url = element.get("definitionURL", "")
    symbol = _CSYMBOL_URLS.get(url)
    if symbol is None:
        # Fall back on the visible text, which SBML tools commonly use.
        symbol = (element.text or "").strip()
    if not symbol:
        raise MathParseError(f"<csymbol> with unknown definitionURL {url!r}")
    return Identifier(symbol)


def _parse_cn(element: ET.Element, depth: int) -> Number:
    attributes = element.attrib
    cn_type = attributes.get("type", "real")
    units = None
    for attr in _SBML_UNITS_ATTRS:
        units = attributes.get(attr)
        if units is not None:
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
        tag = local_name(child.tag)
        if tag != "sep":
            raise MathParseError(f"unexpected <{tag}> inside <cn>")
        parts.append((child.tail or "").strip())
    return parts


def _parse_apply(element: ET.Element, depth: int) -> MathNode:
    if not len(element):
        raise MathParseError("empty <apply>")
    head, *rest = element
    head_tag = local_name(head.tag)

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

    depth += 1
    args = tuple([_parse_node(child, depth) for child in rest])
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
        if local_name(child.tag) == qualifier_tag:
            if len(child) != 1:
                raise MathParseError(
                    f"<{qualifier_tag}> must wrap exactly one element"
                )
            qualifier = _parse_node(child[0], depth + 1)
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
    depth += 1
    for child in element:
        tag = local_name(child.tag)
        if tag == "piece":
            if len(child) != 2:
                raise MathParseError("<piece> must have value and condition")
            pieces.append(
                (_parse_node(child[0], depth), _parse_node(child[1], depth))
            )
        elif tag == "otherwise":
            if len(child) != 1:
                raise MathParseError("<otherwise> must wrap one element")
            otherwise = _parse_node(child[0], depth)
        else:
            raise MathParseError(f"unexpected <{tag}> inside <piecewise>")
    return Piecewise(tuple(pieces), otherwise)


def _parse_lambda(element: ET.Element, depth: int) -> Lambda:
    params = []
    body = None
    for child in element:
        tag = local_name(child.tag)
        if tag == "bvar":
            if len(child) != 1 or local_name(child[0].tag) != "ci":
                raise MathParseError("<bvar> must wrap a single <ci>")
            params.append((child[0].text or "").strip())
        else:
            if body is not None:
                raise MathParseError("<lambda> with more than one body")
            body = _parse_node(child, depth + 1)
    if body is None:
        raise MathParseError("<lambda> without a body")
    return Lambda(tuple(params), body)


#: Content-element parsers by local name; the named constants are
#: handled apart.
_NODE_PARSERS = {
    "apply": _parse_apply,
    "ci": _parse_ci,
    "cn": _parse_cn,
    "csymbol": _parse_csymbol,
    "piecewise": _parse_piecewise,
    "lambda": _parse_lambda,
}
