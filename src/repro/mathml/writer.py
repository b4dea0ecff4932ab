"""Serialise :mod:`repro.mathml.ast` trees back to MathML 2.0.

The writer emits the same SBML-flavoured MathML subset the parser
accepts, so ``parse_mathml(write_mathml(node)) == node`` holds for
every tree the library constructs (a property test asserts this).

Text is appended to a list of strings in one walk of the tree.  The
layout is ElementTree's (``ET.indent`` then ``ET.tostring``): each
child on its own line one indent step deeper, ``<tag />`` for empty
elements, and ``& < >`` escaped in text and additionally ``" CR LF
TAB`` in attribute values.  The SBML writer embeds the same emitter,
so a model's text -- and the content digest taken of it -- is what
the ElementTree-based writer produced.
"""

from __future__ import annotations

from typing import List, Optional

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

__all__ = ["write_mathml"]

_CSYMBOL_SYMBOLS = {
    "time": "http://www.sbml.org/sbml/symbols/time",
    "delay": "http://www.sbml.org/sbml/symbols/delay",
    "avogadro": "http://www.sbml.org/sbml/symbols/avogadro",
}

_MATH_OPEN = f'<math xmlns="{MATHML_NS}">'


def write_mathml(node: MathNode, indent: Optional[str] = None) -> str:
    """Render ``node`` as a complete ``<math>`` document string.

    ``indent`` (whitespace) puts every element on its own line, nested
    one ``indent`` deeper than its parent; ``None`` writes no
    whitespace at all.
    """
    out: List[str] = []
    if indent is None:
        emit_math(out, node, "", "")
        return "".join(out)
    emit_math(out, node, "\n", indent)
    # The document starts at ``<math>``, without the newline before it.
    return "".join(out)[1:]


def emit_math(out: List[str], node: MathNode, pad: str, space: str) -> None:
    """Append the ``<math>`` element for ``node`` to ``out``.

    ``pad`` is the whitespace before the element's start tag (a newline
    and its indentation, or ``""``); each level of children is indented
    by ``space`` more.
    """
    inner = pad + space
    out.append(pad + _MATH_OPEN)
    _emit_node(out, node, inner, space)
    out.append(pad + "</math>")


def escape_text(text: str) -> str:
    """Escape character data as ElementTree does."""
    if text.isidentifier():
        return text
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(text: str) -> str:
    """Escape an attribute value as ElementTree does."""
    if text.isidentifier():
        return text
    return (
        escape_text(text)
        .replace('"', "&quot;")
        .replace("\r", "&#13;")
        .replace("\n", "&#10;")
        .replace("\t", "&#09;")
    )


def _text_element(start: str, tag: str, text: str) -> str:
    """``start`` is ``<tag`` plus attributes; empty text gives ``<tag />``."""
    if text:
        return f"{start}>{escape_text(text)}</{tag}>"
    return start + " />"


def _emit_node(out: List[str], node: MathNode, pad: str, space: str) -> None:
    if isinstance(node, Apply):
        _emit_apply(out, node, pad, space)
    elif isinstance(node, Identifier):
        url = _CSYMBOL_SYMBOLS.get(node.name)
        if url is not None:
            out.append(
                f'{pad}<csymbol definitionURL="{url}">{node.name}</csymbol>'
            )
        else:
            out.append(pad + _text_element("<ci", "ci", node.name))
    elif isinstance(node, Number):
        out.append(pad + _number(node))
    elif isinstance(node, Constant):
        out.append(f"{pad}<{node.name} />")
    elif isinstance(node, Lambda):
        inner = pad + space
        out.append(pad + "<lambda>")
        deeper = inner + space
        for param in node.params:
            out.append(
                f"{inner}<bvar>{deeper}{_text_element('<ci', 'ci', param)}"
                f"{inner}</bvar>"
            )
        _emit_node(out, node.body, inner, space)
        out.append(pad + "</lambda>")
    elif isinstance(node, Piecewise):
        if not node.pieces and node.otherwise is None:
            out.append(pad + "<piecewise />")
            return
        inner = pad + space
        deeper = inner + space
        out.append(pad + "<piecewise>")
        for value, condition in node.pieces:
            out.append(inner + "<piece>")
            _emit_node(out, value, deeper, space)
            _emit_node(out, condition, deeper, space)
            out.append(inner + "</piece>")
        if node.otherwise is not None:
            out.append(inner + "<otherwise>")
            _emit_node(out, node.otherwise, deeper, space)
            out.append(inner + "</otherwise>")
        out.append(pad + "</piecewise>")
    else:
        raise TypeError(f"cannot serialise {type(node).__name__}")


def _number(node: Number) -> str:
    if node.units is not None:
        units = f' units="{escape_attribute(node.units)}"'
    else:
        units = ""
    if node.is_integer() and abs(node.value) < 1e15:
        return f'<cn type="integer"{units}>{int(node.value)}</cn>'
    return f"<cn{units}>{node.value!r}</cn>"


def _emit_apply(out: List[str], node: Apply, pad: str, space: str) -> None:
    inner = pad + space
    op = node.op
    out.append(pad + "<apply>")
    if op == "root" or op == "log":
        # args are (qualifier, operand); a degree of 2 or a logbase of
        # 10 may be elided, but is always written for round-trip
        # stability.
        qualifier = "degree" if op == "root" else "logbase"
        out.append(f"{inner}<{op} />{inner}<{qualifier}>")
        _emit_node(out, node.args[0], inner + space, space)
        out.append(f"{inner}</{qualifier}>")
        _emit_node(out, node.args[1], inner, space)
    else:
        if op in KNOWN_OPERATORS:
            out.append(f"{inner}<{op} />")
        else:
            out.append(inner + _text_element("<ci", "ci", op))
        for arg in node.args:
            _emit_node(out, arg, inner, space)
    out.append(pad + "</apply>")
