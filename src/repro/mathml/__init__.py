"""Math engine: AST, MathML and infix parsing, evaluation, patterns.

This package implements the math side of the paper — every equation,
kinetic law, rule and assignment in an SBML model is MathML, and the
composition engine decides math equality via the commutative canonical
patterns of :mod:`repro.mathml.pattern` (paper Figure 7).
"""

from repro.mathml.ast import (
    Apply,
    Constant,
    Identifier,
    Lambda,
    MathNode,
    Number,
    Piecewise,
)
from repro.mathml.evaluator import AVOGADRO, Evaluator, evaluate
from repro.mathml.infix import parse_infix, to_infix
from repro.mathml.parser import parse_math_element, parse_mathml
from repro.mathml.pattern import (
    PatternIndex,
    canonical_pattern,
    flatten,
    math_equivalent,
)
from repro.mathml.simplify import simplify
from repro.mathml.writer import write_mathml

__all__ = [
    "MathNode",
    "Number",
    "Identifier",
    "Constant",
    "Apply",
    "Lambda",
    "Piecewise",
    "parse_mathml",
    "parse_math_element",
    "write_mathml",
    "parse_infix",
    "to_infix",
    "evaluate",
    "Evaluator",
    "AVOGADRO",
    "canonical_pattern",
    "math_equivalent",
    "flatten",
    "simplify",
    "PatternIndex",
]
