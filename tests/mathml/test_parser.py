"""Unit tests for the MathML parser."""

import pytest

from repro.errors import MathParseError
from repro.mathml import (
    Apply,
    Constant,
    Identifier,
    Lambda,
    Number,
    Piecewise,
    parse_mathml,
)
from repro.mathml.parser import MAX_MATH_DEPTH

MATH = '<math xmlns="http://www.w3.org/1998/Math/MathML">{}</math>'


def parse(body):
    return parse_mathml(MATH.format(body))


def test_parse_ci():
    assert parse("<ci> S1 </ci>") == Identifier("S1")


def test_parse_cn_real():
    assert parse("<cn>4.5</cn>") == Number(4.5)


def test_parse_cn_integer():
    assert parse('<cn type="integer">7</cn>') == Number(7.0)


def test_parse_cn_e_notation():
    node = parse('<cn type="e-notation">6.022<sep/>23</cn>')
    assert node.value == pytest.approx(6.022e23)


def test_parse_cn_rational():
    assert parse('<cn type="rational">1<sep/>4</cn>') == Number(0.25)


def test_parse_cn_rational_zero_denominator():
    with pytest.raises(MathParseError):
        parse('<cn type="rational">1<sep/>0</cn>')


def test_parse_cn_units_attribute():
    node = parse('<cn units="per_second">2</cn>')
    assert node.units == "per_second"


def test_parse_constants():
    assert parse("<pi/>") == Constant("pi")
    assert parse("<exponentiale/>") == Constant("exponentiale")
    assert parse("<true/>") == Constant("true")
    assert parse("<infinity/>") == Constant("infinity")


def test_parse_apply_times():
    node = parse(
        "<apply><times/><ci>k1</ci><ci>A</ci></apply>"
    )
    assert node == Apply("times", (Identifier("k1"), Identifier("A")))


def test_parse_nary_plus():
    node = parse(
        "<apply><plus/><ci>a</ci><ci>b</ci><ci>c</ci></apply>"
    )
    assert node.op == "plus"
    assert len(node.args) == 3


def test_parse_unary_minus():
    node = parse("<apply><minus/><ci>x</ci></apply>")
    assert node == Apply("minus", (Identifier("x"),))


def test_parse_minus_three_args_rejected():
    with pytest.raises(MathParseError):
        parse("<apply><minus/><ci>a</ci><ci>b</ci><ci>c</ci></apply>")


def test_parse_root_with_degree():
    node = parse(
        "<apply><root/><degree><cn>3</cn></degree><ci>x</ci></apply>"
    )
    assert node == Apply("root", (Number(3), Identifier("x")))


def test_parse_root_default_degree():
    node = parse("<apply><root/><ci>x</ci></apply>")
    assert node == Apply("root", (Number(2), Identifier("x")))


def test_parse_log_with_base():
    node = parse(
        "<apply><log/><logbase><cn>2</cn></logbase><ci>x</ci></apply>"
    )
    assert node == Apply("log", (Number(2), Identifier("x")))


def test_parse_log_default_base_10():
    node = parse("<apply><log/><ci>x</ci></apply>")
    assert node == Apply("log", (Number(10), Identifier("x")))


def test_parse_user_function_call():
    node = parse("<apply><ci>MM</ci><ci>S</ci><ci>Vmax</ci></apply>")
    assert node == Apply("MM", (Identifier("S"), Identifier("Vmax")))


def test_parse_csymbol_time():
    node = parse(
        '<csymbol definitionURL="http://www.sbml.org/sbml/symbols/time">'
        "t</csymbol>"
    )
    assert node == Identifier("time")


def test_parse_piecewise():
    node = parse(
        "<piecewise>"
        "<piece><cn>1</cn><apply><gt/><ci>x</ci><cn>0</cn></apply></piece>"
        "<otherwise><cn>0</cn></otherwise>"
        "</piecewise>"
    )
    assert isinstance(node, Piecewise)
    assert len(node.pieces) == 1
    assert node.otherwise == Number(0)


def test_parse_lambda():
    node = parse(
        "<lambda><bvar><ci>x</ci></bvar>"
        "<apply><times/><ci>x</ci><cn>2</cn></apply></lambda>"
    )
    assert node == Lambda(
        ("x",), Apply("times", (Identifier("x"), Number(2)))
    )


def test_parse_lambda_no_body_rejected():
    with pytest.raises(MathParseError):
        parse("<lambda><bvar><ci>x</ci></bvar></lambda>")


def test_parse_empty_apply_rejected():
    with pytest.raises(MathParseError):
        parse("<apply></apply>")


def test_parse_empty_ci_rejected():
    with pytest.raises(MathParseError):
        parse("<ci>  </ci>")


def test_parse_malformed_xml_rejected():
    with pytest.raises(MathParseError):
        parse_mathml("<math><apply>")


def test_parse_unknown_element_rejected():
    with pytest.raises(MathParseError):
        parse("<matrix/>")


def test_parse_math_with_two_children_rejected():
    with pytest.raises(MathParseError):
        parse("<ci>a</ci><ci>b</ci>")


def test_parse_relational_chain():
    node = parse(
        "<apply><lt/><cn>1</cn><cn>2</cn><cn>3</cn></apply>"
    )
    assert node.op == "lt"
    assert len(node.args) == 3


def test_nesting_beyond_the_cap_rejected():
    def chain(depth):
        return (
            '<math xmlns="http://www.w3.org/1998/Math/MathML">'
            + "<apply><minus/>" * depth
            + "<ci>x</ci>"
            + "</apply>" * depth
            + "</math>"
        )

    assert parse_mathml(chain(MAX_MATH_DEPTH)).digest()
    for depth in (MAX_MATH_DEPTH + 1, 5000):
        with pytest.raises(MathParseError, match="deeper than"):
            parse_mathml(chain(depth))
