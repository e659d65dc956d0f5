from fractions import Fraction as Fr

import pytest

from soscurves.bipoly import BiPoly
from soscurves.polyparse import (
    ParseError,
    format_bipoly,
    format_unipoly,
    parse_bipoly,
    parse_unipoly,
)
from soscurves.unipoly import UniPoly


def test_canonical_format_example():
    F = BiPoly({(2, 1): Fr(3, 2), (0, 1): Fr(-1), (0, 0): Fr(2)})
    assert format_bipoly(F) == "3/2*x^2*y - 1*y + 2"


def test_roundtrip_is_identity():
    for text in [
        "x^2 + y^2 - 1",
        "3/2*x^2*y - 1*y + 2",
        "-x + 2*y",
        "x*y - 1",
        "0",
    ]:
        F = parse_bipoly(text)
        assert parse_bipoly(format_bipoly(F)) == F


def test_parse_tolerates_sugar():
    assert parse_bipoly("2x") == parse_bipoly("2*x")
    assert parse_bipoly("(x - 1)*(x + 1)") == parse_bipoly("x^2 - 1")
    assert parse_bipoly("x**2 + y**2") == parse_bipoly("x^2 + y^2")
    assert parse_bipoly("- x") == parse_bipoly("-1*x")
    assert parse_bipoly("1/2 * x") == parse_bipoly("x").scale(Fr(1, 2))


def test_parse_unipoly_variable_choice():
    p = parse_unipoly("u^2 - 2", "u")
    assert p == UniPoly([Fr(-2), Fr(0), Fr(1)])
    assert format_unipoly(p, "u") == "1*u^2 - 2"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_bipoly("x + ")
    with pytest.raises(ParseError):
        parse_bipoly("z + 1")
    with pytest.raises(ParseError):
        parse_bipoly("x ^ (1/2)")
    with pytest.raises(ParseError):
        parse_bipoly("")
    with pytest.raises(ParseError):
        parse_bipoly("x + 1) * 2")


def test_deep_nesting_is_a_parse_error():
    assert parse_bipoly("(" * 100 + "x" + ")" * 100) == parse_bipoly("x")
    with pytest.raises(ParseError, match="nesting"):
        parse_bipoly("(" * 3000 + "x" + ")" * 3000)
    with pytest.raises(ParseError, match="nesting"):
        parse_bipoly("x*" + "-" * 3000 + "x")


def test_degree_cap_is_a_parse_error():
    assert parse_bipoly("(x+y+1)^8").total_degree == 8
    for text in ("(x+y+1)^60", "((x+1)^8)^8", "(x+1)^20*(y+1)^20"):
        with pytest.raises(ParseError, match="degree"):
            parse_bipoly(text)


def test_format_zero_and_constants():
    assert format_bipoly(BiPoly.zero()) == "0"
    assert format_bipoly(BiPoly.const(Fr(-7, 3))) == "-7/3"
    assert format_unipoly(UniPoly.const(Fr(5))) == "5"
