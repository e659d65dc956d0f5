"""Text form for exact polynomials.

The canonical output format writes every coefficient explicitly and orders
terms by total degree, highest first:

    3/2*x^2*y - 1*y + 2

The parser is more forgiving than the printer: after one regular-expression
scan into tokens, it reads by recursive descent, in any term order,

    expr   := sign* term (("+" | "-") sign* term)*
    term   := power ("*"? power)*        juxtaposition multiplies: 2x, x(x+1)
    power  := atom ("^" digits)?         "**" is read as "^"
    atom   := number | variable | "(" expr ")" | "-" atom
    number := digits ("/" digits)?       spaces may surround the slash

Every intermediate value is a dict of integer numerators over one positive
denominator: terms are added into the running dict over the lcm of the
denominators, and the result is normalised once, through the canonical form
of `BiPoly`, when the parse ends.  Each bound is a `ParseError` at the
offending token: at most _MAX_NESTING nested parentheses and unary minus
signs, total degree at most _MAX_DEGREE in any power or product, as many
digits in a literal as `int()` accepts, and at most _MAX_DIGITS digits in
the numerator and denominator of a power of a constant, checked before it
is computed.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .bipoly import BiPoly, _canonical, _make
from .unipoly import UniPoly


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_MAX_NESTING = 100  # parentheses and unary minus signs; each level costs recursion frames
_MAX_DEGREE = 32  # of any power or product; expanding costs grow steeply with it
_MAX_DIGITS = 4300  # of a constant power's numerator and denominator, as int() allows a literal
_DIGIT_LIMIT = 10**_MAX_DIGITS
_LIMIT_BITS = _DIGIT_LIMIT.bit_length()  # v^n >= 2^((bits(v) - 1) n) exceeds the limit from here

_TOKEN = re.compile(
    r"(?P<num>(\d+)(?:\s*/\s*(\d+))?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>\*\*|[()^*+-])|(?P<bad>\S)"
)

# numerators by exponent pair, their positive denominator, the total degree (-1 for zero)
Value = tuple[dict[tuple[int, int], int], int, int]


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, offset) per token and an end token: the kind is "num" (value:
    numerator and denominator digits), "name", "end" or the operator itself."""
    out: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "op":
            op = "^" if m[0] == "**" else m[0]
            out.append((op, op, m.start()))
        elif kind == "num":
            out.append(("num", (m[2], m[3]), m.start()))
        elif kind == "name":
            out.append(("name", m[0], m.start()))
        else:
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
    out.append(("end", "", len(text)))
    return out


def _mul(a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:  # a single-term factor shifts and scales
        ((i0, j0), c0), = b.items()
        return {(i + i0, j + j0): c * c0 for (i, j), c in a.items()}
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = get(key, 0) + c1 * c2
    return out


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses, on integer numerators."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.slots = {name: (1, 0) if k == 0 else (0, 1) for k, name in enumerate(variables)}
        self.i = 0
        self.depth = 0

    def _take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.i]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def _descend(self, pos: int) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", pos)

    def _check_degree(self, degree: int, pos: int) -> None:
        if degree > _MAX_DEGREE:
            raise ParseError(f"total degree {degree} exceeds {_MAX_DEGREE}", pos)

    def parse(self) -> BiPoly:
        if self.tokens[0][0] == "end":
            raise ParseError("empty polynomial", 0)
        num, den, _ = self._expr()
        tok = self.tokens[self.i]
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return _make(*_canonical(num, den))

    def _expr(self) -> Value:
        tokens = self.tokens
        total: dict[tuple[int, int], int] = {}
        den = 1
        while True:
            sign = 1
            kind = tokens[self.i][0]
            while kind == "+" or kind == "-":
                if kind == "-":
                    sign = -sign
                self.i += 1
                kind = tokens[self.i][0]
            num, tden, _ = self._term()
            if tden != den:
                g = gcd(den, tden)
                up, sign = tden // g, sign * (den // g)
                if up != 1:
                    total = {k: c * up for k, c in total.items()}
                    den *= up
            get = total.get
            for k, c in num.items():
                total[k] = get(k, 0) + sign * c
            kind = tokens[self.i][0]
            if kind != "+" and kind != "-":
                total = {k: c for k, c in total.items() if c}
                return total, den, max((i + j for i, j in total), default=-1)

    def _term(self) -> Value:
        tokens = self.tokens
        num, den, deg = self._power()
        while True:
            tok = tokens[self.i]
            kind = tok[0]
            if kind == "*":
                self.i += 1
            elif kind != "name" and kind != "num" and kind != "(":
                return num, den, deg
            # "a * b", or juxtaposition like "2x" or "x(x+1)"
            fnum, fden, fdeg = self._power()
            self._check_degree(deg + fdeg, tok[2])
            num, den = _mul(num, fnum), den * fden
            deg = deg + fdeg if num else -1

    def _power(self) -> Value:
        base = self._atom()
        tok = self.tokens[self.i]
        if tok[0] != "^":
            return base
        self.i += 1
        ntok = self._take()
        if ntok[0] != "num" or ntok[1][1] is not None:
            raise ParseError("exponent must be a nonnegative integer", ntok[2])
        n = self._int(ntok[1][0], ntok[2])
        num, den, deg = base
        self._check_degree(deg * n, tok[2])
        if n == 0:
            return {(0, 0): 1}, 1, 0
        if n == 1 or deg < 0:
            return base
        if deg == 0:
            c = num[0, 0]
            g = gcd(c, den)
            c, den = c // g, den // g
            if any((v.bit_length() - 1) * n >= _LIMIT_BITS or v**n >= _DIGIT_LIMIT for v in (abs(c), den)):
                raise ParseError(f"power has more than {_MAX_DIGITS} digits", tok[2])
            return {(0, 0): c**n}, den**n, 0
        out = num
        for _ in range(n - 1):  # n <= _MAX_DEGREE here
            out = _mul(out, num)
        return out, den**n, deg * n

    def _int(self, digits: str, pos: int) -> int:
        try:
            return int(digits)
        except ValueError:  # int() refuses strings past sys.get_int_max_str_digits()
            raise ParseError("number has too many digits", pos) from None

    def _atom(self) -> Value:
        kind, value, pos = self._take()
        if kind == "num":
            p, q = self._int(value[0], pos), 1
            if value[1] is not None:
                q = self._int(value[1], pos)
                if not q:
                    raise ParseError("zero denominator", pos)
            return ({(0, 0): p}, q, 0) if p else ({}, q, -1)
        if kind == "name":
            key = self.slots.get(value)
            if key is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            return {key: 1}, 1, 1
        if kind == "(":
            self._descend(pos)
            inner = self._expr()
            closing = self._take()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            self.depth -= 1
            return inner
        if kind == "-":
            self._descend(pos)
            num, den, deg = self._atom()
            self.depth -= 1
            return {k: -c for k, c in num.items()}, den, deg
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_bipoly(text: str, variables: tuple[str, str] = ("x", "y")) -> BiPoly:
    return _Parser(text, variables).parse()


def parse_unipoly(text: str, variable: str = "t") -> UniPoly:
    return _Parser(text, (variable,)).parse().specialize_y(0)


def _format_coeff(c: Fraction) -> str:
    return str(c) if c.denominator != 1 else str(c.numerator)


def _monomial(names: tuple[str, str], i: int, j: int) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, (i, j)) if e)


def format_bipoly(F: BiPoly, variables: tuple[str, str] = ("x", "y")) -> str:
    if F.is_zero():
        return "0"
    terms = F.terms
    keys = sorted(terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
    pieces = []
    for idx, key in enumerate(keys):
        c = terms[key]
        mono = _monomial(variables, *key)
        body = f"{_format_coeff(abs(c))}*{mono}" if mono else _format_coeff(abs(c))
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def format_unipoly(p: UniPoly, variable: str = "t") -> str:
    return format_bipoly(BiPoly.from_unipoly_in_x(p), (variable, "_"))
