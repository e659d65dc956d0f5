"""Text form for exact polynomials.

The canonical output format writes every coefficient explicitly and orders
terms by total degree, highest first:

    3/2*x^2*y - 1*y + 2

The parser is more forgiving than the printer: implicit coefficients,
parentheses, and any term order are accepted on input.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .bipoly import BiPoly
from .unipoly import UniPoly


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_MAX_NESTING = 100  # parentheses and unary minus signs; each level costs recursion frames
_MAX_DEGREE = 32  # of any power or product; expanding costs grow steeply with it

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>\*\*|[()^*+-]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "num":
            value = value.replace(" ", "")
        elif value == "**":
            value = "^"
        out.append((kind, value, m.start(kind)))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.slots = {name: k for k, name in enumerate(variables)}
        self.i = 0
        self.depth = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _take(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
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
        if not self.tokens:
            raise ParseError("empty polynomial", 0)
        out = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return out

    def _expr(self) -> BiPoly:
        sign = 1
        tok = self._peek()
        while tok is not None and tok[:2] in (("op", "+"), ("op", "-")):
            self._take()
            if tok[1] == "-":
                sign = -sign
            tok = self._peek()
        total = self._term().scale(sign)
        while True:
            tok = self._peek()
            if tok is None or tok[1] not in ("+", "-") or tok[0] != "op":
                return total
            self._take()
            sign = 1 if tok[1] == "+" else -1
            nxt = self._peek()
            while nxt is not None and nxt[:2] in (("op", "+"), ("op", "-")):
                self._take()
                if nxt[1] == "-":
                    sign = -sign
                nxt = self._peek()
            total = total + self._term().scale(sign)

    def _term(self) -> BiPoly:
        out = self._power()
        while True:
            tok = self._peek()
            if tok is not None and tok[:2] == ("op", "*"):
                self._take()
            elif tok is None or (tok[0] not in ("name", "num") and tok[1] != "("):
                return out
            # "a * b", or juxtaposition like "2x" or "x(x+1)"
            factor = self._power()
            self._check_degree(out.total_degree + factor.total_degree, tok[2])
            out = out * factor

    def _power(self) -> BiPoly:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok[:2] == ("op", "^"):
            self._take()
            ntok = self._take()
            if ntok[0] != "num" or "/" in ntok[1]:
                raise ParseError("exponent must be a nonnegative integer", ntok[2])
            n = int(self._number(ntok[1], ntok[2]))
            self._check_degree(base.total_degree * n, tok[2])
            return base ** n
        return base

    @staticmethod
    def _number(text: str, pos: int) -> Fraction:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ParseError("zero denominator", pos) from None
        except ValueError:  # int() refuses strings past sys.get_int_max_str_digits()
            raise ParseError("number has too many digits", pos) from None

    def _atom(self) -> BiPoly:
        tok = self._take()
        kind, value, pos = tok
        if kind == "num":
            return BiPoly.const(self._number(value, pos))
        if kind == "name":
            if value not in self.slots:
                raise ParseError(f"unknown variable {value!r}", pos)
            return BiPoly.x() if self.slots[value] == 0 else BiPoly.y()
        if (kind, value) == ("op", "("):
            self._descend(pos)
            inner = self._expr()
            closing = self._take()
            if closing[:2] != ("op", ")"):
                raise ParseError("expected ')'", closing[2])
            self.depth -= 1
            return inner
        if (kind, value) == ("op", "-"):
            self._descend(pos)
            inner = -self._atom()
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_bipoly(text: str, variables: tuple[str, str] = ("x", "y")) -> BiPoly:
    return _Parser(text, variables).parse()


def parse_unipoly(text: str, variable: str = "t") -> UniPoly:
    two_var = _Parser(text, (variable,)).parse()
    return two_var.specialize_y(0)


def _format_coeff(c: Fraction) -> str:
    return str(c) if c.denominator != 1 else str(c.numerator)


def _monomial(names: tuple[str, str], i: int, j: int) -> str:
    parts = []
    for name, e in zip(names, (i, j)):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


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
