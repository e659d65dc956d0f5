"""Property tests of the parser against BiPoly arithmetic, and its bound on
constant powers."""
import time
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soscurves.bipoly import BiPoly
from soscurves.polyparse import ParseError, parse_bipoly

# a tree is ("num", p, q), ("var", name), ("neg", a), ("pow", a, n) or
# (op, a, b) for op in add, sub, mul
_leaves = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 30), st.integers(1, 7)),
    st.tuples(st.just("var"), st.sampled_from("xy")),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), kids, kids),
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("pow"), kids, st.integers(0, 3)),
    ),
    max_leaves=12,
)


def _evaluate(tree) -> tuple[BiPoly, int]:
    """The tree's polynomial, and the largest degree a product or power in it reaches."""
    kind = tree[0]
    if kind == "num":
        return BiPoly.const(Fr(tree[1], tree[2])), 0
    if kind == "var":
        return (BiPoly.x() if tree[1] == "x" else BiPoly.y()), 0
    a, top = _evaluate(tree[1])
    if kind == "neg":
        return -a, top
    if kind == "pow":
        n = tree[2]
        return a**n, max(top, a.total_degree * n)
    b, top_b = _evaluate(tree[2])
    top = max(top, top_b)
    if kind == "mul":
        return a * b, max(top, a.total_degree + b.total_degree)
    return (a + b if kind == "add" else a - b), top


class _Renderer:
    """Text for a tree with drawn sugar: spacing, "**", juxtaposition,
    redundant parentheses, chains of signs and spaced fractions a / b.

    The level says where the text goes: 0 starts an expression, 1 starts a
    term (after a sign), 2 is a factor after "*" or a space, and 3 is the
    base of a power.
    """

    def __init__(self, draw):
        self.draw = draw

    def sp(self) -> str:
        return self.draw(st.sampled_from(["", " ", "  "]))

    def paren(self, text: str) -> str:
        return f"({self.sp()}{text}{self.sp()})"

    def __call__(self, tree, level: int) -> str:
        text = self.render(tree, level)
        return self.paren(text) if self.draw(st.integers(0, 5)) == 0 else text

    def render(self, tree, level: int) -> str:
        kind, sp = tree[0], self.sp
        if kind == "num":
            p, q = tree[1], tree[2]
            if q == 1 and self.draw(st.booleans()):
                return str(p)
            return f"{p}{sp()}/{sp()}{q}"
        if kind == "var":
            return tree[1]
        if kind in ("add", "sub"):
            if level > 0:
                return self.paren(self(tree, 0))
            op = "+" if kind == "add" else "-"
            return f"{self(tree[1], 0)}{sp()}{op}{sp()}{self(tree[2], 1)}"
        if kind == "mul":
            if level > 1:
                return self.paren(self(tree, 1))
            left, right = self(tree[1], 1), self(tree[2], 2)
            if right[0] != "-" and self.draw(st.booleans()):
                return f"{left} {right}"  # juxtaposition
            return f"{left}{sp()}*{sp()}{right}"
        if kind == "pow":
            if level > 2:
                return self.paren(self(tree, 2))
            op = self.draw(st.sampled_from(["^", "**"]))
            return f"{self(tree[1], 3)}{sp()}{op}{sp()}{tree[2]}"
        # neg: a sign chain where a term starts, the unary minus of an atom after that
        if level > 2:
            return self.paren(self(tree, 2))
        if level == 2:
            return f"-{sp()}{self(tree[1], 3)}"
        plus = self.draw(st.sampled_from(["", "+", "+ +"]))
        return f"{plus}{sp()}-{sp()}{self(tree[1], 1)}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tree=_trees, data=st.data())
def test_parse_matches_tree_arithmetic(tree, data):
    expected, top = _evaluate(tree)
    assume(top <= 32)
    text = _Renderer(data.draw)(tree, 0)
    assert parse_bipoly(text) == expected, text


def test_constant_powers_are_bounded():
    assert parse_bipoly("2^64") == BiPoly.const(2**64)
    assert parse_bipoly("(1/3)^40") == BiPoly.const(Fr(1, 3**40))
    assert parse_bipoly("(2/2)^100000000") == BiPoly.const(1)
    assert parse_bipoly("0^100000000 + x") == BiPoly.x()
    start = time.perf_counter()
    with pytest.raises(ParseError, match="power has more than 4300 digits.*offset 1"):
        parse_bipoly("3^100000000")
    with pytest.raises(ParseError, match="offset 5"):
        parse_bipoly("(1/3)^100000000")
    assert time.perf_counter() - start < 0.1
    # 10^4299 has 4300 digits and 10^4300 one more
    assert parse_bipoly("10^4299") == BiPoly.const(10**4299)
    with pytest.raises(ParseError, match="power has more than"):
        parse_bipoly("10^4300")
