"""Abstract curve configurations and their combinatorics.

A configuration records what the geometry engine knows about a curve: one
entry per irreducible component with its three-valued attribute flags, and
one entry per intersection point with the components it joins.  Everything
in this module is purely combinatorial; no polynomial arithmetic happens
here.  A configuration carries only what its readers (`decide` and the
combinatorics below) use: no charts and no parameter values, which
certificate and witness construction read from the curve analysis itself.

The incidence graph is bipartite: component nodes on one side, point nodes
on the other, an edge for each incidence.  A point on exactly two components
behaves like the classical "edge between two vertices" picture; a point on
three or more components becomes a star, so three concurrent lines form a
forest: they can be attached one at a time (a multigraph reading would call
them cyclic).  One depth-first walk (`is_forest`) either finds a cycle or
returns the attachment order as its preorder: each component after a tree's
first meets the components before it at one point, its parent in the walk.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .tribool import TriBool


class ConfigurationError(ValueError):
    """The component and point lists do not describe a valid configuration."""


@dataclass(frozen=True)
class OwnSingularity:
    point: str
    ompit: TriBool


@dataclass(frozen=True)
class ConfigComponent:
    id: str
    label: str
    is_real: TriBool
    has_real_points: TriBool
    bounded_ring_trivial: TriBool
    rational_open_A1: TriBool
    own_singularities: tuple[OwnSingularity, ...] = ()


@dataclass(frozen=True)
class ConfigPoint:
    id: str
    realness: TriBool
    components: tuple[str, ...]
    ompit: TriBool


@dataclass(frozen=True)
class Join:
    """A component in attachment order, and where it meets those before it.

    `point` is None for the first component of a tree.  Otherwise the
    component meets the components placed before it at `point` alone, and
    `donor` is the one of them that the walk reached the point from.
    """

    component: str
    point: str | None
    donor: str | None


@dataclass(frozen=True)
class Forest:
    """An acyclic incidence graph; `joins` is the walk's preorder."""

    joins: tuple[Join, ...]


@dataclass(frozen=True)
class Cycle:
    """A simple cycle as an alternating component/point node sequence."""

    nodes: tuple[str, ...]

    def __str__(self) -> str:
        return " - ".join(self.nodes)


@dataclass(frozen=True)
class CPrimeSplit:
    members: tuple[str, ...]
    unknown: tuple[str, ...]


@dataclass(frozen=True)
class CurveConfiguration:
    components: tuple[ConfigComponent, ...]
    points: tuple[ConfigPoint, ...]
    _by_id: dict[str, ConfigComponent] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, ConfigComponent] = {}
        for comp in self.components:
            if comp.id in by_id:
                raise ConfigurationError(f"duplicate component id {comp.id!r}")
            by_id[comp.id] = comp
        object.__setattr__(self, "_by_id", by_id)
        seen_points: set[str] = set()
        for pt in self.points:
            if pt.id in seen_points:
                raise ConfigurationError(f"duplicate point id {pt.id!r}")
            seen_points.add(pt.id)
            if len(set(pt.components)) < 2:
                raise ConfigurationError(
                    f"point {pt.id!r} must join at least two distinct components"
                )
            for cid in pt.components:
                if cid not in by_id:
                    raise ConfigurationError(
                        f"point {pt.id!r} references unknown component {cid!r}"
                    )

    def component(self, cid: str) -> ConfigComponent:
        return self._by_id[cid]

    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)


def _incidence(
    config: CurveConfiguration, subset: Iterable[str]
) -> dict[str, list[str]]:
    """Bipartite adjacency restricted to the subset.

    Point nodes appear only when the point joins at least two subset
    components; neighbor lists are sorted so traversals are deterministic.
    """
    chosen = set(subset)
    unknown = chosen - set(config.component_ids())
    if unknown:
        raise ConfigurationError(f"subset references unknown components {sorted(unknown)}")
    adj: dict[str, list[str]] = {cid: [] for cid in sorted(chosen)}
    for pt in config.points:
        incident = sorted(set(pt.components) & chosen)
        if len(incident) < 2:
            continue
        adj[pt.id] = incident
        for cid in incident:
            adj[cid].append(pt.id)
    for node in adj:
        adj[node].sort()
    return adj


def _canonical_cycle(nodes: list[str]) -> Cycle:
    """Rotate and orient a cycle so the listing is lexicographically minimal."""
    best: tuple[str, ...] | None = None
    n = len(nodes)
    for seq in (nodes, nodes[::-1]):
        start = seq.index(min(seq))
        rotated = tuple(seq[start:] + seq[:start])
        if best is None or rotated < best:
            best = rotated
    assert best is not None
    return Cycle(best)


def is_forest(config: CurveConfiguration, subset: Iterable[str]) -> Forest | Cycle:
    """Forest test on the incidence graph of the chosen components.

    Realness of the points does not matter here; the test is purely
    combinatorial.  On success the forest lists every chosen component once,
    in the depth-first preorder of the walk (`Forest.joins`).  On failure the
    witness is a simple cycle, alternating component and point nodes, in
    canonical (lexicographically minimal) order.
    """
    adj = _incidence(config, subset)
    parent: dict[str, str | None] = {}
    joins: list[Join] = []
    # the components come first in adj, so every root is a component
    for root in adj:
        if root in parent:
            continue
        parent[root] = None
        joins.append(Join(root, None, None))
        stack = [(root, iter(adj[root]))]
        while stack:
            node, nbrs = stack[-1]
            for nxt in nbrs:
                if nxt == parent[node]:
                    continue
                if nxt in parent:
                    # walk both endpoints up to their common ancestor
                    path_a = [node]
                    while path_a[-1] != root:
                        path_a.append(parent[path_a[-1]])
                    path_b = [nxt]
                    while path_b[-1] != root:
                        path_b.append(parent[path_b[-1]])
                    on_a = set(path_a)
                    meet = next(x for x in path_b if x in on_a)
                    cyc = path_a[: path_a.index(meet) + 1]
                    cyc += path_b[: path_b.index(meet)][::-1]
                    return _canonical_cycle(cyc)
                parent[nxt] = node
                if len(stack) % 2 == 0:
                    # the stack alternates components and points from the
                    # root, so node is a point and nxt joins there
                    joins.append(Join(nxt, node, parent[node]))
                stack.append((nxt, iter(adj[nxt])))
                break
            else:
                stack.pop()
    return Forest(tuple(joins))


def extract_C_prime(config: CurveConfiguration) -> CPrimeSplit:
    """Components whose ring of bounded functions is trivial, i.e. just R.

    Components with an Unknown flag are reported separately so callers can
    propagate three-valued answers.
    """
    members = tuple(
        c.id for c in config.components if c.bounded_ring_trivial is TriBool.YES
    )
    unknown = tuple(
        c.id for c in config.components if c.bounded_ring_trivial is TriBool.UNKNOWN
    )
    return CPrimeSplit(members, unknown)


def connected_pieces(
    config: CurveConfiguration, subset: Iterable[str]
) -> tuple[tuple[str, ...], ...]:
    """The chosen components grouped by connected piece of their incidence
    graph, each piece sorted."""
    adj = _incidence(config, subset)
    seen: set[str] = set()
    pieces: list[tuple[str, ...]] = []
    for root in adj:
        if root in seen:
            continue
        stack = [root]
        seen.add(root)
        members: list[str] = []
        while stack:
            node = stack.pop()
            if node in config._by_id:
                members.append(node)
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        pieces.append(tuple(sorted(members)))
    return tuple(pieces)


def induced_subconfiguration(
    config: CurveConfiguration, subset: Iterable[str]
) -> CurveConfiguration:
    """Restriction to a component subset; points keep only surviving incidences."""
    chosen = set(subset)
    comps = tuple(c for c in config.components if c.id in chosen)
    pts = []
    for pt in config.points:
        incident = tuple(cid for cid in pt.components if cid in chosen)
        if len(set(incident)) >= 2:
            pts.append(ConfigPoint(pt.id, pt.realness, incident, pt.ompit))
    return CurveConfiguration(comps, tuple(pts))
