"""DOT rendering of Hasse diagrams for profile posets and agenda lattices."""

from __future__ import annotations

import itertools

from . import partitions as pt
from .errors import CapExceeded
from .lattice import build_lattice

HASSE_NODE_CAP = 512


def _dot(name, nodes, edges):
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for key, label in nodes:
        lines.append(f'  "{key}" [label="{label}"];')
    for lo, hi in edges:
        lines.append(f'  "{lo}" -> "{hi}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def profile_poset_dot(space):
    """Covering pairs of the dominance order over all profiles."""
    if space.n > HASSE_NODE_CAP:
        raise CapExceeded(f"{space.n} profiles exceed cap {HASSE_NODE_CAP}")
    holds = space.dominance.holds
    nodes = []
    for pid in range(space.n):
        label = ",".join(space.labels(pid)[name] for name in space.names)
        nodes.append((f"p{pid}", f"({label})"))
    edges = []
    for a, b in itertools.permutations(range(space.n), 2):
        if not holds[a, b] or holds[b, a]:
            continue
        if any(
            c != a and c != b and holds[a, c] and holds[c, b]
            for c in range(space.n)
        ):
            continue
        edges.append((f"p{a}", f"p{b}"))
    return _dot("profiles", nodes, sorted(edges))


def agenda_lattice_dot(lattice):
    """Covering pairs of a materialized agenda lattice."""
    elems = lattice.elements
    if elems is None:
        raise CapExceeded("the lattice is not materialized")
    if len(elems) > HASSE_NODE_CAP:
        raise CapExceeded(f"{len(elems)} elements exceed cap {HASSE_NODE_CAP}")
    # key nodes by identity, so no element builds its partition
    key = {id(a): f"e{i}" for i, a in enumerate(elems)}
    nodes = [(f"e{i}", a.label()) for i, a in enumerate(elems)]
    edges = sorted((key[id(lo)], key[id(hi)]) for lo, hi in lattice.covers())
    return _dot("agendas", nodes, edges)


def equivalence_lattice(n):
    """All of E(W) for a small ground set, as a materialized lattice.

    Every equivalence relation is the meet of the bipartitions above it,
    so meet-closing all coatoms materializes the full lattice.
    """
    from .features import Agenda
    from .lattice import Issue, IssueSet

    _, coatoms = pt.enumerate_irreducibles(n)
    issues = [
        Issue(f"cut:{'.'.join(map(str, c.blocks[0]))}", Agenda(c))
        for c in coatoms
    ]
    return build_lattice(IssueSet(issues), cap=len(issues))


def export_hasse(obj, kind):
    """DOT text for either a profile poset or an agenda lattice."""
    if kind == "profile_poset":
        return profile_poset_dot(obj)
    if kind == "agenda_lattice":
        return agenda_lattice_dot(obj)
    raise CapExceeded(f"unknown Hasse kind {kind!r}")
