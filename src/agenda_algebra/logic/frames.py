"""Relational structures (C, D, I, R, S) and their complex algebras.

The complex algebra of a structure interprets coalitions as subsets of C
and agendas as subsets of D ordered by reverse inclusion, so issues are
the coatoms of the agenda sort and every issue is completely meet-prime.
Both sorts are packed into int bitmasks.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass

from ..errors import SortError


@dataclass(frozen=True)
class RelationalStructure:
    """A frame: carriers C and D plus the relations I, R, S."""

    C: tuple
    D: tuple
    I: frozenset = frozenset()
    R: frozenset = frozenset()
    S: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "C", tuple(self.C))
        object.__setattr__(self, "D", tuple(self.D))
        object.__setattr__(
            self, "I", frozenset(tuple(p) for p in self.I)
        )
        object.__setattr__(
            self, "R", frozenset(tuple(p) for p in self.R)
        )
        object.__setattr__(
            self, "S", frozenset(tuple(p) for p in self.S)
        )
        cs, ds = set(self.C), set(self.D)
        for a, b in self.I:
            if a not in cs or b not in cs:
                raise SortError(f"influence pair {(a, b)} is ill-typed")
        for m, j in self.R:
            if m not in ds or j not in cs:
                raise SortError(f"relevance pair {(m, j)} is ill-typed")
        for n, j, m in self.S:
            if n not in ds or j not in cs or m not in ds:
                raise SortError(f"substitution triple {(n, j, m)} is ill-typed")

    def to_json(self):
        return {
            "C": list(self.C),
            "D": list(self.D),
            "I": sorted(map(list, self.I)),
            "R": sorted(map(list, self.R)),
            "S": sorted(map(list, self.S)),
        }


def disjoint_union(f1, f2):
    """Tagged union of carriers and relations."""
    def tag(k, x):
        return f"{k}:{x}"

    return RelationalStructure(
        C=tuple(tag(1, x) for x in f1.C) + tuple(tag(2, x) for x in f2.C),
        D=tuple(tag(1, x) for x in f1.D) + tuple(tag(2, x) for x in f2.D),
        I=frozenset(
            {(tag(1, a), tag(1, b)) for a, b in f1.I}
            | {(tag(2, a), tag(2, b)) for a, b in f2.I}
        ),
        R=frozenset(
            {(tag(1, m), tag(1, j)) for m, j in f1.R}
            | {(tag(2, m), tag(2, j)) for m, j in f2.R}
        ),
        S=frozenset(
            {(tag(1, n), tag(1, j), tag(1, m)) for n, j, m in f1.S}
            | {(tag(2, n), tag(2, j), tag(2, m)) for n, j, m in f2.S}
        ),
    )


@dataclass(frozen=True)
class MorphismReport:
    surjective: bool
    forth_I: bool
    forth_R: bool
    forth_S: bool

    @property
    def ok(self):
        return self.surjective and self.forth_I and self.forth_R and self.forth_S


def check_forth_morphism(maps, f1, f2):
    """Surjectivity plus forth preservation of I, R, S for a pair of maps.

    ``maps`` is (agent map, issue map) from the carriers of f1 to f2.
    """
    c_map, d_map = maps
    surjective = set(c_map[c] for c in f1.C) == set(f2.C) and set(
        d_map[d] for d in f1.D
    ) == set(f2.D)
    forth_i = all((c_map[a], c_map[b]) in f2.I for a, b in f1.I)
    forth_r = all((d_map[m], c_map[j]) in f2.R for m, j in f1.R)
    forth_s = all(
        (d_map[n], c_map[j], d_map[m]) in f2.S for n, j, m in f1.S
    )
    return MorphismReport(surjective, forth_i, forth_r, forth_s)


def _identity(mask):
    return mask


def memoized(method):
    """Memoize an operator in ``self._cache[name]``, keyed on its arguments.

    A None result is not kept; every memoized method returns a value.
    """
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self, *args):
        cache = self._cache[name]
        value = cache.get(args)
        if value is None:
            value = cache[args] = method(self, *args)
        return value

    return wrapper


class FrameAlgebra:
    """Complex algebra of a frame, its heterogeneous operators memoized.

    Coalition elements are bitmasks over C (order: subset).  Agenda
    elements are bitmasks over D read as supported-issue sets (order:
    superset, so the empty set is the top agenda and the full set is the
    bottom).

    Given an agenda lattice whose issues are D, in issue-set order, the
    same operators compute those of the concrete structure.  An agenda
    value is then the generator set its label names, read through the
    lattice closure: meets are unions, joins intersect closures, and
    ``x <= y`` holds when closure(x) contains y.  An (agent, issue) pair
    with no replacement adds nothing to ``pdra`` (its closed substitution
    entry is the bottom).  For a frame the closure is the identity.

    No operator enumerates the agenda sort.  ``pdra(c, x)`` is an AND and
    ``br(c, x)`` an OR over the issues of closure(x), so ``eqless`` and
    ``triangle`` join the issues that pass alone (an additive operator is
    fixed by its values on (co)atoms, Jónsson & Tarski 1951).  ``all_ia``
    lists the 2^nd issue masks, read through the closure given a lattice;
    only element lists and the box, both in ``HeteroAlgebra``, need the
    lattice materialized.

    Each (operator, arguments) pair is computed once per instance and
    kept in ``self._cache[operator]``; unlike ``functools.cache`` on a
    method, the memo keeps no algebra alive.
    """

    def __init__(self, frame, lattice=None):
        self.frame = frame
        self.nc = len(frame.C)
        self.nd = len(frame.D)
        cpos = {c: i for i, c in enumerate(frame.C)}
        dpos = {d: i for i, d in enumerate(frame.D)}
        self.c_full = (1 << self.nc) - 1
        self.d_full = (1 << self.nd) - 1
        self.r_mask = [0] * self.nc
        for m, j in frame.R:
            self.r_mask[cpos[j]] |= 1 << dpos[m]
        self.s_mask = [[0] * self.nd for _ in range(self.nc)]
        for n, j, m in frame.S:
            self.s_mask[cpos[j]][dpos[m]] |= 1 << dpos[n]
        self.i_into = [0] * self.nc   # agents influencing j
        self.i_from = [0] * self.nc   # agents influenced by j
        for a, b in frame.I:
            self.i_into[cpos[b]] |= 1 << cpos[a]
            self.i_from[cpos[a]] |= 1 << cpos[b]
        if lattice is None:
            self._closure = _identity
            self.r_closed, self.s_closed = self.r_mask, self.s_mask
        else:
            self._closure = closure = lattice._closure
            self.r_closed = [closure(r) for r in self.r_mask]
            self.s_closed = [
                [closure(s) if s else self.d_full for s in row]
                for row in self.s_mask
            ]
        self._cache = defaultdict(dict)

    # -- element enumeration ------------------------------------------

    def all_c(self):
        return range(1 << self.nc)

    def all_ia(self):
        return range(1 << self.nd)

    def c_atoms(self):
        return [1 << i for i in range(self.nc)]

    def ia_coatoms(self):
        return [1 << i for i in range(self.nd)]

    # -- order and Boolean structure -----------------------------------

    def c_leq(self, x, y):
        return x & y == x

    def ia_leq(self, x, y):
        return self._closure(x) & y == y

    def c_top(self):
        return self.c_full

    def c_bot(self):
        return 0

    def ia_top(self):
        return 0

    def ia_bot(self):
        return self.d_full

    def c_and(self, x, y):
        return x & y

    def c_or(self, x, y):
        return x | y

    def c_not(self, x):
        return self.c_full & ~x

    def ia_meet(self, x, y):
        return x | y

    def ia_join(self, x, y):
        return self._closure(x) & self._closure(y)

    # -- influence modalities -------------------------------------------

    def _members(self, c):
        return [i for i in range(self.nc) if c >> i & 1]

    def _issues(self, e):
        return [i for i in range(self.nd) if e >> i & 1]

    def diamdot(self, c):
        out = 0
        for i in self._members(c):
            out |= self.i_into[i]
        return out

    def diamdotb(self, c):
        out = 0
        for i in self._members(c):
            out |= self.i_from[i]
        return out

    def boxdot(self, c):
        return self.c_not(self.diamdot(self.c_not(c)))

    def blacksqdot(self, c):
        return self.c_not(self.diamdotb(self.c_not(c)))

    # -- heterogeneous operators ----------------------------------------

    @memoized
    def diamond(self, c):
        out = self.d_full
        for j in self._members(c):
            out &= self.r_closed[j]
        return out

    @memoized
    def rhd(self, c):
        out = 0
        for j in self._members(c):
            out |= self.r_mask[j]
        return out

    @memoized
    def blacksquare(self, e):
        out = 0
        for j in range(self.nc):
            if e & self.r_closed[j] == e:
                out |= 1 << j
        return out

    @memoized
    def blacktriangleright(self, e):
        closed = self._closure(e)
        out = 0
        for j in range(self.nc):
            if self.r_mask[j] & closed == self.r_mask[j]:
                out |= 1 << j
        return out

    @memoized
    def pdra(self, c, e):
        out = self.d_full
        issues = self._issues(self._closure(e))
        for j in self._members(c):
            for m in issues:
                out &= self.s_closed[j][m]
        return out

    @memoized
    def star(self, e1, e2):
        out = 0
        for j in range(self.nc):
            if self.pdra(1 << j, e1) & e2 == e2:
                out |= 1 << j
        return out

    @memoized
    def eqless(self, c, e):
        out = 0
        for cand in self.ia_coatoms():
            if self.pdra(c, cand) & e == e:
                out |= cand
        return out

    @memoized
    def br(self, c, e):
        out = 0
        issues = self._issues(self._closure(e))
        for j in self._members(c):
            for m in issues:
                out |= self.s_mask[j][m]
        return out

    @memoized
    def brB(self, e1, e2):
        closed = self._closure(e1)
        out = 0
        for j in range(self.nc):
            if closed & self.br(1 << j, e2) == self.br(1 << j, e2):
                out |= 1 << j
        return out

    @memoized
    def triangle(self, c, e):
        closed = self._closure(e)
        out = 0
        for cand in self.ia_coatoms():
            if closed & self.br(c, cand) == self.br(c, cand):
                out |= cand
        return out

    # -- readable rendering ---------------------------------------------

    def ia_label(self, e):
        return "{" + ",".join(
            str(self.frame.D[i]) for i in self._issues(e)
        ) + "}"
