"""Finite partitions, the lattice E(W) of equivalence relations, and preorders.

A partition on the ground set {0, .., n-1} stands for the equivalence
relation whose classes are its blocks.  The lattice order is inclusion of
relations: finer partitions sit below coarser ones, the all-singletons
partition is the bottom and the single-block partition is the top.

Every partition comes from a labelling of the elements, one class per
distinct label: ``Partition._from_labels`` is the only general code that
numbers the classes and orders the blocks.  ``Partition._from_side``
gives a two-block labelling, a boolean array, the same canonical form
without a pass in Python.
"""

from __future__ import annotations

import collections
import enum
import itertools
import warnings

import numpy as np

from .errors import (
    AgendaAlgebraError,
    CoverageError,
    EmptyBlockError,
    GroundMismatch,
    IndexOutOfRange,
    OverlapError,
    SizeCap,
    TooSmall,
    TransitivityWarning,
)

COATOM_ENUMERATION_CAP = 20

# 0..m-1 for the largest ground set m seen, as a tuple and as an object
# array: blocks hold these int objects, so partitions share them rather
# than each keeping copies above 256
_ELEMENTS = ()
_ELEMENT_ARRAY = np.empty(0, dtype=object)


def _elements(n):
    """The shared ints 0..m-1 (also in ``_ELEMENT_ARRAY``), some m >= n."""
    global _ELEMENTS, _ELEMENT_ARRAY
    if len(_ELEMENTS) < n:
        _ELEMENTS = tuple(range(n))
        _ELEMENT_ARRAY = np.array(_ELEMENTS, dtype=object)
    return _ELEMENTS


class Partition:
    """Canonical partition of {0, .., n-1}: blocks sorted by least element.

    Structural equality of canonical forms coincides with equality of the
    underlying equivalence relations, so instances are hashable and safe to
    deduplicate in sets and dicts.
    """

    __slots__ = ("n", "blocks", "block_of")

    def __init__(self, n, blocks):
        if n < 1:
            raise TooSmall(f"ground set must have size >= 1, got {n}")
        block_of = [None] * n
        for i, block in enumerate(blocks):
            block = sorted(block)
            if not block:
                raise EmptyBlockError("empty block")
            for x in block:
                if not 0 <= x < n:
                    raise IndexOutOfRange(f"element {x} outside 0..{n - 1}")
                if block_of[x] is not None:
                    raise OverlapError(f"element {x} occurs in two blocks")
                block_of[x] = i
        if any(b is None for b in block_of):
            missing = [x for x in range(n) if block_of[x] is None]
            raise CoverageError(f"elements not covered: {missing}")
        canon = self._from_labels(n, block_of)
        self.n, self.blocks, self.block_of = n, canon.blocks, canon.block_of

    @classmethod
    def _from_labels(cls, n, labels):
        """One class per distinct label, numbered at its least element.

        Scanning x upward leaves the blocks sorted by least element.
        """
        if n < 1:
            raise TooSmall(f"ground set must have size >= 1, got {n}")
        elements = _elements(n)
        # each label not seen before gets the next class number
        number = collections.defaultdict(itertools.count().__next__)
        block_of = list(map(number.__getitem__, labels))
        blocks = [[] for _ in number]
        for x, i in zip(elements[:n], block_of, strict=True):
            blocks[i].append(x)
        part = cls.__new__(cls)
        part.n = n
        # a list, not an iterator: a tuple built from an iterator is
        # resized to its length and, once freed, parks on the free list of
        # that size, where nothing of this size takes it back
        part.blocks = tuple([tuple(b) for b in blocks])
        part.block_of = tuple(block_of)
        return part

    @classmethod
    def _from_side(cls, side):
        """The bipartition of {0, .., n-1} by a boolean array, unchecked.

        The block of element 0 comes first, as ``_from_labels`` orders it;
        the caller makes sure that neither block is empty.
        """
        n = len(side)
        _elements(n)
        other = side != side[0]
        part = cls.__new__(cls)
        part.n = n
        part.blocks = (
            tuple(_ELEMENT_ARRAY[np.flatnonzero(~other)].tolist()),
            tuple(_ELEMENT_ARRAY[np.flatnonzero(other)].tolist()),
        )
        part.block_of = tuple(other.view(np.int8).tolist())
        return part

    # -- constructors ---------------------------------------------------

    @classmethod
    def singletons(cls, n):
        """The bottom element of E(W): every element is its own class."""
        return cls(n, [[x] for x in range(n)])

    @classmethod
    def single_block(cls, n):
        """The top element of E(W): one class containing everything."""
        return cls(n, [range(n)])

    @classmethod
    def pair_merge(cls, n, x, y):
        """The atom merging exactly x and y."""
        if x == y:
            raise OverlapError("pair merge needs two distinct elements")
        rest = [[z] for z in range(n) if z != x and z != y]
        return cls(n, [[x, y]] + rest)

    @classmethod
    def bipartition(cls, n, members):
        """The coatom splitting the ground set into members / complement."""
        members = set(members)
        other = [x for x in range(n) if x not in members]
        if not members or not other:
            raise EmptyBlockError("a bipartition needs two nonempty cells")
        return cls(n, [sorted(members), other])

    @classmethod
    def from_key(cls, n, key):
        """Group elements by key(x); one block per distinct key value."""
        return cls._from_labels(n, map(key, range(n)))

    # -- basics ---------------------------------------------------------

    def relates(self, x, y):
        return self.block_of[x] == self.block_of[y]

    def block_containing(self, x):
        return self.blocks[self.block_of[x]]

    def as_matrix(self):
        """Dense boolean matrix of the equivalence relation."""
        m = np.zeros((self.n, self.n), dtype=bool)
        for block in self.blocks:
            ix = np.array(block)
            m[np.ix_(ix, ix)] = True
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        body = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Partition({self.n}, [{body}])"

    def to_json(self):
        return [list(b) for b in self.blocks]

    # -- lattice structure ----------------------------------------------

    def __and__(self, other):
        return meet(self, other)

    def __or__(self, other):
        return join(self, other)

    def __le__(self, other):
        return refines(self, other)

    def __ge__(self, other):
        return refines(other, self)

    def __lt__(self, other):
        return self != other and refines(self, other)


def make_partition(n, blocks):
    """Validate and canonicalize a partition of {0, .., n-1}."""
    return Partition(n, blocks)


def _check_ground(p, q):
    if p.n != q.n:
        raise GroundMismatch(f"ground sets differ: {p.n} vs {q.n}")


def meet(p, q):
    """Greatest lower bound in E(W): intersect classes blockwise."""
    _check_ground(p, q)
    return Partition._from_labels(p.n, zip(p.block_of, q.block_of))


def meet_all(parts, n=None):
    """Meet of an iterable of partitions; empty meet is the top element."""
    parts = list(parts)
    if not parts:
        if n is None:
            raise TooSmall("empty meet needs an explicit ground size")
        return Partition.single_block(n)
    for p in parts[1:]:
        _check_ground(parts[0], p)
    labels = zip(*[p.block_of for p in parts])
    return Partition._from_labels(parts[0].n, labels)


def join(p, q):
    """Least upper bound in E(W): union-find closure of the two partitions."""
    _check_ground(p, q)
    parent = list(range(p.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (p, q):
        for block in part.blocks:
            for y in block[1:]:
                parent[find(y)] = find(block[0])
    return Partition._from_labels(p.n, map(find, range(p.n)))


def join_all(parts, n=None):
    """Join of an iterable of partitions; empty join is the bottom element."""
    parts = list(parts)
    if not parts:
        if n is None:
            raise TooSmall("empty join needs an explicit ground size")
        return Partition.singletons(n)
    out = parts[0]
    for p in parts[1:]:
        out = join(out, p)
    return out


def refines(p, q):
    """True iff p <= q in E(W), i.e. every p-block lies inside a q-block."""
    _check_ground(p, q)
    return all(
        len({q.block_of[x] for x in block}) == 1 for block in p.blocks
    )


def enumerate_partitions(n):
    """Yield every partition of {0, .., n-1} (Bell(n) of them)."""
    def rec(k):
        if k == 0:
            yield []
            return
        for rest in rec(k - 1):
            yield rest + [[k - 1]]
            for i in range(len(rest)):
                yield rest[:i] + [rest[i] + [k - 1]] + rest[i + 1:]

    for blocks in rec(n):
        yield Partition(n, blocks)


def enumerate_irreducibles(n, coatom_cap=COATOM_ENUMERATION_CAP):
    """All atoms (pair merges) and coatoms (bipartitions) of E(W).

    There are n(n-1)/2 atoms and 2**(n-1) - 1 coatoms; the coatom
    enumeration is refused above ``coatom_cap`` ground elements.
    """
    if n < 2:
        raise TooSmall("irreducibles need a ground set of size >= 2")
    if n > coatom_cap:
        raise SizeCap(
            f"coatom enumeration for n={n} exceeds cap {coatom_cap}"
        )
    atoms = [
        Partition.pair_merge(n, x, y)
        for x in range(n) for y in range(x + 1, n)
    ]
    coatoms = []
    rest = list(range(1, n))
    for r in range(n):
        for picked in itertools.combinations(rest, r):
            members = {0, *picked}
            if len(members) < n:
                coatoms.append(Partition.bipartition(n, members))
    return atoms, coatoms


class IrreducibleKind(enum.Enum):
    ATOM = "Atom"
    COATOM = "Coatom"
    NEITHER = "Neither"
    BOTTOM = "Bottom"
    TOP = "Top"


def classify_irreducible(p):
    """Place a partition among bottom / atom / coatom / top / neither.

    On E({a,b,c}) the middle elements are atoms and coatoms at once; the
    atom label wins there.
    """
    sizes = sorted(len(b) for b in p.blocks)
    if len(p.blocks) == 1:
        return IrreducibleKind.TOP
    if sizes == [1] * p.n:
        return IrreducibleKind.BOTTOM
    if sizes == [1] * (p.n - 2) + [2]:
        return IrreducibleKind.ATOM
    if len(p.blocks) == 2:
        return IrreducibleKind.COATOM
    return IrreducibleKind.NEITHER


# -- modal operators on subsets ----------------------------------------------


def _check_subset(p, members):
    for x in members:
        if not 0 <= x < p.n:
            raise IndexOutOfRange(f"element {x} outside 0..{p.n - 1}")


def diamond_set(e, members):
    """Union of the e-classes meeting the given subset."""
    _check_subset(e, members)
    hit = {e.block_of[x] for x in members}
    return frozenset(x for i in hit for x in e.blocks[i])


def box_set(e, members):
    """Union of the e-classes contained in the given subset."""
    _check_subset(e, members)
    members = set(members)
    out = []
    for block in e.blocks:
        if all(x in members for x in block):
            out.extend(block)
    return frozenset(out)


# -- preorders ---------------------------------------------------------------


class Preorder:
    """A reflexive transitive relation stored as a dense boolean matrix."""

    __slots__ = ("holds",)

    def __init__(self, holds, validate=True):
        holds = np.asarray(holds, dtype=bool)
        if holds.ndim != 2 or holds.shape[0] != holds.shape[1]:
            raise GroundMismatch("relation matrix must be square")
        if validate:
            if not holds.diagonal().all():
                raise AgendaAlgebraError("relation is not reflexive")
            if not _is_transitive(holds):
                raise AgendaAlgebraError("relation is not transitive")
        holds.setflags(write=False)
        self.holds = holds

    @property
    def n(self):
        return self.holds.shape[0]

    @classmethod
    def from_pairs(cls, n, pairs, close=False):
        """Build from a pair list; with close=True take the RT closure."""
        m = np.eye(n, dtype=bool)
        for x, y in pairs:
            m[x, y] = True
        if close:
            m = _transitive_closure(m)
        return cls(m)

    @classmethod
    def discrete(cls, n):
        return cls(np.eye(n, dtype=bool), validate=False)

    @classmethod
    def total(cls, n):
        return cls(np.ones((n, n), dtype=bool), validate=False)

    def leq(self, x, y):
        return bool(self.holds[x, y])

    def __eq__(self, other):
        return isinstance(other, Preorder) and np.array_equal(
            self.holds, other.holds
        )

    def __hash__(self):
        return hash(self.holds.tobytes())

    def __repr__(self):
        return f"Preorder(n={self.n}, pairs={int(self.holds.sum())})"

    def contains(self, other):
        """True iff this relation includes the other one pairwise."""
        return bool((~other.holds | self.holds).all())

    def is_partial_order(self):
        mutual = self.holds & self.holds.T
        return bool((mutual == np.eye(self.n, dtype=bool)).all())


# Relation composition is a boolean matrix product: numpy's bool @ bool
# is an OR of ANDs, where an integer product would count paths and wrap.


def _is_transitive(m):
    return not (m @ m)[~m].any()


def _transitive_closure(m):
    m = m.copy()
    while True:
        step = (m @ m) | m
        if (step == m).all():
            return m
        m = step


def preorder_from_equiv(e, base):
    """Quotient preorder of ``base`` by the partition ``e``.

    x is below y iff every member of x's class sits below some member of
    y's class.  The result is always transitive when the base is a genuine
    preorder; a TransitivityWarning is emitted otherwise instead of a
    silent repair.
    """
    if e.n != base.n:
        raise GroundMismatch(f"ground sets differ: {e.n} vs {base.n}")
    k = len(e.blocks)
    block_leq = np.zeros((k, k), dtype=bool)
    for i, bi in enumerate(e.blocks):
        rows = base.holds[np.array(bi)]
        for j, bj in enumerate(e.blocks):
            block_leq[i, j] = bool(rows[:, np.array(bj)].any(axis=1).all())
    idx = np.array(e.block_of)
    holds = block_leq[np.ix_(idx, idx)]
    if not _is_transitive(holds):
        warnings.warn(
            "induced relation is not transitive; base was degenerate",
            TransitivityWarning,
        )
    return Preorder(holds, validate=False)


def equiv_from_preorder(pre):
    """Partition of mutual-comparability classes of a preorder."""
    mutual = pre.holds & pre.holds.T
    return Partition._from_labels(pre.n, (row.tobytes() for row in mutual))


class Compatibility(enum.Enum):
    NONE = "None"
    COMPATIBLE = "Compatible"
    STRONGLY_COMPATIBLE = "StronglyCompatible"


def compatibility(e, pre):
    """Check e∘≤∘e ⊆ ≤, and additionally e_≤ ⊆ e for the strong form."""
    if e.n != pre.n:
        raise GroundMismatch(f"ground sets differ: {e.n} vs {pre.n}")
    em = e.as_matrix()
    composed = em @ pre.holds @ em
    if composed[~pre.holds].any():
        return Compatibility.NONE
    mutual = pre.holds & pre.holds.T
    if mutual[~em].any():
        return Compatibility.COMPATIBLE
    return Compatibility.STRONGLY_COMPATIBLE


class PairOrder(enum.Enum):
    """How a preorder ranks u against w; the values are verdict strings."""

    PREFERS_U = "PrefersFirst"
    PREFERS_W = "PrefersSecond"
    TIE = "Tie"
    INCOMPARABLE = "NoDecision"


def pair_order(w_below_u, u_below_w):
    """The order of u and w from the two comparisons between them."""
    if w_below_u and u_below_w:
        return PairOrder.TIE
    if w_below_u:
        return PairOrder.PREFERS_U
    if u_below_w:
        return PairOrder.PREFERS_W
    return PairOrder.INCOMPARABLE


def _class_below(e, base, x, y):
    """True iff [x]_e sits below [y]_e in the quotient of ``base``."""
    bx = np.array(e.block_containing(x))
    by = np.array(e.block_containing(y))
    return bool(base.holds[np.ix_(bx, by)].any(axis=1).all())


def prefers(e, base, u, w):
    """How the agenda e ranks u against w over the base preorder.

    PREFERS_U means w sits strictly below u in the quotient preorder.
    """
    if e.n != base.n:
        raise GroundMismatch(f"ground sets differ: {e.n} vs {base.n}")
    for x in (u, w):
        if not 0 <= x < e.n:
            raise IndexOutOfRange(f"profile {x} outside 0..{e.n - 1}")
    return pair_order(_class_below(e, base, w, u), _class_below(e, base, u, w))
