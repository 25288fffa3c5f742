"""Profile spaces over scored parameters, and the agendas living on them.

A feature space enumerates every tuple of scale values (one per declared
parameter) and orders the tuples coordinatewise.  Agendas are partitions
of the profile list, tagged with how they were generated: by projecting
onto a parameter set, by a sum-score over a parameter set, by a single
threshold question, or by meeting named issues.

The space holds its profiles as one integer matrix of value indices.
Each sum-ready scale also gets a score table: its rational values times
D, the least common multiple of every sum-ready denominator in the
space.  A sum-score is then an exact integer sum divided by D, so the
sum rule, its agendas and its thresholds compare integers, never
``Fraction`` objects, and ``decide`` compares just the two profiles it
is given.  For any other agenda ``decide`` orders the two classes by
down-sets on the value grid, so it never builds the n x n dominance
preorder; ``FeatureSpace.dominance`` remains as a reference for tests and
for drawing the profile order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import partitions as pt
from .errors import (
    CapExceeded,
    DegenerateThreshold,
    GroundMismatch,
    IncompatibleRule,
    IndexOutOfRange,
    MalformedScale,
    NonLinearScale,
    UnknownParameter,
    WrongSpace,
    shortened,
)

PROFILE_CAP = 4096

_INT64 = np.iinfo(np.int64)

CHAIN = "chain"
POSET = "poset"


@dataclass(frozen=True, eq=False)
class Scale:
    """A finite score scale: ordered labels with optional rational values.

    Chain scales are totally ordered by the declared label order (first
    label is the bottom, last is the top).  Poset scales carry an explicit
    cover list whose reflexive-transitive closure is the order; it must
    have a unique top and a unique bottom.
    """

    name: str
    values: tuple
    kind: str = CHAIN
    covers: tuple = ()
    numeric: dict | None = None

    def __post_init__(self):
        if len(set(self.values)) != len(self.values) or not self.values:
            raise self._error(MalformedScale, "bad value list")
        if self.kind not in (CHAIN, POSET):
            raise self._error(
                MalformedScale, f"unknown kind {shortened(str(self.kind))}"
            )
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "covers", tuple(tuple(c) for c in self.covers))
        leq = self._order_matrix()
        object.__setattr__(self, "_leq", leq)
        n = len(self.values)
        bottoms = [i for i in range(n) if leq[i].all()]
        tops = [i for i in range(n) if leq[:, i].all()]
        if len(bottoms) != 1 or len(tops) != 1:
            raise self._error(MalformedScale, "needs a unique top and bottom")
        object.__setattr__(self, "_bottom", bottoms[0])
        object.__setattr__(self, "_top", tops[0])

    def _order_matrix(self):
        n = len(self.values)
        if self.kind == CHAIN:
            if self.covers:
                raise self._error(MalformedScale, "chains take no cover list")
            return np.tril(np.ones((n, n), dtype=bool)).T
        index = {v: i for i, v in enumerate(self.values)}
        m = np.eye(n, dtype=bool)
        for lo, hi in self.covers:
            if lo not in index or hi not in index:
                raise self._error(MalformedScale, "cover uses unknown label")
            m[index[lo], index[hi]] = True
        closed = pt._transitive_closure(m)
        if (closed & closed.T & ~np.eye(n, dtype=bool)).any():
            raise self._error(MalformedScale, "cover graph has a cycle")
        return closed

    def _error(self, cls, text):
        return cls(f"scale {shortened(self.name)}: {text}")

    def leq(self, i, j):
        """Order between value indices."""
        return bool(self._leq[i, j])

    def value_fraction(self, i):
        """Exact rational score of a value, for the sum rule."""
        label = self.values[i]
        raw = label
        if self.numeric and label in self.numeric:
            raw = self.numeric[label]
            if isinstance(raw, Fraction):
                return raw
        try:
            return Fraction(raw)
        except (TypeError, ValueError, ArithmeticError):
            raise self._error(
                NonLinearScale,
                f"no rational value for label {shortened(repr(label))}",
            )

    def is_sum_ready(self):
        if self.kind != CHAIN:
            return False
        try:
            for i in range(len(self.values)):
                self.value_fraction(i)
        except NonLinearScale:
            return False
        return True


def chain(name, values, numeric=None):
    return Scale(name, tuple(values), CHAIN, (), numeric)


def poset(name, values, covers, numeric=None):
    return Scale(name, tuple(values), POSET, tuple(covers), numeric)


def binary(name):
    return chain(name, ("0", "1"))


class FeatureSpace:
    """Enumerated profile set over declared parameters, with dominance.

    Profile ids follow the lexicographic enumeration in declared parameter
    order (the first parameter varies slowest), so ids are deterministic.

    ``values`` is the read-only n x p matrix of value indices, row
    ``pid`` being profile ``pid``, in the smallest unsigned dtype that
    holds them; it is the only copy of the profiles the space keeps.
    ``profile_id`` computes an id as mixed-radix digits and ``labels``
    reads the id's row, so neither needs a tuple per profile.  Every
    sum-ready scale has a score table of its values times the space's
    denominator D, in int64 when no sum over the p parameters can reach
    2**62 and in Python ints (``dtype=object``) otherwise, so sums stay
    exact either way.  ``dominance``, the n x n coordinatewise preorder,
    is built only on first use: ``decide`` never needs it, so it serves as
    the tests' reference and for drawing the profile order.
    """

    def __init__(self, params, cap=PROFILE_CAP):
        params = list(params)
        if not params:
            raise MalformedScale("a feature space needs at least one parameter")
        names = [name for name, _ in params]
        if len(set(names)) != len(names):
            raise MalformedScale("duplicate parameter names")
        sizes = [len(scale.values) for _, scale in params]
        total = math.prod(sizes)
        if total > cap:
            raise CapExceeded(f"{total} profiles exceed cap {cap}")
        self.params = tuple((name, scale) for name, scale in params)
        self.names = tuple(names)
        self.scale_of = {name: scale for name, scale in params}
        self.n = total
        dtype = np.min_scalar_type(max(sizes) - 1)
        self.values = np.indices(sizes, dtype).reshape(len(sizes), -1).T
        self.values.setflags(write=False)
        self._set_score_tables()

    def _set_score_tables(self):
        scores = {}
        for k, (_, scale) in enumerate(self.params):
            if scale.is_sum_ready():
                scores[k] = [
                    scale.value_fraction(i) for i in range(len(scale.values))
                ]
        self.denominator = math.lcm(
            *(f.denominator for fs in scores.values() for f in fs)
        )
        scaled = {
            k: [f.numerator * (self.denominator // f.denominator) for f in fs]
            for k, fs in scores.items()
        }
        largest = max((abs(v) for vs in scaled.values() for v in vs), default=0)
        self._score_dtype = (
            np.int64 if largest * len(self.params) < 2**62 else object
        )
        self._scores = {
            k: np.array(vs, dtype=self._score_dtype) for k, vs in scaled.items()
        }

    @functools.cached_property
    def dominance(self):
        """Coordinatewise dominance over all parameters, built on first use."""
        return rule_preorder(self, TOTAL_DOMINANCE, self.names)

    def profile_id(self, assignment):
        """Id of the profile given as {parameter name: value label}."""
        pid = 0
        for name, scale in self.params:
            if name not in assignment:
                raise UnknownParameter(f"no value for parameter {name}")
            label = assignment[name]
            if label not in scale.values:
                raise UnknownParameter(
                    f"value {label!r} not on scale {name}"
                )
            # the first parameter varies slowest: mixed-radix digits
            pid = pid * len(scale.values) + scale.values.index(label)
        return pid

    def _check_profile(self, pid):
        # numpy would wrap -1 round to profile n-1
        if not 0 <= pid < self.n:
            raise IndexOutOfRange(f"profile {pid} outside 0..{self.n - 1}")

    def labels(self, pid):
        self._check_profile(pid)
        return {
            name: scale.values[v]
            for (name, scale), v in zip(self.params, self.values[pid].tolist())
        }

    def _param_positions(self, names):
        out = []
        for name in names:
            if name not in self.names:
                raise UnknownParameter(f"unknown parameter {shortened(name)}")
            out.append(self.names.index(name))
        return out

    def sum_score(self, pid, names):
        """Exact rational sum of the profile's scores over the given set."""
        self._check_profile(pid)
        positions = self._sum_positions(names, [pid])
        return Fraction(int(self._sums(positions, [pid])[0]), self.denominator)

    def _sum_positions(self, names, pids):
        """Positions of the names, all of them on score tables.

        Otherwise raise the sum rule's error at the first of the given
        profiles, and the first position in it, that has no rational score.
        """
        positions = self._param_positions(names)
        missing = [k for k in positions if k not in self._scores]
        if not missing:
            return positions
        for pid in pids:
            for k in positions:
                name, scale = self.params[k]
                if scale.kind != CHAIN:
                    raise NonLinearScale(f"parameter {name} is not on a chain")
                scale.value_fraction(self.values[pid, k])
        # these profiles score, but another value on the scale does not
        raise NonLinearScale(
            f"parameter {self.params[missing[0]][0]} is not sum-scorable"
        )

    def _sums(self, positions, pids=slice(None)):
        """Scaled integer sum-scores of the given profiles (default: all)."""
        # a name listed more than p times could carry an int64 sum past 2**63
        dtype = object
        if len(positions) <= len(self.params):
            dtype = self._score_dtype
        total = np.zeros(self.n, dtype=dtype)[pids]
        for k in positions:
            total += self._scores[k].astype(dtype, copy=False)[
                self.values[pids, k]
            ]
        return total

    def _down_set(self, pids):
        """Indicator over all profiles of those that some profile in the
        list ``pids`` dominates coordinatewise.

        The indicator of ``pids`` is reshaped to the value grid (ids run
        first parameter slowest, so a C-order reshape), then ORed along each
        parameter's axis through its scale's reflexive order.  The p passes
        compose to coordinatewise dominance at O(n * |scale|) each, with no
        n x n matrix.
        """
        grid = np.zeros(self.n, dtype=bool)
        grid[pids] = True
        before = 1
        for _, scale in self.params:
            size = len(scale.values)
            # this parameter's axis as the middle of (before, size, after):
            # below[a, i, b] = OR_j leq[i, j] & grid[a, j, b]
            grid = scale._leq @ grid.reshape(before, size, -1)
            before *= size
        return grid.reshape(-1)

    def _threshold_bound(self, k, dtype=object):
        """floor(k * D): a sum-score s / D is at most k iff s is at most it.

        For sums of the given dtype: a Python int for Python-int sums, and
        for int64 sums clamped into int64's range, so that numpy compares
        it inside the array exactly (numpy before 2.0 would turn an int
        past 2**63 into a float).  Every int64 sum lies below 2**62 in
        size, so the clamp changes no comparison.
        """
        bound = k.numerator * self.denominator // k.denominator
        if dtype == object:
            return bound
        return min(max(bound, _INT64.min), _INT64.max)


def build_space(params, cap=PROFILE_CAP):
    return FeatureSpace(params, cap=cap)


# -- agendas -------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionDescriptor:
    params: frozenset

    def label(self):
        return "proj[" + ",".join(sorted(self.params)) + "]"


@dataclass(frozen=True)
class SumDescriptor:
    params: frozenset

    def label(self):
        return "sum[" + ",".join(sorted(self.params)) + "]"


@dataclass(frozen=True)
class ThresholdDescriptor:
    params: frozenset
    k: Fraction

    def label(self):
        return "sum:" + ",".join(sorted(self.params)) + "<=" + str(self.k)


@dataclass(frozen=True)
class MeetOfIssues:
    issue_ids: tuple

    def label(self):
        return " & ".join(self.issue_ids) if self.issue_ids else "top"


@dataclass(frozen=True)
class Opaque:
    note: str = ""

    def label(self):
        return self.note or "opaque"


@dataclass(frozen=True, eq=False)
class Agenda:
    """A lattice element: its partition plus how it was generated.

    Two agendas are equal iff their partitions are, whatever their
    descriptors or classes: an agenda-lattice element equals the plain
    agenda with its partition, in either order.
    """

    partition: pt.Partition
    descriptor: object = Opaque()

    def __eq__(self, other):
        if not isinstance(other, Agenda):
            return NotImplemented
        return self.partition == other.partition

    def __hash__(self):
        return hash(self.partition)

    def label(self):
        return self.descriptor.label()

    def to_json(self):
        return {
            "descriptor": self.label(),
            "blocks": self.partition.to_json(),
        }


def projection_agenda(space, names):
    """Kernel of the projection onto the given parameter set.

    Each profile is labelled by the mixed-radix code of its values on the
    set; the empty set labels every profile 0, the top.
    """
    positions = sorted(set(space._param_positions(names)))
    if positions:
        sizes = [len(space.params[k][1].values) for k in positions]
        codes = np.ravel_multi_index(space.values[:, positions].T, sizes)
    else:
        codes = np.zeros(space.n, dtype=np.intp)
    part = pt.Partition._from_labels(space.n, codes.tolist())
    return Agenda(part, ProjectionDescriptor(frozenset(names)))


def sum_agenda(space, names):
    """Profiles with equal sum-score over the set fall in one class."""
    positions = space._sum_positions(names, ())
    sums = space._sums(positions).tolist()
    part = pt.Partition._from_labels(space.n, sums)
    return Agenda(part, SumDescriptor(frozenset(names)))


def achievable_sums(space, names):
    """Sorted distinct sum-scores over the set, as exact rationals."""
    positions = space._sum_positions(names, range(space.n))
    sums = set(space._sums(positions).tolist())
    return [Fraction(v, space.denominator) for v in sorted(sums)]


def threshold_issue(space, names, k):
    """The yes/no question: is the sum-score over the set at most k?"""
    k = k if isinstance(k, Fraction) else Fraction(k)
    positions = space._sum_positions(names, ())
    return _threshold_issue(space, names, k, space._sums(positions))


def _threshold_issue(space, names, k, sums):
    """The threshold issue at k, given every profile's scaled sum."""
    high = sums > space._threshold_bound(k, sums.dtype)
    if high.all() or not high.any():
        raise DegenerateThreshold(
            f"threshold {k} leaves an empty cell over {sorted(names)}"
        )
    part = pt.Partition._from_side(high)
    return Agenda(part, ThresholdDescriptor(frozenset(names), k))


def threshold_issues_for(space, names):
    """One threshold issue per achievable non-maximal sum value."""
    positions = space._sum_positions(names, range(space.n))
    sums = space._sums(positions)
    return [
        _threshold_issue(space, names, Fraction(s, space.denominator), sums)
        for s in sorted(set(sums.tolist()))[:-1]
    ]


def meet_agendas(*agendas):
    """Meet in E(W), combining descriptors where that stays meaningful."""
    part = pt.meet_all([a.partition for a in agendas])
    descs = [a.descriptor for a in agendas]
    if all(isinstance(d, ProjectionDescriptor) for d in descs):
        names = frozenset().union(*(d.params for d in descs))
        return Agenda(part, ProjectionDescriptor(names))
    ids = []
    for d in descs:
        if isinstance(d, MeetOfIssues):
            ids.extend(d.issue_ids)
        elif isinstance(d, ThresholdDescriptor):
            ids.append(d.label())
        else:
            return Agenda(part, Opaque("meet"))
    return Agenda(part, MeetOfIssues(tuple(sorted(set(ids)))))


# -- winning rules and decisions -----------------------------------------

TOTAL_DOMINANCE = "total_dominance"
SUM = "sum"


def rule_preorder(space, rule, names):
    """The comparison preorder over all profiles for a parameter set."""
    if rule == TOTAL_DOMINANCE:
        positions = space._param_positions(names)
        holds = np.ones((space.n, space.n), dtype=bool)
        for k in positions:
            col = space.values[:, k]
            holds &= space.params[k][1]._leq[np.ix_(col, col)]
        return pt.Preorder(holds, validate=False)
    if rule == SUM:
        positions = space._sum_positions(names, range(space.n))
        sums = space._sums(positions)
        return pt.Preorder(sums[:, None] <= sums[None, :], validate=False)
    raise IncompatibleRule(f"unknown winning rule {rule!r}")


@dataclass(frozen=True)
class Decision:
    verdict: str


PREFERS_FIRST = pt.PairOrder.PREFERS_U.value
PREFERS_SECOND = pt.PairOrder.PREFERS_W.value
TIE = pt.PairOrder.TIE.value
NO_DECISION = pt.PairOrder.INCOMPARABLE.value


def decide(space, rule, agenda, first, second):
    """Verdict of an agenda on an ordered profile pair under a rule.

    Projection agendas decide by coordinatewise dominance on their
    parameters, compared on the two profiles' value rows; sum and
    threshold agendas by the two integer sum-scores.  Meets of issues and
    opaque agendas take the quotient of the dominance order, with which the
    fast paths agree: one class lies below another iff it lies inside the
    other's down-set, computed on the value grid without the n x n
    preorder.
    """
    if agenda.partition.n != space.n:
        raise GroundMismatch("agenda does not live on this space")
    space._check_profile(first)
    space._check_profile(second)
    desc = agenda.descriptor
    if rule == TOTAL_DOMINANCE:
        if isinstance(desc, (SumDescriptor, ThresholdDescriptor)):
            raise IncompatibleRule(
                "sum-generated agendas need the sum rule"
            )
        if isinstance(desc, ProjectionDescriptor):
            scales = [
                (k, space.params[k][1])
                for k in space._param_positions(desc.params)
            ]
            a, b = space.values[first], space.values[second]
            return _decision(
                all(scale.leq(b[k], a[k]) for k, scale in scales),
                all(scale.leq(a[k], b[k]) for k, scale in scales),
            )
    elif rule == SUM:
        if isinstance(desc, ProjectionDescriptor):
            raise IncompatibleRule(
                "projection agendas need the total-dominance rule"
            )
        if isinstance(desc, SumDescriptor):
            positions = space._sum_positions(desc.params, range(space.n))
            a, b = space._sums(positions, [first, second]).tolist()
            return _decision(b <= a, a <= b)
        if isinstance(desc, ThresholdDescriptor):
            # the class above the threshold sits above the one below it
            positions = space._sum_positions(desc.params, [first, second])
            bound = space._threshold_bound(desc.k)
            sums = space._sums(positions, [first, second]).tolist()
            a, b = (s > bound for s in sums)
            return _decision(b <= a, a <= b)
    else:
        raise IncompatibleRule(f"unknown winning rule {rule!r}")
    # the quotient of dominance: [x] lies below [y] iff [x] is inside the
    # down-set of [y]
    block_first = list(agenda.partition.block_containing(first))
    block_second = list(agenda.partition.block_containing(second))
    return _decision(
        space._down_set(block_first)[block_second].all(),
        space._down_set(block_second)[block_first].all(),
    )


def _decision(second_below, first_below):
    return Decision(pt.pair_order(second_below, first_below).value)


def sum_decomposition_check(space, names):
    """Does the meet of all threshold issues over a set give its sum agenda?"""
    issues = threshold_issues_for(space, names)
    met = pt.meet_all([a.partition for a in issues], space.n)
    return met == sum_agenda(space, names).partition


# -- the no-term-function witness ------------------------------------------


@dataclass(frozen=True)
class EquivarianceWitness:
    """Concrete pair of two-profile sets that no term function can link.

    The bijection g matches the single-parameter relations on U and U'
    exactly, yet the two-parameter sum relation degenerates on U (all of
    U x U) and stays discrete on U'; since term functions commute with
    profile bijections, no term in the single-parameter relations can
    express the sum relation.
    """

    u_pair: tuple
    u_prime_pair: tuple
    per_parameter_match: dict
    sum_on_u_is_square: bool
    sum_on_u_prime_is_diagonal: bool
    contradiction: bool

    @property
    def all_facts_hold(self):
        return (
            all(self.per_parameter_match.values())
            and self.sum_on_u_is_square
            and self.sum_on_u_prime_is_diagonal
            and self.contradiction
        )


def equivariance_witness_check(space):
    """Rebuild the witness on the five-binary-parameter space and check it."""
    if len(space.params) != 5 or any(
        tuple(s.values) != ("0", "1") for _, s in space.params
    ):
        raise WrongSpace("the witness lives on the 5-binary-parameter space")
    w, u, wp, up = (
        space.profile_id(dict(zip(space.names, labels)))
        for labels in ("10000", "01000", "00000", "11000")
    )
    g = {w: wp, u: up}
    pair_u = (w, u)
    pair_up = (wp, up)
    first_two = [space.names[0], space.names[1]]

    def rel_pairs(agenda, members):
        part = agenda.partition
        return frozenset(
            (a, b) for a in members for b in members if part.relates(a, b)
        )

    per_param = {}
    for name in first_two:
        e_y = projection_agenda(space, [name])
        on_u = rel_pairs(e_y, pair_u)
        on_up = rel_pairs(e_y, pair_up)
        mapped = frozenset((g[a], g[b]) for a, b in on_u)
        per_param[name] = mapped == on_up
    e_sum = sum_agenda(space, first_two)
    on_u = rel_pairs(e_sum, pair_u)
    on_up = rel_pairs(e_sum, pair_up)
    square = frozenset(itertools.product(pair_u, pair_u))
    diagonal = frozenset((x, x) for x in pair_up)
    mapped_sum = frozenset((g[a], g[b]) for a, b in on_u)
    return EquivarianceWitness(
        u_pair=pair_u,
        u_prime_pair=pair_up,
        per_parameter_match=per_param,
        sum_on_u_is_square=(on_u == square),
        sum_on_u_prime_is_diagonal=(on_up == diagonal),
        contradiction=(mapped_sum != on_up),
    )
