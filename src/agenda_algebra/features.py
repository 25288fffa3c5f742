"""Profile spaces over scored parameters, and the agendas living on them.

A feature space enumerates every tuple of scale values (one per declared
parameter) and orders the tuples coordinatewise.  Agendas are partitions
of the profile list, tagged with how they were generated: by projecting
onto a parameter set, by a sum-score over a parameter set, by a single
threshold question, or by meeting named issues.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import partitions as pt
from .errors import (
    CapExceeded,
    DegenerateThreshold,
    GroundMismatch,
    IncompatibleRule,
    MalformedScale,
    NonLinearScale,
    UnknownParameter,
    WrongSpace,
)

PROFILE_CAP = 4096

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
            raise MalformedScale(f"scale {self.name}: bad value list")
        if self.kind not in (CHAIN, POSET):
            raise MalformedScale(f"scale {self.name}: unknown kind {self.kind}")
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "covers", tuple(tuple(c) for c in self.covers))
        leq = self._order_matrix()
        object.__setattr__(self, "_leq", leq)
        n = len(self.values)
        bottoms = [i for i in range(n) if leq[i].all()]
        tops = [i for i in range(n) if leq[:, i].all()]
        if len(bottoms) != 1 or len(tops) != 1:
            raise MalformedScale(
                f"scale {self.name}: needs a unique top and bottom"
            )
        object.__setattr__(self, "_bottom", bottoms[0])
        object.__setattr__(self, "_top", tops[0])

    def _order_matrix(self):
        n = len(self.values)
        if self.kind == CHAIN:
            if self.covers:
                raise MalformedScale(
                    f"scale {self.name}: chains take no cover list"
                )
            return np.tril(np.ones((n, n), dtype=bool)).T
        index = {v: i for i, v in enumerate(self.values)}
        m = np.eye(n, dtype=bool)
        for lo, hi in self.covers:
            if lo not in index or hi not in index:
                raise MalformedScale(
                    f"scale {self.name}: cover uses unknown label"
                )
            m[index[lo], index[hi]] = True
        closed = pt._transitive_closure(m)
        if (closed & closed.T & ~np.eye(n, dtype=bool)).any():
            raise MalformedScale(f"scale {self.name}: cover graph has a cycle")
        return closed

    def leq(self, i, j):
        """Order between value indices."""
        return bool(self._leq[i, j])

    def value_fraction(self, i):
        """Exact rational score of a value, for the sum rule."""
        label = self.values[i]
        if self.numeric and label in self.numeric:
            raw = self.numeric[label]
            return raw if isinstance(raw, Fraction) else Fraction(raw)
        try:
            return Fraction(label)
        except (ValueError, ZeroDivisionError):
            raise NonLinearScale(
                f"scale {self.name}: no rational value for label {label!r}"
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
    """

    def __init__(self, params, cap=PROFILE_CAP):
        params = list(params)
        if not params:
            raise MalformedScale("a feature space needs at least one parameter")
        names = [name for name, _ in params]
        if len(set(names)) != len(names):
            raise MalformedScale("duplicate parameter names")
        total = 1
        for _, scale in params:
            total *= len(scale.values)
        if total > cap:
            raise CapExceeded(f"{total} profiles exceed cap {cap}")
        self.params = tuple((name, scale) for name, scale in params)
        self.names = tuple(names)
        self.scale_of = {name: scale for name, scale in params}
        self.profiles = tuple(
            itertools.product(*(range(len(s.values)) for _, s in params))
        )
        self.index = {p: i for i, p in enumerate(self.profiles)}
        self.n = len(self.profiles)
        self.dominance = rule_preorder(self, TOTAL_DOMINANCE, self.names)

    def profile_id(self, assignment):
        """Id of the profile given as {parameter name: value label}."""
        key = []
        for name, scale in self.params:
            if name not in assignment:
                raise UnknownParameter(f"no value for parameter {name}")
            label = assignment[name]
            if label not in scale.values:
                raise UnknownParameter(
                    f"value {label!r} not on scale {name}"
                )
            key.append(scale.values.index(label))
        return self.index[tuple(key)]

    def labels(self, pid):
        return {
            name: scale.values[v]
            for (name, scale), v in zip(self.params, self.profiles[pid])
        }

    def _param_positions(self, names):
        out = []
        for name in names:
            if name not in self.names:
                raise UnknownParameter(f"unknown parameter {name}")
            out.append(self.names.index(name))
        return out

    def sum_score(self, pid, names):
        """Exact rational sum of the profile's scores over the given set."""
        positions = self._param_positions(names)
        total = Fraction(0)
        for k in positions:
            scale = self.params[k][1]
            if scale.kind != CHAIN:
                raise NonLinearScale(
                    f"parameter {self.params[k][0]} is not on a chain"
                )
            total += scale.value_fraction(self.profiles[pid][k])
        return total


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


@dataclass(frozen=True)
class Agenda:
    """A lattice element: its partition plus how it was generated."""

    partition: pt.Partition
    descriptor: object = field(compare=False, default=Opaque())

    def label(self):
        return self.descriptor.label()

    def to_json(self):
        return {
            "descriptor": self.label(),
            "blocks": self.partition.to_json(),
        }


def projection_agenda(space, names):
    """Kernel of the projection onto the given parameter set."""
    positions = space._param_positions(names)
    part = pt.Partition.from_key(
        space.n, lambda pid: tuple(space.profiles[pid][k] for k in positions)
    )
    return Agenda(part, ProjectionDescriptor(frozenset(names)))


def sum_agenda(space, names):
    """Profiles with equal sum-score over the set fall in one class."""
    positions = space._param_positions(names)
    for k in positions:
        name, scale = space.params[k]
        if not scale.is_sum_ready():
            raise NonLinearScale(f"parameter {name} is not sum-scorable")
    part = pt.Partition.from_key(
        space.n, lambda pid: space.sum_score(pid, names)
    )
    return Agenda(part, SumDescriptor(frozenset(names)))


def achievable_sums(space, names):
    """Sorted distinct sum-scores over the set, as exact rationals."""
    return sorted({space.sum_score(pid, names) for pid in range(space.n)})


def threshold_issue(space, names, k):
    """The yes/no question: is the sum-score over the set at most k?"""
    k = k if isinstance(k, Fraction) else Fraction(k)
    positions = space._param_positions(names)
    for pos in positions:
        name, scale = space.params[pos]
        if not scale.is_sum_ready():
            raise NonLinearScale(f"parameter {name} is not sum-scorable")
    low = [pid for pid in range(space.n) if space.sum_score(pid, names) <= k]
    if not low or len(low) == space.n:
        raise DegenerateThreshold(
            f"threshold {k} leaves an empty cell over {sorted(names)}"
        )
    part = pt.Partition.bipartition(space.n, low)
    return Agenda(part, ThresholdDescriptor(frozenset(names), k))


def threshold_issues_for(space, names):
    """One threshold issue per achievable non-maximal sum value."""
    sums = achievable_sums(space, names)
    return [threshold_issue(space, names, k) for k in sums[:-1]]


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
            scale = space.params[k][1]
            col = np.array([p[k] for p in space.profiles])
            holds &= scale._leq[np.ix_(col, col)]
        return pt.Preorder(holds, validate=False)
    if rule == SUM:
        scores = [space.sum_score(pid, names) for pid in range(space.n)]
        holds = np.array(
            [[scores[x] <= scores[y] for y in range(space.n)]
             for x in range(space.n)],
            dtype=bool,
        )
        return pt.Preorder(holds, validate=False)
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
    parameters, sum and threshold agendas by sum-score; meets of issues
    and opaque agendas fall back to the quotient of the dominance order,
    with which the fast paths agree.
    """
    if agenda.partition.n != space.n:
        raise GroundMismatch("agenda does not live on this space")
    desc = agenda.descriptor
    if rule == TOTAL_DOMINANCE:
        if isinstance(desc, (SumDescriptor, ThresholdDescriptor)):
            raise IncompatibleRule(
                "sum-generated agendas need the sum rule"
            )
        if isinstance(desc, ProjectionDescriptor):
            pre = rule_preorder(space, rule, desc.params)
            return _decision(pre.leq(second, first), pre.leq(first, second))
    elif rule == SUM:
        if isinstance(desc, ProjectionDescriptor):
            raise IncompatibleRule(
                "projection agendas need the total-dominance rule"
            )
        if isinstance(desc, SumDescriptor):
            pre = rule_preorder(space, rule, desc.params)
            return _decision(pre.leq(second, first), pre.leq(first, second))
        if isinstance(desc, ThresholdDescriptor):
            # the class above the threshold sits above the one below it
            high_first = space.sum_score(first, desc.params) > desc.k
            high_second = space.sum_score(second, desc.params) > desc.k
            return _decision(
                high_second <= high_first, high_first <= high_second
            )
    else:
        raise IncompatibleRule(f"unknown winning rule {rule!r}")
    order = pt.prefers(agenda.partition, space.dominance, first, second)
    return Decision(order.value)


def _decision(second_below, first_below):
    return Decision(pt.pair_order(second_below, first_below).value)


def sum_decomposition_check(space, names):
    """Does the meet of all threshold issues over a set give its sum agenda?"""
    issues = threshold_issues_for(space, names)
    if not issues:
        return sum_agenda(space, names).partition == pt.Partition.single_block(
            space.n
        )
    met = pt.meet_all([a.partition for a in issues])
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
    w = space.index[(1, 0, 0, 0, 0)]
    u = space.index[(0, 1, 0, 0, 0)]
    wp = space.index[(0, 0, 0, 0, 0)]
    up = space.index[(1, 1, 0, 0, 0)]
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
