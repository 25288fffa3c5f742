"""The eleven first-order/axiom correspondence pairs, and bounded equivalence.

Each pair couples a named interaction condition with a sequent axiom.
The axiom side is checked with atoms ranging over irreducibles (single
agents for the coalition sort, single issues for the agenda sort):
that is the quantification pattern the correspondence arguments justify,
and full valuations demonstrably break the pairs whose axiom repeats a
variable.  Two axiom shapes differ from their usual presentation so the
equivalences hold on finite frames: the negative-preference-coherence
axiom reads the transformed agenda at an issue variable rather than at
the top constant, and the three-relation coherence axiom applies the
transform residual with the bottom agenda in first position.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import CapExceeded
from . import terms as tm
from .conditions import check_condition
from .frames import FrameAlgebra

_Q1 = tm.atom_ia("q1")
_Q2 = tm.atom_ia("q2")
_T = tm.atom_c("t")

PAIRS = {
    "symmetric": tm.Sequent(tm.star_t(_Q1, _Q2), tm.star_t(_Q2, _Q1)),
    "pos_coherent": tm.Sequent(tm.blacksquare_t(_Q1), tm.star_t(_Q1, _Q1)),
    "neg_coherent": tm.Sequent(tm.star_t(_Q1, _Q1), tm.blacksquare_t(_Q1)),
    "neg_pref_coherent": tm.Sequent(tm.diamond_c(_T), tm.pdra(_T, _Q1)),
    "pos_pref_coherent": tm.Sequent(tm.pdra(_T, tm.bot_ia()), tm.diamond_c(_T)),
    "intransigent": tm.Sequent(tm.blacksquare_t(_Q1), tm.brb_t(_Q1, _Q1)),
    "equanimous": tm.Sequent(
        tm.blacksquare_t(tm.meet(_Q1, _Q2)), tm.star_t(_Q1, _Q2)
    ),
    "globally_indifferent": tm.Sequent(
        tm.top_c(), tm.star_t(tm.bot_ia(), tm.bot_ia())
    ),
    "I_pos_coherent": tm.Sequent(
        tm.pdra(tm.diamdotb(_T), _Q1), tm.pdra(_T, _Q1)
    ),
    "I_neg_coherent": tm.Sequent(
        tm.pdra(tm.diamdot(_T), _Q1), tm.pdra(_T, _Q1)
    ),
    "IRS_coherent": tm.Sequent(
        tm.blacksquare_t(_Q1), tm.boxdot(tm.star_t(tm.bot_ia(), _Q1))
    ),
}

PAIR_IDS = tuple(PAIRS)


@dataclass(frozen=True)
class PairReport:
    pair: str
    fo: bool
    axiom: bool

    @property
    def agree(self):
        return self.fo == self.axiom


def correspondence_pair(frame, pair_id, size_cap=3, _algebra=None):
    """Check one condition and its axiom on a frame's complex algebra."""
    if len(frame.C) > size_cap or len(frame.D) > size_cap:
        raise CapExceeded(
            f"frame on carriers of sizes {len(frame.C)} and {len(frame.D)}"
            f" exceeds the correspondence size cap {size_cap}"
        )
    axiom = PAIRS[pair_id]
    fo = check_condition(frame, pair_id)
    algebra = _algebra if _algebra is not None else FrameAlgebra(frame)
    valid = tm.check_flat_validity(algebra, axiom).valid
    return PairReport(pair_id, fo, valid)


def all_pairs_agree(frame, size_cap=3):
    """Reports for all 11 pairs; handy for the exhaustive oracle scans."""
    algebra = FrameAlgebra(frame)
    return [
        correspondence_pair(frame, pid, size_cap, _algebra=algebra)
        for pid in PAIR_IDS
    ]


# -- bounded modal equivalence ------------------------------------------


def term_family(depth=2, ia_atom_count=1, c_atom_count=1):
    """All canonical terms up to the given depth and atom budget.

    Commutative connectives are generated with ordered arguments only, so
    the family contains one representative per commutativity class.
    """
    ia0 = [tm.tau(), tm.bot_ia()] + [
        tm.atom_ia(f"q{k + 1}") for k in range(ia_atom_count)
    ]
    c0 = [tm.top_c(), tm.bot_c()] + [
        tm.atom_c(f"t{k + 1}") for k in range(c_atom_count)
    ]
    ia_layers, c_layers = [list(ia0)], [list(c0)]
    for _ in range(depth):
        prev_ia = [t for layer in ia_layers for t in layer]
        prev_c = [t for layer in c_layers for t in layer]
        seen_ia = set(prev_ia)
        seen_c = set(prev_c)
        new_ia, new_c = [], []

        def put_ia(t):
            if t not in seen_ia:
                seen_ia.add(t)
                new_ia.append(t)

        def put_c(t):
            if t not in seen_c:
                seen_c.add(t)
                new_c.append(t)

        for a, b in itertools.combinations_with_replacement(prev_ia, 2):
            put_ia(tm.meet(a, b))
            put_ia(tm.join(a, b))
        for c in prev_c:
            put_ia(tm.diamond_c(c))
            put_ia(tm.rhd(c))
            for e in prev_ia:
                put_ia(tm.pdra(c, e))
                put_ia(tm.eqless(c, e))
                put_ia(tm.br(c, e))
                put_ia(tm.triangle(c, e))
        for a, b in itertools.combinations_with_replacement(prev_c, 2):
            put_c(tm.and_c(a, b))
            put_c(tm.or_c(a, b))
        for c in prev_c:
            put_c(tm.not_c(c))
            put_c(tm.diamdot(c))
            put_c(tm.diamdotb(c))
            put_c(tm.boxdot(c))
            put_c(tm.blacksqdot(c))
        for e in prev_ia:
            put_c(tm.blacksquare_t(e))
        for a in prev_ia:
            for b in prev_ia:
                put_c(tm.star_t(a, b))
                put_c(tm.brb_t(a, b))
        ia_layers.append(new_ia)
        c_layers.append(new_c)
    ia_terms = [t for layer in ia_layers for t in layer]
    c_terms = [t for layer in c_layers for t in layer]
    return ia_terms, c_terms


def _value_vectors(frames, ia_terms, c_terms):
    """Evaluate every term under every valuation, packed into one int.

    Returns one {term: packed values} dict per frame.  The valuations
    range over the atoms the terms use, agenda atoms outermost; values
    across that grid are concatenated bitwise, so the pointwise sequent
    test collapses to a single bitmask comparison.
    One plan of the terms serves every frame.  A node that no atom
    reaches is evaluated once and repeated across the grid by one
    multiplication, and an agenda-level node likewise across the
    coalition valuations of each agenda valuation.
    """
    terms = tuple(itertools.chain(ia_terms, c_terms))
    plan = tm._plan(terms)
    return [dict(zip(terms, _frame_vectors(plan, frame))) for frame in frames]


def _repunit(width, count):
    """``count`` ones spaced ``width`` bits apart: one value per slot."""
    if width == 0:
        return count
    return ((1 << width * count) - 1) // ((1 << width) - 1)


def _frame_vectors(plan, frame):
    """The packed value vectors of the plan's roots on one frame.

    A node at a given level is evaluated once per valuation of the loops
    outside it, and its value is repeated over the grid positions that
    valuation covers: all of them for an atom-free node, one block of
    coalition valuations for an agenda-level node, one position for the
    rest.
    """
    algebra = FrameAlgebra(frame)
    free, ia_steps, c_steps = plan.bind(algebra)
    ia_slots = [slot for _, slot in plan.ia_atoms]
    c_slots = [slot for _, slot in plan.c_atoms]
    ia_domain, c_domain = algebra.all_ia(), algebra.all_c()
    inner = len(c_domain) ** len(c_slots)
    spans = (len(ia_domain) ** len(ia_slots) * inner, inner, 1)
    width = {tm.IA: algebra.nd, tm.C: algebra.nc}
    # per level: (slot, value width, repeat over the positions covered)
    levels = ([], [], [])
    for slot, (level, sort) in enumerate(zip(plan.levels, plan.sorts)):
        w = width[sort]
        levels[level].append((slot, w, _repunit(w, spans[level])))
    vals = [None] * len(plan.methods)
    packed = [0] * len(plan.methods)
    tm._run(free, vals)
    for slot, _, rep in levels[tm._FREE]:
        packed[slot] = vals[slot] * rep
    position = 0
    for ia_vals in itertools.product(ia_domain, repeat=len(ia_slots)):
        for slot, value in zip(ia_slots, ia_vals):
            vals[slot] = value
        tm._run(ia_steps, vals)
        for slot, w, rep in levels[tm._IA_LEVEL]:
            packed[slot] |= vals[slot] * rep << (position * w)
        for c_vals in itertools.product(c_domain, repeat=len(c_slots)):
            for slot, value in zip(c_slots, c_vals):
                vals[slot] = value
            tm._run(c_steps, vals)
            for slot, w, _ in levels[tm._C_LEVEL]:
                packed[slot] |= vals[slot] << (position * w)
            position += 1
    return [packed[root] for root in plan.roots]


def _packed_valid_ia(x, y):
    return x & y == y


def _packed_valid_c(x, y):
    return x & y == x


def _first_flagged(vectors, ia_terms, c_terms, flagged):
    """First sequent whose per-frame verdicts the predicate flags.

    ``vectors`` holds one packed value vector per frame.  Terms with
    equal vectors on every frame are grouped under their first member,
    and the pairs of groups are scanned in ``itertools.product`` order,
    agenda sort first.  Returns (sequent, *verdicts) or None.
    """
    for terms, valid in (
        (ia_terms, _packed_valid_ia), (c_terms, _packed_valid_c)
    ):
        groups = {}
        for t in terms:
            groups.setdefault(tuple(vec[t] for vec in vectors), t)
        reps = list(groups.items())
        for (ka, ta), (kb, tb) in itertools.product(reps, repeat=2):
            verdicts = tuple(map(valid, ka, kb))
            if flagged(verdicts):
                return (tm.Sequent(ta, tb), *verdicts)
    return None


@dataclass(frozen=True)
class EquivalenceReport:
    agree: bool
    sequents_checked: int
    first_disagreement: object = None

    def __str__(self):
        if self.agree:
            return f"agree on all {self.sequents_checked} sequents"
        seq, v1, v2 = self.first_disagreement
        return (
            f"disagree on {seq} "
            f"(valid in first: {v1}, valid in second: {v2})"
        )


def bounded_modal_equivalence(f1, f2, depth=2, ia_atoms=1, c_atoms=1,
                              term_cap=200_000):
    """Do two frames validate the same sequents over a bounded term family?

    Validity is full (all valuations).  Terms with identical value
    vectors on both frames are grouped, which keeps the sequent scan
    quadratic in the number of distinct behaviours rather than terms.
    """
    ia_terms, c_terms = term_family(depth, ia_atoms, c_atoms)
    if len(ia_terms) + len(c_terms) > term_cap:
        raise CapExceeded(
            f"{len(ia_terms) + len(c_terms)} terms exceed cap {term_cap}"
        )
    vectors = _value_vectors((f1, f2), ia_terms, c_terms)
    first_bad = _first_flagged(
        vectors, ia_terms, c_terms, lambda v: v[0] != v[1]
    )
    total_sequents = len(ia_terms) ** 2 + len(c_terms) ** 2
    return EquivalenceReport(
        agree=first_bad is None,
        sequents_checked=total_sequents,
        first_disagreement=first_bad,
    )


def validity_transfer_to_union(f1, f2, union, depth=2):
    """Sequents (bounded family) valid in both parts hold in their union.

    Returns (ok, first violating sequent or None).
    """
    ia_terms, c_terms = term_family(depth, 1, 1)
    vectors = _value_vectors((f1, f2, union), ia_terms, c_terms)
    bad = _first_flagged(
        vectors, ia_terms, c_terms, lambda v: v[0] and v[1] and not v[2]
    )
    return (True, None) if bad is None else (False, bad[0])
