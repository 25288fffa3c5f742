"""Compiled validity plans against the per-valuation reference.

``check_validity``, ``check_flat_validity`` and ``_value_vectors`` run a
compiled plan of each sequent or term family.  The references below are
the straightforward loops: every term, for every valuation, through
``eval_term``/``holds`` (and, on a concrete structure, through the
``HeteroAlgebra`` object wrappers).  Verdicts, counterexamples and the
equivalence reports must match them exactly.
"""

import collections
import functools
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agenda_algebra import hetero as ht
from agenda_algebra import scenario as sc
from agenda_algebra.errors import SortError
from agenda_algebra.logic import correspondence as co
from agenda_algebra.logic.conditions import enumerate_structures
from agenda_algebra.logic import terms as tm
from agenda_algebra.logic.fixtures import UNION, gt_fixture
from agenda_algebra.logic.frames import (
    FrameAlgebra,
    RelationalStructure,
    disjoint_union,
    memoized,
)
from agenda_algebra.scenarios import BUNDLED, scenario_text

from test_conditions import _random_frame as random_frame

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None)


# -- references: one valuation, one eval_term call per term -------------


def ref_valuations(ia_names, c_names, ia_domain, c_domain):
    ia_names, c_names = sorted(ia_names), sorted(c_names)
    for ia_vals in itertools.product(ia_domain, repeat=len(ia_names)):
        for c_vals in itertools.product(c_domain, repeat=len(c_names)):
            v = dict(zip(ia_names, ia_vals))
            v.update(zip(c_names, c_vals))
            yield v


def ref_check(algebra, sequent, flat=False):
    ia_names, c_names = sequent.atoms()
    if flat:
        domains = algebra.ia_coatoms(), algebra.c_atoms()
    else:
        domains = algebra.all_ia(), algebra.all_c()
    for v in ref_valuations(ia_names, c_names, *domains):
        if not tm.holds(algebra, v, sequent):
            return tm.ValidityResult(False, dict(v))
    return tm.ValidityResult(True)


def ref_value_vectors(frame, ia_terms, c_terms, ia_names, c_names):
    algebra = FrameAlgebra(frame)
    nd, nc = algebra.nd, algebra.nc
    packed = {t: 0 for t in itertools.chain(ia_terms, c_terms)}
    slot = 0
    for v in ref_valuations(
        ia_names, c_names, algebra.all_ia(), algebra.all_c()
    ):
        cache = {}
        for t in ia_terms:
            packed[t] |= tm.eval_term(algebra, v, t, cache) << (slot * nd)
        for t in c_terms:
            packed[t] |= tm.eval_term(algebra, v, t, cache) << (slot * nc)
        slot += 1
    return packed


def ref_vectors_for_frames(frames, ia_terms, c_terms):
    """The reference over the atoms the terms use, as ``_value_vectors``."""
    ia_names, c_names = set(), set()
    for t in itertools.chain(ia_terms, c_terms):
        ia, c = t.atoms()
        ia_names |= ia
        c_names |= c
    return [
        ref_value_vectors(f, ia_terms, c_terms, ia_names, c_names)
        for f in frames
    ]


# -- strategies ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def family(depth):
    return co.term_family(depth, 2, 2)


@st.composite
def frames(draw, max_nc=3, max_nd=3):
    nc = draw(st.integers(1, max_nc))
    nd = draw(st.integers(1, max_nd))
    agents = tuple(f"j{k}" for k in range(nc))
    issues = tuple(f"m{k}" for k in range(nd))

    def subset(pool):
        return frozenset(x for x in pool if draw(st.booleans()))

    return RelationalStructure(
        C=agents,
        D=issues,
        I=subset([(a, b) for a in agents for b in agents]),
        R=subset([(m, j) for m in issues for j in agents]),
        S=subset(
            [(n, j, m) for n in issues for j in agents for m in issues]
        ),
    )


@st.composite
def sequents(draw, max_depth=2):
    ia_terms, c_terms = family(draw(st.integers(0, max_depth)))
    terms = draw(st.sampled_from((ia_terms, c_terms)))
    # uniform picks: shrinking toward the first, atom-free, terms would
    # leave most sequents without atoms
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return tm.Sequent(rng.choice(terms), rng.choice(terms))


# -- frames --------------------------------------------------------------


@PROPERTY_SETTINGS
@given(frames(), sequents(), st.booleans())
def test_plan_matches_reference_on_random_frames(frame, seq, flat):
    algebra = FrameAlgebra(frame)
    check = tm.check_flat_validity if flat else tm.check_validity
    got = check(algebra, seq)
    assert got == ref_check(FrameAlgebra(frame), seq, flat)


def test_pairs_match_reference_on_enumerated_frames():
    for frame in itertools.islice(enumerate_structures(2, 2), 0, 4096, 37):
        for seq in co.PAIRS.values():
            for flat in (False, True):
                check = tm.check_flat_validity if flat else tm.check_validity
                got = check(FrameAlgebra(frame), seq)
                assert got == ref_check(FrameAlgebra(frame), seq, flat)


# -- concrete structures -------------------------------------------------


@functools.lru_cache(maxsize=None)
def structure(key):
    return sc.build_structure(sc.load_scenario(scenario_text(key)))


def describe(result):
    if result.counterexample is None:
        return result.valid, None
    return result.valid, {
        name: value.label() if hasattr(value, "label")
        else tuple(value.members())
        for name, value in result.counterexample.items()
    }


@pytest.mark.parametrize("key", BUNDLED)
@pytest.mark.parametrize("flat", (False, True))
def test_plan_matches_reference_on_bundled_structures(key, flat):
    h = structure(key)
    check = tm.check_flat_validity if flat else tm.check_validity
    sequents_ = list(co.PAIRS.values())
    ia_terms, c_terms = co.term_family(1, 1, 1)
    # a few depth-one sequents beyond the axioms, in both sorts
    sequents_ += [
        tm.Sequent(a, b)
        for terms in (ia_terms, c_terms)
        for a, b in zip(terms[::7], terms[3::11])
    ]
    for seq in sequents_:
        got = check(ht.HeteroAlgebra(h), seq)
        want = ref_check(ht.HeteroAlgebra(h), seq, flat)
        assert describe(got) == describe(want), seq
        assert list(got.counterexample or {}) == list(
            want.counterexample or {}
        )


# -- value vectors and the reports built on them -------------------------


def fixture_pair(case):
    fixture = gt_fixture(case)
    target = fixture.f2
    if fixture.kind == UNION:
        target = disjoint_union(fixture.f1, fixture.f2)
    return fixture.f1, target


@pytest.mark.parametrize("case", (1, 2, 4, 5, 6, 7, 8))
def test_bounded_equivalence_matches_reference(case, monkeypatch):
    f1, f2 = fixture_pair(case)
    got = co.bounded_modal_equivalence(f1, f2, depth=1)
    monkeypatch.setattr(co, "_value_vectors", ref_vectors_for_frames)
    assert got == co.bounded_modal_equivalence(f1, f2, depth=1)


@settings(max_examples=25, deadline=None, database=None)
@given(frames(2, 2), frames(2, 2), st.integers(1, 2), st.integers(0, 2))
def test_value_vectors_and_reports_match_reference(f1, f2, ia, c):
    ia_terms, c_terms = co.term_family(1, ia, c)
    ia_names = [f"q{k + 1}" for k in range(ia)]
    c_names = [f"t{k + 1}" for k in range(c)]
    got = co._value_vectors((f1, f2), ia_terms, c_terms)
    want = [
        ref_value_vectors(f, ia_terms, c_terms, ia_names, c_names)
        for f in (f1, f2)
    ]
    assert got == want
    report = co.bounded_modal_equivalence(f1, f2, 1, ia, c)
    transfer = co.validity_transfer_to_union(
        f1, f2, disjoint_union(f1, f2), depth=1
    )
    original = co._value_vectors
    co._value_vectors = ref_vectors_for_frames
    try:
        assert report == co.bounded_modal_equivalence(f1, f2, 1, ia, c)
        assert transfer == co.validity_transfer_to_union(
            f1, f2, disjoint_union(f1, f2), depth=1
        )
    finally:
        co._value_vectors = original


def test_value_vectors_hoist_across_the_grid():
    frame = RelationalStructure(
        C=("j", "k"), D=("m", "n"), R=frozenset({("m", "j")})
    )
    q, t = tm.atom_ia("q1"), tm.atom_c("t1")
    ia_terms = [tm.tau(), q, tm.meet(q, tm.diamond_c(t))]
    c_terms = [tm.top_c(), t, tm.blacksquare_t(q)]
    got = co._value_vectors((frame,), ia_terms, c_terms)
    assert got == [
        ref_value_vectors(frame, ia_terms, c_terms, ["q1"], ["t1"])
    ]


# -- hoisting ------------------------------------------------------------


class CountingAlgebra(FrameAlgebra):
    def __init__(self, frame):
        super().__init__(frame)
        self.calls = {"diamond": 0, "ia_meet": 0, "pdra": 0}

    def diamond(self, c):
        self.calls["diamond"] += 1
        return super().diamond(c)

    def ia_meet(self, x, y):
        self.calls["ia_meet"] += 1
        return super().ia_meet(x, y)

    def pdra(self, c, e):
        self.calls["pdra"] += 1
        return super().pdra(c, e)


def test_nodes_run_once_per_valuation_of_their_atoms():
    frame = RelationalStructure(
        C=("j1", "j2"), D=("m", "n"),
        R=frozenset({("m", "j1")}),
        S=frozenset({("n", "j2", "m")}),
    )
    q, t = tm.atom_ia("q"), tm.atom_c("t")
    # every agenda lies below tau, so each valuation runs and holds
    lhs = tm.meet(
        tm.meet(tm.diamond_c(tm.top_c()), tm.meet(q, q)), tm.pdra(t, q)
    )
    seq = tm.Sequent(lhs, tm.tau())
    algebra = CountingAlgebra(frame)
    assert tm.check_validity(algebra, seq).valid
    ia_count, c_count = 2 ** 2, 2 ** 2
    assert algebra.calls["diamond"] == 1
    # meet(q, q) and the meet above it run once per agenda valuation;
    # the two meets reaching pdra(t, q) run once per full valuation
    assert algebra.calls["ia_meet"] == 2 * ia_count + 1 * ia_count * c_count
    assert algebra.calls["pdra"] == ia_count * c_count


# -- the operator memo ---------------------------------------------------


MEMO_FRAME = RelationalStructure(
    C=("j1", "j2"), D=("m", "n"),
    R=frozenset({("m", "j1"), ("n", "j2")}),
    S=frozenset({("n", "j2", "m"), ("m", "j1", "n")}),
)


UNARY_OPS = ("diamond", "rhd", "blacksquare", "blacktriangleright")
BINARY_OPS = ("pdra", "star", "eqless", "br", "brB", "triangle")


def test_each_operator_call_is_computed_once_per_algebra():
    computed = collections.Counter()

    def counted(name):
        raw = getattr(FrameAlgebra, name).__wrapped__

        def method(self, *args):
            computed[name, args] += 1
            return raw(self, *args)

        method.__name__ = name
        return memoized(method)

    counting = type(
        "ComputeCounting", (FrameAlgebra,),
        {name: counted(name) for name in UNARY_OPS + BINARY_OPS},
    )
    algebra, fresh = counting(MEMO_FRAME), FrameAlgebra(MEMO_FRAME)
    for _ in range(3):
        for name in UNARY_OPS:
            for x in range(4):
                assert getattr(algebra, name)(x) == getattr(fresh, name)(x)
        for name in BINARY_OPS:
            for x, y in itertools.product(range(4), repeat=2):
                got = getattr(algebra, name)(x, y)
                assert got == getattr(fresh, name)(x, y)
    assert len(computed) == 4 * len(UNARY_OPS) + 16 * len(BINARY_OPS)
    assert set(computed.values()) == {1}


def test_two_algebras_on_one_frame_share_no_entries():
    first, second = FrameAlgebra(MEMO_FRAME), FrameAlgebra(MEMO_FRAME)
    first.pdra(3, 1)
    first.diamond(1)
    assert dict(second._cache) == {}
    second.pdra(3, 1)
    assert second._cache["pdra"] is not first._cache["pdra"]


class NoAgendaScan(FrameAlgebra):
    """A frame algebra whose agenda sort cannot be listed."""

    def all_ia(self):
        raise AssertionError("an operator enumerated the agenda sort")


def ref_eqless(algebra, c, e):
    """Join of every agenda whose transform refines e."""
    out = 0
    for cand in range(1 << algebra.nd):
        if algebra.pdra(c, cand) & e == e:
            out |= cand
    return out


def ref_triangle(algebra, c, e):
    """Join of every agenda whose distributed transform e refines."""
    out = 0
    for cand in range(1 << algebra.nd):
        if e & algebra.br(c, cand) == algebra.br(c, cand):
            out |= cand
    return out


# the sort of each argument: coalition or agenda
OPERATOR_ARGS = {
    "diamond": "c", "rhd": "c", "blacksquare": "e", "blacktriangleright": "e",
    "pdra": "ce", "star": "ee", "eqless": "ce", "br": "ce", "brB": "ee",
    "triangle": "ce",
}


@pytest.mark.parametrize("nc, nd", itertools.product((1, 2, 3), repeat=2))
def test_no_operator_enumerates_the_agenda_sort(nc, nd):
    """Every operator at every argument, with ``all_ia`` refusing.

    The residuals join the passing coatoms and must equal the references,
    which join every passing agenda of the 2^nd; the other operators must
    equal those of an algebra whose ``all_ia`` works.
    """
    assert set(OPERATOR_ARGS) == set(UNARY_OPS + BINARY_OPS)
    refs = {"eqless": ref_eqless, "triangle": ref_triangle}
    rng = random.Random(10 * nc + nd)
    for p in (0.2, 0.3, 0.5, 0.8) * 3:
        frame = random_frame(rng, nc, nd, p)
        algebra, plain = NoAgendaScan(frame), FrameAlgebra(frame)
        domain = {"c": range(1 << nc), "e": range(1 << nd)}
        for name, sorts in OPERATOR_ARGS.items():
            ref = refs.get(name, getattr(FrameAlgebra, name))
            for args in itertools.product(*(domain[s] for s in sorts)):
                got = getattr(algebra, name)(*args)
                assert got == ref(plain, *args), (name, args, frame)


def test_a_dropped_algebra_is_collected():
    algebra = FrameAlgebra(MEMO_FRAME)
    for c in range(4):
        for e in range(4):
            algebra.star(c, e)
            algebra.triangle(c, e)
    ref = weakref.ref(algebra)
    del algebra
    assert ref() is None


# -- sort clashes --------------------------------------------------------


def test_atom_shared_between_sorts_is_refused():
    x_c, x_ia = tm.atom_c("x"), tm.atom_ia("x")
    with pytest.raises(SortError, match="'x'"):
        tm.Sequent(tm.pdra(x_c, x_ia), x_ia)
