"""Condition/axiom correspondence pairs and bounded modal equivalence."""

import hashlib
import random

from agenda_algebra.logic import conditions as cn
from agenda_algebra.logic import correspondence as co
from agenda_algebra.logic import terms as tm
from agenda_algebra.logic.frames import (
    FrameAlgebra,
    RelationalStructure,
    check_forth_morphism,
    disjoint_union,
)


def test_pair_ids():
    assert len(co.PAIR_IDS) == 11
    assert set(co.PAIR_IDS) <= set(cn.CONDITION_IDS)


def test_exhaustive_agreement_one_agent_two_issues():
    count = 0
    for frame in cn.enumerate_structures(1, 2):
        count += 1
        for report in co.all_pairs_agree(frame):
            assert report.agree, (frame.to_json(), report)
    assert count == 128


def test_globally_indifferent_examples():
    agents, issues = ("j1", "j2"), ("m", "n")
    full = frozenset(
        (n_, j, m) for n_ in issues for j in agents for m in issues
    )
    frame = RelationalStructure(C=agents, D=issues, S=full)
    report = co.correspondence_pair(frame, "globally_indifferent")
    assert report.fo and report.axiom and report.agree
    empty = RelationalStructure(C=agents, D=issues)
    report = co.correspondence_pair(empty, "globally_indifferent")
    assert not report.fo and not report.axiom and report.agree


def test_random_structures_agree():
    rng = random.Random(101)
    for _ in range(60):
        frame = _random_frame(rng)
        for report in co.all_pairs_agree(frame):
            assert report.agree, (frame.to_json(), report)


def _random_frame(rng, nc=3, nd=3):
    agents = tuple(f"j{k}" for k in range(nc))
    issues = tuple(f"m{k}" for k in range(nd))

    def pick(pool, prob=0.3):
        return frozenset(x for x in pool if rng.random() < prob)

    return RelationalStructure(
        C=agents,
        D=issues,
        I=pick([(a, b) for a in agents for b in agents]),
        R=pick([(m, j) for m in issues for j in agents]),
        S=pick([(n, j, m) for n in issues for j in agents for m in issues]),
    )


def test_full_valuations_break_the_repeated_variable_pairs():
    """Why axiom checks range over irreducibles: a concrete countermodel.

    With diagonal substitution and full relevance, positive coherence
    holds, yet the axiom fails when the agenda variable is the bottom
    element, because transforming a two-issue agenda asks for the cross
    substitutions as well.
    """
    frame = RelationalStructure(
        C=("j",), D=("m", "n"),
        R=frozenset({("m", "j"), ("n", "j")}),
        S=frozenset({("m", "j", "m"), ("n", "j", "n")}),
    )
    assert cn.check_condition(frame, "pos_coherent")
    algebra = FrameAlgebra(frame)
    axiom = co.PAIRS["pos_coherent"]
    assert tm.check_flat_validity(algebra, axiom).valid
    assert not tm.check_validity(algebra, axiom).valid


def test_morphism_checks():
    from agenda_algebra.logic.fixtures import gt_fixture

    fixture = gt_fixture(1)
    report = check_forth_morphism(fixture.maps, fixture.f1, fixture.f2)
    assert report.ok
    identity = (
        {c: c for c in fixture.f1.C},
        {d: d for d in fixture.f1.D},
    )
    assert check_forth_morphism(identity, fixture.f1, fixture.f1).ok
    bigger = RelationalStructure(
        C=fixture.f2.C + ("extra",), D=fixture.f2.D, S=fixture.f2.S
    )
    report = check_forth_morphism(fixture.maps, fixture.f1, bigger)
    assert not report.surjective


def test_disjoint_union_sizes():
    f1 = RelationalStructure(C=("a",), D=("m", "n"))
    f2 = RelationalStructure(C=("b", "c"), D=("o",))
    union = disjoint_union(f1, f2)
    assert len(union.C) == 3 and len(union.D) == 3


def test_bde_frame_vs_itself():
    frame = _random_frame(random.Random(5), nc=2, nd=2)
    report = co.bounded_modal_equivalence(frame, frame)
    assert report.agree


def test_bde_detects_emptied_relevance():
    hiring = RelationalStructure(
        C=("a", "b"), D=("p", "r", "l"),
        R=frozenset({("p", "a"), ("r", "a"), ("r", "b"), ("l", "b")}),
        S=frozenset(
            {("p", "a", "p"), ("r", "a", "r"), ("p", "a", "l"),
             ("r", "a", "l"), ("r", "b", "r"), ("l", "b", "l"),
             ("r", "b", "p"), ("l", "b", "p")}
        ),
    )
    stripped = RelationalStructure(C=hiring.C, D=hiring.D, S=hiring.S)
    report = co.bounded_modal_equivalence(hiring, stripped)
    assert not report.agree
    seq, v1, v2 = report.first_disagreement
    # the reported sequent really does split the two frames
    assert tm.check_validity(FrameAlgebra(hiring), seq).valid == v1
    assert tm.check_validity(FrameAlgebra(stripped), seq).valid == v2


def test_term_family_counts():
    ia0, c0 = co.term_family(depth=0)
    assert len(ia0) == 3 and len(c0) == 3
    # IA: 3 base + 6 meets + 6 joins + 2x3 unary-of-C + 4x9 mixed binary
    # C: 3 base + 6 ands + 6 ors + 5x3 unary + 3 blacksquares + 2x9 binary
    ia1, c1 = co.term_family(depth=1)
    assert len(ia1) == 57 and len(c1) == 51
    # digests of the depth-2 family's reprs, in order, pin every term
    ia2, c2 = co.term_family(depth=2)
    assert len(ia2) == 15039 and len(c2) == 9465

    def digest(family):
        text = "\n".join(map(repr, family)).encode()
        return hashlib.sha256(text).hexdigest()

    assert digest(ia2) == (
        "5074cdd278fb37be4011e57b332498a3ef6c3f1d6978e357183c7062f095ae34"
    )
    assert digest(c2) == (
        "cfe152642c75e30b9efb774775fe1a7eefd1de77004e9d784c87c74d8c22d05e"
    )
