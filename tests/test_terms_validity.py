"""Term construction, evaluation, and brute-force validity."""

import pytest

from agenda_algebra import features as ft
from agenda_algebra import hetero as ht
from agenda_algebra import lattice as lt
from agenda_algebra.errors import CapExceeded, SortError, UnassignedAtom
from agenda_algebra.logic import terms as tm
from agenda_algebra.logic.frames import FrameAlgebra, RelationalStructure

from test_hetero import S1_TRIPLES, hiring


def test_sort_discipline():
    q = tm.atom_ia("q")
    t = tm.atom_c("t")
    with pytest.raises(SortError):
        tm.meet(q, t)
    with pytest.raises(SortError):
        tm.diamond_c(q)
    with pytest.raises(SortError):
        tm.blacksquare_t(t)
    with pytest.raises(SortError):
        tm.Sequent(q, t)


def test_commutative_canonicalization():
    q1, q2 = tm.atom_ia("q1"), tm.atom_ia("q2")
    assert tm.meet(q1, q2) == tm.meet(q2, q1)
    assert tm.join(q1, q2) == tm.join(q2, q1)
    t1, t2 = tm.atom_c("t1"), tm.atom_c("t2")
    assert tm.and_c(t1, t2) == tm.and_c(t2, t1)
    assert tm.star_t(q1, q2) != tm.star_t(q2, q1)


def test_term_identity_includes_sort_and_constructor():
    pairs = [
        (tm.atom_ia("x"), tm.atom_c("x")),
        (tm.atom_ia("tau"), tm.tau()),
        (tm.atom_c("top"), tm.top_c()),
        (tm.atom_ia("meet(q,q)"), tm.meet(tm.atom_ia("q"), tm.atom_ia("q"))),
    ]
    for a, b in pairs:
        # same rendering, different terms
        assert repr(a) == repr(b)
        assert a != b and hash(a) != hash(b)
        assert len({a, b}) == 2
    assert tm.atom_ia("x") == tm.atom_ia("x")
    assert hash(tm.atom_ia("x")) == hash(tm.atom_ia("x"))


def test_commutative_arguments_tied_on_key_order_by_identity():
    # an atom named like another term shares its key; either argument
    # order must still build one term
    q = tm.atom_ia("q")
    tied = [
        (tm.atom_ia("tau"), tm.tau()),
        (tm.atom_c("top"), tm.top_c()),
        (tm.atom_ia("meet(q,q)"), tm.meet(q, q)),
        (tm.meet(tm.atom_ia("tau"), q), tm.meet(tm.tau(), q)),
    ]
    for a, b in tied:
        make = tm.meet if a.sort == tm.IA else tm.and_c
        other = tm.join if a.sort == tm.IA else tm.or_c
        assert make(a, b) == make(b, a) and hash(make(a, b)) == hash(make(b, a))
        assert other(a, b) == other(b, a)
        assert repr(make(a, b)) == repr(make(b, a))
        assert len({make(a, b), make(b, a), make(a, a)}) == 2
    assert tm.meet(tm.atom_ia("tau"), tm.tau()).args[0] == tm.atom_ia("tau")


def test_commutative_arguments_print_in_key_order():
    q1, t1 = tm.atom_ia("q1"), tm.atom_c("t1")
    assert repr(tm.meet(q1, tm.bot_ia())) == "meet(botIA,q1)"
    assert repr(tm.join(tm.tau(), q1)) == "join(q1,tau)"
    assert repr(tm.and_c(tm.top_c(), t1)) == "and(t1,top)"
    assert repr(tm.or_c(t1, tm.bot_c())) == "or(botC,t1)"
    assert repr(tm.meet(tm.diamond_c(t1), q1)) == "meet(diamondC(t1),q1)"


def test_atom_named_like_a_constant_is_evaluated_as_an_atom():
    frame = RelationalStructure(C=("j",), D=("m", "n"))
    algebra = FrameAlgebra(frame)
    seq = tm.Sequent(tm.tau(), tm.atom_ia("tau"))
    v = {"tau": 3}
    assert tm.eval_term(algebra, v, tm.atom_ia("tau")) == 3
    assert tm.eval_term(algebra, v, tm.tau()) == algebra.ia_top()
    assert not tm.holds(algebra, v, seq)
    result = tm.check_validity(algebra, seq)
    assert not result.valid
    assert not tm.holds(algebra, result.counterexample, seq)
    assert result.counterexample == {"tau": 1}


def test_frame_eval_basics():
    frame = RelationalStructure(
        C=("j",), D=("m", "n"),
        R=frozenset({("m", "j")}),
        S=frozenset({("n", "j", "m")}),
    )
    algebra = FrameAlgebra(frame)
    v = {"q": algebra.ia_coatoms()[0], "t": algebra.c_atoms()[0]}
    assert tm.eval_term(algebra, v, tm.tau()) == algebra.ia_top()
    assert tm.eval_term(algebra, v, tm.bot_ia()) == algebra.ia_bot()
    got = tm.eval_term(algebra, v, tm.diamond_c(tm.atom_c("t")))
    assert algebra.ia_label(got) == "{m}"
    with pytest.raises(UnassignedAtom):
        tm.eval_term(algebra, {}, tm.atom_ia("q"))


def test_hetero_eval_hiring():
    space, h = hiring(S1_TRIPLES)
    algebra = ht.HeteroAlgebra(h)
    v = {
        "ca": h.agents.coalition(["a"]),
        "cb": h.agents.coalition(["b"]),
    }
    union = tm.or_c(tm.atom_c("ca"), tm.atom_c("cb"))
    got = tm.eval_term(algebra, v, tm.diamond_c(union))
    assert got.partition == ft.projection_agenda(space, ["r"]).partition
    assert tm.eval_term(algebra, v, tm.bot_ia()) == h.lattice.bottom
    aggregate = tm.meet(
        tm.pdra(tm.atom_c("ca"), tm.diamond_c(tm.atom_c("cb"))),
        tm.pdra(tm.atom_c("cb"), tm.diamond_c(tm.atom_c("ca"))),
    )
    got = tm.eval_term(algebra, v, aggregate)
    assert got.partition == ft.projection_agenda(space, ["r"]).partition


def test_validity_trivial():
    frame = RelationalStructure(C=("j",), D=("m",))
    algebra = FrameAlgebra(frame)
    assert tm.check_validity(algebra, tm.Sequent(tm.tau(), tm.tau())).valid
    q = tm.atom_ia("q")
    assert tm.check_validity(algebra, tm.Sequent(q, tm.tau())).valid
    assert not tm.check_validity(algebra, tm.Sequent(tm.tau(), q)).valid


def test_validity_symmetric_star():
    symmetric = RelationalStructure(
        C=("j1", "j2"), D=("m", "n"),
        S=frozenset({("n", "j1", "m"), ("m", "j1", "n"), ("m", "j2", "m")}),
    )
    seq = tm.Sequent(
        tm.star_t(tm.atom_ia("q1"), tm.atom_ia("q2")),
        tm.star_t(tm.atom_ia("q2"), tm.atom_ia("q1")),
    )
    assert tm.check_validity(FrameAlgebra(symmetric), seq).valid
    lopsided = RelationalStructure(
        C=("j1", "j2"), D=("m", "n"),
        S=frozenset({("n", "j1", "m")}),
    )
    result = tm.check_validity(FrameAlgebra(lopsided), seq)
    assert not result.valid
    assert result.counterexample is not None


def test_validity_atom_cap():
    frame = RelationalStructure(C=("j",), D=("m",))
    seq = tm.Sequent(
        tm.meet(
            tm.meet(tm.atom_ia("q1"), tm.atom_ia("q2")), tm.atom_ia("q3")
        ),
        tm.tau(),
    )
    with pytest.raises(CapExceeded):
        tm.check_validity(FrameAlgebra(frame), seq, atom_cap=2)
    assert tm.check_validity(FrameAlgebra(frame), seq, atom_cap=3).valid


def test_validity_on_hetero_structure():
    """The same sequent machinery runs over concrete structures."""
    _, h = hiring(S1_TRIPLES)
    algebra = ht.HeteroAlgebra(h)
    q = tm.atom_ia("q")
    assert tm.check_validity(
        algebra, tm.Sequent(tm.meet(q, q), q)
    ).valid
    # the substitution relation is not symmetric on the hiring structure
    seq = tm.Sequent(
        tm.star_t(tm.atom_ia("q1"), tm.atom_ia("q2")),
        tm.star_t(tm.atom_ia("q2"), tm.atom_ia("q1")),
    )
    assert not tm.check_flat_validity(algebra, seq).valid
