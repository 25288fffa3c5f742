"""Every check that compares a size with a cap names both in its message."""

import json
import re

import pytest

from agenda_algebra import cli
from agenda_algebra import features as ft
from agenda_algebra import lattice as lt
from agenda_algebra import partitions as pt
from agenda_algebra import viz
from agenda_algebra.errors import AgendaAlgebraError
from agenda_algebra.logic import correspondence
from agenda_algebra.logic import terms as tm
from agenda_algebra.logic.conditions import enumerate_structures
from agenda_algebra.logic.frames import FrameAlgebra, RelationalStructure
from agenda_algebra.scenario import LITERAL_CAP, load_scenario
from agenda_algebra.scenarios import scenario_text


def _binary_space(count):
    names = [f"x{i}" for i in range(count)]
    return ft.build_space([(name, ft.binary(name)) for name in names])


def _raised(call):
    with pytest.raises(AgendaAlgebraError) as err:
        call()
    return str(err.value)


def _cli_error(capsys, argv):
    assert cli.main(argv) == 2
    return capsys.readouterr().err


def _coatoms(monkeypatch, capsys):
    message = _raised(lambda: pt.enumerate_irreducibles(21))
    return message, 21, pt.COATOM_ENUMERATION_CAP


def _profiles(monkeypatch, capsys):
    return _raised(lambda: _binary_space(13)), 8192, ft.PROFILE_CAP


def _hasse_profiles(monkeypatch, capsys):
    space = _binary_space(10)
    message = _raised(lambda: viz.profile_poset_dot(space))
    return message, 1024, viz.HASSE_NODE_CAP


def _hasse_elements(monkeypatch, capsys):
    space = _binary_space(3)
    lattice = lt.build_lattice(
        lt.projection_issue_set(space, ["x0", "x1", "x2"])
    )
    monkeypatch.setattr(viz, "HASSE_NODE_CAP", 5)
    return _raised(lambda: viz.agenda_lattice_dot(lattice)), 8, 5


def _lazy_lattice_dot(monkeypatch, capsys):
    argv = ["lattice", "--params", "a,b,c", "--cap", "2", "--dot"]
    return _cli_error(capsys, argv), 3, 2


def _exhaustive(monkeypatch, capsys):
    count = sum(
        2 ** (nc * nc + nc * nd + nc * nd * nd)
        for nc in range(1, 4) for nd in range(1, 4)
    )
    message = _cli_error(capsys, ["check-correspondence", "--exhaustive", "3"])
    return message, count, cli.EXHAUSTIVE_CAP


def _random_frame_size(monkeypatch, capsys):
    argv = ["check-correspondence", "--random", "1", "--size", "40"]
    return _cli_error(capsys, argv), 40, 3


def _frame_size(monkeypatch, capsys):
    frame = RelationalStructure(C=("a", "b", "c", "d", "e"), D=("m",))
    message = _raised(
        lambda: correspondence.correspondence_pair(
            frame, correspondence.PAIR_IDS[0], size_cap=4
        )
    )
    return message, 5, 4


def _atoms(monkeypatch, capsys):
    q1, q2, q3 = (tm.atom_ia(f"q{k}") for k in (1, 2, 3))
    seq = tm.Sequent(tm.meet(tm.meet(q1, q2), q3), tm.tau())
    algebra = FrameAlgebra(RelationalStructure(C=("j",), D=("m",)))
    return _raised(lambda: tm.check_validity(algebra, seq)), 3, 2


def _terms(monkeypatch, capsys):
    ia, c = correspondence.term_family(2, 1, 1)
    frame = next(enumerate_structures(1, 1))
    message = _raised(
        lambda: correspondence.bounded_modal_equivalence(
            frame, frame, term_cap=10
        )
    )
    return message, len(ia) + len(c), 10


def _candidates(monkeypatch, capsys):
    space = _binary_space(6)
    params = {"x": ["x0", "x1", "x2"], "y": ["x3", "x4", "x5"]}
    # two agents: one union per pair of single vetoes, 3 * 3 of them
    total = 9
    monkeypatch.setattr(lt, "CANDIDATE_CAP", total - 1)
    message = _raised(lambda: lt.candidate_set_C(space, params))
    return message, total, total - 1


def _literal(monkeypatch, capsys):
    doc = json.loads(scenario_text("car"))
    doc["relevance"]["alan"].append(f"sum:f<=1e{LITERAL_CAP + 1}")
    message = _raised(lambda: load_scenario(json.dumps(doc)))
    return message, LITERAL_CAP + 1, LITERAL_CAP


def _literal_digits(monkeypatch, capsys):
    doc = json.loads(scenario_text("car"))
    digits = "7" * (2 * LITERAL_CAP)
    doc["relevance"]["alan"].append(f"sum:f<={digits}")
    message = _raised(lambda: load_scenario(json.dumps(doc)))
    return message, len(digits), LITERAL_CAP


CAP_CHECKS = {
    "coatom-enumeration": _coatoms,
    "profile-cap": _profiles,
    "hasse-profiles": _hasse_profiles,
    "hasse-elements": _hasse_elements,
    "lazy-lattice-dot": _lazy_lattice_dot,
    "exhaustive-oracle": _exhaustive,
    "random-frame-size": _random_frame_size,
    "frame-size": _frame_size,
    "atoms-per-sort": _atoms,
    "term-family": _terms,
    "candidate-set": _candidates,
    "literal-exponent": _literal,
    "literal-digits": _literal_digits,
}


@pytest.mark.parametrize("check", CAP_CHECKS)
def test_cap_message_names_size_and_cap(check, monkeypatch, capsys):
    message, size, cap = CAP_CHECKS[check](monkeypatch, capsys)
    assert size > cap
    numbers = re.findall(r"\d+", message)
    assert str(size) in numbers, message
    assert str(cap) in numbers, message
