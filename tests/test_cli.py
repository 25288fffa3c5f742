"""Command-line interface: subcommands, output shapes, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import agenda_algebra
from agenda_algebra.cli import main
from agenda_algebra.scenarios import scenario_text

SRC = str(Path(agenda_algebra.__file__).resolve().parents[1])


@pytest.fixture
def hiring_file(tmp_path):
    path = tmp_path / "hiring.json"
    path.write_text(scenario_text("hiring_s1"))
    return str(path)


@pytest.fixture
def car_file(tmp_path):
    path = tmp_path / "car.json"
    path.write_text(scenario_text("car"))
    return str(path)


def test_analyze_text(hiring_file, capsys):
    assert main(["analyze", hiring_file]) == 0
    out = capsys.readouterr().out
    assert "prefers John" in out
    assert "substitution aggregate" in out


def test_analyze_json(car_file, capsys):
    assert main(["--json", "analyze", car_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["substitution_aggregate"]["winner"] == "C1"
    assert doc["agents"]["betty"]["winner"] == "C2"


def test_analyze_validation_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["analyze", str(path)]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_lattice_params(capsys):
    assert main(["lattice", "--params", "p,r,l"]) == 0
    out = capsys.readouterr().out
    assert "elements: 8" in out
    assert "distributive: True" in out


def test_lattice_issues_json(capsys):
    assert main([
        "--json", "lattice", "--issues", "sumset:x,y;param:x;param:y"
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distributive"] is False
    assert len(doc["witness"]) == 3


def test_lattice_dot(capsys):
    assert main(["lattice", "--params", "a,b", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and out.count("->") == 4


@pytest.mark.parametrize("ids", ["sum:a,a<=1", "sumset:a,b,a"])
def test_lattice_refuses_repeated_names(ids, capsys):
    assert main(["lattice", "--issues", ids]) == 1
    assert f"issue id {ids!r} repeats parameter 'a'" in capsys.readouterr().err


# input errors once reported as internal errors (exit 3) or tracebacks
LATTICE_INPUT_ERRORS = {
    ("--issues", "sum:x<=5"): [
        "--issues: threshold 5 leaves an empty cell over ['x']"],
    ("--issues", "param:x;param:x"): [
        "--issues: issue 'param:x' is named more than once"],
    ("--issues", "sumset:x,y;sum:y,x<=1;sum:y<=9"): [
        "--issues: issue 'sum:x,y<=1' is named more than once",
        "--issues: threshold 9 leaves an empty cell over ['y']"],
    ("--params", "x,y,x"): ["--params: duplicate parameter names"],
}


@pytest.mark.parametrize("flag,value", LATTICE_INPUT_ERRORS)
def test_lattice_input_errors_are_listed(flag, value, capsys):
    assert main(["lattice", flag, value]) == 1
    problems = LATTICE_INPUT_ERRORS[flag, value]
    assert capsys.readouterr().err == f"error: {'; '.join(problems)}\n"


@pytest.mark.parametrize(
    "k", ["1e5000", "1e10000000", "9" * 100_000],
    ids=["1e5000", "1e10000000", "100000-nines"],
)
def test_lattice_refuses_huge_thresholds_at_once(k, capsys):
    start = time.perf_counter()
    assert main(["lattice", "--issues", f"sum:x<={k}"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "more than 1000 digits or an exponent past 1000" in err


def test_lattice_above_cap(capsys):
    assert main(["lattice", "--params", "a,b,c", "--cap", "2"]) == 0
    assert "lazy" in capsys.readouterr().out


def test_check_correspondence_exhaustive(capsys):
    assert main(["check-correspondence", "--exhaustive", "1"]) == 0
    assert "0 disagreements" in capsys.readouterr().out


def test_check_correspondence_exhaustive_cap():
    """Carriers up to 3 mean about 2^45 frames: refused before any scan."""
    result = subprocess.run(
        [sys.executable, "-m", "agenda_algebra.cli",
         "check-correspondence", "--exhaustive", "3"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 2
    assert "35184774848904 structures" in result.stderr
    assert result.stdout == ""


def test_check_correspondence_random(capsys):
    assert main([
        "--json", "check-correspondence", "--random", "25", "--seed", "11",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["disagreements"] == 0
    assert doc["structures"] == 25


def test_check_correspondence_random_zero(capsys):
    assert main([
        "--json", "check-correspondence", "--random", "0",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"disagreements": 0, "pair_checks": 0, "structures": 0}


def _dominance_document(agent_params, names):
    """Binary parameters, each agent finding its own param: issues relevant."""
    return {
        "agents": list(agent_params),
        "parameters": [
            {"name": x, "scale": {"kind": "chain", "values": ["0", "1"]}}
            for x in names
        ],
        "winning_rule": "total_dominance",
        "candidates": {
            "P": dict.fromkeys(names, "1"),
            "Q": {x: "01"[i % 2] for i, x in enumerate(names)},
        },
        "relevance": {
            agent: [f"param:{x}" for x in params]
            for agent, params in agent_params.items()
        },
        "influence": [],
        "substitution": [],
    }


def test_analyze_four_agent_candidate_set(tmp_path, capsys):
    """Four agents with three of six parameters each walk at most 4^4
    unions, where the product of their vetoes takes 3^12 meets."""
    names = ["a", "b", "c", "d", "e", "f"]
    agents = {
        "j0": ["a", "b", "c"], "j1": ["c", "d", "e"],
        "j2": ["a", "e", "f"], "j3": ["b", "d", "f"],
    }
    path = tmp_path / "four.json"
    path.write_text(json.dumps(_dominance_document(agents, names)))
    assert main(["--json", "analyze", str(path)]) == 0
    cset = json.loads(capsys.readouterr().out)["candidate_set"]
    assert 0 < len(cset) <= 256
    assert all(ap["descriptor"].startswith("proj[") for ap in cset)
    assert cset[0]["descriptor"] == "proj[a,b,c,d,e,f]"


def test_candidate_set_cap_exit_code(tmp_path, capsys):
    """Six agents sharing six parameters: 7^6 unions, refused."""
    names = ["a", "b", "c", "d", "e", "f"]
    agents = {f"j{i}": names for i in range(6)}
    path = tmp_path / "six.json"
    path.write_text(json.dumps(_dominance_document(agents, names)))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "117649 unions" in err and "10000" in err


def test_frames_fixture(capsys):
    assert main(["--json", "frames", "--fixture", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["condition"] == "euclidean"
    assert doc["verdicts"] == {"f1": True, "f2": False}
    assert doc["morphism"]["surjective"] is True
    assert doc["bounded_equivalence"]["agree"] is False


def test_frames_union_fixture(capsys):
    assert main(["--json", "frames", "--fixture", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"] == {"f1": True, "f2": True, "union": False}


def test_frames_partial_case(capsys):
    assert main(["--json", "frames", "--fixture", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"] == {"f2": False}
    assert "bounded_equivalence" not in doc


def test_cap_exceeded_exit_code(tmp_path, capsys):
    doc = json.loads(scenario_text("hiring_s1"))
    doc["options"] = {"profile_cap": 4}
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    doc = json.loads(scenario_text("car"))
    doc["options"] = {"materialize_cap": 2}
    path.write_text(json.dumps(doc))
    # the lattice stays lazy; the analysis itself still goes through
    assert main(["analyze", str(path)]) == 0


def test_lattice_cap_exceeded_dot(capsys):
    assert main(["lattice", "--params", "a,b,c", "--cap", "2", "--dot"]) == 2
    assert "error" in capsys.readouterr().err


def test_decompose(car_file, capsys):
    assert main([
        "--json", "decompose", "--scenario", car_file, "--set", "f,p,s",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meet_equals_sum_agenda"] is True
    assert doc["thresholds"] == ["0", "1", "2"]


UNSCORABLE = {
    "agents": ["a", "b"],
    "parameters": [
        {"name": "w", "scale": {"kind": "chain", "values": ["low", "high"]}},
        {"name": "d", "scale": {
            "kind": "poset", "values": ["0", "1", "2", "3"],
            "covers": [["0", "1"], ["0", "2"], ["1", "3"], ["2", "3"]],
        }},
        {"name": "n", "scale": {"kind": "chain", "values": ["0", "1"]}},
    ],
    "winning_rule": "total_dominance",
    "candidates": {
        "X": {"w": "low", "d": "0", "n": "0"},
        "Y": {"w": "high", "d": "1", "n": "1"},
    },
    "relevance": {"a": ["param:w"], "b": ["param:n"]},
    "influence": [],
    "substitution": [],
}


@pytest.mark.parametrize("doc, names, problems", [
    ("car", "zz", ["--set: unknown parameter zz"]),
    ("car", "", ["--set: unknown parameter "]),
    ("car", "f,f", ["--set: parameter 'f' is named 2 times"]),
    ("car", "f,zz,f,q", [
        "--set: parameter 'f' is named 2 times",
        "--set: unknown parameter zz",
        "--set: unknown parameter q",
    ]),
    ("unscorable", "w", ["--set: scale w: no rational value for label 'low'"]),
    ("unscorable", "d", ["--set: parameter d is not on a chain"]),
    ("unscorable", "n,d,n", [
        "--set: parameter 'n' is named 2 times",
        "--set: parameter d is not on a chain",
    ]),
])
def test_decompose_lists_bad_names(tmp_path, capsys, doc, names, problems):
    """Unknown, repeated and non-scorable --set names exit 1, all listed."""
    path = tmp_path / "doc.json"
    path.write_text(
        scenario_text("car") if doc == "car" else json.dumps(UNSCORABLE)
    )
    argv = ["decompose", "--scenario", str(path), "--set", names]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {'; '.join(problems)}\n"


def test_negative_random_size_is_refused(capsys):
    argv = ["check-correspondence", "--random", "1", "--size", "-1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: --size: need a size >= 0, got -1\n"


@pytest.mark.parametrize("argv, problems", [
    (["--random", "-5"], ["--random: need a count >= 0, got -5"]),
    (["--random", "-1", "--size", "-2"], [
        "--random: need a count >= 0, got -1",
        "--size: need a size >= 0, got -2",
    ]),
    (["--exhaustive", "0"],
     ["--exhaustive: need a carrier bound >= 1, got 0"]),
    (["--exhaustive", "-3"],
     ["--exhaustive: need a carrier bound >= 1, got -3"]),
])
def test_negative_counts_are_refused(argv, problems, capsys):
    """A count below its least value is an input error, not an empty scan."""
    assert main(["check-correspondence", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {'; '.join(problems)}\n"
    assert captured.out == ""
