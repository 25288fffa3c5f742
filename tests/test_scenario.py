"""Scenario loading, validation, analysis, and serialization."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agenda_algebra import features as ft
from agenda_algebra import lattice as lt
from agenda_algebra import partitions as pt
from agenda_algebra.cli import main
from agenda_algebra.errors import CapExceeded, ParseError, ValidationError
from agenda_algebra.scenario import (
    LITERAL_CAP,
    analyze,
    build_structure,
    load_scenario,
    serialize_scenario,
)
from agenda_algebra.scenarios import BUNDLED, scenario_text


def test_bundled_scenarios_load():
    for name in BUNDLED:
        scenario = load_scenario(scenario_text(name))
        assert len(scenario.agents) == 2
        assert len(scenario.candidates) == 2
    hiring = load_scenario(scenario_text("hiring_s1"))
    assert hiring.space.n == 8
    car = load_scenario(scenario_text("car"))
    assert car.space.n == 32
    assert car.winning_rule == ft.SUM


def test_parse_error():
    with pytest.raises(ParseError):
        load_scenario("{not json")


def test_validation_collects_problems():
    doc = json.loads(scenario_text("hiring_s1"))
    doc["candidates"]["John"]["r"] = "7"
    doc["relevance"]["alan"].append("param:zz")
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert len(err.value.problems) == 2


def test_sum_rule_rejects_poset_scales():
    doc = json.loads(scenario_text("car"))
    doc["parameters"][0]["scale"] = {
        "kind": "poset",
        "values": ["0", "u", "1"],
        "covers": [["0", "u"], ["u", "1"]],
    }
    doc["candidates"]["C1"]["s"] = "1"
    doc["candidates"]["C2"]["s"] = "0"
    with pytest.raises(ValidationError):
        load_scenario(json.dumps(doc))


def test_dangling_issue_id():
    doc = json.loads(scenario_text("hiring_s1"))
    doc["substitution"].append(
        {"agent": "alan", "from": "param:zzz", "to": "param:r"}
    )
    with pytest.raises(ValidationError):
        load_scenario(json.dumps(doc))


@pytest.mark.parametrize("bad", ["sum:s<=abc", "sum:s<=1/0"])
def test_malformed_threshold_ids_are_listed(bad):
    """A threshold that is no rational is a problem in every place an
    issue id may appear, each listed, not an uncaught ValueError."""
    doc = json.loads(scenario_text("car"))
    doc["relevance"]["alan"].append(bad)
    doc["substitution"].append(
        {"agent": "betty", "from": bad, "to": "sum:f,p,s<=1"}
    )
    doc["options"] = {"extra_agendas": {"mine": [bad]}}
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    k = bad.split("<=")[1]
    assert err.value.problems == [
        f"{where}: malformed threshold {k!r} in issue id {bad!r}"
        for where in ("relevance of alan", "substitution from",
                      "named agenda mine")
    ]


def test_sum_rule_named_agenda_of_param_issues_is_listed(tmp_path, capsys):
    """Param issues alone meet to a projection, which the sum rule cannot
    decide: a listed problem (exit 1), not an internal error (exit 3)."""
    doc = json.loads(scenario_text("car"))
    doc["options"]["extra_agendas"]["proj"] = ["param:s", "param:f"]
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert err.value.problems == [
        "named agenda proj: only param: issues, and projection agendas"
        " need the total-dominance rule"
    ]
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    assert "named agenda proj" in capsys.readouterr().err
    # beside a threshold issue the meet is decided on the dominance quotient
    doc["options"]["extra_agendas"]["proj"] = ["param:s", "sum:f<=0"]
    report = analyze(load_scenario(json.dumps(doc)))
    assert report.named["proj"].agenda.label() == "meet"


@pytest.mark.parametrize(
    "key, cap",
    [("profile_cap", ft.PROFILE_CAP), ("materialize_cap", lt.MATERIALIZE_CAP)],
)
def test_options_cannot_raise_a_built_in_cap(key, cap, tmp_path, capsys):
    """One above the built-in cap is refused before the space is built;
    the cap itself and anything lower still load."""
    doc = json.loads(scenario_text("hiring_s1"))
    doc["options"] = {key: cap + 1}
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert err.value.problems == [
        f"options: {key} {cap + 1} is above the built-in cap {cap}"
    ]
    path = tmp_path / "raised.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    assert f"{key} {cap + 1}" in capsys.readouterr().err
    for value in (cap, 8):
        doc["options"] = {key: value}
        assert getattr(load_scenario(json.dumps(doc)).options, key) == value


HUGE_NUMBERS = ["1e3000000", "1e-1001", "7" * 2000, "1" * 10_000_000]
HUGE_NUMBER_PLACES = {
    "threshold": (
        "relevance of alan: threshold in issue id",
        lambda doc, number: doc["relevance"]["alan"].append(
            f"sum:s<={number}"
        ),
    ),
    "label": (
        "parameter f",
        lambda doc, number: doc["parameters"][1]["scale"]["values"].append(
            number
        ),
    ),
    "numeric": (
        "parameter p numeric",
        lambda doc, number: doc["parameters"][2]["scale"].update(
            numeric={"0": number}
        ),
    ),
}


@pytest.mark.parametrize("place", HUGE_NUMBER_PLACES)
@pytest.mark.parametrize(
    "number", HUGE_NUMBERS, ids=["1e3000000", "1e-1001", "2000-sevens",
                                 "10000000-ones"],
)
def test_huge_numbers_are_listed_at_once(number, place):
    """A threshold, scale label or numeric value past LITERAL_CAP is a
    listed problem, refused before Fraction spends 10**exponent on it."""
    where, put = HUGE_NUMBER_PLACES[place]
    doc = json.loads(scenario_text("car"))
    put(doc, number)
    text = json.dumps(doc)
    start = time.perf_counter()
    with pytest.raises(ValidationError) as err:
        load_scenario(text)
    assert time.perf_counter() - start < 1
    shown = number if len(number) <= 40 else (
        f"{number[:20]}...({len(number)} chars)"
    )
    assert err.value.problems == [
        f"{where}: number {shown!r} has more than {LITERAL_CAP} digits or an"
        f" exponent past {LITERAL_CAP}"
    ]


def test_numbers_at_the_cap_still_parse():
    doc = json.loads(scenario_text("car"))
    doc["relevance"]["alan"].append("sum:s<=1e-1000")
    doc["parameters"][2]["scale"]["numeric"] = {"0": "1" * LITERAL_CAP}
    scenario = load_scenario(json.dumps(doc))
    assert "sum:s<=1/1" + "0" * 1000 in scenario.relevance["alan"]


def test_integers_past_the_json_digit_limit_are_a_parse_error():
    with pytest.raises(ParseError):
        load_scenario('{"agents": [' + "1" * 5000 + "]}")


@pytest.mark.parametrize("text", ["[1]", '"car"', "3", "null"])
def test_document_must_be_an_object(text):
    with pytest.raises(ValidationError) as err:
        load_scenario(text)
    assert err.value.problems == ["the document must be a JSON object"]


@pytest.mark.parametrize("bad", ["sum:f,f<=1", "sumset:f,p,f"])
def test_repeated_parameter_names_are_listed(bad):
    """sum:f,f<=1 would split at 2f <= 1 while its label and decide
    count f once, so an id that repeats a name is refused."""
    doc = json.loads(scenario_text("car"))
    doc["relevance"]["alan"].append(bad)
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert err.value.problems == [
        f"relevance of alan: issue id {bad!r} repeats parameter 'f'"
    ]


LONG = 1_000_000
LONG_IDS = {
    "bare": "x" * LONG,
    "param": "param:" + "x" * (LONG - 6),
    "sum-name": "sum:" + "x" * (LONG - 7) + "<=1",
    "sum-no-bound": "sum:" + "x" * (LONG - 4),
    "sumset-name": "sumset:" + "x" * (LONG - 7),
    "sumset-many-names": "sumset:" + "".join(
        f"q{i:07d}," for i in range(LONG // 9)
    )[: LONG - 7],
    "threshold-text": "sum:f<=" + "z" * (LONG - 7),
    "threshold-number": "sum:f<=" + "1" * (LONG - 7),
    "repeated-name": "sum:" + "b" * (LONG // 2 - 4) + ","
    + "b" * (LONG // 2 - 4) + "<=1",
}


@pytest.mark.parametrize("name", ["car", "hiring_s1"])
@pytest.mark.parametrize("kind", LONG_IDS)
def test_long_ids_are_shortened_in_every_position(kind, name):
    """A million-character id in relevance, substitution and a named
    agenda gives one short problem per position, quickly."""
    bad = LONG_IDS[kind]
    assert len(bad) == LONG
    doc = json.loads(scenario_text(name))
    alan = doc["agents"][0]
    doc["relevance"][alan].append(bad)
    doc["substitution"].append({"agent": alan, "from": bad, "to": bad})
    doc.setdefault("options", {})["extra_agendas"] = {"long": [bad]}
    text = json.dumps(doc)
    start = time.perf_counter()
    with pytest.raises(ValidationError) as err:
        load_scenario(text)
    assert time.perf_counter() - start < 2
    assert len(err.value.problems) == 4
    assert all(len(problem) <= 200 for problem in err.value.problems), [
        problem[:300] for problem in err.value.problems
    ]


def _long_parameter(values):
    def put(doc):
        doc["parameters"].append({
            "name": "p" * LONG, "scale": {"kind": "chain", "values": values},
        })
    return put


def _long_value(key, value=None):
    def put(doc):
        doc[key] = value if value is not None else key[0] * LONG
    return put


LONG_VALUES = {
    # non-numeric labels under car's sum rule
    "parameter-name": _long_parameter(["low", "high"]),
    "parameter-name-bad-scale": _long_parameter(["a", "a"]),
    "influence": _long_value("influence"),
    "winning-rule": _long_value("winning_rule"),
    "option": _long_value("options", {"materialize_cap": "c" * LONG}),
}


@pytest.mark.parametrize("place", LONG_VALUES)
def test_long_values_are_shortened_in_loader_problems(place, tmp_path, capsys):
    """A million-character value anywhere in the document gives short
    problem lines and exit code 1."""
    doc = json.loads(scenario_text("car"))
    LONG_VALUES[place](doc)
    text = json.dumps(doc)
    with pytest.raises(ValidationError) as err:
        load_scenario(text)
    assert err.value.problems
    assert all(len(problem) <= 200 for problem in err.value.problems), [
        problem[:300] for problem in err.value.problems
    ]
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {'; '.join(err.value.problems)}\n"


def _replace(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


# each shape once ended in a raw TypeError or AttributeError
LOADER_SHAPES = {
    "unknown option": (
        ["options"], {"colour": "red"}, "options: unknown key 'colour'"),
    "profile_cap not an integer": (
        ["options"], {"profile_cap": "64"},
        "options: profile_cap needs an integer"),
    "materialize_cap not an integer": (
        ["options"], {"materialize_cap": 2.5},
        "options: materialize_cap needs an integer"),
    "parameter not an object": (
        ["parameters", 1], "p", "parameters: 'p' is not an object"),
    "scale not an object": (
        ["parameters", 1, "scale"], ["0", "1"],
        "parameter p: scale is not an object"),
    "substitution entry not an object": (
        ["substitution", 0], ["alan", "param:p", "param:p"],
        "substitution: ['alan', 'param:p', 'param:p'] is not an object"),
    "influence entry not a list": (
        ["influence"], [7], "influence: bad pair 7"),
    "relevance value not a list": (
        ["relevance", "alan"], 3, "relevance of alan: 3 is not a list"),
    "candidates not an object": (
        ["candidates"], ["John", "Mary"], "candidates: need an object"),
    "unhashable agent name": (
        ["agents"], [["alan"], "betty"],
        "agents: need a nonempty list of unique names"),
}


@pytest.mark.parametrize("shape", LOADER_SHAPES)
def test_malformed_shapes_are_listed(shape):
    path, value, problem = LOADER_SHAPES[shape]
    doc = json.loads(scenario_text("hiring_s1"))
    _replace(doc, path, value)
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert any(p.startswith(problem) for p in err.value.problems), (
        err.value.problems
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(BUNDLED), st.data())
def test_any_field_value_gives_a_report_or_listed_problems(name, data):
    """One top-level field, or one entry of it, replaced by any JSON."""
    doc = json.loads(scenario_text(name))
    key = data.draw(st.sampled_from(sorted(doc)))
    path = [key]
    if doc[key] and isinstance(doc[key], (list, dict)) and data.draw(
        st.booleans()
    ):
        entries = doc[key]
        if isinstance(entries, list):
            entries = range(len(entries))
        path.append(data.draw(st.sampled_from(sorted(entries))))
    _replace(doc, path, data.draw(JSON_VALUES))
    try:
        analyze(load_scenario(json.dumps(doc)))
    except (ValidationError, CapExceeded):
        pass


def test_sumset_sugar_expansion():
    car = load_scenario(scenario_text("car"))
    assert car.relevance["alan"] == (
        "sum:f,p,s<=0", "sum:f,p,s<=1", "sum:f,p,s<=2"
    )
    structure = build_structure(car)
    assert len(structure.lattice.issue_set) == 6


def test_hiring_s1_report():
    report = analyze(load_scenario(scenario_text("hiring_s1")))
    assert report.per_agent["alan"].winner == "John"
    assert report.per_agent["betty"].decision.verdict == ft.NO_DECISION
    assert report.common.winner == "John"
    assert report.distributed.decision.verdict == ft.NO_DECISION
    assert report.aggregate.winner == "John"
    verdicts = sorted(ap.verdict_text() for ap in report.candidate_set)
    assert len(report.candidate_set) == 4
    assert verdicts.count("NoDecision") == 1


def test_hiring_s2_report():
    report = analyze(load_scenario(scenario_text("hiring_s2")))
    assert report.aggregate.winner == "Mary"


def test_betty_variant_report():
    """Give the second agent the philosophy issue too: still no decision
    from her own agenda, nor from the distributed agenda."""
    report = analyze(load_scenario(scenario_text("hiring_betty_variant")))
    assert report.per_agent["betty"].decision.verdict == ft.NO_DECISION
    assert report.distributed.decision.verdict == ft.NO_DECISION
    assert report.per_agent["alan"].winner == "John"


def test_car_report():
    report = analyze(load_scenario(scenario_text("car")))
    assert report.per_agent["alan"].winner == "C1"
    assert report.per_agent["betty"].winner == "C2"
    assert report.common.decision.verdict == ft.TIE
    assert report.distributed.decision.verdict == ft.NO_DECISION
    assert report.aggregate.winner == "C1"
    assert report.named["fuel_only"].winner == "C2"
    assert report.named["all_parameters"].winner == "C1"
    assert report.candidate_set is None


def test_report_round_trip_and_determinism():
    for name in BUNDLED:
        scenario = load_scenario(scenario_text(name))
        report1 = json.dumps(analyze(scenario).to_json(), sort_keys=True)
        reparsed = load_scenario(serialize_scenario(scenario))
        report2 = json.dumps(analyze(reparsed).to_json(), sort_keys=True)
        report3 = json.dumps(analyze(scenario).to_json(), sort_keys=True)
        assert report1 == report2 == report3


def test_document_is_the_parsed_source():
    """Loading expands sumset: ids for the analysis, never in the document."""
    for name in BUNDLED:
        text = scenario_text(name)
        scenario = load_scenario(text)
        assert scenario.document == json.loads(text)
        reparsed = load_scenario(serialize_scenario(scenario))
        assert analyze(reparsed).to_json() == analyze(scenario).to_json()
    car = load_scenario(scenario_text("car"))
    assert car.document["options"]["extra_agendas"] == {
        "fuel_only": ["sumset:f"],
        "all_parameters": ["sumset:f,m,p,s,t"],
    }
    assert car.options.extra_agendas["fuel_only"] == ["sum:f<=0"]
    assert len(car.options.extra_agendas["all_parameters"]) == 5


def test_aggregate_matches_term_evaluation():
    """The reported aggregate equals the evaluated two-sorted term."""
    from agenda_algebra.hetero import HeteroAlgebra
    from agenda_algebra.logic import terms as tm

    for name in ("hiring_s1", "hiring_s2", "car"):
        scenario = load_scenario(scenario_text(name))
        report = analyze(scenario)
        structure = build_structure(scenario)
        algebra = HeteroAlgebra(structure)
        v = {
            "ca": structure.agents.coalition([scenario.agents[0]]),
            "cb": structure.agents.coalition([scenario.agents[1]]),
        }
        term = tm.meet(
            tm.pdra(tm.atom_c("ca"), tm.diamond_c(tm.atom_c("cb"))),
            tm.pdra(tm.atom_c("cb"), tm.diamond_c(tm.atom_c("ca"))),
        )
        value = tm.eval_term(algebra, v, term)
        assert value.partition == report.aggregate.agenda.partition


def test_poset_scale_and_influence_load():
    """A dominance scenario may carry poset-scaled parameters and an
    influence relation, as long as relevance stays on yes/no issues."""
    doc = {
        "agents": ["x", "y"],
        "parameters": [
            {"name": "a", "scale": {"kind": "chain", "values": ["0", "1"]}},
            {"name": "b", "scale": {"kind": "chain", "values": ["0", "1"]}},
            {
                "name": "c",
                "scale": {
                    "kind": "poset",
                    "values": ["0", "u", "1"],
                    "covers": [["0", "u"], ["u", "1"]],
                },
            },
        ],
        "winning_rule": "total_dominance",
        "candidates": {
            "P": {"a": "1", "b": "0", "c": "u"},
            "Q": {"a": "0", "b": "1", "c": "u"},
        },
        "relevance": {"x": ["param:a"], "y": ["param:b"]},
        "influence": [["x", "y"]],
        "substitution": [],
    }
    scenario = load_scenario(json.dumps(doc))
    assert scenario.space.n == 12
    report = analyze(scenario)
    assert report.per_agent["x"].winner == "P"
    assert report.per_agent["y"].winner == "Q"
    # a three-valued projection is not a yes/no issue
    doc["relevance"]["x"] = ["param:c"]
    with pytest.raises(ValidationError):
        analyze(load_scenario(json.dumps(doc)))


def test_report_carries_descriptors_and_blocks():
    report = analyze(load_scenario(scenario_text("hiring_s1")))
    doc = report.to_json()
    for section in ("common_agenda", "distributed_agenda",
                    "substitution_aggregate"):
        assert "descriptor" in doc[section] and "blocks" in doc[section]
    blocks = doc["common_agenda"]["blocks"]
    assert pt.Partition(8, blocks) == pt.Partition(8, blocks)


def test_reported_decisions_recompute():
    """Every appraisal's verdict re-derives from its own agenda."""
    for name in BUNDLED:
        scenario = load_scenario(scenario_text(name))
        report = analyze(scenario)
        first, second = scenario.candidates.values()
        appraisals = [
            *report.per_agent.values(),
            report.common,
            report.distributed,
            report.aggregate,
            *(report.candidate_set or ()),
            *report.named.values(),
        ]
        for ap in appraisals:
            redone = ft.decide(
                scenario.space, scenario.winning_rule, ap.agenda,
                first, second,
            )
            assert redone.verdict == ap.decision.verdict
