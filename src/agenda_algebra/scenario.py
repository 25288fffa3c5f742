"""Scenario ingestion and end-to-end deliberation analysis.

A scenario document declares agents, scored parameters, a winning rule,
two named candidate profiles, and the three relations (relevance,
influence, substitution) over canonical issue ids:

    param:<name>                     projection issue of one parameter
    sum:<names><=<k>                 threshold issue over a parameter set
    sumset:<names>                   sugar: every threshold over the set

Names inside an id are comma-sorted; <k> is an exact rational.  Under the
total-dominance rule a bare parameter name is accepted as sugar for its
param: issue.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import features as ft
from . import hetero as ht
from . import lattice as lt
from . import partitions as pt
from .coalitions import AgentSet, InfluenceRelation
from .errors import (
    AgendaAlgebraError,
    CapExceeded,
    DegenerateThreshold,
    NotInLattice,
    ParseError,
    UnknownParameter,
    ValidationError,
    shortened,
)


# The longest rational literal a document may give, as a threshold, a
# scale label or a numeric value: at most this many characters before any
# exponent, and an exponent at most this large.  Fraction's time and
# memory grow with 10**exponent, and a canonical id must print its
# threshold, which Python refuses past 4300 digits.
LITERAL_CAP = 1000

_RATIONAL_SHAPE = re.compile(
    r"\s*[-+]?(?P<mantissa>[\d_]*(?:\.[\d_]*)?(?:/[\d_]*)?)"
    r"(?:[eE](?P<exponent>[-+]?[\d_]*))?\s*"
)


def _oversized(text):
    """Is text shaped as a rational literal, but past LITERAL_CAP?"""
    shape = _RATIONAL_SHAPE.fullmatch(text)
    if shape is None:
        return False
    exponent = (shape["exponent"] or "").replace("_", "").lstrip("+-0")
    return (
        len(shape["mantissa"]) > LITERAL_CAP
        or len(exponent) > len(str(LITERAL_CAP))
        or int(exponent or 0) > LITERAL_CAP
    )


def _oversized_problem(text):
    return (
        f"number {shortened(text)!r} has more than {LITERAL_CAP} digits or an"
        f" exponent past {LITERAL_CAP}"
    )


@dataclass
class ScenarioOptions:
    materialize_cap: int = lt.MATERIALIZE_CAP
    profile_cap: int = ft.PROFILE_CAP
    extra_agendas: dict = field(default_factory=dict)


@dataclass
class Scenario:
    agents: tuple
    space: ft.FeatureSpace
    winning_rule: str
    candidates: dict            # name -> profile id, insertion-ordered
    relevance: dict             # agent -> tuple of issue ids
    influence: tuple            # (from, to) pairs
    substitution: tuple         # (agent, from id, to id) triples
    options: ScenarioOptions
    document: dict              # normalized source document


def _parse_rational(text, problems, where):
    text = str(text)
    if _oversized(text):
        problems.append(f"{where}: {_oversized_problem(text)}")
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        problems.append(f"{where}: {shortened(repr(text))} is not a rational")
        return None


def _distinct(names, issue_id):
    """The parameter names of an id, refused when one repeats."""
    seen = set()
    for name in names:
        if name in seen:
            raise UnknownParameter(
                f"issue id {shortened(issue_id)!r} repeats parameter"
                f" {shortened(name)!r}"
            )
        seen.add(name)
    return names


def parse_issue_id(issue_id, space, rule):
    """Expand one issue-id string into canonical ids (sumset may fan out)."""
    if issue_id.startswith("param:"):
        name = issue_id[len("param:"):]
        if name not in space.names:
            raise UnknownParameter(f"unknown parameter {shortened(name)!r}")
        return [f"param:{name}"]
    if issue_id.startswith("sumset:"):
        names = _distinct(issue_id[len("sumset:"):].split(","), issue_id)
        sums = ft.achievable_sums(space, names)
        canon = ",".join(sorted(names))
        return [f"sum:{canon}<={k}" for k in sums[:-1]]
    if issue_id.startswith("sum:"):
        body = issue_id[len("sum:"):]
        if "<=" not in body:
            raise UnknownParameter(
                f"malformed issue id {shortened(issue_id)!r}"
            )
        names_part, k_part = body.split("<=", 1)
        names = _distinct(names_part.split(","), issue_id)
        if _oversized(k_part):
            raise UnknownParameter(
                f"threshold in issue id: {_oversized_problem(k_part)}"
            )
        try:
            k = Fraction(k_part)
        except (ValueError, ZeroDivisionError):
            raise UnknownParameter(
                f"malformed threshold {shortened(k_part)!r} in issue id"
                f" {shortened(issue_id)!r}"
            ) from None
        canon = ",".join(sorted(names))
        space._param_positions(names)
        return [f"sum:{canon}<={k}"]
    if rule == ft.TOTAL_DOMINANCE and issue_id in space.names:
        return [f"param:{issue_id}"]
    raise UnknownParameter(f"malformed issue id {shortened(issue_id)!r}")


def issue_from_id(issue_id, space):
    """Build the issue agenda named by a canonical id."""
    if issue_id.startswith("param:"):
        name = issue_id[len("param:"):]
        return lt.Issue(issue_id, ft.projection_agenda(space, [name]))
    body = issue_id[len("sum:"):]
    names_part, k_part = body.split("<=", 1)
    agenda = ft.threshold_issue(
        space, names_part.split(","), Fraction(k_part)
    )
    return lt.Issue(issue_id, agenda)


def _field(doc, key, kind, problems, shape):
    """doc[key] if it is a list or dict as asked; missing or empty: empty."""
    value = doc.get(key) or kind()
    if isinstance(value, kind):
        return value
    problems.append(f"{key}: need {shape}, got {shortened(repr(value))}")
    return kind()


def _is_label(value):
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _parse_scale(spec, problems):
    """The scale one parameter entry declares, or None with its problem."""
    if not isinstance(spec, dict):
        problems.append(
            f"parameters: {shortened(repr(spec))} is not an object"
        )
        return None
    name = spec.get("name", "?")
    if not isinstance(name, str):
        problems.append(
            f"parameters: name {shortened(repr(name))} is not a string"
        )
        return None
    where = f"parameter {shortened(name)}"
    scale_doc = spec.get("scale") or {}
    if not isinstance(scale_doc, dict):
        problems.append(f"{where}: scale is not an object")
        return None
    values = scale_doc.get("values") or []
    covers = scale_doc.get("covers") or []
    numeric_doc = scale_doc.get("numeric") or {}
    if not (isinstance(values, list) and all(map(_is_label, values))):
        problems.append(f"{where}: values need a list of labels")
        return None
    oversized = [v for v in values if isinstance(v, str) and _oversized(v)]
    for label in oversized:
        problems.append(f"{where}: {_oversized_problem(label)}")
    if oversized:
        return None
    if not (isinstance(covers, list) and all(
        isinstance(c, list) and len(c) == 2 and all(map(_is_label, c))
        for c in covers
    )):
        problems.append(f"{where}: covers need a list of label pairs")
        return None
    if not isinstance(numeric_doc, dict):
        problems.append(f"{where}: numeric needs an object")
        return None
    numeric = None
    if numeric_doc:
        numeric = {}
        for label, raw in numeric_doc.items():
            k = _parse_rational(raw, problems, f"{where} numeric")
            if k is not None:
                numeric[label] = k
    try:
        return ft.Scale(
            name, tuple(values), scale_doc.get("kind", "chain"),
            tuple(map(tuple, covers)), numeric,
        )
    except AgendaAlgebraError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _parse_options(doc, problems):
    """The options object: known keys only, integer caps."""
    options = ScenarioOptions()
    raw = _field(doc, "options", dict, problems, "an object")
    for key, value in raw.items():
        if key == "extra_agendas":
            value = value or {}
            if isinstance(value, dict) and all(
                isinstance(ids, list) for ids in value.values()
            ):
                options.extra_agendas = value
            else:
                problems.append(
                    "options: extra_agendas needs an object of issue-id lists"
                )
        elif key not in ("materialize_cap", "profile_cap"):
            problems.append(f"options: unknown key {shortened(repr(key))}")
        elif not isinstance(value, int) or isinstance(value, bool):
            problems.append(
                f"options: {key} needs an integer,"
                f" got {shortened(repr(value))}"
            )
        elif value > getattr(ScenarioOptions, key):
            # a document may lower a cap, never raise it past memory
            problems.append(
                f"options: {key} {shortened(str(value))} is above the"
                f" built-in cap {getattr(ScenarioOptions, key)}"
            )
        else:
            setattr(options, key, value)
    return options


def load_scenario(text):
    """Parse and fully validate a scenario document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # a decode error, or an integer past Python's 4300-digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(["the document must be a JSON object"])
    problems = []

    agents = doc.get("agents") or []
    if not (
        isinstance(agents, list)
        and agents
        and all(isinstance(a, str) for a in agents)
        and len(set(agents)) == len(agents)
    ):
        problems.append("agents: need a nonempty list of unique names")

    rule = doc.get("winning_rule")
    if rule not in (ft.TOTAL_DOMINANCE, ft.SUM):
        problems.append(f"winning_rule: unknown rule {shortened(repr(rule))}")
        rule = ft.TOTAL_DOMINANCE

    scales = []
    for spec in _field(doc, "parameters", list, problems, "a list of objects"):
        scale = _parse_scale(spec, problems)
        if scale is not None:
            scales.append((scale.name, scale))
    if not scales:
        problems.append("parameters: need at least one")
    if rule == ft.SUM:
        for name, scale in scales:
            if not scale.is_sum_ready():
                problems.append(
                    f"parameter {shortened(name)}: the sum rule needs"
                    " rational chains"
                )
    options = _parse_options(doc, problems)
    if problems:
        raise ValidationError(problems)

    try:
        space = ft.build_space(scales, cap=options.profile_cap)
    except CapExceeded:
        raise
    except AgendaAlgebraError as exc:
        raise ValidationError([str(exc)])

    raw_candidates = _field(
        doc, "candidates", dict, problems, "an object of two named profiles"
    )
    candidates = {}
    for cname, assignment in raw_candidates.items():
        if not isinstance(assignment, dict):
            problems.append(f"candidate {cname}: not an object")
            continue
        try:
            candidates[cname] = space.profile_id(assignment)
        except AgendaAlgebraError as exc:
            problems.append(f"candidate {cname}: {exc}")
    if len(raw_candidates) != 2:
        problems.append("candidates: exactly two named profiles are needed")

    def expand(issue_id, where):
        try:
            return parse_issue_id(str(issue_id), space, rule)
        except AgendaAlgebraError as exc:
            problems.append(f"{where}: {exc}")
            return []

    relevance = {}
    raw_relevance = _field(
        doc, "relevance", dict, problems, "an object of issue-id lists"
    )
    for agent, ids in raw_relevance.items():
        if agent not in agents:
            problems.append(
                f"relevance: unknown agent {shortened(repr(agent))}"
            )
            continue
        if not isinstance(ids, list):
            problems.append(
                f"relevance of {shortened(agent)}:"
                f" {shortened(repr(ids))} is not a list"
            )
            continue
        out = []
        for issue_id in ids:
            out.extend(expand(issue_id, f"relevance of {agent}"))
        relevance[agent] = tuple(dict.fromkeys(out))

    influence = []
    for pair in _field(doc, "influence", list, problems, "a list of pairs"):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(a not in agents for a in pair)
        ):
            problems.append(f"influence: bad pair {shortened(repr(pair))}")
        else:
            influence.append(tuple(pair))

    substitution = []
    raw_substitution = _field(
        doc, "substitution", list, problems, "a list of objects"
    )
    for triple in raw_substitution:
        if not isinstance(triple, dict):
            problems.append(
                f"substitution: {shortened(repr(triple))} is not an object"
            )
            continue
        agent = triple.get("agent")
        if agent not in agents:
            problems.append(
                f"substitution: unknown agent {shortened(repr(agent))}"
            )
            continue
        src = expand(triple.get("from", ""), "substitution from")
        dst = expand(triple.get("to", ""), "substitution to")
        for s in src:
            for d in dst:
                substitution.append((agent, s, d))

    # a fresh dict: the parsed source keeps its own ids as written
    extra_agendas = {}
    for name, ids in options.extra_agendas.items():
        where = f"named agenda {shortened(name)}"
        flat = []
        for issue_id in ids:
            flat.extend(expand(issue_id, where))
        if rule == ft.SUM and flat and all(
            issue_id.startswith("param:") for issue_id in flat
        ):
            # their meet is a projection, which the sum rule cannot decide
            problems.append(
                f"{where}: only param: issues, and projection agendas need"
                " the total-dominance rule"
            )
        extra_agendas[name] = flat
    options.extra_agendas = extra_agendas

    if problems:
        raise ValidationError(problems)
    return Scenario(
        agents=tuple(agents),
        space=space,
        winning_rule=rule,
        candidates=candidates,
        relevance=relevance,
        influence=tuple(influence),
        substitution=tuple(substitution),
        options=options,
        document=doc,
    )


def serialize_scenario(scenario):
    """Canonical JSON text for a scenario (reparses to the same analysis)."""
    return json.dumps(scenario.document, indent=2, sort_keys=True)


def build_structure(scenario):
    """Assemble the heterogeneous structure of a scenario.

    The issue universe is exactly the set of issues named by the
    relevance and substitution relations.
    """
    space = scenario.space
    ids = []
    for ids_for_agent in scenario.relevance.values():
        ids.extend(ids_for_agent)
    for _, src, dst in scenario.substitution:
        ids.extend((src, dst))
    ids = list(dict.fromkeys(ids))
    if not ids:
        raise ValidationError(
            ["the scenario names no issues in relevance or substitution"]
        )
    try:
        issue_set = lt.IssueSet([issue_from_id(i, space) for i in ids])
    except (DegenerateThreshold, NotInLattice) as exc:
        # non-binary projections are not yes/no questions on this space
        raise ValidationError([str(exc)])
    lattice = lt.build_lattice(issue_set, cap=scenario.options.materialize_cap)
    agent_set = AgentSet(scenario.agents)
    relevance = ht.RelevanceRelation(
        [
            (issue_id, agent)
            for agent, ids_for_agent in scenario.relevance.items()
            for issue_id in ids_for_agent
        ]
    )
    substitution = ht.SubstitutionRelation(
        [(dst, agent, src) for agent, src, dst in scenario.substitution]
    )
    influence = InfluenceRelation(agent_set, scenario.influence)
    return ht.HeteroStructure(
        agent_set, lattice, influence, relevance, substitution
    )


@dataclass(frozen=True)
class Appraisal:
    """An agenda together with its verdict on the candidate pair."""

    agenda: ft.Agenda
    decision: ft.Decision
    winner: str | None

    def to_json(self):
        doc = self.agenda.to_json()
        doc["verdict"] = self.decision.verdict
        doc["winner"] = self.winner
        return doc

    def verdict_text(self):
        if self.winner:
            return f"prefers {self.winner}"
        return self.decision.verdict


@dataclass
class DeliberationReport:
    candidates: tuple
    per_agent: dict
    common: Appraisal
    distributed: Appraisal
    aggregate: Appraisal
    candidate_set: list | None
    named: dict

    def to_json(self):
        return {
            "candidates": list(self.candidates),
            "agents": {a: ap.to_json() for a, ap in self.per_agent.items()},
            "common_agenda": self.common.to_json(),
            "distributed_agenda": self.distributed.to_json(),
            "substitution_aggregate": self.aggregate.to_json(),
            "candidate_set": (
                None
                if self.candidate_set is None
                else [ap.to_json() for ap in self.candidate_set]
            ),
            "named_agendas": {
                name: ap.to_json() for name, ap in self.named.items()
            },
        }

    def to_text(self):
        first, second = self.candidates
        lines = [f"candidates: {first} vs {second}"]
        for agent, ap in self.per_agent.items():
            lines.append(
                f"  agent {agent}: {ap.agenda.label()} -> {ap.verdict_text()}"
            )
        lines.append(
            f"  common agenda: {self.common.agenda.label()}"
            f" -> {self.common.verdict_text()}"
        )
        lines.append(
            f"  distributed agenda: {self.distributed.agenda.label()}"
            f" -> {self.distributed.verdict_text()}"
        )
        lines.append(
            f"  substitution aggregate: {self.aggregate.agenda.label()}"
            f" -> {self.aggregate.verdict_text()}"
        )
        if self.candidate_set is not None:
            lines.append("  one-step coarsening candidates:")
            for ap in self.candidate_set:
                lines.append(
                    f"    {ap.agenda.label()} -> {ap.verdict_text()}"
                )
        for name, ap in self.named.items():
            lines.append(
                f"  named agenda {name}: {ap.agenda.label()}"
                f" -> {ap.verdict_text()}"
            )
        return "\n".join(lines)


def analyze(scenario):
    """Full deliberation analysis of a two-candidate scenario."""
    space = scenario.space
    rule = scenario.winning_rule
    (first_name, first), (second_name, second) = scenario.candidates.items()

    def appraise(agenda):
        decision = ft.decide(space, rule, agenda, first, second)
        winner = None
        if decision.verdict == ft.PREFERS_FIRST:
            winner = first_name
        elif decision.verdict == ft.PREFERS_SECOND:
            winner = second_name
        return Appraisal(agenda, decision, winner)

    structure = build_structure(scenario)
    algebra = ht.HeteroAlgebra(structure)
    agents = structure.agents
    everyone = agents.everyone()
    per_agent = {
        agent: appraise(structure.agent_agenda(agent))
        for agent in scenario.agents
    }
    common = appraise(algebra.diamond(everyone))
    distributed = appraise(algebra.rhd(everyone))
    # each receiver's transform of every other agent's own agenda, met
    aggregate = structure.lattice.top
    for receiver in scenario.agents:
        for owner in scenario.agents:
            if receiver != owner:
                own = algebra.diamond(agents.coalition([owner]))
                piece = algebra.pdra(agents.coalition([receiver]), own)
                aggregate = algebra.ia_meet(aggregate, piece)
    aggregate = appraise(aggregate)

    candidate_set = None
    if rule == ft.TOTAL_DOMINANCE:
        agent_params = {}
        for agent in scenario.agents:
            params = [
                issue_id[len("param:"):]
                for issue_id in scenario.relevance.get(agent, ())
                if issue_id.startswith("param:")
            ]
            if params:
                agent_params[agent] = params
        if len(agent_params) >= 2:
            candidate_set = [
                appraise(a) for a in lt.candidate_set_C(space, agent_params)
            ]

    named = {}
    for name, ids in sorted(scenario.options.extra_agendas.items()):
        issues = [issue_from_id(i, space).agenda for i in ids]
        if issues:
            named[name] = appraise(ft.meet_agendas(*issues))
        else:
            named[name] = appraise(
                ft.Agenda(
                    pt.Partition.single_block(space.n), ft.MeetOfIssues(())
                )
            )

    return DeliberationReport(
        candidates=(first_name, second_name),
        per_agent=per_agent,
        common=common,
        distributed=distributed,
        aggregate=aggregate,
        candidate_set=candidate_set,
        named=named,
    )
