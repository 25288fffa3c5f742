"""Seeded inputs, requests and answer checks for the four workloads.

Each workload turns a seed into benchmark-side inputs (JSON text, scale
lists, relation tuples), builds its fixed program inputs in ``setup``,
and hands out requests one *round* at a time.  A round has a fixed mix
of request kinds whose cost does not depend on the seed; the seed only
picks the data inside each request and the order within the round.  The
runner always finishes the round it started, so every run measures whole
rounds and its latency percentiles fall inside request kinds, not
between them.

Every answer is checked against a reference that the benchmark computes
from the labels itself, or against a file committed under ``expected/``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from agenda_algebra import features as ft
from agenda_algebra import hetero as ht
from agenda_algebra import lattice as lt
from agenda_algebra import partitions as pt
from agenda_algebra import scenario as sc
from agenda_algebra.logic import conditions as cn
from agenda_algebra.logic import correspondence as co
from agenda_algebra.logic import frames as fr
from agenda_algebra.logic import terms as tm
from agenda_algebra.logic.fixtures import UNION, gt_fixture
from agenda_algebra.scenarios import scenario_text

EXPECTED = Path(__file__).resolve().parent / "expected"

PREFERS_FIRST = "PrefersFirst"
PREFERS_SECOND = "PrefersSecond"
TIE = "Tie"
NO_DECISION = "NoDecision"


class WrongAnswer(Exception):
    """A request returned an answer that disagrees with the reference."""


def require(condition, message):
    if not condition:
        raise WrongAnswer(message)


@dataclass
class Request:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check`` raises WrongAnswer or returns a canonical digest of the
    output, which the traced run compares with the untraced replay.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], object]


def dominance_verdict(first, second):
    """Verdict of coordinatewise comparison of two score vectors."""
    ge = all(a >= b for a, b in zip(first, second))
    le = all(a <= b for a, b in zip(first, second))
    if ge and le:
        return TIE
    if ge:
        return PREFERS_FIRST
    if le:
        return PREFERS_SECOND
    return NO_DECISION


def round_rng(seed, workload, index):
    return random.Random(f"{workload}:{seed}:{index}")


# -- analyze ---------------------------------------------------------------

AGENTS = ("alan", "betty")
BUNDLED = ("hiring_s1", "hiring_s2", "hiring_betty_variant", "car")

# Verdicts pinned by acceptance criteria 1 and 2, checked against the
# committed reports so that a regenerated reference cannot drift.
PINNED = {
    "hiring_s1": {
        ("agents", "alan", "winner"): "John",
        ("agents", "betty", "verdict"): NO_DECISION,
        ("common_agenda", "winner"): "John",
        ("distributed_agenda", "verdict"): NO_DECISION,
        ("substitution_aggregate", "winner"): "John",
    },
    "hiring_s2": {("substitution_aggregate", "winner"): "Mary"},
    "car": {
        ("agents", "alan", "winner"): "C1",
        ("agents", "betty", "winner"): "C2",
        ("named_agendas", "fuel_only", "winner"): "C2",
        ("named_agendas", "all_parameters", "winner"): "C1",
        ("common_agenda", "verdict"): TIE,
        ("distributed_agenda", "verdict"): NO_DECISION,
        ("substitution_aggregate", "winner"): "C1",
    },
}
HIRING_S1_COARSENINGS = ["John", "John", "Mary", None]


def load_expected_reports():
    reports = {}
    for name in BUNDLED:
        doc = json.loads((EXPECTED / f"{name}.json").read_text())
        for path, value in PINNED.get(name, {}).items():
            node = doc
            for key in path:
                node = node[key]
            if node != value:
                raise RuntimeError(
                    f"expected/{name}.json contradicts the pinned verdict "
                    f"{'.'.join(path)} = {value!r}"
                )
        reports[name] = doc
    winners = sorted(
        (ap["winner"] for ap in reports["hiring_s1"]["candidate_set"]),
        key=str,
    )
    if winners != sorted(HIRING_S1_COARSENINGS, key=str):
        raise RuntimeError("expected/hiring_s1.json coarsening verdicts drifted")
    return reports


def synthetic_document(rng, n_params, rule):
    """A two-agent document over binary parameters, three issues per agent.

    Under dominance the agents share exactly one parameter, as in the
    hiring case; under the sum rule their sets are disjoint.  Every
    substitution entry names one of their issues, so the issue universe
    and the lattice size depend only on ``n_params`` and ``rule``, never
    on the seed.
    """
    names = [f"x{i:02d}" for i in range(n_params)]
    if rule == ft.TOTAL_DOMINANCE:
        chosen = rng.sample(names, 5)
        shared = chosen[0]
        params = {
            "alan": sorted(chosen[1:3] + [shared]),
            "betty": sorted(chosen[3:] + [shared]),
        }
    else:
        chosen = rng.sample(names, 6)
        params = {"alan": sorted(chosen[:3]), "betty": sorted(chosen[3:])}
    first = {x: rng.choice("01") for x in names}
    second = {x: rng.choice("01") for x in names}
    if rule == ft.TOTAL_DOMINANCE:
        issues = {a: [f"param:{x}" for x in ps] for a, ps in params.items()}
        relevance = issues
    else:
        issues = {
            a: [f"sum:{','.join(ps)}<={k}" for k in (0, 1, 2)]
            for a, ps in params.items()
        }
        relevance = {a: [f"sumset:{','.join(ps)}"] for a, ps in params.items()}
    every_issue = issues["alan"] + issues["betty"]
    substitution = []
    for _ in range(3):
        agent = rng.choice(AGENTS)
        substitution.append({
            "agent": agent,
            "from": rng.choice(every_issue),
            "to": rng.choice(issues[agent]),
        })
    doc = {
        "agents": list(AGENTS),
        "parameters": [
            {"name": x, "scale": {"kind": "chain", "values": ["0", "1"]}}
            for x in names
        ],
        "winning_rule": rule,
        "candidates": {"P1": first, "P2": second},
        "relevance": relevance,
        "influence": [rng.sample(AGENTS, 2)],
        "substitution": substitution,
    }
    return json.dumps(doc), params, first, second


def synthetic_verdicts(rule, params, first, second):
    """Per-agent and distributed verdicts recomputed from the labels."""
    def scores(assignment, names):
        values = [Fraction(assignment[x]) for x in names]
        return values if rule == ft.TOTAL_DOMINANCE else [sum(values)]

    out = {}
    for agent, names in params.items():
        out[agent] = dominance_verdict(
            scores(first, names), scores(second, names)
        )
    # the distributed agenda meets both agendas: compare every component
    # (a parameter shared under dominance repeats, which changes nothing)
    out["distributed"] = dominance_verdict(
        scores(first, params["alan"]) + scores(first, params["betty"]),
        scores(second, params["alan"]) + scores(second, params["betty"]),
    )
    return out


def analyze_request(text):
    return sc.analyze(sc.load_scenario(text)).to_json()


def json_digest(doc):
    return json.dumps(doc, sort_keys=True)


class Analyze:
    """The CLI's main use case: load_scenario -> analyze -> to_json."""

    name = "analyze"
    tail_percentile = 80
    # n_params, rule, copies per round.  Four cheap 8-parameter dominance
    # documents put the median well inside one request kind and p80
    # inside the 8-parameter sum documents, away from kinds of similar
    # latency.
    SYNTHETIC = (
        (8, ft.TOTAL_DOMINANCE, 4),
        (8, ft.SUM, 1),
        (10, ft.TOTAL_DOMINANCE, 1),
        (10, ft.SUM, 1),
    )

    def __init__(self, seed):
        self.seed = seed

    def generate(self):
        self.expected = load_expected_reports()
        self.texts = {name: scenario_text(name) for name in BUNDLED}

    def setup(self):
        """Nothing to build: every request parses its own document."""

    def round(self, index):
        rng = round_rng(self.seed, self.name, index)
        requests = [self._bundled(name) for name in BUNDLED]
        for n_params, rule, copies in self.SYNTHETIC:
            for _ in range(copies):
                requests.append(self._synthetic(rng, n_params, rule))
        rng.shuffle(requests)
        return requests

    def _bundled(self, name):
        text, expected = self.texts[name], self.expected[name]

        def check(out):
            require(out == expected, f"{name}: report differs from expected")
            return json_digest(out)

        return Request(f"bundled/{name}", lambda: analyze_request(text), check)

    def _synthetic(self, rng, n_params, rule):
        text, params, first, second = synthetic_document(rng, n_params, rule)
        want = synthetic_verdicts(rule, params, first, second)
        winners = {PREFERS_FIRST: "P1", PREFERS_SECOND: "P2"}

        def check(out):
            got = {a: out["agents"][a] for a in AGENTS}
            got["distributed"] = out["distributed_agenda"]
            for key, verdict in want.items():
                require(
                    got[key]["verdict"] == verdict
                    and got[key]["winner"] == winners.get(verdict),
                    f"synthetic {rule}/{n_params}: {key} gave "
                    f"{got[key]['verdict']}, expected {verdict}",
                )
            return json_digest(out)

        kind = f"synthetic/{rule}/{n_params}"
        return Request(kind, lambda: analyze_request(text), check)


# -- profiles ----------------------------------------------------------------

HALVES = ("0", "1/2", "1")
POSET_VALUES = ("bot", "a", "b", "top")
POSET_COVERS = (("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"))
POSET_LEQ = {(x, x) for x in POSET_VALUES} | set(POSET_COVERS) | {
    ("bot", "top")
}


def binary_params(prefix, count):
    return [(f"{prefix}{i:02d}", ("0", "1")) for i in range(count)]


# name -> parameter list (name, labels); "q" is the one poset scale
SPACES = {
    "b10": binary_params("x", 10),
    "b12": binary_params("x", 12),
    "h7": [(f"y{i}", HALVES) for i in range(7)],
    "poset": [("q", POSET_VALUES)] + binary_params("x", 8),
}


class SpaceReference:
    """Benchmark-side view of a space: labels and doubled integer scores.

    Profile ids enumerate value tuples with the first parameter varying
    slowest, as the program documents; scores are twice the rational
    label so that halves stay integers.
    """

    def __init__(self, params):
        self.params = params
        self.names = [name for name, _ in params]
        sizes = [len(labels) for _, labels in params]
        self.grid = np.indices(sizes).reshape(len(sizes), -1).T
        self.n = self.grid.shape[0]

    def doubled(self, names):
        total = np.zeros(self.n, dtype=np.int64)
        for name in names:
            k = self.names.index(name)
            labels = self.params[k][1]
            values = np.array([int(Fraction(x) * 2) for x in labels])
            total += values[self.grid[:, k]]
        return total

    def achievable(self, names):
        labels = [self.params[self.names.index(x)][1] for x in names]
        return sorted({
            sum(Fraction(v) for v in combo)
            for combo in itertools.product(*labels)
        })


def program_scale(name, labels):
    if name == "q":
        return ft.poset(name, labels, POSET_COVERS)
    return ft.chain(name, labels)


def sum_of(assignment, names):
    return sum(Fraction(assignment[x]) for x in names)


def poset_leq(a, b):
    return (a, b) in POSET_LEQ


def projection_verdict(first, second, names):
    """Dominance on the named parameters, read from the labels."""
    def below(x, y):
        return all(
            poset_leq(x[n], y[n]) if n == "q" else Fraction(x[n]) <= Fraction(y[n])
            for n in names
        )

    up, down = below(second, first), below(first, second)
    if up and down:
        return TIE
    if up:
        return PREFERS_FIRST
    if down:
        return PREFERS_SECOND
    return NO_DECISION


class Profiles:
    """The features layer: decide, thresholds, decomposition, preorders."""

    name = "profiles"
    tail_percentile = 80

    def __init__(self, seed):
        self.seed = seed

    def generate(self):
        self.refs = {key: SpaceReference(ps) for key, ps in SPACES.items()}

    def setup(self):
        self.spaces = {
            key: ft.build_space([(n, program_scale(n, ls)) for n, ls in ps])
            for key, ps in SPACES.items()
        }

    def round(self, index):
        rng = round_rng(self.seed, self.name, index)
        requests = [
            self._decide_projection(rng, "b12"),
            self._decide_projection(rng, "b10"),
            self._decide_projection(rng, "poset"),
            self._decide_threshold(rng, "b12"),
            self._decide_threshold(rng, "h7"),
            self._decide_sum(rng, "b10"),
            self._decide_meet(rng, "h7"),
            self._decompose(rng, "h7"),
            self._thresholds(rng, "b12"),
            self._thresholds(rng, "h7"),
            self._preorder_sum(rng, "b10"),
        ]
        rng.shuffle(requests)
        return requests

    # inputs

    def _names(self, rng, key, count=3):
        ref = self.refs[key]
        pool = [n for n in ref.names if n != "q"]
        return sorted(rng.sample(pool, count))

    def _pair(self, rng, key):
        params = SPACES[key]
        return tuple(
            {name: rng.choice(labels) for name, labels in params}
            for _ in range(2)
        )

    def _threshold(self, rng, key, names):
        return rng.choice(self.refs[key].achievable(names)[:-1])

    # requests

    def _decide_request(self, kind, key, rule, make_agenda, first, second,
                        want):
        def run():
            space = self.spaces[key]
            p1, p2 = space.profile_id(first), space.profile_id(second)
            return ft.decide(space, rule, make_agenda(space), p1, p2).verdict

        def check(verdict):
            require(verdict == want, f"{kind}: {verdict}, expected {want}")
            return verdict

        return Request(kind, run, check)

    def _decide_projection(self, rng, key):
        names = self._names(rng, key, 2 if key == "poset" else 3)
        if key == "poset":
            names = ["q"] + names
        first, second = self._pair(rng, key)
        return self._decide_request(
            f"decide/projection/{key}", key, ft.TOTAL_DOMINANCE,
            lambda space: ft.projection_agenda(space, names), first, second,
            projection_verdict(first, second, names),
        )

    def _decide_threshold(self, rng, key):
        names = self._names(rng, key)
        k = self._threshold(rng, key, names)
        first, second = self._pair(rng, key)
        want = dominance_verdict(
            [sum_of(first, names) > k], [sum_of(second, names) > k]
        )
        return self._decide_request(
            f"decide/threshold/{key}", key, ft.SUM,
            lambda space: ft.threshold_issue(space, names, k), first, second,
            want,
        )

    def _decide_sum(self, rng, key):
        names = self._names(rng, key)
        first, second = self._pair(rng, key)
        want = dominance_verdict(
            [sum_of(first, names)], [sum_of(second, names)]
        )
        return self._decide_request(
            f"decide/sum/{key}", key, ft.SUM,
            lambda space: ft.sum_agenda(space, names), first, second, want,
        )

    def _decide_meet(self, rng, key):
        """Meet of two thresholds over disjoint sets, decided by dominance.

        On disjoint sets the quotient of dominance orders the four cells
        componentwise by which side of each threshold they are on.
        """
        picked = self._names(rng, key, 6)
        rng.shuffle(picked)
        sets = [sorted(picked[:3]), sorted(picked[3:])]
        ks = [self._threshold(rng, key, names) for names in sets]
        first, second = self._pair(rng, key)
        want = dominance_verdict(
            [sum_of(first, s) > k for s, k in zip(sets, ks)],
            [sum_of(second, s) > k for s, k in zip(sets, ks)],
        )

        def agenda(space):
            return ft.meet_agendas(*(
                ft.threshold_issue(space, s, k) for s, k in zip(sets, ks)
            ))

        return self._decide_request(
            f"decide/meet/{key}", key, ft.SUM, agenda, first, second, want,
        )

    def _decompose(self, rng, key):
        names = self._names(rng, key)
        want = self.refs[key].achievable(names)

        def run():
            space = self.spaces[key]
            return (
                ft.sum_decomposition_check(space, names),
                ft.achievable_sums(space, names),
            )

        def check(out):
            holds, sums = out
            require(holds is True, f"decompose {names}: decomposition fails")
            require(sums == want, f"decompose {names}: sums {sums}")
            return holds, tuple(sums)

        return Request(f"decompose/{key}", run, check)

    def _thresholds(self, rng, key):
        names = self._names(rng, key)
        ref = self.refs[key]
        ks = ref.achievable(names)[:-1]
        doubled = ref.doubled(names)

        def run():
            return ft.threshold_issues_for(self.spaces[key], names)

        def check(agendas):
            require(len(agendas) == len(ks), f"thresholds {names}: count")
            digest = []
            for agenda, k in zip(agendas, ks):
                low = np.flatnonzero(doubled <= 2 * k)
                part = agenda.partition
                require(
                    agenda.descriptor.k == k
                    and len(part.blocks) == 2
                    and np.array_equal(np.array(part.blocks[0]), low),
                    f"thresholds {names}: wrong issue at {k}",
                )
                digest.append((str(k), len(low)))
            return tuple(digest)

        return Request(f"thresholds/{key}", run, check)

    def _preorder_sum(self, rng, key):
        names = self._names(rng, key)
        doubled = self.refs[key].doubled(names)

        def run():
            return ft.rule_preorder(self.spaces[key], ft.SUM, names)

        def check(pre):
            want = doubled[:, None] <= doubled[None, :]
            require(
                np.array_equal(pre.holds, want),
                f"rule_preorder(SUM) {names}: wrong relation",
            )
            return int(pre.holds.sum())

        return Request(f"rule_preorder/sum/{key}", run, check)


# -- algebra -----------------------------------------------------------------

FIXTURE_CASES = (1, 2, 4, 5, 6, 7, 8)
# Depth 2 takes 2-7 s per fixture pair, too long for one request of a
# run; depth 1 already splits every pair (tau |- diamondC(top) or
# pdra(top,q1) |- eqless(top,q1)).
EQUIVALENCE_DEPTH = 1
LATTICE_QUERIES = ("is_distributive", "covers", "issues_meet_prime",
                   "is_complemented")


def describe(value):
    """Stable text for a lattice element or coalition in a digest."""
    if hasattr(value, "label"):
        return value.label()
    if hasattr(value, "members"):
        return ",".join(value.members())
    return repr(value)


class Algebra:
    """Read-side queries on built lattices, structures and frame pairs."""

    name = "algebra"
    tail_percentile = 95

    def __init__(self, seed):
        self.seed = seed

    def generate(self):
        self.expected = json.loads((EXPECTED / "algebra.json").read_text())
        self.texts = {
            "hiring": scenario_text("hiring_s1"),
            "car": scenario_text("car"),
        }

    def setup(self):
        self.lattices = {}
        for k in (3, 4):
            names = [f"x{i}" for i in range(k)]
            space = ft.build_space([(n, ft.binary(n)) for n in names])
            self.lattices[f"proj{k}"] = lt.build_lattice(
                lt.projection_issue_set(space, names)
            )
        # the non-distributive lattice of acceptance criterion 7
        space = ft.build_space([(n, ft.binary(n)) for n in ("x", "y")])
        thresholds = [(["x"], 0), (["y"], 0), (["x", "y"], 0), (["x", "y"], 1)]
        self.lattices["sum2"] = lt.build_lattice(lt.IssueSet([
            lt.Issue(
                f"sum:{','.join(names)}<={k}",
                ft.threshold_issue(space, names, k),
            )
            for names, k in thresholds
        ]))
        self.structures = {
            key: sc.build_structure(sc.load_scenario(text))
            for key, text in self.texts.items()
        }
        self.frame_pairs = {}
        for case in FIXTURE_CASES:
            fixture = gt_fixture(case)
            target = fixture.f2
            if fixture.kind == UNION:
                target = fr.disjoint_union(fixture.f1, fixture.f2)
            self.frame_pairs[case] = (fixture.f1, target)

    def round(self, index):
        rng = round_rng(self.seed, self.name, index)
        requests = [
            self._lattice_query(query, key)
            for query in LATTICE_QUERIES
            for key in self.lattices
        ]
        for key in self.structures:
            for flat in (False, True):
                for axiom in co.PAIR_IDS:
                    requests.append(self._validity(key, flat, axiom))
        requests.extend(self._operators(key) for key in self.structures)
        requests.extend(self._equivalence(case) for case in FIXTURE_CASES)
        rng.shuffle(requests)
        return requests

    def _lattice_query(self, query, key):
        lattice = self.lattices[key]
        k = {"proj3": 3, "proj4": 4}.get(key)

        def run():
            return getattr(lattice, query)()

        def check(out):
            if query == "is_distributive":
                distributive, witness = out
                if k:
                    require(distributive and witness is None,
                            f"{key}: projection lattice not distributive")
                    return True, None
                require(not distributive, f"{key}: should not be distributive")
                x, y, z = witness
                lhs = pt.meet(x.partition, lattice.d_join([y, z]).partition)
                rhs = lattice.d_join([
                    ft.Agenda(pt.meet(x.partition, y.partition)),
                    ft.Agenda(pt.meet(x.partition, z.partition)),
                ]).partition
                require(lhs != rhs, f"{key}: witness does not violate the law")
                return False, tuple(describe(e) for e in witness)
            if query == "covers":
                if k:
                    require(len(lattice.elements) == 2 ** k,
                            f"{key}: {len(lattice.elements)} elements")
                    want = k * 2 ** (k - 1)
                else:
                    want = self.expected["covers"][key]
                require(len(out) == want, f"{key}: {len(out)} covers")
                return tuple((describe(a), describe(b)) for a, b in out)
            want = True if k else self.expected[query][key]
            require(out == want, f"{key}: {query} gave {out}")
            return out

        return Request(f"{query}/{key}", run, check)

    def _validity(self, key, flat, axiom):
        structure = self.structures[key]
        mode = "flat" if flat else "full"
        checker = tm.check_flat_validity if flat else tm.check_validity
        want = self.expected["validity"][key][mode][axiom]

        def run():
            return checker(ht.HeteroAlgebra(structure), co.PAIRS[axiom])

        def check(result):
            require(result.valid == want,
                    f"{mode} validity of {axiom} on {key}: {result.valid}")
            counter = result.counterexample or {}
            return result.valid, tuple(
                (atom, describe(v)) for atom, v in sorted(counter.items())
            )

        return Request(f"validity/{mode}/{key}", run, check)

    def _operators(self, key):
        """Every heterogeneous operator at every argument, fresh cache.

        The residuals and the binary operators scan the lattice for each
        argument, so they run on hiring's 8 elements only; on car's 64
        they would take seconds.
        """
        structure = self.structures[key]
        scans = key == "hiring"

        def run():
            alg = ht.HeteroAlgebra(structure)
            elements = alg.all_ia()
            out = []
            for c in alg.all_c():
                out += [alg.diamond(c), alg.rhd(c)]
                for e in elements:
                    out += [alg.pdra(c, e), alg.br(c, e)]
                    if scans:
                        out += [alg.eqless(c, e), alg.triangle(c, e)]
            if scans:
                for e1 in elements:
                    out.append(alg.blacksquare(e1))
                    for e2 in elements:
                        out += [alg.star(e1, e2), alg.brB(e1, e2)]
            return out

        def check(out):
            labels = [describe(v) for v in out]
            require(labels == self.expected["operators"][key],
                    f"operators on {key} differ from expected")
            return tuple(labels)

        return Request(f"operators/{key}", run, check)

    def _equivalence(self, case):
        f1, f2 = self.frame_pairs[case]

        def run():
            return co.bounded_modal_equivalence(
                f1, f2, depth=EQUIVALENCE_DEPTH
            )

        def check(report):
            require(not report.agree, f"fixture {case}: frames agree")
            return report.sequents_checked, repr(report.first_disagreement[0])

        return Request("bounded_equivalence", run, check)


# -- oracle ------------------------------------------------------------------

RANDOM_FRAMES = 64
RANDOM_DENSITY = 0.3
# per round: frames drawn from the exhaustive pool, then random (3,3) frames
POOL_PER_ROUND = 90
RANDOM_PER_ROUND = 10


def random_relations(rng, size, density):
    agents = tuple(f"j{k}" for k in range(size))
    issues = tuple(f"m{k}" for k in range(size))

    def pick(pool):
        return [x for x in pool if rng.random() < density]

    return {
        "C": agents,
        "D": issues,
        "I": pick([(a, b) for a in agents for b in agents]),
        "R": pick([(m, j) for m in issues for j in agents]),
        "S": pick([(n, j, m) for n in issues for j in agents for m in issues]),
    }


class Oracle:
    """The correspondence oracle: all eleven pairs on one frame per request."""

    name = "oracle"
    tail_percentile = 99

    def __init__(self, seed):
        self.seed = seed

    def generate(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        self.random_docs = [
            random_relations(rng, 3, RANDOM_DENSITY)
            for _ in range(RANDOM_FRAMES)
        ]

    def setup(self):
        self.pool = [
            frame
            for nc in (1, 2)
            for nd in (1, 2)
            for frame in cn.enumerate_structures(nc, nd)
        ]
        self.random_frames = [
            fr.RelationalStructure(
                C=d["C"], D=d["D"], I=frozenset(d["I"]), R=frozenset(d["R"]),
                S=frozenset(d["S"]),
            )
            for d in self.random_docs
        ]

    def round(self, index):
        rng = round_rng(self.seed, self.name, index)
        frames = [
            ("pool", self.pool[rng.randrange(len(self.pool))])
            for _ in range(POOL_PER_ROUND)
        ]
        start = index * RANDOM_PER_ROUND
        frames.extend(
            ("random3", self.random_frames[(start + i) % RANDOM_FRAMES])
            for i in range(RANDOM_PER_ROUND)
        )
        rng.shuffle(frames)
        return [self._request(kind, frame) for kind, frame in frames]

    def _request(self, kind, frame):
        def run():
            return co.all_pairs_agree(frame)

        def check(reports):
            require(len(reports) == len(co.PAIR_IDS), "missing pair reports")
            for report in reports:
                require(report.agree, f"pair {report.pair} disagrees")
            return tuple((r.fo, r.axiom) for r in reports)

        return Request(f"all_pairs_agree/{kind}", run, check)


WORKLOADS = {cls.name: cls for cls in (Analyze, Profiles, Algebra, Oracle)}
