"""Command-line surface: scenario analysis, lattices, frames, checks.

Exit codes: 0 success, 1 validation error, 2 cap exceeded, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import random
import sys

from . import features as ft
from . import lattice as lt
from . import viz
from .errors import (
    AgendaAlgebraError,
    CapExceeded,
    MalformedScale,
    ParseError,
    SizeCap,
    ValidationError,
    shortened,
)
from .logic import conditions, correspondence, fixtures, frames
from .scenario import analyze, load_scenario

# frames the exhaustive oracle may scan: carriers up to 2 give 65,928,
# carriers up to 3 give more than 2^45
EXHAUSTIVE_CAP = 100_000


def _binary_space(names):
    return ft.build_space([(n, ft.binary(n)) for n in names])


def cmd_analyze(args):
    with open(args.scenario) as fh:
        scenario = load_scenario(fh.read())
    report = analyze(scenario)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return 0


def _names_from_issue_ids(ids):
    names = []
    for issue_id in ids:
        if issue_id.startswith("param:"):
            names.extend(issue_id[len("param:"):].split(","))
        elif issue_id.startswith(("sum:", "sumset:")):
            body = issue_id.split(":", 1)[1].split("<=", 1)[0]
            names.extend(body.split(","))
        else:
            names.append(issue_id)
    return sorted(set(names))


def cmd_lattice(args):
    from .scenario import issue_from_id, parse_issue_id

    if args.params is not None:
        names = args.params.split(",")
        try:
            space = _binary_space(names)
        except MalformedScale as exc:
            raise ValidationError([f"--params: {exc}"]) from exc
        issue_set = lt.projection_issue_set(space, names)
    else:
        raw_ids = args.issues.split(";")
        names = _names_from_issue_ids(raw_ids)
        space = _binary_space(names)
        issues = {}
        problems = []
        for raw in raw_ids:
            try:
                for issue_id in parse_issue_id(raw, space, ft.SUM):
                    if issue_id in issues:
                        problems.append(
                            f"--issues: issue {issue_id!r} is named more"
                            " than once"
                        )
                    else:
                        issues[issue_id] = issue_from_id(issue_id, space)
            except AgendaAlgebraError as exc:
                problems.append(f"--issues: {exc}")
        if problems:
            raise ValidationError(problems)
        issue_set = lt.IssueSet(issues.values())
    lattice = lt.build_lattice(issue_set, cap=args.cap)
    lazy = f"{len(issue_set)} generators, above the cap {args.cap}"
    if args.dot:
        if not lattice.materialized:
            raise CapExceeded(f"--dot needs a materialized lattice: {lazy}")
        print(viz.agenda_lattice_dot(lattice), end="")
        return 0
    if args.json:
        doc = {
            "generators": [i.id for i in issue_set],
            "materialized": lattice.materialized,
        }
        if lattice.materialized:
            doc["size"] = len(lattice.elements)
            doc["elements"] = [a.label() for a in lattice.elements]
            distributive, witness = lattice.is_distributive()
            doc["distributive"] = distributive
            if witness:
                doc["witness"] = [a.label() for a in witness]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"generators: {', '.join(i.id for i in issue_set)}")
    if not lattice.materialized:
        print(f"lattice kept lazy ({lazy})")
        return 0
    print(f"elements: {len(lattice.elements)}")
    for agenda in lattice.elements:
        print(f"  {agenda.label()}")
    distributive, witness = lattice.is_distributive()
    print(f"distributive: {distributive}")
    if witness:
        x, y, z = (a.label() for a in witness)
        print(f"witness: x={x} y={y} z={z}")
    return 0


def cmd_check_correspondence(args):
    reports = []
    problems = []
    if args.random is not None:
        if args.random < 0:
            problems.append(f"--random: need a count >= 0, got {args.random}")
        if args.size < 0:
            problems.append(f"--size: need a size >= 0, got {args.size}")
    elif args.exhaustive < 1:
        problems.append(
            f"--exhaustive: need a carrier bound >= 1, got {args.exhaustive}"
        )
    if problems:
        raise ValidationError(problems)
    if args.random is not None:
        rng = random.Random(args.seed)
        count = args.random
        structures = (
            _random_structure(rng, args.size, args.size)
            for _ in range(count)
        )
    else:
        sizes = [
            (nc, nd)
            for nc in range(1, args.exhaustive + 1)
            for nd in range(1, args.exhaustive + 1)
        ]
        # one frame per choice of I, R and S on the carriers
        count = sum(
            2 ** (nc * nc + nc * nd + nc * nd * nd) for nc, nd in sizes
        )
        if count > EXHAUSTIVE_CAP:
            raise CapExceeded(
                f"--exhaustive {args.exhaustive} covers {count} structures, "
                f"above the cap {EXHAUSTIVE_CAP}"
            )
        structures = itertools.chain.from_iterable(
            conditions.enumerate_structures(nc, nd) for nc, nd in sizes
        )
    bad = 0
    for frame in structures:
        for rep in correspondence.all_pairs_agree(frame):
            if not rep.agree:
                bad += 1
                reports.append((frame, rep))
    doc = {
        "structures": count,
        "pair_checks": count * len(correspondence.PAIR_IDS),
        "disagreements": bad,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"checked {doc['pair_checks']} condition/axiom pairs on "
            f"{doc['structures']} structures: {bad} disagreements"
        )
        for frame, rep in reports[:5]:
            print(f"  {rep.pair}: fo={rep.fo} axiom={rep.axiom} on {frame}")
    return 0 if bad == 0 else 3


def _random_structure(rng, nc, nd):
    agents = tuple(f"j{k}" for k in range(nc))
    issues = tuple(f"m{k}" for k in range(nd))
    def pick(pool, p=0.3):
        return frozenset(x for x in pool if rng.random() < p)

    return frames.RelationalStructure(
        C=agents,
        D=issues,
        I=pick([(a, b) for a in agents for b in agents]),
        R=pick([(m, j) for m in issues for j in agents]),
        S=pick([(n, j, m) for n in issues for j in agents for m in issues]),
    )


def cmd_frames(args):
    fixture = fixtures.gt_fixture(args.fixture)
    doc = {"case": fixture.case, "kind": fixture.kind,
           "condition": fixture.condition}
    verdicts = {}
    if fixture.f1 is not None:
        verdicts["f1"] = conditions.check_condition(
            fixture.f1, fixture.condition
        )
    verdicts["f2"] = conditions.check_condition(fixture.f2, fixture.condition)
    if fixture.kind == fixtures.UNION:
        union = frames.disjoint_union(fixture.f1, fixture.f2)
        verdicts["union"] = conditions.check_condition(
            union, fixture.condition
        )
        equiv = correspondence.bounded_modal_equivalence(fixture.f1, union)
    elif fixture.f1 is not None:
        report = frames.check_forth_morphism(
            fixture.maps, fixture.f1, fixture.f2
        )
        doc["morphism"] = {
            "surjective": report.surjective,
            "forth_I": report.forth_I,
            "forth_R": report.forth_R,
            "forth_S": report.forth_S,
        }
        equiv = correspondence.bounded_modal_equivalence(fixture.f1, fixture.f2)
    else:
        equiv = None
    doc["verdicts"] = verdicts
    if equiv is not None:
        doc["bounded_equivalence"] = {
            "agree": equiv.agree,
            "sequents": equiv.sequents_checked,
        }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"case {fixture.case} ({fixture.kind}): {fixture.condition}")
        for key, value in verdicts.items():
            print(f"  {key} satisfies the condition: {value}")
        if "morphism" in doc:
            print(f"  morphism checks: {doc['morphism']}")
        if equiv is not None:
            print(f"  bounded modal equivalence: {equiv}")
    return 0


def cmd_decompose(args):
    with open(args.scenario) as fh:
        scenario = load_scenario(fh.read())
    names = args.set.split(",")
    problems = []
    for name, count in collections.Counter(names).items():
        if count > 1:
            problems.append(
                f"--set: parameter {shortened(name)!r} is named {count} times"
            )
        try:
            ft.achievable_sums(scenario.space, [name])
        except AgendaAlgebraError as exc:
            problems.append(f"--set: {exc}")
    if problems:
        raise ValidationError(problems)
    ok = ft.sum_decomposition_check(scenario.space, names)
    sums = ft.achievable_sums(scenario.space, names)
    doc = {
        "set": sorted(names),
        "thresholds": [str(k) for k in sums[:-1]],
        "meet_equals_sum_agenda": ok,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"set {{{','.join(sorted(names))}}}: thresholds at "
            f"{', '.join(doc['thresholds'])}; decomposition holds: {ok}"
        )
    return 0 if ok else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="agenda-algebra",
        description="deliberation agendas over partition lattices",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run a scenario end to end")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lattice", help="materialize an agenda lattice")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--params", help="comma-separated binary parameters")
    group.add_argument("--issues", help="semicolon-separated issue ids")
    p.add_argument("--dot", action="store_true", help="emit a DOT diagram")
    p.add_argument("--cap", type=int, default=lt.MATERIALIZE_CAP)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser(
        "check-correspondence",
        help="first-order conditions vs axioms on frames",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", type=int, metavar="N",
                       help="all structures with carriers up to N")
    group.add_argument("--random", type=int, metavar="K",
                       help="K random structures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=3,
                   help="carrier size for random structures")
    p.set_defaults(func=cmd_check_correspondence)

    p = sub.add_parser("frames", help="non-definability fixtures")
    p.add_argument("--fixture", type=int, required=True, choices=range(1, 9))
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("decompose", help="threshold decomposition of a sum agenda")
    p.add_argument("--scenario", required=True)
    p.add_argument("--set", required=True, help="comma-separated parameters")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapExceeded, SizeCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AgendaAlgebraError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
