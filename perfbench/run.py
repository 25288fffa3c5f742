#!/usr/bin/env python3
"""Benchmark of agenda_algebra: four seeded, closed-loop workloads.

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One client sends one request at a time in one process and one thread
(closed loop, zero think time).  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it times the calls into each
layer, replays the same requests untraced to check that the outputs are
equal, and prints the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people, and the full record of
each run is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("analyze", "profiles", "algebra", "oracle")
# fresh processes per run whose set-up times give the median setup_s
SETUP_SAMPLES = 3
# a run, all its processes included, must end within this many seconds
RUN_DEADLINE_S = 170
PERCENTILE_LADDER = (50, 75, 80, 90, 95, 99, 99.9)
MIN_BEYOND_TAIL = 10
# spans kept in memory in a traced run before it stops starting rounds
SPAN_CAP = 2_000_000
# share of --seconds spent on traced requests; the untraced replay of
# the same requests fills most of the rest
TRACED_SHARE = 0.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run inside a measured child process
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- statistics ----------------------------------------------------------


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile and how many samples lie beyond it."""
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(pct / 100 * n)))
    return sorted_values[rank - 1], n - rank


def tail(sorted_values, highest):
    """The highest ladder percentile up to ``highest`` with enough beyond.

    Each workload fixes ``highest`` so that runs at today's speed have
    more than ten samples beyond it; a run with fewer steps down the
    ladder and says so, rather than reporting a percentile set by a
    handful of samples.
    """
    ladder = [p for p in PERCENTILE_LADDER if p <= highest]
    for pct in reversed(ladder):
        value, beyond = nearest_rank(sorted_values, pct)
        if beyond >= MIN_BEYOND_TAIL:
            return pct, value, beyond
    value, beyond = nearest_rank(sorted_values, ladder[0])
    return ladder[0], value, beyond


# -- child process -------------------------------------------------------


def execute(workloads, request, run=None):
    """Run one request, then check it untimed.

    ``run`` replaces ``request.run`` in a traced run, to open the request
    span around the request alone.  Returns (latency, error text or None,
    digest).
    """
    run = run or request.run
    start = time.perf_counter()
    try:
        output = run()
    except Exception as exc:  # a failed request is counted, not fatal
        return time.perf_counter() - start, f"raised {exc!r}", None
    latency = time.perf_counter() - start
    try:
        return latency, None, request.check(output)
    except workloads.WrongAnswer as exc:
        return latency, f"wrong answer: {exc}", None


def run_rounds(workloads, workload, seconds, tracer=None):
    """Whole rounds until the time inside requests reaches ``seconds``.

    Records are (kind, latency, error).  A traced run also keeps each
    request and its output digest for the replay; an untraced run does
    not, so that its own records do not swell the memory it reports.
    """
    records = []
    busy = 0.0
    index = 0
    while busy < seconds and not (tracer and tracer.full):
        for request in workload.round(index):
            if tracer is None:
                latency, error, _ = execute(workloads, request)
                records.append((request.kind, latency, error))
            else:
                latency, error, digest = execute(
                    workloads, request,
                    lambda: tracer.call("bench.request", request.run,
                                        request=len(records)),
                )
                records.append((request.kind, latency, error,
                                request, digest))
            busy += latency
        index += 1
    return records, index


def summarize(records, workload):
    latencies = sorted(r[1] for r in records)
    errors = [f"{r[0]}: {r[2]}" for r in records if r[2] is not None]
    busy = sum(latencies)
    pct, tail_value, beyond = tail(latencies, workload.tail_percentile)
    kinds = {}
    for kind, latency, _ in records:
        kinds.setdefault(kind, []).append(latency)
    return {
        "attempted": len(records),
        "failed": len(errors),
        "errors": errors[:5],
        "busy_s": busy,
        "throughput_rps": len(records) / busy,
        "latency_p50_ms": nearest_rank(latencies, 50)[0] * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "percentiles_ms": {
            str(p): nearest_rank(latencies, p)[0] * 1e3
            for p in PERCENTILE_LADDER
        },
        "kinds": {
            kind: {"n": len(v), "median_ms": statistics.median(v) * 1e3}
            for kind, v in sorted(kinds.items())
        },
    }


def child_main(args):
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads

    import agenda_algebra

    if Path(agenda_algebra.__file__).resolve().parent != SRC / "agenda_algebra":
        raise SystemExit(f"imported agenda_algebra from {agenda_algebra.__file__}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    gen_start = time.monotonic()
    workload.generate()
    generate_s = time.monotonic() - gen_start

    tracer = None
    if args.trace and args.child == "run":
        import tracing

        tracer = tracing.Tracer(SPAN_CAP)
        tracer.install()
        tracer.call("bench.setup", workload.setup)
    else:
        workload.setup()
    setup_s = time.monotonic() - args.spawned_at - generate_s
    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.child == "run" and not args.trace:
        records, rounds = run_rounds(workloads, workload, args.seconds)
        result.update(summarize(records, workload), rounds=rounds)
    elif args.child == "run":
        result.update(traced_run(args, workloads, workload, tracer))
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(result), flush=True)
    return 0


def traced_run(args, workloads, workload, tracer):
    """Traced rounds, then the same requests untraced; spans to a file."""
    import numpy as np
    import tracing

    traced, rounds = run_rounds(
        workloads, workload, args.seconds * TRACED_SHARE, tracer
    )
    tracer.uninstall()
    replay = [execute(workloads, r[3]) for r in traced]
    mismatched = [
        kind
        for (kind, _, error, _, digest), (_, replay_error, replay_digest)
        in zip(traced, replay)
        if error or replay_error or digest != replay_digest
    ]
    traced_s = sum(r[1] for r in traced)
    untraced_s = sum(r[0] for r in replay)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.dump(path)
    with np.load(path) as spans:
        metrics = tracing.derive(spans, traced_s / untraced_s - 1)
        span_count = int(spans["name"].size)
    return {
        "attempted": len(traced),
        "failed": len(mismatched),
        "errors": [f"{k}: traced and untraced outputs differ or fail"
                   for k in mismatched[:5]],
        "rounds": rounds,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans": span_count,
        "span_file": str(path.relative_to(ROOT)),
        "per_layer": metrics,
    }


# -- parent process --------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
    }


def spawn(args, workload, mode, deadline):
    """Run one child to completion; returns its result dict."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another process")
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", mode, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spawned-at", repr(spawned_at),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise TimeoutError(f"{workload} {mode} ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(args, workload, deadline):
    """Set-up samples plus one measured run of one workload."""
    setups = [
        spawn(args, workload, "setup", deadline)["setup_s"]
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
    ]
    result = spawn(args, workload, "run", deadline)
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def end_to_end_metrics(result):
    return {
        "throughput_rps": {"value": result["throughput_rps"], "unit": "1/s"},
        "latency_p50_ms": {"value": result["latency_p50_ms"], "unit": "ms"},
        "latency_tail_ms": {"value": result["latency_tail_ms"], "unit": "ms"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer_metrics(result):
    import tracing

    values = result["per_layer"]
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in tracing.per_layer_spec()
    }


def report(workload, result, trace):
    """Human-readable lines for one workload."""
    print(f"== {workload}")
    failed_frac = result["failed"] / result["attempted"]
    if trace:
        print(f"  traced {result['attempted']} requests in {result['rounds']} "
              f"rounds, {result['spans']} spans -> {result['span_file']}")
        print(f"  traced {result['traced_s']:.3f} s, untraced replay "
              f"{result['untraced_s']:.3f} s, overhead "
              f"{result['per_layer']['trace.overhead_frac']:.1%}")
        print(f"  outputs equal to the untraced replay: "
              f"{result['failed'] == 0}")
    else:
        metrics = end_to_end_metrics(result)
        for name, m in metrics.items():
            print(f"  {name:16s} {m['value']:12.4f} {m['unit']}")
        print(f"  {'failed_frac':16s} {failed_frac:12.4f} "
              f"({result['failed']} of {result['attempted']})")
        print(f"  tail is p{result['tail_percentile']} of "
              f"{result['attempted']} samples ({result['tail_beyond']} beyond); "
              f"{result['rounds']} rounds; setup samples "
              f"{[round(s, 4) for s in result['setup_samples_s']]}")
    for error in result["errors"]:
        print(f"  FAILED {error}")


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "agenda_algebra" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(args, name, deadline)
    except (TimeoutError, RuntimeError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    env["numpy"] = next(iter(results.values()))["numpy"]
    print(json.dumps({"env": env}))
    metrics = {}
    for name, result in results.items():
        report(name, result, args.trace)
        own = (per_layer_metrics(result) if args.trace
               else end_to_end_metrics(result))
        prefix = "" if len(results) == 1 else f"{name}."
        metrics.update((prefix + k, v) for k, v in own.items())
        OUT.mkdir(exist_ok=True)
        record = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(
            {"env": env, "args": vars(args), "result": result}, indent=1
        ))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
