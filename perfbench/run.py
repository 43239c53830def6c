#!/usr/bin/env python3
"""reptrace benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --ladder [--rungs 3x3x10,10x5x40,20x10x80]

Run from the root of a checkout; the program is imported from ``src/``.
The metric names, units and run length come from ``BENCHMARK.json``.

One run sets the workload up ``SETUP_REPEATS`` times, derives its request
list and expected outputs once (untimed), then cycles through that list
until ``--seconds`` seconds have been spent inside requests (always at
least one full pass), checking every output. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` each
request runs twice, untraced and then with the layer wrappers installed,
and the run prints the per-layer metrics and the tracing overhead. The
last line of standard output is the result object; the line before it
carries the output digest, the machine reference time, the ungated
``op_p50_ms`` and ``ops_per_s`` and the workload-specific figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Seed used when none is given; claims must also hold on HELDOUT_SEED.
DEFAULT_SEED = 1
HELDOUT_SEED = 9176
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Failure messages echoed to stderr per run.
MAX_REPORTED_FAILURES = 5


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import reptrace
    from there, never from anywhere else."""
    package = SRC / "reptrace"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import reptrace

    if Path(reptrace.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: reptrace imported from {reptrace.__file__}, not {package}")


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine_ref_ms(repeats: int = 10) -> list[float]:
    """Times of a fixed pure-Python loop that never touches the program: a
    gauge of how fast the machine ran while a workload was measured."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append((perf_counter() - t0) * 1000.0)
    return times


def layer_metrics(aggregate: dict, ops: int, requests: int) -> dict[str, float]:
    """Per-layer figures, per measured op unless named otherwise."""
    spans, counters = aggregate["spans"], aggregate["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total_ms(name):
        return spans.get(name, (0, 0.0, 0.0))[1] * 1000.0

    def self_ms(name):
        return spans.get(name, (0, 0.0, 0.0))[2] * 1000.0

    def ratio(a, b):
        return a / b if b else 0.0

    fire, travos = calls("fire.assess"), calls("travos.assess")
    return {
        "scenario.validate_calls": calls("scenario.validate") / ops,
        "scenario.validate_ms": total_ms("scenario.validate") / ops,
        "simulate.run_ms": total_ms("simulate.run") / ops,
        "simulate.interactions": counters.get("simulate.interactions", 0) / ops,
        "simulate.rating_records": counters.get("simulate.rating_records", 0) / ops,
        "simulate.observation_records": counters.get("simulate.observation_records", 0) / ops,
        "store.query_calls": calls("store.query") / ops,
        "store.query_ms": total_ms("store.query") / ops,
        "store.rows_per_query": ratio(counters.get("store.rows", 0), calls("store.query")),
        "store.size_at_query": ratio(counters.get("store.size", 0), calls("store.query")),
        "store.insert_calls": calls("store.insert") / ops,
        "store.insert_ms": total_ms("store.insert") / ops,
        "fire.assess_calls": fire / ops,
        "fire.assess_self_ms": self_ms("fire.assess") / ops,
        "travos.assess_calls": travos / ops,
        "travos.assess_self_ms": self_ms("travos.assess") / ops,
        "travos.witnesses_consulted": ratio(counters.get("travos.witnesses_consulted", 0), travos),
        "travos.low_confidence_terms": ratio(counters.get("travos.low_confidence_terms", 0), travos),
        "pipeline.assessments_per_request": (fire + travos) / requests,
        "pipeline.output_doc_ms": total_ms("pipeline.output_doc") / ops,
        "pipeline.to_document_ms": total_ms("pipeline.to_document") / ops,
        "pipeline.from_document_ms": total_ms("pipeline.from_document") / ops,
        "pipeline.dump_ms": total_ms("pipeline.dump") / ops,
        "pipeline.json_parse_ms": total_ms("pipeline.json_parse") / ops,
        "explain.self_ms": self_ms("explain.explain") / ops,
        "explain.tradeoff_ms": total_ms("explain.tradeoff") / ops,
        "explain.tradeoff_calls": calls("explain.tradeoff") / ops,
        "explain.permutation_ms": total_ms("explain.permutation") / ops,
        "explain.arguments_per_explanation": ratio(
            counters.get("explain.arguments", 0), calls("explain.explain")
        ),
        "render.render_ms": total_ms("render.render") / ops,
    }


def measure(workload, seconds: float, traced: bool) -> dict:
    """Set up, run the closed loop, check outputs; return every figure."""
    from tracing import Instrumentation, Tracer, merge
    from workloads import ms, percentile

    reference = machine_ref_ms()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    workload.prepare()
    gc.collect()  # no request pays to collect what the set-ups left behind

    failures: list[str] = []
    attempted = failed = 0
    if traced:
        tracer = Tracer()
        workload.instrumentation = Instrumentation(tracer)

    requests = workload.requests
    n = len(requests)
    first_outputs: list = [None] * n
    digest_parts = ["<failed>"] * n
    latencies: list[float] = []
    pairs: list[tuple[float, float]] = []
    busy = 0.0  # time spent inside requests; checks do not count
    i = 0
    # At least one full pass; stop early once the run cannot be correct.
    while (i < n or busy < seconds) and failed <= n:
        request = requests[i % n]
        attempted += 1
        problems: list[str] = []
        output = None
        t0 = perf_counter()
        try:
            output = workload.run(request)
            elapsed = perf_counter() - t0
            if traced:
                traced_output = workload.run_traced(request)
                pairs.append((elapsed, perf_counter() - t0 - elapsed))
                if traced_output != output:
                    problems.append(f"{request[0]}: traced output differs from untraced output")
        except Exception as exc:  # a failed request is counted, the loop goes on
            problems.append(f"{request[0]}: {type(exc).__name__}: {exc}")
            output = None
        busy += perf_counter() - t0
        if output is not None:
            latencies.append(elapsed)
            if i < n:
                problems += workload.check(request, output)
                first_outputs[i] = output
                digest_parts[i] = workload.digest_part(request, output)
            elif output != first_outputs[i % n]:
                problems.append(f"{request[0]}: repeated request gave a different output")
        if problems:
            failed += 1
            failures += problems
        i += 1

    reference += machine_ref_ms()
    result = {
        "machine_ref_ms": statistics.median(reference),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": hashlib.sha256("\x00".join(digest_parts).encode()).hexdigest(),
        "digest_outputs": n,
        "ops": len(latencies),
        "details": {},
    }
    if latencies:
        result["end_to_end"] = {
            "setup_s": statistics.median(setups),
            "op_p90_ms": ms(percentile(latencies, 90)),
            "peak_rss_mb": peak_rss_mb(children=workload.rss_from_children),
        }
        # Reported but not gated: on a shared host the median and the mean
        # follow the share of the run the host spent slow (see README.md).
        result["details"] = {
            "op_p50_ms": (ms(percentile(latencies, 50)), "ms"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            **workload.details(latencies),
        }
    if traced:
        workload.probe()
        aggregate = tracer.aggregate()
        merge(aggregate, workload.layer_extra)
        ops = max(1, len(pairs))
        layers = layer_metrics(aggregate, ops, ops * workload.requests_per_op)
        layers.update(workload.layer_values)
        base = sum(p[0] for p in pairs)
        layers["trace.overhead_pct"] = 100.0 * (sum(p[1] for p in pairs) - base) / base if base else 0.0
        result["per_layer"] = layers
        # The instrumentation itself counts as one checked operation: every
        # wrapper target must resolve and every required counter must move.
        problems = [f"wrapper target not found: {m}" for m in workload.instrumentation.missing]
        problems += [f"per-layer metric {name} recorded nothing"
                     for name in workload.required if not layers.get(name)]
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            failures += problems
    return result


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def result_line(spec: dict, result: dict, traced: bool) -> dict:
    """The result object: exactly the metrics BENCHMARK.json names.

    A per-layer metric of a layer the workload never reaches reads 0; an
    end-to-end metric is always measured."""
    key = "per_layer" if traced else "end_to_end"
    values = result.get(key, {})
    metrics = {}
    for entry in spec[key]:
        value = values.get(entry["name"], 0.0 if traced else None)
        if value is None:
            raise SystemExit(f"perfbench: metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, small: bool = False) -> dict:
    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return measure(WORKLOADS[name](seed, small, workdir), seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_run(spec: dict, name: str, seed: int, result: dict, traced: bool) -> None:
    for message in result["failures"][:MAX_REPORTED_FAILURES]:
        print(f"perfbench: {name}: {message}", file=sys.stderr)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "ops": result["ops"],
        "machine_ref_ms": result["machine_ref_ms"],
        "digest": result["digest"],
        "digest_outputs": result["digest_outputs"],
        "details": {k: {"value": v, "unit": u} for k, (v, u) in result["details"].items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result_line(spec, result, traced)))


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload untraced and traced, one subprocess at a time so each
    reports its own peak RSS; prints one table. The traced run's
    ``trace.overhead_pct`` is its tracing overhead."""
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = {}
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={traced}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                break
            runs[traced] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
            sys.stderr.write(proc.stderr)
        if len(runs) < 2:
            continue
        (detail, plain), (traced_detail, layered) = runs[0], runs[1]
        ok = ok and plain["correct"] and layered["correct"]
        print(f"== {name}  seed {seed}  correct={plain['correct'] and layered['correct']}  "
              f"attempted={plain['attempted']}+{layered['attempted']}  "
              f"failed={plain['failed']}+{layered['failed']}")
        print(f"   digest {detail['digest']} over {detail['digest_outputs']} outputs"
              f"{'' if detail['digest'] == traced_detail['digest'] else '  (traced run differs!)'}")
        for metric, entry in list(plain["metrics"].items()) + list(detail["details"].items()):
            print(f"   {metric:<36} {entry['value']:>14.4f} {entry['unit']}")
        for metric, entry in layered["metrics"].items():
            if entry["value"]:  # layers the workload never reaches read 0
                print(f"   {metric:<36} {entry['value']:>14.4f} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="every workload at its smallest size, traced, all checks on")
    parser.add_argument("--ladder", action="store_true", help="one-shot per-layer ladder report")
    parser.add_argument("--rungs", default="3x3x10,10x5x40,20x10x80",
                        help="ladder rungs as AxPxR, comma-separated")
    args = parser.parse_args(argv)

    spec = load_spec()
    load_program()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.ladder:
        from ladder import ladder_report

        print(json.dumps(ladder_report(args.rungs, args.seed), indent=2))
        return 0
    if args.self_check:
        from selfcheck import self_check

        return self_check(spec, args.seed)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(spec, args.seed, seconds)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or 'all'")
    traced = bool(args.trace)
    result = run_workload(args.workload, args.seed, seconds, traced)
    print_run(spec, args.workload, args.seed, result, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
