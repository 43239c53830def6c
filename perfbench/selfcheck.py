"""Fast self-check of the harness.

Runs every workload at its smallest size, traced (so each request also
runs untraced), with every correctness check on. It fails when a workload
reports a failed operation, when an end-to-end metric is missing or not
positive, or when a per-layer metric named in BENCHMARK.json is zero on
every workload.
"""

from __future__ import annotations

import math

from run import result_line, run_workload


def self_check(spec: dict, seed: int) -> int:
    problems: list[str] = []
    layer_seen: dict[str, float] = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        result = run_workload(name, seed, seconds=0, traced=True, small=True)
        problems += [f"{name}: {message}" for message in result["failures"]]
        for traced in (False, True):
            line = result_line(spec, result, traced)
            for metric, value in line["metrics"].items():
                if not math.isfinite(value["value"]):
                    problems.append(f"{name}: {metric} is not finite")
                if not traced and value["value"] <= 0:
                    problems.append(f"{name}: end-to-end metric {metric} is not positive")
                if traced:
                    layer_seen[metric] = max(layer_seen.get(metric, 0.0), abs(value["value"]))
        print(f"{name}: {result['attempted']} attempted, {result['failed']} failed, "
              f"digest {result['digest'][:16]}")
    problems += [f"per-layer metric {m} is zero on every workload"
                 for m, v in layer_seen.items() if v == 0]
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0
