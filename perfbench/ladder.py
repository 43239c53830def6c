"""One-shot ladder report: per-layer times across scenario sizes.

Not part of the gated runs. It reproduces the columns of the ROADMAP
baseline table for each rung (agents x providers x rounds, complete
witness topology, demo provider models), plus CLI start-up costs and the
environment the numbers were taken on. The 40x10x100 rung takes several
minutes; ask for it explicitly with ``--rungs``.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
from time import perf_counter

from workloads import (
    ROOT,
    cli_startup_ms,
    explain_mod,
    interaction_ratings,
    pipeline,
    scenario_document,
    scenario_mod,
    simulate,
)

#: Repeats of the cheap per-assessor steps; their median is reported.
REPEATS = 5


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _timed(fn):
    t0 = perf_counter()
    value = fn()
    return perf_counter() - t0, value


def _median_s(fn) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(REPEATS))


def rung(agents: int, providers: int, rounds: int, seed: int) -> dict:
    scenario = scenario_mod.scenario_from_document(scenario_document(agents, providers, rounds, seed))
    sim_s, world = _timed(lambda: pipeline.world_from_simulation(simulate.run_scenario(scenario)))
    write_s, text = _timed(lambda: pipeline.dump_document(pipeline.world_to_document(world)))
    load_s, _ = _timed(lambda: pipeline.world_from_document(json.loads(text)))
    assessor = world.agents[0].id
    ranked = pipeline.rank(world, explain_mod.Model.FIRE, assessor)
    best, worst = ranked[0].assessment.target, ranked[-1].assessment.target
    return {
        "rung": f"{agents}x{providers}x{rounds}",
        "rating_records": sum(len(s) for s in world.rating_stores.values()),
        "interaction_ratings": interaction_ratings(world),
        "simulate_s": sim_s,
        "fire_rank_s": _median_s(lambda: pipeline.rank(world, explain_mod.Model.FIRE, assessor)),
        "travos_rank_s": _median_s(lambda: pipeline.rank(world, explain_mod.Model.TRAVOS, assessor)),
        "explain_s": _median_s(
            lambda: pipeline.explain_pair(world, explain_mod.Model.FIRE, assessor, best, worst)
        ),
        "write_doc_s": write_s,
        "load_doc_s": load_s,
        "doc_mb": len(text.encode()) / 1e6,
    }


def ladder_report(rungs: str, seed: int) -> dict:
    sizes = [tuple(int(x) for x in r.split("x")) for r in rungs.split(",")]
    versions = {}
    for package in ("numpy", "scipy", "jsonschema"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "versions": versions,
        "seed": seed,
        "cli": cli_startup_ms(),
        "rungs": [rung(*size, seed) for size in sizes],
    }
