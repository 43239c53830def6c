"""The benchmark's four workloads.

Each workload is a closed loop: one client, one request at a time, no
threads. Its inputs come from the seed alone. Scenario rosters reuse the
three provider models of the demo scenario (``swift``, ``steady``,
``bargain``) cyclically under fresh ids, with the ``complete`` witness
topology.

A workload builds a fixed, seeded list of requests in ``setup``; the
measuring loop in ``run.py`` cycles through it. ``run`` is the timed call
and returns the request's output as text; ``check`` inspects that output
outside the timed region and returns a list of failures.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as _now

import jsonschema

from tracing import merge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = Path(__file__).resolve().parent
DEMO_SCENARIO = ROOT / "demos" / "delivery_scenario.json"

core = importlib.import_module("reptrace.core")
explain_mod = importlib.import_module("reptrace.explain")
pipeline = importlib.import_module("reptrace.pipeline")
render = importlib.import_module("reptrace.render")
scenario_mod = importlib.import_module("reptrace.scenario")
simulate = importlib.import_module("reptrace.simulate")
travos = importlib.import_module("reptrace.travos")

#: A subprocess that takes longer than this is counted as failed.
CLI_TIMEOUT_S = 120


def ms(seconds: float) -> float:
    return seconds * 1000.0


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Schemas:
    """Validates documents against the shipped schemas, independently of
    the program's own validation path. Validators are built once."""

    def __init__(self):
        self._validators = {}

    def errors(self, doc: dict, name: str) -> list[str]:
        validator = self._validators.get(name)
        if validator is None:
            path = SRC / "reptrace" / "schemas" / f"{name}.schema.json"
            schema = json.loads(path.read_text(encoding="utf-8"))
            validator = jsonschema.validators.validator_for(schema)(schema)
            self._validators[name] = validator
        error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
        return [] if error is None else [f"{name} document invalid: {error.message}"]


def scenario_document(agents: int, providers: int, rounds: int, seed: int) -> dict:
    """A scenario with the demo's settings and provider models, resized."""
    doc = json.loads(DEMO_SCENARIO.read_text(encoding="utf-8"))
    models = doc["providers"]
    doc["seed"] = seed
    doc["rounds"] = rounds
    doc["agents"] = [{"id": f"agent{i:02d}"} for i in range(agents)]
    doc["providers"] = [
        dict(copy.deepcopy(models[i % len(models)]), id=f"{models[i % len(models)]['id']}{i:02d}")
        for i in range(providers)
    ]
    doc["witnesses"] = "complete"
    return doc


def display_names(world) -> dict[str, str]:
    names = {a.id: a.id for a in world.agents}
    names.update({p.id: p.id for p in world.providers})
    return names


def interaction_ratings(world) -> int:
    """Distinct interaction ratings: each agent's own records, no copies."""
    return sum(
        1
        for a in world.agents
        for r in world.rating_stores[a.id].all_records()
        if r.source == a.id and r.rep_type is core.ReputationType.INTERACTION
    )


def strict_pairs(ranking_doc: dict) -> list[tuple[str, str]]:
    """(preferred, other) pairs the ranking orders strictly."""
    scored = [(p["id"], p["overall"]) for p in ranking_doc["providers"] if p["overall"] is not None]
    return [
        (a, b)
        for a, sa in scored
        for b, sb in scored
        if sa - sb > explain_mod.ORDER_TOL
    ]


class Workload:
    """Base class: subclasses fill ``self.requests`` in ``setup`` or ``prepare``."""

    name = ""
    #: Per-layer metrics that must be non-zero in a traced run.
    required: tuple[str, ...] = ()
    #: peak_rss_mb reads the child processes (the CLI) instead of this one.
    rss_from_children = False
    #: Requests in one measured op; per-request layer ratios divide by it.
    requests_per_op = 1

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.small = small
        self.workdir = workdir
        self.schemas = Schemas()
        self.requests: list[tuple] = []
        self.layer_extra = {"spans": {}, "counters": {}}
        self.layer_values: dict[str, float] = {}
        #: Set by a traced run; None otherwise.
        self.instrumentation = None

    def setup(self) -> None:
        """The timed set-up: what the program does before serving requests."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, once after the last set-up: the harness derives the
        request list and the expected outputs."""

    def run(self, request) -> str:
        raise NotImplementedError

    def run_traced(self, request) -> str:
        """``run`` with the layer wrappers installed."""
        with self.instrumentation.active():
            return self.run(request)

    def check(self, request, output: str) -> list[str]:
        return []

    def details(self, latencies: list[float]) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures, by name: (value, unit)."""
        return {}

    def probe(self) -> None:
        """Extra per-layer measurements taken once in a traced run."""

    @property
    def tracing(self) -> bool:
        """True while the traced half of a request runs."""
        return self.instrumentation is not None and self.instrumentation.installed

    def digest_part(self, request, output: str) -> str:
        """The text an output adds to the workload's digest."""
        return output


# --------------------------------------------------------------------------
# cli-demo


class CliDemo(Workload):
    """Sequential ``python -m reptrace.cli`` commands on the demo scenario."""

    name = "cli-demo"
    rss_from_children = True
    required = ("scenario.validate_calls", "fire.assess_calls", "travos.assess_calls",
                "simulate.interactions", "simulate.rating_records", "store.insert_calls",
                "pipeline.to_document_ms", "pipeline.from_document_ms",
                "pipeline.json_parse_ms", "render.render_ms")

    def setup(self) -> None:
        doc = json.loads(DEMO_SCENARIO.read_text(encoding="utf-8"))
        doc["seed"] = self.seed
        self.scenario_path = self.workdir / "scenario.json"
        self.scenario_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        sim = simulate.run_scenario(scenario_mod.scenario_from_document(doc))
        self.stores_text = pipeline.dump_document(
            pipeline.world_to_document(pipeline.world_from_simulation(sim))
        )
        self.stores_path = self.workdir / "stores.json"
        self.stores_path.write_text(self.stores_text, encoding="utf-8")
        self.world = pipeline.world_from_document(json.loads(self.stores_text))

    def prepare(self) -> None:
        world = self.world
        names = display_names(world)
        self.bytes_per_rating = len(self.stores_text.encode()) / interaction_ratings(world)
        rng = random.Random(self.seed)
        ranked = {}
        pairs = []
        for agent in world.agents:
            for model in explain_mod.Model:
                doc = pipeline.ranking_to_document(model, agent.id, pipeline.rank(world, model, agent.id))
                ranked[(agent.id, model)] = pipeline.dump_document(doc)
                pairs += [(agent.id, model, p, q) for p, q in strict_pairs(doc)]
        kinds = ["simulate", "assess", "explain", "explain-text"]
        if not self.small:
            kinds += ["assess", "assess", "explain", "explain-text"]
        rng.shuffle(kinds)

        self.expected = {}
        self.requests = []
        for kind in kinds:
            if kind == "simulate":
                args = ("simulate", str(self.scenario_path), str(self.workdir / "out.json"))
                expected = self.stores_text
            elif kind == "assess":
                agent = rng.choice(world.agents).id
                model = rng.choice(list(explain_mod.Model))
                args = ("assess", str(self.stores_path), "--model", model.value, "--assessor", agent)
                expected = ranked[(agent, model)]
            else:
                agent, model, p, q = rng.choice(pairs)
                args = ("explain", str(self.stores_path), "--model", model.value,
                        "--assessor", agent, "--preferred", p, "--other", q)
                explanation = pipeline.explain_pair(world, model, agent, p, q)
                if kind == "explain":
                    expected = pipeline.dump_document(pipeline.explanation_to_document(explanation))
                else:
                    args += ("--text",)
                    expected = render.render_text(explanation, names) + "\n"
            self.requests.append((kind, args))
            self.expected[args] = expected
        # Untimed warm-up so bytecode compilation is never measured.
        self._command(self.requests[0][1], traced_out=None)

    def _command(self, args, traced_out) -> str:
        if traced_out is None:
            argv = [sys.executable, "-m", "reptrace.cli", *args]
            env = cli_env()
        else:
            argv = [sys.executable, str(PERFBENCH / "clitrace.py"), *args]
            env = dict(cli_env(), PERFBENCH_TRACE_OUT=str(traced_out))
        proc = subprocess.run(argv, cwd=self.workdir, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        if args[0] == "simulate":
            return Path(args[2]).read_text(encoding="utf-8")
        return proc.stdout

    def run(self, request) -> str:
        return self._command(request[1], traced_out=None)

    def run_traced(self, request) -> str:
        path = self.workdir / "trace.json"
        output = self._command(request[1], traced_out=path)
        merge(self.layer_extra, json.loads(path.read_text(encoding="utf-8")))
        return output

    def check(self, request, output: str) -> list[str]:
        kind, args = request
        failures = []
        if output != self.expected[args]:
            failures.append(f"{kind}: CLI output differs from the in-process document")
        if kind in ("assess", "explain"):
            doc = json.loads(output)
            failures += self.schemas.errors(doc, "ranking" if kind == "assess" else "explanation")
        elif kind == "simulate":
            doc = json.loads(output)
            failures += self.schemas.errors(doc, "stores")
            reloaded = pipeline.world_from_document(doc)
            if pipeline.dump_document(pipeline.world_to_document(reloaded)) != output:
                failures.append("simulate: stores document does not round-trip byte-identically")
        return failures

    def details(self, latencies):
        return {
            "cli_p50_ms": (ms(statistics.median(latencies)), "ms"),
            "stores_bytes_per_rating": (self.bytes_per_rating, "B"),
        }

    def probe(self) -> None:
        self.layer_values.update(cli_startup_ms())
        self.layer_values["pipeline.stores_bytes_per_rating"] = self.bytes_per_rating


def cli_env() -> dict:
    """Environment of a CLI subprocess: the checkout's ``src``, no seed override."""
    env = dict(os.environ)
    env.pop(scenario_mod.SEED_ENV_VAR, None)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_startup_ms() -> dict[str, float]:
    """Interpreter start and import costs, each the median of 3 runs."""
    env = cli_env()
    starts, imports = [], []
    for _ in range(3):
        t0 = _now()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=CLI_TIMEOUT_S)
        starts.append(_now() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import reptrace.cli"],
            env=env, check=True, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        imports.append(import_times(proc.stderr))
    out = {"cli.interpreter_ms": ms(statistics.median(starts))}
    for key in imports[0]:
        out[f"cli.{key}"] = statistics.median(i[key] for i in imports)
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def import_times(stderr: str) -> dict[str, float]:
    """Milliseconds from ``-X importtime`` output.

    ``import_ms`` is the cumulative time of the top-level ``reptrace``
    imports. Each package figure is the summed self time of the package's
    own modules, so numpy's share is not counted again under scipy.
    """
    out = {"import_ms": 0.0, "import_scipy_ms": 0.0, "import_numpy_ms": 0.0,
           "import_jsonschema_ms": 0.0}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        self_us, cumulative_us, indent, module = match.groups()
        if module.split(".")[0] == "reptrace" and indent == " ":
            out["import_ms"] += int(cumulative_us) / 1000
        top = module.split(".")[0]
        if top in ("scipy", "numpy", "jsonschema"):
            out[f"import_{top}_ms"] += int(self_us) / 1000
    return out


# --------------------------------------------------------------------------
# query-16x8x60


def _spread(rng: random.Random, items: list, n: int) -> list:
    """``n`` items drawn so each appears equally often (to within one)."""
    out = []
    while len(out) < n:
        out += rng.sample(items, len(items))
    return out[:n]


class Query(Workload):
    """Seeded assess and explain requests against one simulated world.

    One op is one request. The list is made of rounds of four requests, one
    of each kind (assess and explain, under FIRE and TRAVOS) in seeded
    order, so every stretch of the run sees the same mix."""

    name = "query-16x8x60"
    required = ("store.query_calls", "fire.assess_calls", "travos.assess_calls",
                "pipeline.assessments_per_request", "explain.arguments_per_explanation",
                "render.render_ms")

    def setup(self) -> None:
        self.world = None  # free the previous world before building the next
        doc = scenario_document(*((3, 3, 10) if self.small else (16, 8, 60)), self.seed)
        sim = simulate.run_scenario(scenario_mod.scenario_from_document(doc))
        self.world = pipeline.world_from_simulation(sim)

    def prepare(self) -> None:
        n_rounds = 3 if self.small else 16
        world = self.world
        self.names = display_names(world)
        rng = random.Random(self.seed)
        assessors = [a.id for a in world.agents]
        self.expected = {}
        self.overall = {}
        pairs = {}
        for agent in assessors:
            for model in explain_mod.Model:
                doc = pipeline.ranking_to_document(model, agent, pipeline.rank(world, model, agent))
                self.expected[(agent, model)] = pipeline.dump_document(doc)
                self.overall[(agent, model)] = {p["id"]: p["overall"] for p in doc["providers"]}
                ordered = strict_pairs(doc)
                if ordered:
                    pairs[(agent, model)] = ordered
        # Each kind visits every assessor equally often, so one pass costs
        # about the same whichever assessors the seed would have favoured.
        kinds = []
        for model in explain_mod.Model:
            explainable = [a for a in assessors if (a, model) in pairs]
            kinds.append([("assess", model, a) for a in _spread(rng, assessors, n_rounds)])
            kinds.append([("explain", model, a, *rng.choice(pairs[(a, model)]))
                          for a in _spread(rng, explainable, n_rounds)])
        self.requests = []
        for round_ in zip(*kinds):
            round_ = list(round_)
            rng.shuffle(round_)
            self.requests += round_
        self.latencies = {"assess": [], "explain": []}

    def _request(self, kind, model, agent, *pair) -> str:
        if kind == "assess":
            ranked = pipeline.rank(self.world, model, agent)
            return pipeline.dump_document(pipeline.ranking_to_document(model, agent, ranked))
        explanation = pipeline.explain_pair(self.world, model, agent, *pair)
        doc = pipeline.dump_document(pipeline.explanation_to_document(explanation))
        return doc + render.render_text(explanation, self.names) + "\n"

    def run(self, request) -> str:
        t0 = _now()
        output = self._request(*request)
        if not self.tracing:
            self.latencies[request[0]].append(_now() - t0)
        return output

    def check(self, request, output: str) -> list[str]:
        kind, model, agent = request[:3]
        if kind == "assess":
            if output != self.expected[(agent, model)]:
                return ["assess: ranking differs from the set-up ranking"]
            return self.schemas.errors(json.loads(output), "ranking")
        preferred, other = request[3:]
        doc, _ = json.JSONDecoder().raw_decode(output)
        failures = self.schemas.errors(doc, "explanation")
        overall = self.overall[(agent, model)]
        if not overall[preferred] - overall[other] > explain_mod.ORDER_TOL:
            failures.append(f"explain: {preferred} does not strictly outrank {other}")
        if (doc["preferred"], doc["other"]) != (preferred, other):
            failures.append("explain: document names the wrong pair")
        return failures

    def details(self, latencies):
        out = {}
        for kind, values in self.latencies.items():
            out[f"{kind}_p50_ms"] = (ms(percentile(values, 50)), "ms")
            out[f"{kind}_p90_ms"] = (ms(percentile(values, 90)), "ms")
        return out


# --------------------------------------------------------------------------
# wide-terms


def wide_context(rng: random.Random, n_terms: int, model):
    """A strictly ordered comparison over ``n_terms`` terms with all four
    reputation types and the model's diagnostics. Half the terms favour
    each provider, so no side dominates and every context costs the
    trade-off search about the same."""
    types = core.REPUTATION_ORDER
    terms = [f"term{i:02d}" for i in range(n_terms)]
    importance = {k: rng.uniform(0.1, 1.0) for k in types}
    prefs = core.Preferences(
        term_weights={t: rng.uniform(0.05, 1.0) for t in terms}, component_weights=importance
    )

    def assessment(target, values):
        components = {
            t: [core.ComponentTrust(rep_type=k, value=values[t][k], weight=importance[k] * rel)
                for k, rel in zip(types, values[t]["rel"])]
            for t in terms
        }
        return core.build_assessment("assessor", target, components, prefs)

    def draw():
        return {t: dict({k: rng.random() for k in types},
                        rel=[rng.uniform(0.5, 1.0) for _ in types]) for t in terms}

    def jitter(values):
        return {t: dict({k: min(1.0, max(0.0, v[k] + rng.gauss(0.0, 0.2))) for k in types},
                        rel=v["rel"]) for t, v in values.items()}

    while True:
        values = {"provA": draw(), "provB": draw()}
        a, b = assessment("provA", values["provA"]), assessment("provB", values["provB"])
        favour_a = set(rng.sample(terms, n_terms // 2))
        for t in terms:
            if (a.term_trust(t) > b.term_trust(t)) != (t in favour_a):
                values["provA"][t], values["provB"][t] = values["provB"][t], values["provA"][t]
        a, b = assessment("provA", values["provA"]), assessment("provB", values["provB"])
        if abs(a.overall - b.overall) > 1e-6 and all(
            a.term_trust(t) != b.term_trust(t) for t in terms
        ):
            break
    if a.overall < b.overall:
        a, b = b, a
    if model is explain_mod.Model.FIRE:
        uniform = {p: assessment(p, jitter(values[p])) for p in values}
        diag = explain_mod.FireDiagnostics(uniform_preferred=uniform[a.target],
                                           uniform_other=uniform[b.target])
        return explain_mod.ComparisonContext(assessor="assessor", preferred=a, other=b,
                                             preferences=prefs, model=model, fire_diagnostics=diag)
    threshold = 0.2

    def diagnostics(assessment_):
        out = {}
        for t in terms:
            conf = rng.uniform(0.0, 0.5)
            out[t] = travos.TravosTermDiagnostics(
                interaction_confidence=conf, low_confidence=conf < threshold,
                witness_trust=assessment_.component_value(t, core.ReputationType.WITNESS))
        return out

    diag = explain_mod.TravosDiagnostics(threshold=threshold, preferred=diagnostics(a),
                                         other=diagnostics(b))
    return explain_mod.ComparisonContext(assessor="assessor", preferred=a, other=b,
                                         preferences=prefs, model=model, travos_diagnostics=diag)


class WideTerms(Workload):
    """Explanations of 12-term comparisons built from component trusts."""

    name = "wide-terms"
    required = ("explain.tradeoff_calls", "explain.permutation_ms",
                "explain.arguments_per_explanation", "render.render_ms")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        n_terms = 6 if self.small else explain_mod.EXHAUSTIVE_TERM_LIMIT
        count = 4 if self.small else 96
        models = list(explain_mod.Model)
        self.requests = [
            ("explain", wide_context(rng, n_terms, models[i % len(models)])) for i in range(count)
        ]
        self.names = {"assessor": "assessor", "provA": "provA", "provB": "provB"}

    def run(self, request) -> str:
        explanation = explain_mod.explain(request[1])
        self.last = explanation
        return render.render_text(explanation, self.names) + "\n"

    def check(self, request, output: str) -> list[str]:
        ctx = request[1]
        explanation, self.last = self.last, None
        doc_text = pipeline.dump_document(pipeline.explanation_to_document(explanation))
        failures = self.schemas.errors(json.loads(doc_text), "explanation")
        if not ctx.preferred.overall - ctx.other.overall > explain_mod.ORDER_TOL:
            failures.append("wide-terms: pair is not strictly ordered")
        if not isinstance(explanation.arguments[0], explain_mod.DecisiveTradeoff):
            failures.append("wide-terms: non-dominating pair gave no trade-off argument")
        self.doc_text = doc_text
        return failures

    def digest_part(self, request, output: str) -> str:
        return self.doc_text + output

    def details(self, latencies):
        return {
            "explain_p50_ms": (ms(percentile(latencies, 50)), "ms"),
            "explain_p90_ms": (ms(percentile(latencies, 90)), "ms"),
        }


WORKLOADS = {w.name: w for w in (CliDemo, Query, WideTerms)}
