"""Command-line behaviour: exit codes, determinism, document validity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reptrace
from oracles import assert_schema_valid
from reptrace.cli import main
from reptrace.errors import ConfigError
from reptrace.scenario import validate_document

REPO = Path(__file__).resolve().parent.parent
SCENARIO_PATH = REPO / "demos" / "delivery_scenario.json"
V1_STORES_PATH = REPO / "tests" / "data" / "demo_stores_v1.json"


@pytest.fixture()
def stores_path(tmp_path):
    out = tmp_path / "stores.json"
    assert main(["simulate", str(SCENARIO_PATH), str(out)]) == 0
    return out


@pytest.fixture()
def v1_stores_path(tmp_path):
    """A copy of the demo's stores document in the stores/v1 format."""
    out = tmp_path / "stores-v1.json"
    out.write_text(V1_STORES_PATH.read_text())
    return out


class TestSimulate:
    def test_writes_valid_stores(self, stores_path):
        doc = json.loads(stores_path.read_text())
        assert_schema_valid(doc, "stores")

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", str(SCENARIO_PATH), str(a)]) == 0
        assert main(["simulate", str(SCENARIO_PATH), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_integral_float_history_cap_writes_the_same_stores(self, tmp_path):
        # 3.0 is a JSON Schema integer, so it must load as the cap 3.
        outputs = []
        for cap in (3, 3.0):
            scenario, out = tmp_path / f"scenario-{cap}.json", tmp_path / f"stores-{cap}.json"
            doc = json.loads(SCENARIO_PATH.read_text())
            doc["fire"]["history_cap"] = cap
            scenario.write_text(json.dumps(doc))
            assert main(["simulate", str(scenario), str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_malformed_scenario_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "reptrace/scenario/v1", "seed": 1}')
        assert main(["simulate", str(bad), str(tmp_path / "out.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_three(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json"), str(tmp_path / "o")]) == 3

    def test_seed_env_override_changes_output(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", str(SCENARIO_PATH), str(a)]) == 0
        monkeypatch.setenv("REPTRACE_SEED", "12345")
        assert main(["simulate", str(SCENARIO_PATH), str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()
        assert json.loads(b.read_text())["seed"] == 12345

    def test_negative_seed_env_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPTRACE_SEED", "-1")
        assert main(["simulate", str(SCENARIO_PATH), str(tmp_path / "out.json")]) == 2
        assert "REPTRACE_SEED must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


class TestAssess:
    def test_emits_valid_ranking(self, stores_path, capsys):
        assert main(
            ["assess", str(stores_path), "--model", "fire", "--assessor", "alice"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert_schema_valid(doc, "ranking")
        overalls = [p["overall"] for p in doc["providers"]]
        assert overalls == sorted(overalls, reverse=True)

    def test_travos_model(self, stores_path, capsys):
        assert main(
            ["assess", str(stores_path), "--model", "travos", "--assessor", "alice"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert_schema_valid(doc, "ranking")
        assert doc["model"] == "travos"

    def test_unknown_assessor_exits_two(self, stores_path):
        assert main(
            ["assess", str(stores_path), "--model", "fire", "--assessor", "nobody"]
        ) == 2


class TestExplain:
    def ranked_ids(self, stores_path, capsys, model="fire"):
        assert main(
            ["assess", str(stores_path), "--model", model, "--assessor", "alice"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        return [p["id"] for p in doc["providers"]]

    def test_document_output(self, stores_path, capsys):
        best, second = self.ranked_ids(stores_path, capsys)[:2]
        assert main(
            [
                "explain", str(stores_path), "--model", "fire",
                "--assessor", "alice", "--preferred", best, "--other", second,
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert_schema_valid(doc, "explanation")
        assert doc["preferred"] == best

    def test_travos_document_output(self, stores_path, capsys):
        best, second = self.ranked_ids(stores_path, capsys, "travos")[:2]
        assert main(
            [
                "explain", str(stores_path), "--model", "travos",
                "--assessor", "alice", "--preferred", best, "--other", second,
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert_schema_valid(doc, "explanation")
        assert doc["model"] == "travos" and doc["preferred"] == best

    def test_text_output(self, stores_path, capsys):
        best, second = self.ranked_ids(stores_path, capsys)[:2]
        assert main(
            [
                "explain", str(stores_path), "--model", "fire",
                "--assessor", "alice", "--preferred", best, "--other", second,
                "--text",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"{best} has a better reputation than {second}" in out

    def test_preferred_better_on_no_shared_term_exits_four(self, stores_path, capsys):
        # alice has evidence on bargain's quality only, and swift is better
        # there, yet bargain's overall score is the higher: swift's other
        # terms pull its mean down.
        doc = json.loads(stores_path.read_text())

        def rating(target, term, value):
            return {
                "source": "alice", "target": target, "term": term,
                "rep_type": "interaction", "value": value, "timestamp": 0,
                "interaction_id": None,
            }

        doc["ratings"]["alice"] = [rating("bargain", "quality", 0.9)] + [
            rating("swift", term, 1.0 if term == "quality" else 0.0) for term in doc["terms"]
        ]
        del doc["witnesses"]  # alice reads no witness either
        stores_path.write_text(json.dumps(doc))
        assert main(
            [
                "explain", str(stores_path), "--model", "fire", "--assessor", "alice",
                "--preferred", "bargain", "--other", "swift",
            ]
        ) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bargain is better than swift on no weighted term" in captured.err

    def test_reversed_pair_exits_four(self, stores_path, capsys):
        best, second = self.ranked_ids(stores_path, capsys)[:2]
        assert main(
            [
                "explain", str(stores_path), "--model", "fire",
                "--assessor", "alice", "--preferred", second, "--other", best,
            ]
        ) == 4
        assert "outranks" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, score", [("fire", "0.782841"), ("travos", "0.667223")]
    )
    def test_tie_exits_four(self, stores_path, capsys, model, score):
        assert main(
            [
                "explain", str(stores_path), "--model", model,
                "--assessor", "alice", "--preferred", "steady", "--other", "steady",
            ]
        ) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: steady and steady are tied ({score} vs {score})\n"


def _set_first_term_weight(doc, value):
    doc["terms"][next(iter(doc["terms"]))] = value


def _set_first_raw_value(doc, value):
    doc["ratings"]["alice"][0]["raw_value"] = value


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["assess", "explain"])
    @pytest.mark.parametrize(
        "set_value, value, constant",
        [
            (_set_first_term_weight, float("nan"), "NaN"),
            (_set_first_term_weight, float("inf"), "Infinity"),
            (_set_first_raw_value, float("nan"), "NaN"),
        ],
        ids=["nan-term-weight", "infinite-term-weight", "nan-raw-value"],
    )
    def test_rejected_with_exit_two(
        self, stores_path, v1_stores_path, capsys, command, set_value, value, constant
    ):
        # Only stores/v1 ratings carry a raw_value.
        if set_value is _set_first_raw_value:
            stores_path = v1_stores_path
        doc = json.loads(stores_path.read_text())
        set_value(doc, value)
        stores_path.write_text(json.dumps(doc))
        providers = [p["id"] for p in doc["providers"]]
        argv = [command, str(stores_path), "--model", "fire", "--assessor", "alice"]
        if command == "explain":
            argv += ["--preferred", providers[0], "--other", providers[1]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "NaN" not in captured.out and "Infinity" not in captured.out
        assert constant in captured.err

    @pytest.mark.parametrize(
        "path",
        [
            ("providers", 0, "phases", 0, "days_mu"),
            ("providers", 1, "phases", 1, "price"),
            ("rating_profile", "price_ceiling"),
            ("fire", "lambda"),
        ],
        ids=["days_mu", "price", "price_ceiling", "fire-lambda"],
    )
    def test_overflowing_scenario_literal_names_its_path(self, tmp_path, capsys, path):
        doc = json.loads(SCENARIO_PATH.read_text())
        scenario, out = tmp_path / "scenario.json", tmp_path / "stores.json"
        scenario.write_text(_with_overflowing_literal(doc, path))
        assert main(["simulate", str(scenario), str(out)]) == 2
        where = "/".join(map(str, path))
        assert f"scenario document invalid at {where}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["assess", "explain"])
    def test_overflowing_raw_value_names_its_path(self, v1_stores_path, capsys, command):
        doc = json.loads(v1_stores_path.read_text())
        path = ("ratings", "alice", 0, "raw_value")
        v1_stores_path.write_text(_with_overflowing_literal(doc, path))
        argv = [command, str(v1_stores_path), "--model", "fire", "--assessor", "alice"]
        if command == "explain":
            argv += ["--preferred", "steady", "--other", "bargain"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stores document invalid at ratings/alice/0/raw_value: " in captured.err


def _with_overflowing_literal(doc, path) -> str:
    """``doc`` as JSON text with the literal 1e400 at ``path``.

    ``json.loads`` reads 1e400 as inf; ``json.dumps`` cannot write it, so
    a placeholder is swapped for the literal in the text.
    """
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "<overflow>"
    return json.dumps(doc).replace('"<overflow>"', "1e400")


class TestDocumentBoundary:
    def test_future_timestamp_names_the_record(self, stores_path, capsys):
        doc = json.loads(stores_path.read_text())
        doc["ratings"]["bob"][2]["timestamp"] = doc["rounds"]
        stores_path.write_text(json.dumps(doc))
        assert main(
            ["assess", str(stores_path), "--model", "fire", "--assessor", "bob"]
        ) == 2
        assert "ratings/bob/2/timestamp" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["fire", "travos"])
    def test_interaction_source_must_be_the_owner(self, stores_path, capsys, model):
        doc = json.loads(stores_path.read_text())
        ratings = doc["ratings"]["alice"]
        index = next(i for i, r in enumerate(ratings) if r["rep_type"] == "interaction")
        ratings[index]["source"] = "bob"
        stores_path.write_text(json.dumps(doc))
        assert main(
            ["assess", str(stores_path), "--model", model, "--assessor", "alice"]
        ) == 2
        assert f"ratings/alice/{index}/source" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["fire", "travos"])
    def test_witness_source_must_not_be_the_owner(self, v1_stores_path, capsys, model):
        # ``simulate`` writes no witness rating; a stores/v1 document holds copies.
        doc = json.loads(v1_stores_path.read_text())
        ratings = doc["ratings"]["alice"]
        index = next(i for i, r in enumerate(ratings) if r["rep_type"] == "witness")
        ratings[index]["source"] = "alice"
        v1_stores_path.write_text(json.dumps(doc))
        assert main(
            ["assess", str(v1_stores_path), "--model", model, "--assessor", "alice"]
        ) == 2
        assert f"ratings/alice/{index}/source" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["fire", "travos"])
    def test_observation_assessor_must_be_the_owner(self, v1_stores_path, capsys, model):
        # Only a stores/v1 observation names its assessor.
        doc = json.loads(v1_stores_path.read_text())
        observations = doc["observations"]["alice"]
        index = len(observations) - 1
        observations[index]["assessor"] = "carol"
        v1_stores_path.write_text(json.dumps(doc))
        assert main(
            ["assess", str(v1_stores_path), "--model", model, "--assessor", "alice"]
        ) == 2
        assert f"observations/alice/{index}/assessor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("ratings", "target", "mallory"),
            ("ratings", "target", "bob"),
            ("ratings", "term", "colour"),
            ("ratings", "rep_type", "role"),
            ("observations", "witness", "alice"),
            ("observations", "witness", "mallory"),
            ("observations", "target", "mallory"),
            ("observations", "term", "colour"),
        ],
        ids=[
            "rating-target-unlisted", "rating-target-an-agent", "rating-term-undeclared",
            "rating-of-role-type", "observation-witness-the-owner",
            "observation-witness-unlisted", "observation-target-unlisted",
            "observation-term-undeclared",
        ],
    )
    def test_record_no_engine_reads_exits_two(
        self, stores_path, v1_stores_path, capsys, section, field, value
    ):
        # No engine reads any of these records, so loading one must fail.
        # The observation cases are stores/v1 records, which name a target.
        if section == "observations":
            stores_path = v1_stores_path
        doc = json.loads(stores_path.read_text())
        records = doc[section]["alice"]
        index = len(records) - 1
        records[index][field] = value
        stores_path.write_text(json.dumps(doc))
        assert main(
            ["assess", str(stores_path), "--model", "fire", "--assessor", "alice"]
        ) == 2
        assert f"invalid at {section}/alice/{index}/{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["stores", "scenario"])
    def test_role_rule_on_undeclared_term_exits_two(self, stores_path, tmp_path, capsys, kind):
        # No engine reads a rule on a term the preferences do not declare.
        rule = {"role_a": "buyer", "role_b": "courier", "likelihood": 0.5, "value": 0.5}
        path = stores_path if kind == "stores" else tmp_path / "scenario.json"
        doc = json.loads((stores_path if kind == "stores" else SCENARIO_PATH).read_text())
        doc["role_rules"] = [dict(rule, term="quality"), dict(rule, term="colour")]
        path.write_text(json.dumps(doc))
        argv = (
            ["assess", str(path), "--model", "fire", "--assessor", "alice"]
            if kind == "stores"
            else ["simulate", str(path), str(tmp_path / "out.json")]
        )
        assert main(argv) == 2
        assert f"{kind} document invalid at role_rules/1/term:" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["terms", "component_weights"])
    @pytest.mark.parametrize("weight", [0, 1.7e308], ids=["all-zero", "overflowing-sum"])
    def test_weight_section_names_its_field(
        self, stores_path, tmp_path, capsys, section, weight
    ):
        # Every section has at least two weights, so 1.7e308 each overflows.
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(SCENARIO_PATH.read_text())
        commands = [
            (stores_path, ["assess", str(stores_path), "--model", model,
                           "--assessor", "alice"])
            for model in ("fire", "travos")
        ] + [(scenario_path, ["simulate", str(scenario_path), str(tmp_path / "o.json")])]
        for path, argv in commands:
            doc = json.loads(path.read_text())
            doc[section] = {key: weight for key in doc[section]}
            path.write_text(json.dumps(doc))
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"document invalid at {section}: " in captured.err

    @pytest.mark.parametrize("section", ["ratings", "observations"])
    def test_records_under_an_unlisted_agent_exit_two(self, stores_path, capsys, section):
        doc = json.loads(stores_path.read_text())
        doc[section]["mallory"] = doc[section]["alice"][:3]
        stores_path.write_text(json.dumps(doc))
        assert main(
            ["assess", str(stores_path), "--model", "fire", "--assessor", "alice"]
        ) == 2
        assert f"invalid at {section}/mallory" in capsys.readouterr().err

    def test_reliability_plugin_accepts_only_null(self, stores_path, tmp_path, capsys):
        # Both documents carry FIRE's config; only a null plugin loads.
        scenario_path = tmp_path / "scenario.json"
        commands = (
            (stores_path, ["assess", str(stores_path), "--model", "fire",
                           "--assessor", "alice"]),
            (scenario_path, ["simulate", str(scenario_path), str(tmp_path / "o.json")]),
        )
        scenario_path.write_text(SCENARIO_PATH.read_text())
        for path, argv in commands:
            doc = json.loads(path.read_text())
            for value, code in (("count", 2), (None, 0)):
                doc["fire"]["reliability_plugin"] = value
                path.write_text(json.dumps(doc))
                assert main(argv) == code
                err = capsys.readouterr().err
                assert ("invalid at fire/reliability_plugin" in err) == bool(code)

    def test_validation_error_repeats_after_caching(self):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["rounds"] = 0
        messages = []
        for _ in range(2):
            with pytest.raises(ConfigError) as info:
                validate_document(doc, "scenario")
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "scenario document invalid at rounds" in messages[0]


def _last_observation(doc) -> int:
    return len(doc["observations"]["alice"]) - 1


def _set_observation_field(name, value):
    def mutate(doc) -> int:
        index = _last_observation(doc)
        entry = doc["observations"]["alice"][index]
        entry[name] = value(entry) if callable(value) else value
        return index

    return mutate


def _repeat_first_observation(doc) -> int:
    observations = doc["observations"]["alice"]
    observations.append(dict(observations[0]))
    return _last_observation(doc)


class TestObservationCounts:
    """Each stores/v2 observation entry that no engine can read exits 2
    and names its path."""

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (_set_observation_field("n", 0), "n"),
            (_set_observation_field("n", 2**53 + 1), "n"),
            (_set_observation_field("successes", -1), "successes"),
            (_set_observation_field("successes", lambda entry: entry["n"] + 1), "successes"),
            (_set_observation_field("witness", "alice"), "witness"),
            (_set_observation_field("witness", "mallory"), "witness"),
            (_set_observation_field("term", "colour"), "term"),
            (_set_observation_field("opinion_value", 1.5), "opinion_value"),
            (_repeat_first_observation, None),
        ],
        ids=[
            "n-zero", "n-past-exact-floats", "negative-successes",
            "more-successes-than-n", "witness-the-owner", "witness-unlisted",
            "term-undeclared", "opinion-value-above-one", "duplicate-entry",
        ],
    )
    def test_exits_two_naming_the_path(self, stores_path, capsys, mutate, field):
        doc = json.loads(stores_path.read_text())
        where = f"observations/alice/{mutate(doc)}"
        stores_path.write_text(json.dumps(doc))
        assert main(
            ["assess", str(stores_path), "--model", "travos", "--assessor", "alice"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        suffix = f"/{field}:" if field else ":"
        assert f"stores document invalid at {where}{suffix}" in captured.err


def _set_first_parcel_probs(doc):
    doc["providers"][0]["phases"][0]["parcel_probs"] = [0.5, 0.2, 0.1, 0.1]


def _set_last_service_probs(doc):
    doc["providers"][-1]["phases"][1]["service_probs"] = [0.5, 0.5, 0.5, 0.0]


def _add_agent(agent_id):
    return lambda doc: doc["agents"].append({"id": agent_id})


def _set_witnesses(topology):
    return lambda doc: doc.update(witnesses=topology)


def _add_term(doc):
    doc["terms"]["colour"] = 0.1


class TestScenarioBoundary:
    @pytest.mark.parametrize(
        "mutate, path",
        [
            (_set_first_parcel_probs, "providers/0/phases/0/parcel_probs"),
            (_set_last_service_probs, "providers/2/phases/1/service_probs"),
            (_add_agent("alice"), "agents/3/id"),
            (_add_agent("swift"), "providers/0/id"),
            (_set_witnesses({"alice": ["bob", "zed"]}), "witnesses/alice/1"),
            (_set_witnesses({"alice": ["alice"]}), "witnesses/alice/0"),
            (_set_witnesses({"zed": ["alice"]}), "witnesses/zed"),
            (_add_term, "terms/colour"),
            # A repeated witness would have its observations counted twice.
            (_set_witnesses({"alice": ["bob", "bob"]}), "witnesses/alice/1"),
        ],
        ids=[
            "parcel-probs-sum", "service-probs-sum", "duplicate-agent-id",
            "agent-id-of-a-provider", "unknown-witness", "self-witness",
            "unknown-witnessing-agent", "term-without-rating-rule", "repeated-witness",
        ],
    )
    def test_semantic_error_names_its_path(self, tmp_path, capsys, mutate, path):
        doc = json.loads(SCENARIO_PATH.read_text())
        mutate(doc)
        scenario, out = tmp_path / "scenario.json", tmp_path / "stores.json"
        scenario.write_text(json.dumps(doc))
        assert main(["simulate", str(scenario), str(out)]) == 2
        assert f"scenario document invalid at {path}: " in capsys.readouterr().err
        assert not out.exists()


class TestWitnessesSection:
    """A stores document's witness topology is checked as a scenario's is,
    and no witness's ratings count twice."""

    @pytest.mark.parametrize(
        "topology, path",
        [
            ({"alice": ["bob", "bob"]}, "witnesses/alice/1"),
            ({"alice": ["carol", "alice"]}, "witnesses/alice/1"),
            ({"alice": ["mallory"]}, "witnesses/alice/0"),
            ({"mallory": ["alice"]}, "witnesses/mallory"),
        ],
        ids=["repeated-peer", "the-owner", "unlisted-peer", "unlisted-agent"],
    )
    def test_invalid_topology_names_its_path(self, stores_path, capsys, topology, path):
        doc = json.loads(stores_path.read_text())
        doc["witnesses"] = topology
        stores_path.write_text(json.dumps(doc))
        assert main(
            ["assess", str(stores_path), "--model", "travos", "--assessor", "alice"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"stores document invalid at {path}: " in captured.err

    @pytest.mark.parametrize("model", ["fire", "travos"])
    def test_explicit_witness_rating_from_a_peer_exits_two(self, stores_path, capsys, model):
        doc = json.loads(stores_path.read_text())
        ratings = doc["ratings"]["alice"]
        ratings.append(dict(doc["ratings"]["bob"][0], rep_type="witness"))
        argv = ["assess", str(stores_path), "--model", model, "--assessor", "alice"]
        stores_path.write_text(json.dumps(doc))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"stores document invalid at ratings/alice/{len(ratings) - 1}/source: "
            in captured.err
        )
        # The same record loads once bob is no longer alice's peer.
        doc["witnesses"]["alice"] = ["carol"]
        stores_path.write_text(json.dumps(doc))
        assert main(argv) == 0


@pytest.mark.parametrize("command", ["assess", "simulate"])
def test_non_utf8_input_names_its_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = (
        ["assess", str(bad), "--model", "fire", "--assessor", "alice"]
        if command == "assess"
        else ["simulate", str(bad), str(tmp_path / "out.json")]
    )
    assert main(argv) == 2
    assert f"error: {bad}: not valid UTF-8: " in capsys.readouterr().err


def test_commands_load_no_test_only_dependency(stores_path, tmp_path):
    # jsonschema, scipy and numpy are test-only.
    script = (
        "import sys\n"
        "def loaded(*names):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in names)\n"
        "HEAVY = ('jsonschema', 'referencing', 'scipy', 'numpy')\n"
        "import reptrace.cli\n"
        "assert loaded(*HEAVY) == [], loaded(*HEAVY)\n"
        "stores, scenario, out = sys.argv[1:]\n"
        "for argv in (\n"
        "    ['assess', stores, '--model', 'travos', '--assessor', 'alice'],\n"
        "    ['explain', stores, '--model', 'fire', '--assessor', 'alice',\n"
        "     '--preferred', 'steady', '--other', 'bargain', '--text'],\n"
        "):\n"
        "    code = reptrace.cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "    assert loaded(*HEAVY) == [], loaded(*HEAVY)\n"
        "assert reptrace.cli.main(['simulate', scenario, out]) == 0\n"
        "assert loaded('jsonschema', 'scipy', 'numpy') == [], loaded('jsonschema', 'scipy', 'numpy')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(stores_path), str(SCENARIO_PATH),
         str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_only_what_every_command_needs():
    # ``import reptrace.cli`` is the start-up of every command. Each module
    # below serves one path at most, so none may load with it. Both checks
    # read the package that the tests import, wherever it lies.
    package = Path(reptrace.__file__).resolve().parent
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import reptrace.cli\n"
        "unwanted = ('dataclasses', 'inspect', 'logging', 'hashlib', 'reptrace.fixture')\n"
        "print(sorted(m for m in unwanted if m in sys.modules and m not in before))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
    # Records are named tuples: a dataclass class costs several times as
    # much to build at import.
    mentions = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "dataclass" in line
    ]
    assert mentions == []


class TestDemo:
    def test_demo_passes_self_checks(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "0.64" in out and "0.17" in out and "0.58" in out and "0.38" in out
        assert "mainly due to quality." in out

    def test_demo_deterministic(self, capsys):
        assert main(["demo"]) == 0
        first = capsys.readouterr().out
        assert main(["demo"]) == 0
        second = capsys.readouterr().out
        assert first == second
