"""Mutation checks: each listed fault in ``src/`` must fail its named tests.

Usage, from any directory, with the test dependencies installed:

    python tests/mutants.py [NAME-PREFIX ...]

With no argument every entry runs. Given prefixes, such as ``fire store``,
only the entries whose name starts with one of them run; a prefix that
names no entry is an error.

For each chosen entry of ``MUTANTS`` the runner copies ``src/`` to a
temporary directory, replaces the entry's old text, which must occur
exactly once in its file, by the new text, and runs the entry's tests
against the copy with ``pytest -x`` and Hypothesis's shrinking off. The
mutant is killed when a test fails. Before any mutant, the named tests
run once against an unchanged copy and must pass, so a failure is the
mutant's doing.

Exit status: 0 when every chosen mutant is killed; 1 when some survive,
each one listed; 2 when an entry is broken (its old text does not occur
exactly once, whether chosen or not, or its tests cannot run), a prefix
names no entry, or the unchanged copy fails. A survivor is a finding
about the tests. It stays on the list until a test kills it. The runner
itself uses only the standard library; the tests it runs need pytest and
Hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
#: Seconds one pytest run may take before it counts as broken.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    #: Path under ``src/reptrace``.
    file: str
    old: str
    new: str
    #: pytest node ids, relative to the repository root.
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "prng: the half-word buffer returns the high half first",
        "prng.py",
        "        self._half = draw >> 32\n        return draw & _MASK32\n",
        "        self._half = draw & _MASK32\n        return draw >> 32\n",
        ("tests/test_prng.py::test_mixed_draws_match_numpy",),
    ),
    Mutant(
        "prng: the wedge test compares against exp(-x / 2)",
        "prng.py",
        "< math.exp(-0.5 * x * x):",
        "< math.exp(-0.5 * x):",
        ("tests/test_prng.py::test_standard_normals_match_numpy_on_every_ziggurat_branch",),
    ),
    Mutant(
        "prng: the tail draw takes the opposite sign",
        "prng.py",
        "return -(_NOR_R + xx) if (rabs >> 8) & 1 else _NOR_R + xx",
        "return _NOR_R + xx if (rabs >> 8) & 1 else -(_NOR_R + xx)",
        ("tests/test_prng.py::test_standard_normals_match_numpy_on_every_ziggurat_branch",),
    ),
    Mutant(
        "store: an interaction rating from any source is taken",
        "store.py",
        "            if rating.source != self.owner:\n",
        "            if False:\n",
        ("tests/test_fire.py::TestAssessProvider::test_components_and_uniform_baseline",
         "tests/test_travos.py::TestAssessTerm::test_interaction_evidence_is_the_assessors_own",
         "tests/test_cli.py::TestDocumentBoundary::test_interaction_source_must_be_the_owner"),
    ),
    Mutant(
        "store: a witness rating from the owner is taken",
        "store.py",
        "        elif rating.rep_type is ReputationType.WITNESS and rating.source == self.owner:\n",
        "        elif False:\n",
        ("tests/test_fire.py::TestAssessProvider::test_components_and_uniform_baseline",
         "tests/test_travos.py::TestAssessTerm"
         "::test_assessors_own_witness_records_are_no_opinion"),
    ),
    Mutant(
        "store: a certified rating from the owner is refused as a witness rating is",
        "store.py",
        "        elif rating.rep_type is ReputationType.WITNESS and rating.source == self.owner:\n",
        "        elif rating.rep_type is not ReputationType.INTERACTION"
        " and rating.source == self.owner:\n",
        ("tests/test_store.py::TestRatingStoreAgainstOracle::test_queries_match_a_full_scan",),
    ),
    Mutant(
        "store: a sealed store takes inserts",
        "store.py",
        "        if self._sealed:\n",
        "        if False:\n",
        ("tests/test_store.py::TestOwnership::test_no_insert_once_shared",),
    ),
    Mutant(
        "store: a capped history kept in reverse insertion order among equal keys",
        "store.py",
        "bisect.insort(history, rating, key=_content_key)",
        "bisect.insort_left(history, rating, key=_content_key)",
        ("tests/test_store.py::TestRatingStoreAgainstOracle::test_queries_match_a_full_scan",),
    ),
    Mutant(
        "store: a witness query reads every source of the index, not only the peers",
        "store.py",
        " if r.source in peers\n",
        "\n",
        ("tests/test_simulate.py::TestWitnessCopyOracle",),
    ),
    Mutant(
        "store: a witness query puts the peers' records before the explicit ones",
        "store.py",
        "records = records + shared",
        "records = shared + records",
        ("tests/test_pipeline.py::TestWitnessEvidence",),
    ),
    Mutant(
        "store: an insert keeps stale snapshots",
        "store.py",
        "        self._snapshots.clear()\n",
        "",
        ("tests/test_store.py::TestQuery::test_unsealed_query_sees_a_later_insert",
         "tests/test_store.py::TestRatingStoreAgainstOracle::test_queries_match_a_full_scan"),
    ),
    Mutant(
        "store: sharing witness evidence keeps the snapshots taken before it",
        "store.py",
        "        store._snapshots.clear()\n",
        "",
        ("tests/test_store.py::TestOwnership::test_no_insert_once_shared",),
    ),
    Mutant(
        "store: a bucket keeps one derived value per function, whatever its arguments",
        "store.py",
        "        return self._kept((target, term, rep_type, fn, args), fn, records, args)\n",
        "        return self._kept((target, term, rep_type, fn), fn, records, args)\n",
        ("tests/test_store.py::TestQuery::test_derives_once_per_bucket_and_arguments",),
    ),
    Mutant(
        "store: a target keeps one value per function, whatever buckets it reads",
        "store.py",
        "self._kept((target, terms, rep_types, fn, args), fn, snapshots, args)",
        "self._kept((target, (), (), fn, args), fn, snapshots, args)",
        ("tests/test_store.py::TestQuery::test_derives_once_per_terms_types_and_arguments",),
    ),
    Mutant(
        "store: an insert keeps the derived values",
        "store.py",
        "        self._snapshots.clear()\n        self._derived.clear()\n        self._size += 1\n",
        "        self._snapshots.clear()\n        self._size += 1\n",
        ("tests/test_pipeline.py::TestKeptValuesFollowMutations"
         "::test_an_insert_after_an_assessment_reaches_the_next",),
    ),
    Mutant(
        "store: an observation add keeps the values derived from it",
        "store.py",
        "        for reader in self._readers:\n"
        "            reader._drop_derived_from(self)\n",
        "",
        ("tests/test_pipeline.py::TestKeptValuesFollowMutations"
         "::test_an_observation_added_after_a_ranking_reaches_the_next",),
    ),
    Mutant(
        "store: reading another observation store keeps the values derived from the last",
        "store.py",
        "                        self._drop_derived_from(self._observations)\n",
        "                        pass\n",
        ("tests/test_travos.py::TestAssessTerm::test_fresh_observation_stores_are_not_kept",
         "tests/test_store.py::TestQuery"
         "::test_keeps_values_from_one_observation_store_at_a_time"),
    ),
    Mutant(
        "pipeline: an explicit witness rating may come from one of its owner's peers",
        "pipeline.py",
        "not_witness_sources = {agent.id, *witnesses.get(agent.id, ())}",
        "not_witness_sources = {agent.id}",
        ("tests/test_cli.py::TestWitnessesSection",),
    ),
    Mutant(
        "simulate: a witness may be listed twice",
        "simulate.py",
        "            if peer in peers[:k]:\n",
        "            if False:\n",
        ("tests/test_simulate.py::TestRunScenario::test_repeated_witness_rejected",
         "tests/test_cli.py::TestWitnessesSection"),
    ),
    Mutant(
        "pipeline: the writer drops the witnesses section",
        "pipeline.py",
        "        doc[\"witnesses\"] = {",
        "        _ = {",
        ("tests/test_simulate.py::TestWitnessCopyOracle",),
    ),
    Mutant(
        "store: an observation query bins by the bare floor",
        "store.py",
        "bin_of(value, bins)",
        "min(bins, math.floor(value * bins) + 1)",
        ("tests/test_store.py::TestObservationBins"
         "::test_query_matches_a_per_value_scan_at_every_edge",),
    ),
    Mutant(
        "simulate: an eviction leaves the witness counts unchanged",
        "simulate.py",
        "tally(old, -1)",
        "tally(old, 0)",
        ("tests/test_simulate.py::TestOpinionOracle",),
    ),
    Mutant(
        "simulate: streams seeded by roster index",
        "simulate.py",
        "rngs = {a.id: agent_rng(scenario.seed, a.id) for a in scenario.agents}",
        "rngs = {a.id: agent_rng(scenario.seed, str(i)) for i, a in enumerate(scenario.agents)}",
        ("tests/test_simulate.py::TestRosterExtension",),
    ),
    Mutant(
        "travos: the incomplete-beta cache remembers a failure",
        "travos.py",
        "@functools.lru_cache(maxsize=2048)\ndef regularized_incomplete_beta(",
        "def _remember_failures(fn):\n"
        "    memo = {}\n"
        "\n"
        "    @functools.wraps(fn)\n"
        "    def cached(*args):\n"
        "        if args not in memo:\n"
        "            try:\n"
        "                memo[args] = fn(*args)\n"
        "            except ValueError:\n"
        "                memo[args] = math.nan\n"
        "                raise\n"
        "        return memo[args]\n"
        "\n"
        "    return cached\n"
        "\n"
        "\n"
        "@_remember_failures\n"
        "def regularized_incomplete_beta(",
        ("tests/test_travos.py::TestIncompleteBetaCache::test_failure_is_raised_on_every_call",),
    ),
    Mutant(
        "travos: a rating of exactly the threshold counts as a failure",
        "travos.py",
        "return 1.0 if value >= SUCCESS_THRESHOLD else 0.0",
        "return 1.0 if value > SUCCESS_THRESHOLD else 0.0",
        ("tests/test_travos.py::TestEvidenceCounting::test_binarize",
         "tests/test_simulate.py::TestOpinionOracle"),
    ),
    Mutant(
        "travos: binarized_beta counts a rating of exactly the threshold as a failure",
        "travos.py",
        "        if r.value >= SUCCESS_THRESHOLD:\n            pos += 1\n",
        "        if r.value > SUCCESS_THRESHOLD:\n            pos += 1\n",
        ("tests/test_travos.py::TestEvidenceCounting::test_non_binary_counted_at_threshold",),
    ),
    Mutant(
        "travos: a witness opinion counts a rating of exactly the threshold as a failure",
        "travos.py",
        "        if r.value >= SUCCESS_THRESHOLD:\n            count[1] += 1\n",
        "        if r.value > SUCCESS_THRESHOLD:\n            count[1] += 1\n",
        ("tests/test_travos.py::TestGatherWitnessOpinions",),
    ),
    Mutant(
        "travos: a witness opinion drops one of its witness's successes",
        "travos.py",
        "        n, successes = counts[witness]\n",
        "        n, successes = counts[witness][0], max(0, counts[witness][1] - 1)\n",
        ("tests/test_travos.py::TestGatherWitnessOpinions",),
    ),
    Mutant(
        "fire: the recency weight uses the timestamp instead of the age",
        "fire.py",
        "recency_weight(now - r.timestamp, lambda_)",
        "recency_weight(r.timestamp, lambda_)",
        ("tests/test_fire.py::TestComponentTrust"
         "::test_weights_equal_per_rating_recency_weights",),
    ),
    Mutant(
        "fire: the recency weight skips the non-negative age check",
        "fire.py",
        "recency_weight(now - r.timestamp, lambda_)",
        "math.exp((r.timestamp - now) / lambda_)",
        ("tests/test_fire.py::TestComponentTrust::test_rating_after_now_rejected",),
    ),
    Mutant(
        "fire: the uniform mean takes one extra rating of 0",
        "fire.py",
        "weighted_mean((r.value, 1.0) for r in ratings)",
        "weighted_mean([*((r.value, 1.0) for r in ratings), (0.0, 1.0)])",
        ("tests/test_fire.py::TestComponentTrustUniform"
         "::test_equals_weighted_mean_of_unit_weights",),
    ),
    Mutant(
        "core: dataclasses imported again",
        "core.py",
        "import math\n",
        "import dataclasses\nimport math\n",
        ("tests/test_cli.py::test_cli_import_loads_only_what_every_command_needs",),
    ),
    Mutant(
        "core: a component weight may be negative",
        "core.py",
        "        if weight < 0:\n"
        "            raise ValueError(\"component weight must be non-negative\")\n",
        "",
        ("tests/test_core.py::TestTypes::test_component_weight_non_negative",),
    ),
    Mutant(
        "core: total adds with compensation, through math.fsum",
        "core.py",
        "    s = 0.0\n    for v in values:\n        s += v\n    return s\n",
        "    return math.fsum(values)\n",
        ("tests/test_core.py::TestSummationOrder::test_total_adds_left_to_right",),
    ),
    Mutant(
        "core: total adds through the built-in sum, which compensates from 3.12 on",
        "core.py",
        "    s = 0.0\n    for v in values:\n        s += v\n    return s\n",
        "    return sum(values)\n",
        ("tests/test_golden.py::test_demo_outputs_match_golden_under_a_compensated_sum",),
    ),
    Mutant(
        "core: weighted_mean divides when the weights sum to zero",
        "core.py",
        "    if den <= 0.0:\n        return None\n",
        "    if den < 0.0:\n        return None\n",
        ("tests/test_core.py::TestCombineTermTrust::test_no_evidence",
         "tests/test_core.py::TestOverallTrust::test_undefined_mean_is_none",
         "tests/test_fire.py::TestTermTrust::test_no_evidence_propagates"),
    ),
    Mutant(
        "travos: a kept witness pool logs its clamps only when it is computed",
        "travos.py",
        "        discounted = _invert_moments(*moments)\n",
        "        discounted = beta_from_moments(*moments)\n",
        ("tests/test_travos.py::TestAssessTerm::test_every_assessment_logs_its_clamp",),
    ),
    Mutant(
        "travos: beta parameters may be non-positive",
        "travos.py",
        "        if not (alpha > 0 and beta > 0):\n",
        "        if False:\n",
        ("tests/test_travos.py::TestExpectedValue::test_parameters_must_be_positive",),
    ),
    Mutant(
        "pipeline: a stores/v2 entry may count more successes than observations",
        "pipeline.py",
        "                if successes > n:\n",
        "                if False:\n",
        ("tests/test_cli.py::TestObservationCounts",),
    ),
    Mutant(
        "pipeline: the writer prints non-finite floats",
        "pipeline.py",
        "        if not _isfinite(o):\n",
        "        if False:\n",
        ("tests/test_pipeline.py::TestDumpDocument::test_non_finite_raises_the_json_error",),
    ),
    Mutant(
        "pipeline: the ranking writer prints non-finite floats",
        "pipeline.py",
        "        if not _isfinite(v):\n",
        "        if False:\n",
        ("tests/test_pipeline.py::TestRankingWriter::test_non_finite_raises_the_json_error",),
    ),
    Mutant(
        "pipeline: the ranking writer reads a component whatever its key order",
        "pipeline.py",
        "[*c] != _COMPONENT_KEYS",
        "c.keys() != {*_COMPONENT_KEYS}",
        ("tests/test_pipeline.py::TestRankingWriter::test_off_shape_matches_indented_json_dumps",),
    ),
    Mutant(
        "pipeline: the ranking writer keeps the text of a zero, whose sign then sticks",
        "pipeline.py",
        "        if v:\n            if len(_float_texts)",
        "        if True:\n            if len(_float_texts)",
        ("tests/test_pipeline.py::TestRankingNumberMemo"
         "::test_zeros_keep_their_sign_after_non_zero_floats",),
    ),
    Mutant(
        "pipeline: the inline hit skips its float type test",
        "pipeline.py",
        "value = type(value) is float and hit(value) or _number(value)",
        "value = hit(value) or _number(value)",
        ("tests/test_pipeline.py::TestRankingNumberMemo"
         "::test_int_after_an_equal_float_prints_as_an_int",),
    ),
    Mutant(
        "pipeline: the memo never clears",
        "pipeline.py",
        "                _float_texts.clear()\n",
        "                pass\n",
        ("tests/test_pipeline.py::TestRankingNumberMemo::test_memo_clears_at_its_limit",),
    ),
    Mutant(
        "pipeline: the writer separates object members with \", \"",
        "pipeline.py",
        '("," + inner).join(items)',
        '(", " + inner).join(items)',
        ("tests/test_pipeline.py::TestDumpDocument::test_matches_indented_json_dumps",),
    ),
    Mutant(
        "render: the preferred provider's id is shown instead of its display name",
        "render.py",
        '"preferred": name(explanation.preferred)',
        '"preferred": explanation.preferred',
        ("tests/test_render.py::TestEveryKind",),
    ),
    Mutant(
        "render: a trade-off's pros keep their order under ascending_pros",
        "render.py",
        'if field == "pros" and ascending_pros:',
        'if field == "pros" and ascending_pros and argument.kind != "decisive_tradeoff":',
        ("tests/test_render.py::TestEveryKind",),
    ),
    Mutant(
        "render: a permutation swaps the more and the less important type",
        "render.py",
        "more_important=REP_TYPE_DISPLAY[more_important],\n"
        "                    less_important=REP_TYPE_DISPLAY[less_important],\n",
        "more_important=REP_TYPE_DISPLAY[less_important],\n"
        "                    less_important=REP_TYPE_DISPLAY[more_important],\n",
        ("tests/test_render.py::TestEveryKind",),
    ),
    Mutant(
        "render: the slot plan leaves out the cons clause's fields",
        "render.py",
        "[SENTENCES[cls.kind]] + ([CONS_CLAUSE] if cls is DecisiveTradeoff else [])",
        "[SENTENCES[cls.kind]]",
        ("tests/test_render.py::TestEveryKind",),
    ),
    Mutant(
        "render: a trade-off's cons clause is dropped",
        "render.py",
        'CONS_CLAUSE.format(**slots) if argument.cons else ""',
        '""',
        ("tests/test_render.py::TestEveryKind",),
    ),
    Mutant(
        "explain: a tie after the swaps counts as an inversion",
        "explain.py",
        "                < _recombine(other_table, shared, other_weights, image)\n",
        "                <= _recombine(other_table, shared, other_weights, image)\n",
        ("tests/test_explain.py::TestPermutationSearchOracle",),
    ),
    Mutant(
        "explain: a swap of equal weights names its second type first",
        "explain.py",
        "if pref_weights[a] >= pref_weights[b]",
        "if pref_weights[a] > pref_weights[b]",
        ("tests/test_explain.py::TestPermutationSearchOracle::test_matches_exhaustive_search",),
    ),
    Mutant(
        "explain: the smallest weight gap wins among inverting swaps",
        "explain.py",
        "if best is None or gap > best[0]:",
        "if best is None or gap < best[0]:",
        ("tests/test_explain.py::TestPermutationSearchOracle::test_matches_exhaustive_search",),
    ),
    Mutant(
        "explain: the score table decides with no margin",
        "explain.py",
        "PERMUTATION_BOUND_MARGIN = 1e-12",
        "PERMUTATION_BOUND_MARGIN = 0.0",
        ("tests/test_explain.py::TestPermutationSearchOracle::test_bound_within_margin_enumerates",),
    ),
    Mutant(
        "explain: the permutation bound sums the row maxima",
        "explain.py",
        "bound = math.fsum(row_minima)",
        "bound = math.fsum(map(max, rows(table)))",
        ("tests/test_explain.py::TestPermutationSearchOracle::test_matches_exhaustive_search",),
    ),
    Mutant(
        "explain: the permutation bound takes the column minima of the unreduced table",
        "explain.py",
        "math.fsum(map(min, columns(reduced)))",
        "math.fsum(map(min, columns(table)))",
        ("tests/test_explain.py::TestPermutationSearchOracle",),
    ),
    Mutant(
        "explain: a weighted difference equal to the reference is decisive",
        "explain.py",
        "weighted[t] > reference",
        "weighted[t] >= reference",
        ("tests/test_explain.py::TestDominance::test_fallback_when_everything_is_average",),
    ),
    Mutant(
        "explain: pros that only tie the unmentioned cons cover them",
        "explain.py",
        "        ) > 0\n",
        "        ) >= 0\n",
        ("tests/test_explain.py::TestTradeoff::test_cover_test_is_exact",),
    ),
    Mutant(
        "explain: the dominance fallback ranks every compared term",
        "explain.py",
        "decisive or pros[:1]",
        "decisive or [max(weighted, key=weighted.__getitem__)]",
        ("tests/test_explain.py::TestDominance::test_fallback_names_a_pro",),
    ),
    Mutant(
        "explain: pros with cons count as domination",
        "explain.py",
        "if pros and not cons:",
        "if pros:",
        ("tests/test_explain.py::TestDominates",),
    ),
    Mutant(
        "travos: an interaction confidence equal to the threshold is low",
        "travos.py",
        "low_confidence = conf < config.confidence_threshold",
        "low_confidence = conf <= config.confidence_threshold",
        ("tests/test_travos.py::TestAssessTerm::test_confidence_at_the_threshold_is_not_low",),
    ),
    Mutant(
        "explain: overall scores exactly the tolerance apart are ordered",
        "explain.py",
        "abs(po - oo) <= ORDER_TOL",
        "abs(po - oo) < ORDER_TOL",
        ("tests/test_explain.py::TestExplain::test_scores_the_tolerance_apart_are_tied",),
    ),
    Mutant(
        "store: bin_of keeps the floor's bin when the value lies on a bin edge",
        "store.py",
        "    if b < bins and opinion_value >= b / bins:\n"
        "        return b + 1\n"
        "    if opinion_value < (b - 1) / bins:\n"
        "        return b - 1\n",
        "",
        ("tests/test_store.py::TestObservationBins"
         "::test_bin_of_agrees_with_bin_bounds_at_every_edge",
         "tests/test_travos.py::TestAssessTerm"
         "::test_opinion_on_a_bin_edge_reads_the_history_in_its_bin"),
    ),
    Mutant(
        "explain: a tie is an invalid input, not an unpreferred provider",
        "explain.py",
        "        raise NotPreferredError(\n"
        "            f\"{ctx.preferred.target} and {ctx.other.target} are tied \"",
        "        raise ValueError(\n"
        "            f\"{ctx.preferred.target} and {ctx.other.target} are tied \"",
        ("tests/test_cli.py::TestExplain::test_tie_exits_four",),
    ),
)


def _copy_src(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


#: pytest with Hypothesis's shrinking turned off: a mutant needs one
#: failing example, not the smallest, and shrinking one can take minutes.
_PYTEST = """
import sys, pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
sys.exit(pytest.main(["-p", "no:cacheprovider", "--hypothesis-profile=mutants", *sys.argv[1:]]))
"""


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-c", _PYTEST, "-x", "-q", *tests],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def _broken(message: str, output: str = "") -> int:
    print(f"mutants: {message}", file=sys.stderr)
    if output:
        print(output[-3000:], file=sys.stderr)
    return 2


def main(prefixes: list[str]) -> int:
    for mutant in MUTANTS:
        found = (REPO / "src" / "reptrace" / mutant.file).read_text().count(mutant.old)
        if found != 1:
            return _broken(f"{mutant.name}: old text occurs {found} times in {mutant.file}")
    for prefix in prefixes:
        if not any(m.name.startswith(prefix) for m in MUTANTS):
            return _broken(f"no mutant name starts with {prefix!r}")
    chosen = [m for m in MUTANTS if not prefixes or m.name.startswith(tuple(prefixes))]
    every_test = list(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="reptrace-mutants-") as tmp:
        src = _copy_src(Path(tmp))
        probe = subprocess.run(
            [sys.executable, "-c", "import reptrace; print(reptrace.__file__)"],
            cwd=REPO, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(src)):
            return _broken(f"the copy is not what imports: {probe.stdout}{probe.stderr}")
        clean = _pytest(src, every_test)
        if clean.returncode != 0:
            return _broken("the named tests fail on the unchanged source", clean.stdout)
    survivors = []
    for mutant in chosen:
        with tempfile.TemporaryDirectory(prefix="reptrace-mutant-") as tmp:
            src = _copy_src(Path(tmp))
            path = src / "reptrace" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
            run = _pytest(src, mutant.tests)
        # pytest exits 1 when a test failed; any other failure is the entry's.
        if run.returncode == 1:
            print(f"killed    {mutant.name}")
        elif run.returncode == 0:
            print(f"SURVIVED  {mutant.name}")
            survivors.append(mutant.name)
        else:
            return _broken(
                f"{mutant.name}: pytest exited {run.returncode}", run.stdout + run.stderr
            )
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
