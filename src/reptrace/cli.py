"""Command-line front end.

Subcommands:

* ``simulate scenario.json stores.json`` runs a scenario and writes the
  populated stores document.
* ``assess stores.json --model fire --assessor alice`` prints the ranked
  assessment document.
* ``explain stores.json --model fire --assessor alice --preferred P1
  --other P2 [--text]`` prints the explanation document or its rendered
  text.
* ``demo`` replays the built-in four-provider example and
  self-checks its golden values.

Exit codes: 0 success, 2 invalid input or schema violation, 3 I/O error,
4 the preferred provider does not strictly outrank the other or is better
on no weighted term both have evidence on, 5 demo golden mismatch.
Diagnostics go to stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    NotPreferredError,
    ReptraceError,
    UnknownAgentError,
)
from .explain import Model, invert_permutation
from .pipeline import (
    dump_document,
    explanation_to_document,
    rank,
    ranking_to_document,
    world_from_document,
    world_from_simulation,
    world_to_document,
)
from .render import REP_TYPE_DISPLAY, render_text
from .scenario import load_scenario, read_json
from .simulate import run_scenario

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_NOT_PREFERRED = 4
EXIT_GOLDEN_MISMATCH = 5

#: Absolute slack when comparing a computed value against a 2-decimal golden.
GOLDEN_TOL = 0.005 + 1e-12


def _load_json(path: str) -> dict:
    try:
        return read_json(path)
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from exc


class _IOFailure(Exception):
    pass


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    world = world_from_simulation(run_scenario(scenario))
    _write_text(args.out, dump_document(world_to_document(world)))
    return EXIT_OK


def cmd_assess(args: argparse.Namespace) -> int:
    world = world_from_document(_load_json(args.stores))
    model = Model(args.model)
    ranked = rank(world, model, args.assessor)
    doc = ranking_to_document(model, args.assessor, ranked)
    _emit(dump_document(doc), args.out)
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    from .pipeline import explain_pair

    world = world_from_document(_load_json(args.stores))
    model = Model(args.model)
    explanation = explain_pair(
        world, model, args.assessor, args.preferred, args.other
    )
    if args.text:
        names = {a.id: a.id for a in world.agents}
        names.update({p.id: p.id for p in world.providers})
        text = render_text(
            explanation, names, ascending_pros=args.ascending_pros
        )
        _emit(text + "\n", args.out)
    else:
        _emit(dump_document(explanation_to_document(explanation)), args.out)
    return EXIT_OK


def _demo_failures() -> tuple[list[str], list[str]]:
    """Render the built-in example and collect golden mismatches."""
    # Only ``demo`` reads the fixture, so no other command imports it.
    from . import fixture
    from .explain import explain as explain_ctx

    lines: list[str] = []
    failures: list[str] = []
    names = {p: p for p in fixture.PROVIDERS}
    names[fixture.ASSESSOR] = fixture.ASSESSOR

    lines.append(f"Provider assessments (assessor {fixture.ASSESSOR})")
    header = ["id"] + list(fixture.TERMS) + ["overall"]
    lines.append("  ".join(f"{h:<10}" for h in header).rstrip())
    for provider in fixture.PROVIDERS:
        assessment = fixture.assessment(provider)
        row = [f"{provider:<10}"]
        for term in fixture.TERMS:
            value = assessment.term_trust(term)
            row.append(f"{value:<10.2f}")
            expected = fixture.EXPECTED_TERM_TRUSTS[provider][term]
            if abs(value - expected) > GOLDEN_TOL:
                failures.append(
                    f"term trust {provider}/{term}: got {value:.4f}, "
                    f"expected {expected:.2f} within 0.005"
                )
        row.append(f"{assessment.overall:<10.2f}")
        expected = fixture.EXPECTED_OVERALL[provider]
        if abs(assessment.overall - expected) > GOLDEN_TOL:
            failures.append(
                f"overall {provider}: got {assessment.overall:.4f}, "
                f"expected {expected:.2f} within 0.005"
            )
        lines.append("  ".join(row).rstrip())

    expected_texts = {
        (
            "B",
            "C",
        ): "B has a better reputation than C, because it is better in all "
        "aspects that you consider in your preferences, mainly with respect "
        "to timeliness, and quality.",
        ("B", "D"): "B has a better reputation than D, mainly due to quality.",
    }
    for preferred, other in (("B", "C"), ("B", "D")):
        ctx = fixture.comparison(preferred, other)
        text = render_text(explain_ctx(ctx), names, ascending_pros=True)
        lines.append("")
        lines.append(f"Explanation {preferred} vs {other}:")
        lines.append(text)
        if text != expected_texts[(preferred, other)]:
            failures.append(
                f"explanation {preferred} vs {other} text mismatch: {text!r}"
            )

    ctx = fixture.comparison("B", "E")
    swap = invert_permutation(ctx, "timeliness")
    lines.append("")
    lines.append("Weight-swap analysis for timeliness, B vs E:")
    if swap is None:
        failures.append("no inverting weight swap found for B vs E on timeliness")
    else:
        swapped_pair = ", ".join(
            f"{REP_TYPE_DISPLAY[a]} with {REP_TYPE_DISPLAY[b]}" for a, b in swap.swaps
        )
        lines.append(f"swapping {swapped_pair} would reverse the order:")
        lines.append(
            f"B timeliness trust becomes {swap.preferred_swapped:.2f} and "
            f"E timeliness trust becomes {swap.other_swapped:.2f}"
        )
        expected_b, expected_e = fixture.EXPECTED_SWAP
        if (
            abs(swap.preferred_swapped - expected_b) > GOLDEN_TOL
            or abs(swap.other_swapped - expected_e) > GOLDEN_TOL
        ):
            failures.append(
                f"swapped trusts: got ({swap.preferred_swapped:.4f}, "
                f"{swap.other_swapped:.4f}), expected ({expected_b}, {expected_e})"
            )
    return lines, failures


def cmd_demo(args: argparse.Namespace) -> int:
    lines, failures = _demo_failures()
    sys.stdout.write("\n".join(lines) + "\n")
    if failures:
        for failure in failures:
            print(f"golden mismatch: {failure}", file=sys.stderr)
        return EXIT_GOLDEN_MISMATCH
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reptrace",
        description="Assess provider reputations and explain pairwise rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write its stores")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("out", help="output stores JSON file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("assess", help="rank all providers for an assessor")
    p.add_argument("stores", help="stores JSON file")
    p.add_argument("--model", required=True, choices=["fire", "travos"])
    p.add_argument("--assessor", required=True)
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("explain", help="explain why one provider outranks another")
    p.add_argument("stores", help="stores JSON file")
    p.add_argument("--model", required=True, choices=["fire", "travos"])
    p.add_argument("--assessor", required=True)
    p.add_argument("--preferred", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--text", action="store_true", help="render sentences")
    p.add_argument(
        "--ascending-pros",
        action="store_true",
        help="list pros by ascending weighted difference",
    )
    p.add_argument("--out", help="write the output here instead of stdout")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("demo", help="replay the built-in example with self-checks")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotPreferredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PREFERRED
    except (ConfigError, UnknownAgentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (_IOFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ReptraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
