"""Deterministic text rendering of explanations.

Each argument kind maps to exactly one sentence template. The shipped
template file holds them as plain text with ``{{placeholder}}`` slots, so
sentences can be reworded without touching code. Rendering is a pure
function of the explanation and the display names.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from typing import Mapping, NamedTuple

from .core import ReputationType
from .errors import UnknownAgentError
from .explain import (
    DecisiveDominance,
    DecisiveTradeoff,
    Explanation,
    FireRecencyGlobal,
    FireRecencyLocal,
    TravosLowConfidence,
    TypePermutation,
)

#: Human names of the evidence channels.
REP_TYPE_DISPLAY = {
    ReputationType.INTERACTION: "own interaction",
    ReputationType.WITNESS: "witness reputation",
    ReputationType.ROLE_BASED: "role-based reputation",
    ReputationType.CERTIFIED: "certified reputation",
}

_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")


class TemplateSet(NamedTuple):
    """One sentence template per argument kind plus the cons sub-clause."""

    dominance: str
    tradeoff: str
    tradeoff_cons_clause: str
    recency_overall: str
    type_permutation: str
    low_confidence: str
    recency_component: str


def _parse_sections(text: str) -> dict[str, str]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        header = re.fullmatch(r"\[([\w-]+)\]", line.strip())
        if header:
            current = header.group(1)
            sections[current] = []
            continue
        if current is not None:
            sections[current].append(line)
    return {name: "\n".join(body).strip("\n").strip() for name, body in sections.items()}


def _template_set(text: str, origin: object) -> TemplateSet:
    """Parse a template file's text, requiring one section per field."""
    sections = _parse_sections(text)
    missing = [k for k in TemplateSet._fields if k not in sections]
    if missing:
        raise ValueError(f"template file {origin}: missing sections {missing}")
    return TemplateSet(**{k: sections[k] for k in TemplateSet._fields})


@functools.cache
def default_templates() -> TemplateSet:
    """The shipped template set, read and parsed once per process."""
    default = resources.files("reptrace").joinpath("templates/default.txt")
    return _template_set(default.read_text("utf-8"), default)


def join_terms(terms) -> str:
    """Comma-join with a final ", and" once there is more than one item."""
    items = list(terms)
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + ", and " + items[-1]


def _fill(template: str, values: Mapping[str, str]) -> str:
    def sub(match: re.Match) -> str:
        key = match.group(1)
        if key not in values:
            raise KeyError(f"template placeholder {{{{{key}}}}} has no binding")
        return values[key]

    return _PLACEHOLDER.sub(sub, template)


def render_text(
    explanation: Explanation,
    names: Mapping[str, str],
    ascending_pros: bool = False,
) -> str:
    """Render an explanation as one sentence block per argument.

    ``names`` maps agent ids to display strings; a missing referent raises
    UnknownAgentError. With ``ascending_pros`` the pros of the first
    sentence are listed by ascending weighted difference instead of the
    default descending order. Numeric placeholders, where a template uses
    them, are formatted to 2 decimals.
    """
    templates = default_templates()

    def name(agent_id: str) -> str:
        if agent_id not in names:
            raise UnknownAgentError(f"no display name for agent {agent_id!r}")
        return names[agent_id]

    preferred = name(explanation.preferred)
    other = name(explanation.other)
    base = {"preferred": preferred, "other": other}

    blocks: list[str] = []
    for argument in explanation.arguments:
        if isinstance(argument, DecisiveDominance):
            pros = list(argument.pros)
            if ascending_pros:
                pros.reverse()
            blocks.append(
                _fill(templates.dominance, {**base, "pros": join_terms(pros)})
            )
        elif isinstance(argument, DecisiveTradeoff):
            pros = list(argument.pros)
            if ascending_pros:
                pros.reverse()
            cons_clause = ""
            if argument.cons:
                cons_clause = _fill(
                    templates.tradeoff_cons_clause,
                    {**base, "cons": join_terms(argument.cons)},
                )
            blocks.append(
                _fill(
                    templates.tradeoff,
                    {**base, "pros": join_terms(pros), "cons_clause": cons_clause},
                )
            )
        elif isinstance(argument, TypePermutation):
            for more_important, less_important in argument.swaps:
                blocks.append(
                    _fill(
                        templates.type_permutation,
                        {
                            **base,
                            "term": argument.term,
                            "more_important": REP_TYPE_DISPLAY[more_important],
                            "less_important": REP_TYPE_DISPLAY[less_important],
                            "preferred_swapped": f"{argument.preferred_swapped:.2f}",
                            "other_swapped": f"{argument.other_swapped:.2f}",
                        },
                    )
                )
        elif isinstance(argument, FireRecencyGlobal):
            blocks.append(
                _fill(
                    templates.recency_overall,
                    {
                        **base,
                        "preferred_overall": f"{argument.preferred_overall:.2f}",
                        "other_overall": f"{argument.other_overall:.2f}",
                    },
                )
            )
        elif isinstance(argument, FireRecencyLocal):
            blocks.append(
                _fill(
                    templates.recency_component,
                    {
                        **base,
                        "term": argument.term,
                        "rep_type": REP_TYPE_DISPLAY[argument.rep_type],
                    },
                )
            )
        elif isinstance(argument, TravosLowConfidence):
            blocks.append(
                _fill(
                    templates.low_confidence,
                    {**base, "term": argument.term},
                )
            )
        else:
            raise TypeError(f"unknown argument kind: {type(argument).__name__}")
    return "\n".join(blocks)
