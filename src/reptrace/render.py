"""Deterministic text rendering of explanations.

Each argument kind maps to exactly one ``str.format`` sentence in
``SENTENCES``, keyed by the kind's tag in explanation documents. A slot
names one of the argument's own fields or ``preferred`` or ``other``, the
display names of the two providers; only the fields a kind's sentence
names are read, planned once per kind. Rendering is a pure function of
the explanation and the display names.
"""

from __future__ import annotations

import string
from typing import Mapping

from .core import ReputationType
from .errors import UnknownAgentError
from .explain import ARGUMENT_KINDS, DecisiveTradeoff, Explanation, TypePermutation

#: Human names of the evidence channels.
REP_TYPE_DISPLAY = {
    ReputationType.INTERACTION: "own interaction",
    ReputationType.WITNESS: "witness reputation",
    ReputationType.ROLE_BASED: "role-based reputation",
    ReputationType.CERTIFIED: "certified reputation",
}

#: One sentence per argument kind. Three slots are bound by rule, not from
#: a field: a trade-off's ``cons_clause`` is ``CONS_CLAUSE`` when it has
#: cons and empty otherwise, and a permutation renders one sentence per
#: swap with ``more_important`` and ``less_important``.
SENTENCES = {
    "decisive_dominance": (
        "{preferred} has a better reputation than {other}, because it is better "
        "in all aspects that you consider in your preferences, mainly with "
        "respect to {pros}."
    ),
    "decisive_tradeoff": (
        "{preferred} has a better reputation than {other}, mainly due to "
        "{pros}{cons_clause}."
    ),
    "type_permutation": (
        "Considering {term}, even though {other} has a higher trust value "
        "considering {less_important}, which is less important, {preferred} "
        "has a higher trust value considering {more_important}, which is more "
        "important."
    ),
    "recency_overall": (
        "In addition, {other} has, on average, higher ratings than {preferred}, "
        "but {preferred} has been recently receiving higher ratings than "
        "{other}, which are more valuable."
    ),
    "recency_component": (
        "Moreover, {other} has, on average, higher ratings for {term} than "
        "{preferred}, considering {rep_type}, but {preferred} has been recently "
        "receiving higher ratings than {other}, which are more valuable."
    ),
    "low_confidence": (
        "Moreover, although you have had limited previous interactions with "
        "either {preferred} or {other} with respect to {term}, the former is "
        "considered better than the latter by witnesses."
    ),
}

CONS_CLAUSE = ", even though {other} provides better {cons}"


def join_terms(terms) -> str:
    """Comma-join with a final ", and" once there is more than one item."""
    items = list(terms)
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + ", and " + items[-1]


def _named_fields(cls) -> tuple[tuple[int, str], ...]:
    """(index, name) of each field of an argument kind that its sentence
    names, with ``CONS_CLAUSE``'s for a trade-off, in field order."""
    sentences = [SENTENCES[cls.kind]] + ([CONS_CLAUSE] if cls is DecisiveTradeoff else [])
    named = {
        field for sentence in sentences for _, field, _, _ in string.Formatter().parse(sentence)
    }
    return tuple((i, field) for i, field in enumerate(cls._fields) if field in named)


#: Per argument kind, the fields that ``_slots`` binds.
_SLOT_PLANS = {cls.kind: _named_fields(cls) for cls in ARGUMENT_KINDS}


def _slots(argument, ascending_pros: bool) -> dict[str, str]:
    """Display text of the fields the argument's sentence names, as
    ``_SLOT_PLANS`` lists them: a term as itself, a tuple of terms joined
    (the pros reversed under ``ascending_pros``), a reputation type by its
    display name. No other field is read."""
    slots = {}
    for i, field in _SLOT_PLANS[argument.kind]:
        value = argument[i]
        if isinstance(value, ReputationType):
            slots[field] = REP_TYPE_DISPLAY[value]
        elif isinstance(value, str):
            slots[field] = value
        elif isinstance(value, tuple) and all(isinstance(v, str) for v in value):
            if field == "pros" and ascending_pros:
                value = value[::-1]
            slots[field] = join_terms(value)
    return slots


def render_text(
    explanation: Explanation,
    names: Mapping[str, str],
    ascending_pros: bool = False,
) -> str:
    """Render an explanation as one sentence block per argument.

    ``names`` maps agent ids to display strings; a missing referent raises
    UnknownAgentError. With ``ascending_pros`` the pros of the first
    sentence are listed by ascending weighted difference instead of the
    default descending order.
    """

    def name(agent_id: str) -> str:
        if agent_id not in names:
            raise UnknownAgentError(f"no display name for agent {agent_id!r}")
        return names[agent_id]

    base = {"preferred": name(explanation.preferred), "other": name(explanation.other)}
    blocks: list[str] = []
    for argument in explanation.arguments:
        sentence = SENTENCES[argument.kind]
        slots = {**base, **_slots(argument, ascending_pros)}
        if isinstance(argument, DecisiveTradeoff):
            slots["cons_clause"] = CONS_CLAUSE.format(**slots) if argument.cons else ""
        if isinstance(argument, TypePermutation):
            blocks.extend(
                sentence.format(
                    **slots,
                    more_important=REP_TYPE_DISPLAY[more_important],
                    less_important=REP_TYPE_DISPLAY[less_important],
                )
                for more_important, less_important in argument.swaps
            )
        else:
            blocks.append(sentence.format_map(slots))
    return "\n".join(blocks)
