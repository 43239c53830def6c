"""Text rendering: golden sentences, list joining, the sentence table."""

import string
import typing

import pytest

from reptrace import fixture
from reptrace.core import ReputationType
from reptrace.errors import UnknownAgentError
from reptrace.explain import (
    ARGUMENT_KINDS,
    DecisiveTradeoff,
    Explanation,
    FireRecencyGlobal,
    FireRecencyLocal,
    TravosLowConfidence,
    TypePermutation,
    explain,
    invert_permutation,
)
from reptrace.pipeline import explanation_to_document
from reptrace.render import CONS_CLAUSE, SENTENCES, join_terms, render_text
from test_pipeline import EVERY_KIND

I = ReputationType.INTERACTION
W = ReputationType.WITNESS

NAMES = {agent: agent for agent in ("A", "B", "C", "D", "E")}

EXAMPLE_1 = (
    "B has a better reputation than C, because it is better in all aspects "
    "that you consider in your preferences, mainly with respect to "
    "timeliness, and quality."
)
EXAMPLE_2 = "B has a better reputation than D, mainly due to quality."
EXAMPLE_3 = (
    "Considering timeliness, even though E has a higher trust value "
    "considering witness reputation, which is less important, B has a "
    "higher trust value considering own interaction, which is more "
    "important."
)


class TestGoldenSentences:
    def test_domination_ascending_order(self):
        explanation = explain(fixture.comparison("B", "C"))
        text = render_text(explanation, NAMES, ascending_pros=True)
        assert text == EXAMPLE_1

    def test_domination_default_order(self):
        explanation = explain(fixture.comparison("B", "C"))
        text = render_text(explanation, NAMES)
        assert "quality, and timeliness." in text

    def test_tradeoff(self):
        explanation = explain(fixture.comparison("B", "D"))
        assert render_text(explanation, NAMES) == EXAMPLE_2

    def test_permutation_sentence(self):
        ctx = fixture.comparison("B", "E")
        arg = invert_permutation(ctx, "timeliness")
        explanation = Explanation(
            assessor="A", preferred="B", other="E", arguments=(arg,)
        )
        assert render_text(explanation, NAMES) == EXAMPLE_3

    def test_cons_clause(self):
        arg = DecisiveTradeoff(
            pros=("quality",),
            cons=("timeliness", "cost"),
            weighted_differences={"quality": 0.2, "timeliness": 0.1, "cost": 0.05},
        )
        explanation = Explanation(
            assessor="A", preferred="B", other="D", arguments=(arg,)
        )
        text = render_text(explanation, NAMES)
        assert text == (
            "B has a better reputation than D, mainly due to quality, even "
            "though D provides better timeliness, and cost."
        )

    def test_recency_sentences(self):
        global_arg = FireRecencyGlobal(0.8, 0.4, 0.5, 0.6)
        local_arg = FireRecencyLocal("quality", I, 0.8, 0.4, 0.5, 0.6)
        explanation = explain(fixture.comparison("B", "D"))
        extended = Explanation(
            assessor="A",
            preferred="B",
            other="D",
            arguments=explanation.arguments + (global_arg, local_arg),
        )
        text = render_text(extended, NAMES)
        lines = text.split("\n")
        assert lines[1] == (
            "In addition, D has, on average, higher ratings than B, but B has "
            "been recently receiving higher ratings than D, which are more "
            "valuable."
        )
        assert lines[2] == (
            "Moreover, D has, on average, higher ratings for quality than B, "
            "considering own interaction, but B has been recently receiving "
            "higher ratings than D, which are more valuable."
        )

    def test_low_confidence_sentence(self):
        arg = TravosLowConfidence("quality", 0.1, 0.15, 0.8, 0.2, 0.2)
        explanation = Explanation(
            assessor="A", preferred="B", other="C", arguments=(arg,)
        )
        assert render_text(explanation, NAMES) == (
            "Moreover, although you have had limited previous interactions "
            "with either B or C with respect to quality, the former is "
            "considered better than the latter by witnesses."
        )


class TestJoinTerms:
    def test_single(self):
        assert join_terms(["quality"]) == "quality"

    def test_pair_keeps_comma(self):
        assert join_terms(["timeliness", "quality"]) == "timeliness, and quality"

    def test_three(self):
        assert join_terms(["a", "b", "c"]) == "a, b, and c"

    def test_empty(self):
        assert join_terms([]) == ""


class TestRenderMechanics:
    def test_unknown_agent(self):
        explanation = explain(fixture.comparison("B", "C"))
        with pytest.raises(UnknownAgentError):
            render_text(explanation, {"B": "B"})

    def test_byte_identical_across_runs(self):
        explanation = explain(fixture.comparison("B", "C"))
        first = render_text(explanation, NAMES)
        second = render_text(explanation, NAMES)
        assert first == second

    def test_document_carries_rendered_pros(self):
        explanation = explain(fixture.comparison("B", "C"))
        [argument] = explanation_to_document(explanation)["arguments"]
        assert argument["kind"] == "decisive_dominance"
        text = render_text(explanation, NAMES)
        assert text == EXAMPLE_1.replace("timeliness, and quality", join_terms(argument["pros"]))

    def test_multi_swap_renders_one_sentence_each(self):
        arg = TypePermutation(
            term="quality",
            swaps=((I, W), (ReputationType.ROLE_BASED, ReputationType.CERTIFIED)),
            preferred_original=0.6,
            other_original=0.5,
            preferred_swapped=0.4,
            other_swapped=0.55,
        )
        explanation = Explanation(
            assessor="A", preferred="B", other="C", arguments=(arg,)
        )
        text = render_text(explanation, NAMES)
        assert text.count("Considering quality") == 2


#: Every argument kind, plus a trade-off with two pros and two cons, shown
#: under display names that differ from the agent ids.
EVERY_KIND_AND_WIDE_TRADEOFF = EVERY_KIND._replace(
    arguments=EVERY_KIND.arguments
    + (
        DecisiveTradeoff(
            pros=("quality", "timeliness"),
            cons=("cost", "safety"),
            weighted_differences={
                "quality": 0.5, "timeliness": 0.25, "cost": 0.125, "safety": 0.0625
            },
        ),
    )
)
DISPLAY_NAMES = {"swift": "Swift Couriers", "steady": "Steady Freight"}


def every_kind_lines(pros):
    """The rendered lines, with ``pros`` as both decisive arguments list them."""
    return (
        "Swift Couriers has a better reputation than Steady Freight, because it "
        "is better in all aspects that you consider in your preferences, mainly "
        f"with respect to {pros}.",
        "Swift Couriers has a better reputation than Steady Freight, mainly due "
        "to quality, even though Steady Freight provides better cost.",
        "Considering quality, even though Steady Freight has a higher trust value "
        "considering witness reputation, which is less important, Swift Couriers "
        "has a higher trust value considering own interaction, which is more "
        "important.",
        "Considering quality, even though Steady Freight has a higher trust value "
        "considering certified reputation, which is less important, Swift "
        "Couriers has a higher trust value considering role-based reputation, "
        "which is more important.",
        "In addition, Steady Freight has, on average, higher ratings than Swift "
        "Couriers, but Swift Couriers has been recently receiving higher ratings "
        "than Steady Freight, which are more valuable.",
        "Moreover, Steady Freight has, on average, higher ratings for timeliness "
        "than Swift Couriers, considering witness reputation, but Swift Couriers "
        "has been recently receiving higher ratings than Steady Freight, which "
        "are more valuable.",
        "Moreover, although you have had limited previous interactions with "
        "either Swift Couriers or Steady Freight with respect to cost, the "
        "former is considered better than the latter by witnesses.",
        "Swift Couriers has a better reputation than Steady Freight, mainly due "
        f"to {pros}, even though Steady Freight provides better cost, "
        "and safety.",
    )


class TestEveryKind:
    def test_descending_pros(self):
        text = render_text(EVERY_KIND_AND_WIDE_TRADEOFF, DISPLAY_NAMES)
        assert text.split("\n") == list(every_kind_lines("quality, and timeliness"))

    def test_ascending_pros_reverses_pros_only(self):
        text = render_text(EVERY_KIND_AND_WIDE_TRADEOFF, DISPLAY_NAMES, ascending_pros=True)
        assert text.split("\n") == list(every_kind_lines("timeliness, and quality"))


#: Slots that ``render_text`` binds by rule rather than from a field.
RULE_SLOTS = {
    "decisive_tradeoff": {"cons_clause"},
    "type_permutation": {"more_important", "less_important"},
}


def slots_of(sentence):
    return {field for _, field, _, _ in string.Formatter().parse(sentence) if field}


class TestSentenceTable:
    def test_one_sentence_per_argument_kind(self):
        assert sorted(SENTENCES) == sorted(cls.kind for cls in ARGUMENT_KINDS)

    @pytest.mark.parametrize("cls", ARGUMENT_KINDS, ids=lambda cls: cls.kind)
    def test_slots_name_bindable_fields(self, cls):
        bindable = (str, tuple[str, ...], ReputationType)
        hints = typing.get_type_hints(cls)
        fields = {f for f in cls._fields if hints[f] in bindable}
        allowed = {"preferred", "other"} | fields | RULE_SLOTS.get(cls.kind, set())
        sentences = [SENTENCES[cls.kind]]
        if cls is DecisiveTradeoff:
            sentences.append(CONS_CLAUSE)
        for sentence in sentences:
            assert slots_of(sentence) <= allowed
