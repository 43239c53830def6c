#!/usr/bin/env python3
"""Walk through the shared trust structure on the built-in fixture.

Every backend reduces its evidence to the same three levels: component
trusts per evidence channel, a weighted term trust per aspect, and one
preference-weighted overall score. This script recomputes the built-in
four-provider example step by step.
"""

from reptrace import fixture
from reptrace.core import weighted_mean
from reptrace.fire import role_pseudo_ratings
from reptrace.store import RoleRule

def main():
    print("Role-rule values on the bipolar scale [-1, 1] are mapped to [0, 1].")
    for raw in (-1.0, 0.0, 0.6, 1.0):
        rule = RoleRule("buyer", "courier", "quality", likelihood=1.0, expected_value=raw)
        [(value, _)] = role_pseudo_ratings([rule], ("buyer",), ("courier",), "quality")
        print(f"  bipolar {raw:+.1f}  ->  {value:.2f}")
    print()

    print("Component trusts combine into a term trust by weighted mean.")
    print("Provider B, quality: interaction 0.75 (weight 0.75), witness 0.95 (weight 0.25)")
    value = weighted_mean([(0.75, 0.75), (0.95, 0.25)])
    print(f"  term trust = 0.75*0.75 + 0.25*0.95 = {value:.2f}")
    print()

    print("Term trusts combine into the overall score by preference weights.")
    weights = fixture.TERM_WEIGHTS
    print(f"  preferences: {weights}")
    print()

    header = ["provider"] + list(fixture.TERMS) + ["overall"]
    print("  ".join(f"{h:>10}" for h in header))
    for provider in fixture.PROVIDERS:
        assessment = fixture.assessment(provider)
        cells = [f"{provider:>10}"]
        cells += [f"{assessment.term_trust(t):>10.4f}" for t in fixture.TERMS]
        cells.append(f"{assessment.overall:>10.4f}")
        print("  ".join(cells))
    print()

    b = fixture.assessment("B")
    overall = weighted_mean((b.term_trust(t), weights[t]) for t in fixture.TERMS)
    print(f"Check: overall for B recomputed directly = {overall:.6f}")
    print("B ranks first; the explanation demos show why, argument by argument.")


if __name__ == "__main__":
    main()
