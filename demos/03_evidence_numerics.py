#!/usr/bin/env python3
"""Beta-evidence trust: confidence growth and witness discounting.

The evidence backend counts successes and failures into a beta
distribution. Its expected value is the trust estimate; the mass within
epsilon of that estimate is the confidence; witness opinions shrink
toward the uniform prior in proportion to the witness's historical
accuracy.
"""

from reptrace.travos import (
    BetaParams,
    combine_evidence,
    confidence,
    decomposition_weights,
    discount_opinion,
    witness_accuracy,
)


def main():
    print("Confidence grows with evidence at a fixed 0.8 success rate (eps 0.1):")
    for n in (0, 5, 10, 50, 200):
        pos = round(0.8 * n)
        p = BetaParams(1 + pos, 1 + (n - pos))
        print(f"  {n:>4} interactions -> trust {p.mean:.3f}, confidence {confidence(p, 0.1):.3f}")
    print()

    print("A witness holding 9 successes and 1 failure reports opinion 0.833.")
    opinion = BetaParams(10, 2)
    print("Its weight depends on how its past opinions in the same range")
    print("turned out for us:")
    histories = {
        "no history": (0, 0),
        "6 confirmations": (6, 6),
        "6 contradictions": (6, 0),
    }
    for label, (n, successes) in histories.items():
        rho = witness_accuracy(n, successes, opinion_bin=5, bins=5)
        discounted = discount_opinion(opinion, rho)
        print(
            f"  {label:<18} accuracy {rho:.3f} -> discounted "
            f"({discounted.alpha:.2f}, {discounted.beta:.2f}), "
            f"expected value {discounted.mean:.3f}"
        )
    print()

    print("Discounted witness evidence pools with our own by summing counts.")
    own = BetaParams(2, 2)  # one success, one failure of our own
    rho = witness_accuracy(*histories["6 confirmations"], opinion_bin=5, bins=5)
    discounted = discount_opinion(opinion, rho)
    pooled = combine_evidence(own, [discounted])
    w_i, w_w = decomposition_weights(own, [discounted])
    print(f"  own evidence        ({own.alpha:.2f}, {own.beta:.2f})")
    print(f"  discounted witness  ({discounted.alpha:.2f}, {discounted.beta:.2f})")
    print(f"  pooled              ({pooled.alpha:.2f}, {pooled.beta:.2f}) -> trust {pooled.mean:.3f}")
    print(f"  decomposition: interaction weight {w_i:.3f}, witness weight {w_w:.3f}")
    recombined = w_i * own.mean + w_w * (discounted.mean)
    print(f"  recombination check: {recombined:.6f} == {pooled.mean:.6f}")


if __name__ == "__main__":
    main()
