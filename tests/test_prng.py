"""The pure-Python PCG64 stream against numpy's ``Generator``, draw for draw."""

import hashlib
import math
import random
import types

import numpy as np
import pytest

from reptrace import prng
from reptrace.prng import Stream
from reptrace.simulate import agent_rng


def numpy_generator(entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def entropy_pairs(count=300):
    """(seed, key) pairs: edge seeds first, then derandomized ones.

    Seeds of 2**64 or more give more entropy words than the pool holds.
    """
    rng = random.Random(20140905)
    pairs = [(0, 0), (0, 1), (1, (1 << 64) - 1), ((1 << 32) - 1, 1 << 32), (1 << 32, 7),
             ((1 << 64) + 5, 9), (1 << 100, (1 << 64) - 1)]
    while len(pairs) < count:
        seed = rng.choice([rng.getrandbits(16), rng.getrandbits(32), rng.getrandbits(48),
                           (1 << 32) + rng.getrandbits(32), rng.getrandbits(64)])
        pairs.append((seed, rng.getrandbits(64)))
    return pairs


def mixed_draws(gen, plan):
    """Apply a plan of numpy-style calls to ``gen``; Stream uses its own spelling."""
    out = []
    for call, args in plan:
        if call == "integers":
            out.append(int(gen.integers(0, args)))
        elif call == "normal":
            out.append(float(gen.normal(*args)))
        elif call == "choice":
            if isinstance(gen, Stream):
                out.append(gen.choice(args))
            else:
                out.append(int(gen.choice(len(args), p=args)))
        else:
            out.append(float(gen.random()))
    return out


def draw_plan(rng, length):
    plan = []
    for _ in range(length):
        call = rng.choice(["integers", "integers", "normal", "choice", "random"])
        if call == "integers":
            plan.append((call, rng.choice([1, 2, 3, 8])))
        elif call == "normal":
            plan.append((call, (rng.uniform(-5, 5), rng.choice([0.0, 0.5, 1.0, 2.5]))))
        elif call == "choice":
            weights = [rng.choice([0.0, rng.random()]) for _ in range(3)] + [rng.random()]
            plan.append((call, [w / sum(weights) for w in weights]))
        else:
            plan.append((call, None))
    return plan


def test_mixed_draws_match_numpy():
    # Runs of integers calls between other draws exercise the half-word
    # buffer: a pending high half survives normal, choice and random.
    rng = random.Random(7)
    for entropy in entropy_pairs():
        plan = draw_plan(rng, 300)
        ours = mixed_draws(Stream(entropy), plan)
        theirs = mixed_draws(numpy_generator(entropy), plan)
        assert [repr(v) for v in ours] == [repr(v) for v in theirs], entropy


def test_integers_of_one_consume_nothing():
    stream, gen = Stream((3, 4)), numpy_generator((3, 4))
    assert [stream.integers(0, 1) for _ in range(5)] == [0] * 5
    assert stream.random() == float(gen.random())


def test_standard_normals_match_numpy_on_every_ziggurat_branch(monkeypatch):
    calls = {"exp": 0, "log1p": 0}

    def counted(name):
        def call(x):
            calls[name] += 1
            return getattr(math, name)(x)
        return call

    monkeypatch.setattr(
        prng, "math", types.SimpleNamespace(exp=counted("exp"), log1p=counted("log1p"))
    )
    n = 100_000
    stream = Stream((2020, 12))
    ours = [stream.normal(0.0, 1.0) for _ in range(n)]
    theirs = numpy_generator((2020, 12)).normal(0.0, 1.0, n).tolist()
    assert list(map(repr, ours)) == list(map(repr, theirs))
    # Most draws take the fast path; exp is called only in a wedge and
    # log1p only in the tail beyond the last layer.
    assert calls["exp"] > 0 and calls["log1p"] > 0
    assert calls["exp"] < n / 50
    assert max(map(abs, ours)) > 3.6541528853610087


def test_agent_rng_matches_numpy_for_the_hashed_key():
    key = int.from_bytes(hashlib.sha256(b"alice").digest()[:8], "big")
    ours = agent_rng(42, "alice")
    theirs = numpy_generator((42, key))
    assert [ours.random() for _ in range(10)] == theirs.random(10).tolist()


def test_negative_entropy_rejected_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        Stream((-1, 5))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence((-1, 5))


@pytest.mark.parametrize("high", [0, -3, (1 << 32) + 1])
def test_integers_range_outside_bounds_rejected(high):
    with pytest.raises(ValueError):
        Stream((1, 2)).integers(0, high)
