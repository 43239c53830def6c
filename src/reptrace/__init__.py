"""Reputation assessment and explanation engine.

Two reputation backends (recency-weighted means and beta-evidence pooling)
share one multi-term trust structure; pairwise rankings between providers
are justified by minimal argument sets rendered as plain sentences.

The package itself exports nothing: callers import its submodules, such as
``reptrace.pipeline`` or ``reptrace.cli``.
"""
