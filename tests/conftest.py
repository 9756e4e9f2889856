"""Hypothesis runs derandomized and without its example database, so every
property test draws the same examples on every run."""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=200, database=None
)
settings.load_profile("deterministic")
