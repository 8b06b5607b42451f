"""Hypothesis profiles for the test suite.

`ci-deep` runs each property derandomized (the same examples on every run)
with five times its examples: the default run draws 100 per property where
a test sets no count, `ci-deep` 500, and tests that set a count scale it by
the same factor through `examples`. Select it with
`python -m pytest --hypothesis-profile ci-deep`.
"""
from datetime import timedelta

from hypothesis import settings

settings.register_profile("ci-deep", derandomize=True, max_examples=500)


def examples(count):
    """`count` examples under the default hypothesis profile, scaled with the
    loaded profile's max_examples (five times under ci-deep)."""
    return count * settings.default.max_examples // 100


def grid_step(interval_seconds):
    """One grid interval as a timedelta of whole µs, the grid's unit, for the
    references: a stamp's slot is (stamp - start) // grid_step(interval)."""
    return timedelta(microseconds=round(interval_seconds * 1e6))
