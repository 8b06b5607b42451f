"""Hypothesis profiles for the test suite.

`ci-deep` runs each property derandomized (the same examples on every run)
with five times its examples: the default run draws 100 per property where
a test sets no count, `ci-deep` 500, and tests that set a count scale it by
the same factor through `examples`. Select it with
`python -m pytest --hypothesis-profile ci-deep`.
"""
from hypothesis import settings

settings.register_profile("ci-deep", derandomize=True, max_examples=500)


def examples(count):
    """`count` examples under the default hypothesis profile, scaled with the
    loaded profile's max_examples (five times under ci-deep)."""
    return count * settings.default.max_examples // 100
