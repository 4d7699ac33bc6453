"""Hypothesis draws the same examples on every run and keeps no example database.

Each test's own ``@settings(max_examples=...)`` still applies on top of
this profile.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
