"""Hypothesis draws the same examples on every run and keeps no example database.

Each test's own ``@settings(max_examples=...)`` still applies on top of
this profile.  Hypothesis's home directory (where it caches the constants
it scans from local modules, whatever the database) is a temporary
directory removed at exit, so a test run writes no ``.hypothesis/`` into
the checkout.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
