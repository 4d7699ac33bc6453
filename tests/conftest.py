"""Hypothesis draws the same examples on every run and keeps no example database.

Each test's own ``@settings(max_examples=...)`` still applies on top of
this profile.  Hypothesis's home directory (where it caches the constants
it scans from local modules, whatever the database) is a temporary
directory removed at exit, so a test run writes no ``.hypothesis/`` into
the checkout.

Every test starts with an empty store of kept ``classify`` and ``axioms``
inputs (``axioms._kept``), so a test that plants a draw or a grid never
reads another test's kept input.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from gentropy import axioms

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _empty_store_of_kept_inputs():
    axioms._clear_kept()
