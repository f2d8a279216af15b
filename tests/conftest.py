"""Test-wide Hypothesis settings: deterministic, no example database, and
its storage (unicode tables, collected constants) in a temporary directory
removed when the session ends, so a test run leaves the checkout as it was."""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("corrlab", derandomize=True, deadline=None, database=None)
settings.load_profile("corrlab")

_HOME = tempfile.mkdtemp(prefix="corrlab-hypothesis-")
set_hypothesis_home_dir(_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HOME, ignore_errors=True)
