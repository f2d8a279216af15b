"""Test-wide Hypothesis settings: deterministic, no example database."""

from hypothesis import settings

settings.register_profile("corrlab", derandomize=True, deadline=None, database=None)
settings.load_profile("corrlab")
