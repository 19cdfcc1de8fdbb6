"""Test-wide settings.

Property tests run under a fixed hypothesis profile: ``derandomize`` makes
every run draw the same examples, so the suite gives the same result each
time, and ``deadline=None`` keeps a slow host from failing an example on
time alone.
"""
from hypothesis import settings

settings.register_profile("nilcomm", derandomize=True, deadline=None, database=None)
settings.load_profile("nilcomm")
