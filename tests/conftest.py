"""Shared test settings: one hypothesis profile for every property test.

Derandomized and without an example database, so a property test draws
the same examples on every run and machine; no deadline, because the
exact oracles are slow on some draws.  Tests set only `max_examples`.
"""

from hypothesis import settings

settings.register_profile("wpline", deadline=None, derandomize=True, database=None)
settings.load_profile("wpline")
