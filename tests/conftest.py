"""Test-wide settings.

Property tests run a fixed, derandomised set of examples with no
per-example deadline, so a run is reproducible and does not fail on a
slow or busy machine; no example database is written.
"""

from hypothesis import settings

settings.register_profile("eacomp", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("eacomp")
