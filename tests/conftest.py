"""Hypothesis runs derandomised and without an example database, so each
property test draws the same examples on every run and the suite's wall time
can be compared between commits.  A test's own @settings(max_examples=...)
still applies on top of this profile."""

from hypothesis import settings

settings.register_profile("qhc", derandomize=True, database=None)
settings.load_profile("qhc")
