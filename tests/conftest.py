"""Hypothesis runs derandomized: every run of the suite on one commit draws
the same examples, and no example database is kept."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
