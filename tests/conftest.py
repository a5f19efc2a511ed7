"""Test-suite settings shared by every test module.

Hypothesis runs a derandomized profile: the examples of each property test
are derived from the test itself, so every run of the suite tries the same
examples, and a failure seen once is seen again on a rerun.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
