"""Shared test configuration.

HYPOTHESIS_PROFILE=ci selects a derandomised Hypothesis profile: every
run tries the same examples, so a property failure in CI reproduces
locally and a green run stays green.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
