"""Hypothesis settings for the whole suite.

Exact-arithmetic examples can take seconds each on a small, shared
machine, so no per-example deadline applies; failures print the blob
that reproduces them.
"""

from hypothesis import settings

settings.register_profile("halfsquares", deadline=None, print_blob=True)
settings.load_profile("halfsquares")
