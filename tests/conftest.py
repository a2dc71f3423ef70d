"""Shared test settings: hypothesis draws the same examples on every run
(derandomize) and keeps no example database, so tier-1 stays deterministic;
no deadline, because a loaded machine is not a failed property."""

from hypothesis import settings

settings.register_profile("dhj", derandomize=True, deadline=None, database=None)
settings.load_profile("dhj")
