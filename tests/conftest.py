"""Shared hypothesis settings: every property test replays the same examples
(derandomize, no example database) under one per-example deadline; each
test sets only its own max_examples."""
from hypothesis import settings

settings.register_profile("ramspect", derandomize=True, database=None, deadline=2000)
settings.load_profile("ramspect")
