"""One Hypothesis profile for every property: derandomized, so that a run
draws the same examples each time, with no example database and no
per-example deadline.  Each test's own settings give only max_examples."""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")
