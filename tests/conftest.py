"""Hypothesis profiles for the tier-1 suite.

Properties that give no ``max_examples`` of their own (the nested
pipeline properties, the xmlkit properties) run the active profile's
budget: hypothesis's
default here, ``--hypothesis-profile=ci`` in the CI step that pins the
seed (``--hypothesis-seed=0``), so a red run there is a regression,
never a draw.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
