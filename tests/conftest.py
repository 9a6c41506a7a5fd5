"""Session settings shared by every test module.

Hypothesis draws its examples from a fixed seed (``derandomize``), keeps no
example database between runs and sets no per-example deadline, so a test
run repeats exactly, on any machine.  The ``deep`` profile is the same with
1000 examples per property (``--hypothesis-profile=deep``).
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.register_profile("deep", settings.get_profile("repeatable"), max_examples=1000)
settings.load_profile("repeatable")
