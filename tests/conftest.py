"""Session settings shared by every test module.

Hypothesis draws its examples from a fixed seed (``derandomize``), keeps no
example database between runs and sets no per-example deadline, so a test
run repeats exactly, on any machine.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")
