"""Session settings shared by every test module.

Hypothesis draws its examples from a fixed seed (``derandomize``), keeps no
example database between runs and sets no per-example deadline, so a test
run repeats exactly, on any machine.  The ``deep`` profile is the same with
1000 examples per property (``--hypothesis-profile=deep``).

Hypothesis imports ``hypothesis.extra._patching`` to report a failing
example, and that import (through ``libcst``) raises a ``DeprecationWarning``
for ``mypy_extensions.TypedDict``.  Under ``-W error`` the report hook then
fails, and pytest prints an INTERNALERROR in place of the falsifying example;
a ``filterwarnings`` setting loses to a command-line ``-W error``.  So the
module is imported here once, with that warning ignored.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a Hypothesis without it, or without libcst
        pass

settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.register_profile("deep", settings.get_profile("repeatable"), max_examples=1000)
settings.load_profile("repeatable")
