"""Test-session setup shared by every test module."""

import warnings

# Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` only when
# it reports a falsifying example.  That import pulls in libcst, which uses
# the deprecated ``mypy_extensions.TypedDict``; under ``-W
# error::DeprecationWarning`` the warning is raised inside pytest's report
# hook and turns a readable failure into an INTERNALERROR.  Importing it once
# here, with only that import's DeprecationWarnings ignored, leaves the
# command-line filters in force for everything else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
