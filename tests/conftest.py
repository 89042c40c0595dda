import collections
import contextlib
import functools
from unittest import mock

import mpmath
import pytest

from planardyn import DEFAULT_TOLERANCES, make_context, numerics, run_suite, square_map, strips

# the PL route of the exact core, which the tests keep as the reference
# for the pointwise one: no certificate calls them
PL_REFERENCES = (
    (square_map, "row_map"),
    (numerics.PLFunction, "blend"),
    (strips, "strip_locate"),
    (square_map, "strip_locate"),
    (square_map, "region_of"),
)


@pytest.fixture(scope="session")
def ctx():
    return make_context()


@pytest.fixture(scope="session")
def fp():
    return mpmath.fp


@pytest.fixture(scope="session")
def tol():
    return DEFAULT_TOLERANCES


@pytest.fixture(scope="session")
def suite_report(ctx):
    """``suite_report(name)``: the report of ``run_suite(name, ctx)`` at
    the default sampler seed, run once per session on first use.  The
    acceptance battery and the suite tests read the ``core``, ``xi`` and
    ``plane`` reports from here, so each suite runs once.  The runs count
    their calls of ``PL_REFERENCES`` into ``suite_report.reference_calls``."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @functools.cache
    def report(name):
        with contextlib.ExitStack() as patches:
            for owner, attr in PL_REFERENCES:
                wrapper = counted(f"{owner.__name__}.{attr}", getattr(owner, attr))
                patches.enter_context(mock.patch.object(owner, attr, wrapper))
            return run_suite(name, ctx)

    report.reference_calls = calls
    return report
