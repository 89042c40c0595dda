import functools

import mpmath
import pytest

from planardyn import DEFAULT_TOLERANCES, make_context, run_suite


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
    ``plane`` reports from here, so each suite runs once."""
    return functools.cache(lambda name: run_suite(name, ctx))
