"""Suite-wide reporting helpers, fork fixtures, and the differential gate on every fit.

The acceptance tests record a one-line verdict per criterion; echoing them
in the terminal summary keeps the checklist visible even when every test
passes and pytest swallows stdout.

ietmix fits with a NumPy port of the one path of
scipy.optimize.least_squares it needs. For the whole session, every solve
any test makes in this process goes through the port and through SciPy,
given the port's fixed bounds, tolerances and evaluation cap, and the two
must agree bit for bit: the same x (tau, alpha), residuals (sse),
evaluation count and status (converged), or the same ValueError text.
"""

import os

import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from ietmix import fitting

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def reaped():
    """Fails the test if it leaves a child process behind, reaped or not.

    Every test that may fork uses it, so a child left behind fails the
    test that left it.
    """
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made in this process; each still forks."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def scipy_solve(fun, x0, jac, x_scale):
    """The SciPy solve that fitting.least_squares(fun, x0, jac, x_scale) ports."""
    return scipy_least_squares(
        fun, x0, jac=jac, bounds=(fitting._LOWER, fitting._UPPER), ftol=fitting._TOL,
        xtol=fitting._TOL, gtol=fitting._TOL, x_scale=x_scale, max_nfev=fitting._MAX_NFEV)


def _bytes(solution):
    return (np.asarray(solution.x).tobytes(), np.asarray(solution.fun).tobytes(),
            int(solution.nfev), int(solution.status))


@pytest.fixture(scope="session", autouse=True)
def solves_checked_against_scipy():
    """Route fitting.least_squares through the SciPy comparison for the session.

    Yields the list of solves compared so far, so a test can count its own.
    Session scope, and no monkeypatch, keeps Hypothesis tests free of
    function-scoped fixtures.
    """
    port = fitting.least_squares
    compared = []

    def checked(fun, x0, jac, x_scale):
        try:
            ours = port(fun, x0, jac, x_scale)
        except ValueError as exc:
            with pytest.raises(ValueError) as theirs:
                scipy_solve(fun, x0, jac, x_scale)
            assert str(theirs.value) == str(exc)
            raise
        assert _bytes(ours) == _bytes(scipy_solve(fun, x0, jac, x_scale)), (
            "the NumPy port and SciPy solved one fit differently")
        compared.append(_bytes(ours))
        return ours

    fitting.least_squares = checked
    try:
        yield compared
    finally:
        fitting.least_squares = port
