import os
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from triform import brahmagupta, enumerate_spectrum, spectrum

import oracles


@pytest.fixture(autouse=True)
def cold_rep_cache():
    # the one solver keeps the last energy's solved tuples, which level_of
    # and rep_search both read, and the prime-power rows of every energy
    # solved, and rep_search keeps the last energy's reps; a test that
    # counts solver, factorization, Cornacchia or rep-build calls, or
    # monkeypatches any of them, must not read a cached energy, row or rep.
    spectrum._rep_tuples.cache_clear()
    spectrum._prime_rows.cache_clear()
    brahmagupta._reps.cache_clear()


@pytest.fixture(scope="session")
def spectrum_2700():
    return enumerate_spectrum(2700)


@pytest.fixture(scope="session")
def naive_2700():
    return oracles.naive_levels(2700)


@pytest.fixture(scope="session")
def oracle_reps_5000():
    return oracles.all_reps_by_product(5000)


@pytest.fixture
def forks(monkeypatch):
    """The pids of every worker the count stripe forks, in order, with
    windows of 64 energies.  Every
    worker must be reaped by the end of the test: a worker still running,
    or exited and not waited for, is a leak, which is then killed and
    reaped here.  A test that hangs on a pipe or a worker fails after 60 s."""
    monkeypatch.setattr(spectrum, "_COUNT_WINDOW", 64)
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def hung(signum, frame):
        raise TimeoutError("the forked count stripe hung")

    monkeypatch.setattr(os, "fork", recorded)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    leaked = []
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        for pid in pids:
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):  # still running
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                leaked.append(pid)
            except ChildProcessError:
                pass  # reaped by the stripe
    assert not leaked, f"workers left unreaped: {leaked}"
