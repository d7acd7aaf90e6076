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
