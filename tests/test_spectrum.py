import itertools
import json
import marshal
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import parity_of
from triform import (
    EmptySpectrumError,
    EnergyLevel,
    Parity,
    Spectrum,
    State,
    build_census,
    energy_of,
    enumerate_spectrum,
    level_of,
    parity_of_energy,
)
from triform import spectrum as spectrum_module
from triform.brahmagupta import rep_search
from triform.cli import _STATE_FRAGMENTS
from triform.spectrum import _LEVEL_WINDOW as W, _prime_rows, _rep_tuples, factorize, form_solutions
from triform.spectrum import _DIVISOR_SUM_EXACT, _divisor_counts

# e_max on both sides of the level walk's first two window edges, W and 2*W
_LEVEL_EDGES = [W - 1, W, W + 1, 2 * W - 1, 2 * W, 2 * W + 1]


@pytest.mark.parametrize(
    "state, energy",
    [((1, 5), 28), ((1, 1), 4), ((3, 8), 91), ((2, 4), 28), ((17, 20), 1267)],
)
def test_energy_of(state, energy):
    assert energy_of(state) == energy


@pytest.mark.parametrize("state", [(0, 1), (1, 0), (-2, 3), (3, -1), (1.5, 2), (1.0, 5.0)])
def test_energy_of_rejects_nonpositive(state):
    with pytest.raises(ValueError):
        energy_of(state)


def test_smallest_spectrum():
    spectrum = enumerate_spectrum(4)
    assert len(spectrum) == 1
    assert spectrum[4].states == (State(1, 1),)


def test_spectrum_28():
    # brute force over n1 <= 3, n2 <= 5: energies 4,7,12,13,16,19,21,28
    spectrum = enumerate_spectrum(28)
    assert len(spectrum) == 8
    assert spectrum.state_count == 10
    assert spectrum[28].degeneracy == 3
    assert list(spectrum) == [4, 7, 12, 13, 16, 19, 21, 28]


def test_spectrum_2700_counts(spectrum_2700):
    assert len(spectrum_2700) == 655
    assert spectrum_2700.state_count == 1179


@pytest.mark.parametrize("e_max", [3, 2, 1, 0, -7])
def test_spectrum_rejects_empty_bound(e_max):
    with pytest.raises(EmptySpectrumError):
        enumerate_spectrum(e_max)


def test_level_of_28():
    level = level_of(28)
    assert level.states == (State(1, 5), State(2, 4), State(3, 1))


def test_level_of_196():
    level = level_of(196)
    assert level.degeneracy == 4
    assert level.states == (State(3, 13), State(5, 11), State(7, 7), State(8, 2))


def test_first_level_past_a_count_byte():
    # 4*7^2*13*19*31*37*43*61: g = floor(3*d/2) with d = 3*2^6 split-prime
    # divisors, the least same-parity E with d >= 171; a count byte holds 255,
    # so the CLI refuses an --emax from here on, while the solve and `[]`
    # still read the level
    energy = 145_651_423_372
    assert energy == 4 * 7**2 * 13 * 19 * 31 * 37 * 43 * 61
    assert level_of(energy).degeneracy == 288
    assert enumerate_spectrum(energy)[energy] == level_of(energy)


def test_level_of_absent():
    assert level_of(5) is None
    assert level_of(2) is None
    assert level_of(1) is None


def test_level_of_agrees_with_spectrum(spectrum_2700):
    buckets = dict(spectrum_2700.raw_items())  # the stripe's own states
    for energy in range(-1, 2702):
        level = level_of(energy)
        if energy in buckets:
            assert [tuple(s) for s in level.states] == buckets[energy]
        elif energy <= 2700:
            assert level is None
        if level is None or energy > 2700:
            with pytest.raises(KeyError):
                spectrum_2700[energy]
        else:
            assert spectrum_2700[energy] == level


@pytest.mark.parametrize(
    "energy, parity",
    [(28, Parity.SAME), (91, Parity.OPPOSITE), (4, Parity.SAME), (196, Parity.SAME)],
)
def test_parity_of(energy, parity):
    assert parity_of(level_of(energy)) is parity
    assert parity_of_energy(energy) is parity


def test_parity_of_energy_rejects_2_mod_4():
    with pytest.raises(ValueError):
        parity_of_energy(6)


def test_parity_laws_small():
    spectrum = enumerate_spectrum(10_000)
    for level in spectrum.iter_levels():
        e = level.energy
        assert e % 2 == 1 or e % 4 == 0
        bits = {(a - b) % 2 for a, b in level.states}
        assert len(bits) == 1
        assert parity_of(level) is parity_of_energy(e)


def test_oracle_equivalence_naive_double_loop():
    spectrum = enumerate_spectrum(10_000)
    naive = oracles.naive_levels(10_000)
    assert set(spectrum) == set(naive)
    for e, states in naive.items():
        assert [tuple(s) for s in spectrum[e].states] == sorted(states)
    assert dict(spectrum.raw_items()) == naive


def test_states_sorted_and_distinct(spectrum_2700):
    for level in spectrum_2700.iter_levels():
        n1s = [s.n1 for s in level.states]
        assert n1s == sorted(n1s)
        assert len(set(level.states)) == len(level.states)


def test_build_determinism():
    a = enumerate_spectrum(500)
    b = enumerate_spectrum(500)
    dump = lambda s: json.dumps(
        {str(e): [list(t) for t in s[e].states] for e in s}, sort_keys=False
    )
    assert dump(a) == dump(b)
    assert list(a) == list(b)
    assert dict(a.raw_items()) == dict(b.raw_items()) == oracles.naive_levels(500)


def test_spectrum_is_not_a_mapping():
    # the Mapping views solved every energy one at a time; a spectrum is read
    # by its walks and its count table, and compares and hashes by identity
    spectrum = enumerate_spectrum(28)
    assert not isinstance(spectrum, Mapping)
    for name in ("get", "keys", "items", "values"):
        assert not hasattr(spectrum, name), name
    assert spectrum != enumerate_spectrum(28) and spectrum == spectrum
    assert {spectrum: 1}[spectrum] == 1


def test_spectrum_count_reads_and_one_level(spectrum_2700):
    assert 28 in spectrum_2700
    assert 5 not in spectrum_2700
    assert level_of(5) is None
    assert spectrum_2700.degeneracy_of(28) == 3
    assert spectrum_2700.degeneracy_of(5) == 0
    with pytest.raises(KeyError):
        spectrum_2700[5]
    energies = list(spectrum_2700)
    assert energies == sorted(energies)


def test_one_energy_reads_build_no_table():
    # each is one solve; the count table of 10^8 energies would take 100 MB
    spectrum = enumerate_spectrum(10**8)
    tracemalloc.start()
    try:
        assert 28 in spectrum and 5 not in spectrum
        assert spectrum.degeneracy_of(91) == 2
        assert spectrum[196].degeneracy == 4
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**10:.0f} KB"
    assert spectrum._counts is None and spectrum._buckets is None


def test_table_reads_build_no_buckets():
    spectrum = enumerate_spectrum(2700)
    assert spectrum[28].degeneracy == 3 and level_of(2701) is not None
    for energy in (2701, "28"):
        with pytest.raises(KeyError):
            spectrum[energy]
    assert 28 in spectrum and spectrum.degeneracy_of(2701) == 0
    assert spectrum._counts is None  # one level, `in` and `degeneracy_of` build neither store
    assert list(spectrum) == sorted(oracles.naive_levels(2700))
    assert len(spectrum) == 655
    assert 28 in spectrum and 5 not in spectrum
    for energy in (5, 2701):
        with pytest.raises(KeyError):
            spectrum[energy]
    assert spectrum._buckets is None
    assert spectrum[28].degeneracy == 3
    assert spectrum._buckets is None  # a hit is solved, not enumerated


def test_repr_builds_nothing():
    spectrum = enumerate_spectrum(10**6)
    assert repr(spectrum) == "Spectrum(e_max=1000000)"
    assert 5 not in spectrum and spectrum.degeneracy_of(28) == 3  # nor do one-energy reads
    assert spectrum._counts is None and spectrum._buckets is None


@pytest.mark.parametrize("e_max", [4, 6, *_LEVEL_EDGES, 4 * W + 3])
def test_windowed_walk_equals_the_whole_range_stripe(e_max):
    spectrum = enumerate_spectrum(e_max)
    assert list(spectrum.raw_items()) == sorted(oracles.naive_levels(e_max).items())
    assert spectrum._buckets is None and spectrum._counts is None  # nothing cached


def _rendered(items, first, second, sep):
    """(energy, degeneracy, text) of (energy, states) pairs, each state
    written through the fragments one at a time: the text walk's contract."""
    return [(energy, len(states), sep.join(first.format(a) + second.format(b)
                                           for a, b in states))
            for energy, states in items]


@pytest.mark.parametrize("e_max", [4, 6, W - 1, W + 1, 2 * W - 1, 2 * W + 1, 4 * W + 3])
@pytest.mark.parametrize("fmt", sorted(_STATE_FRAGMENTS))
def test_text_walk_equals_the_level_walk_rendered(e_max, fmt):
    # the levels of the naive double loop, not of `raw_items`, which reads
    # the same walk as `text_levels`
    fragments = _STATE_FRAGMENTS[fmt]
    spectrum = enumerate_spectrum(e_max)
    assert (list(spectrum.text_levels(*fragments))
            == _rendered(sorted(oracles.naive_levels(e_max).items()), *fragments))
    assert spectrum._buckets is None and spectrum._counts is None  # nothing cached


@pytest.mark.parametrize("window", [4, 8, 64, 1024])
def test_text_walk_windows_cover_the_range(monkeypatch, naive_2700, window):
    monkeypatch.setattr(spectrum_module, "_LEVEL_WINDOW", window)
    fragments = ("<{}", "|{}>", ", ")
    assert (list(enumerate_spectrum(2700).text_levels(*fragments))
            == _rendered(sorted(naive_2700.items()), *fragments))


def test_text_walk_reads_explicit_buckets(monkeypatch):
    buckets = {e: list(states) for e, states in enumerate_spectrum(400).raw_items()}
    del buckets[28][1]  # (2, 4) dropped: the walk must not stripe it back
    del buckets[7]
    spectrum = Spectrum(400, buckets)

    def no_stripe(lo, hi):
        raise AssertionError("striped explicit buckets")

    monkeypatch.setattr(spectrum_module, "_stripes", no_stripe)
    texts = list(spectrum.text_levels("{}:", "{}", ";"))
    assert texts == _rendered(sorted(buckets.items()), "{}:", "{}", ";")
    assert (28, 2, "1:5;3:1") in texts and 7 not in [e for e, _, _ in texts]


def test_explicit_buckets_iterate_in_ascending_energy():
    items = list(enumerate_spectrum(300).raw_items())
    spectrum = Spectrum(300, dict(reversed(items)))
    assert list(spectrum) == [e for e, _ in items] == sorted(e for e, _ in items)
    walked = list(spectrum.raw_items())
    assert walked == items
    walked[0][1].clear()  # each list is fresh: the buckets stay as they were
    assert list(spectrum.raw_items()) == items
    assert [lv.energy for lv in spectrum.iter_levels()] == list(spectrum)


def test_count_reads_outside_the_range(spectrum_2700):
    # `in`, `degeneracy_of` and `[]` share one range guard
    for energy in (-1, -2700, 0, 2701, 10**9, "28", 28.0, True, None):
        assert energy not in spectrum_2700
        assert spectrum_2700.degeneracy_of(energy) == 0
        with pytest.raises(KeyError):
            spectrum_2700[energy]


def test_degeneracies_table(spectrum_2700, naive_2700):
    counts = spectrum_2700.degeneracies()
    assert isinstance(counts, bytes) and len(counts) == 2701
    assert counts == bytes(len(naive_2700.get(e, ())) for e in range(2701))
    assert spectrum_2700.degeneracies() is counts


def _pair(lo, counts):
    """The count stripe's map for tests: each window as (lo, counts).  A
    worker's counts come back as bytes, which compare equal to the
    bytearray of the same window."""
    return lo, counts


def test_degeneracies_hold_the_table_and_one_window(monkeypatch):
    # a bytearray table and its bytes copy, held together, peaked at twice the table
    window = 1 << 16
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", window)
    spectrum = enumerate_spectrum(1 << 20)
    tracemalloc.start()
    try:
        counts = spectrum.degeneracies()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == b"".join(c for _, c in spectrum.count_windows(_pair))
    assert peak < len(counts) + 2 * window, f"peak {peak / 2**10:.0f} KB"


@pytest.mark.parametrize("window", [4, 64, 1 << 20])
def test_count_windows_cover_the_range(monkeypatch, naive_2700, window):
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", window)

    def checked(lo, counts):
        assert isinstance(counts, bytearray)  # in whichever process stripes it
        return lo, counts

    windows = list(enumerate_spectrum(2700).count_windows(checked))
    assert [lo for lo, _ in windows] == list(range(0, 2701, window))
    assert b"".join(c for _, c in windows) == bytes(
        len(naive_2700.get(e, ())) for e in range(2701))


def test_count_windows_read_a_built_table(monkeypatch, naive_2700):
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", 64)
    spectrum = enumerate_spectrum(2700)
    table = spectrum.degeneracies()

    def no_count(lo, hi):
        raise AssertionError("counted again")

    monkeypatch.setattr(spectrum_module, "_divisor_counts", no_count)
    windows = list(spectrum.count_windows(_pair))  # off the table, in this process
    assert [lo for lo, _ in windows] == list(range(0, 2701, 64))
    assert all(isinstance(c, bytearray) for _, c in windows)
    assert b"".join(c for _, c in windows) == table
    windows[0][1][4] = 9  # a window is the caller's copy
    assert spectrum.degeneracies()[4] == 1 == len(naive_2700[4])


def test_explicit_bucket_count_windows_never_stripe(monkeypatch):
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", 64)
    items = list(enumerate_spectrum(2700).raw_items())
    spectrum = Spectrum(2700, dict(items))
    assert spectrum._counts is None  # the buckets are stored, not counted

    def no_count(lo, hi):
        raise AssertionError("counted explicit buckets")

    monkeypatch.setattr(spectrum_module, "_divisor_counts", no_count)
    windows = list(spectrum.count_windows(_pair))
    assert [lo for lo, _ in windows] == list(range(0, 2701, 64))
    assert b"".join(c for _, c in windows) == bytes(
        len(dict(items).get(e, ())) for e in range(2701))
    assert list(spectrum.raw_items()) == items


def test_degeneracies_read_off_explicit_buckets():
    buckets = {e: list(states) for e, states in enumerate_spectrum(3000).raw_items()}
    assert Spectrum(3000, buckets).degeneracies() == enumerate_spectrum(3000).degeneracies()
    # energies outside 0..e_max are left out
    outside = {**buckets, -1: [(1, 1)], 3001: [(1, 1)]}
    assert Spectrum(3000, outside).degeneracies() == enumerate_spectrum(3000).degeneracies()


# the reads of explicit buckets that keep no table: read -> (the read, what
# it gives for the buckets' (energy, states) items, ascending)
_BUCKET_READS = {
    "raw_items": (lambda s: list(s.raw_items()), lambda items: items),
    "iter_levels": (lambda s: [(lv.energy, lv.states) for lv in s.iter_levels()],
                    lambda items: [(e, tuple(states)) for e, states in items]),
    "text_levels": (lambda s: list(s.text_levels("{}:", "{}", ";")),
                    lambda items: _rendered(items, "{}:", "{}", ";")),
    "state_count": (lambda s: s.state_count, lambda items: sum(len(st) for _, st in items)),
    "build_census": (build_census, lambda items: oracles.bucket_census(
        SimpleNamespace(e_max=3000, raw_items=lambda: iter(items)))),
}


@pytest.mark.parametrize("read", sorted(_BUCKET_READS))
def test_bucket_reads_keep_no_table(forks, read):
    # windows of 64 energies (`forks`); (2, 4) is dropped from 28 and 7 is
    # deleted, so a read that striped the range instead would differ
    buckets = {e: list(states) for e, states in enumerate_spectrum(3000).raw_items()}
    del buckets[28][1]
    del buckets[7]
    spectrum = Spectrum(3000, buckets)
    read_it, expected = _BUCKET_READS[read]
    assert read_it(spectrum) == expected(sorted(buckets.items()))
    assert spectrum._counts is None  # each window is read and let go
    tabled = Spectrum(3000, buckets)
    len(tabled)  # the windows are now copies out of the table
    assert read_it(tabled) == expected(sorted(buckets.items()))


def test_degeneracies_raise_rather_than_wrap():
    # 255 is the most a byte holds; realized degeneracies first pass it at
    # E = 145651423372, with 288 states
    assert Spectrum(4, {4: [(1, 1)] * 255}).degeneracies()[4] == 255
    bucket_reads = [read for read, _ in _BUCKET_READS.values()]
    for read in (Spectrum.degeneracies, len, *bucket_reads):
        spectrum = Spectrum(4, {4: [(1, 1)] * 256})  # construction counts nothing
        with pytest.raises(ValueError):  # at the first count read
            read(spectrum)
        assert spectrum._counts is None, read


def test_a_bucket_past_a_byte_in_a_worker_window_raises_here(monkeypatch, forks):
    # on 2 CPUs the worker has windows 1, 3, 5, ... of 64 energies: it stops
    # at the bucket of 256 states in window 1, and this process, striping
    # that window again, raises
    monkeypatch.setattr(spectrum_module, "_cpus", lambda: 2)
    buckets = {e: list(states) for e, states in enumerate_spectrum(1000).raw_items()}
    buckets[100] = [(1, 1)] * 256
    parent = os.getpid()
    window_counts = Spectrum._window_counts
    striped_here = []

    def recorded(self, lo):
        if os.getpid() == parent:
            striped_here.append(lo // 64)
        return window_counts(self, lo)

    monkeypatch.setattr(Spectrum, "_window_counts", recorded)
    with pytest.raises(ValueError):
        build_census(Spectrum(1000, buckets))
    assert striped_here == [0, 1]
    assert len(forks) == 1


def _assert_state_count_sums_the_table(e_max):
    spectrum = enumerate_spectrum(e_max)
    count = spectrum.state_count
    assert spectrum._counts is None, e_max  # no table built
    assert count == sum(spectrum.degeneracies()), e_max


def test_state_count_sums_the_table_up_to_3000():
    for e_max in range(4, 3001):
        _assert_state_count_sums_the_table(e_max)


@pytest.mark.parametrize("e_max", [k * (1 << 20) + d for k in (1, 2) for d in (-1, 1)] + [2 * 10**6])
def test_state_count_sums_the_table_at_window_edges(e_max):
    _assert_state_count_sums_the_table(e_max)


def test_state_count_of_explicit_buckets_sums_what_they_hold():
    buckets = {e: list(states) for e, states in enumerate_spectrum(3000).raw_items()}
    buckets[4] = [(1, 1), (2, 2), (3, 3)]
    buckets[3001] = [(1, 1)]  # outside the range: left out
    assert Spectrum(3000, buckets).state_count == enumerate_spectrum(3000).state_count + 2


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_windows_equal_one_process(monkeypatch, forks, cpus):
    for e_max in [4, 63, 64, 127, 128, 129, 191, 192, 193, 255, 256, 257, 1000, 2700]:
        monkeypatch.setattr(spectrum_module, "_cpus", lambda: 1)
        alone = list(enumerate_spectrum(e_max).count_windows(_pair))
        forked = len(forks)
        monkeypatch.setattr(spectrum_module, "_cpus", lambda: cpus)
        spectrum = enumerate_spectrum(e_max)
        assert list(spectrum.count_windows(_pair)) == alone
        assert spectrum.degeneracies() == b"".join(c for _, c in alone)
        assert list(spectrum.count_windows(_pair)) == alone  # off the built table, unforked
        # window i goes to process i mod cpus, so the first stripe forks a
        # worker per CPU but one, and none for a CPU left without a window;
        # the table is built in this process
        assert len(forks) - forked == min(cpus, len(alone)) - 1, e_max


@pytest.mark.parametrize("cpus", [2, 3])
def test_each_window_is_mapped_by_the_process_that_stripes_it(monkeypatch, forks, cpus):
    monkeypatch.setattr(spectrum_module, "_cpus", lambda: cpus)
    window_counts = Spectrum._window_counts
    striper = {}

    def recorded(self, lo):
        striper["pid"] = os.getpid()
        return window_counts(self, lo)

    def mapped(lo, counts):
        return lo, striper["pid"], os.getpid()

    monkeypatch.setattr(Spectrum, "_window_counts", recorded)
    results = list(enumerate_spectrum(1000).count_windows(mapped))
    assert [lo for lo, _, _ in results] == list(range(0, 1001, 64))
    assert len(forks) == cpus - 1
    processes = [os.getpid(), *forks]
    for i, (lo, striped_by, mapped_by) in enumerate(results):
        assert striped_by == mapped_by == processes[i % cpus], lo


def test_a_worker_value_error_surfaces_with_its_message(monkeypatch, forks):
    monkeypatch.setattr(spectrum_module, "_cpus", lambda: 2)
    window_counts = Spectrum._window_counts
    overflow = bytearray(1)
    with pytest.raises(ValueError) as raised:
        overflow[0] += 256
    message = str(raised.value)

    def planted(self, lo):
        if lo == 320:
            overflow[0] += 256  # a count above 255, in whichever process stripes it
        return window_counts(self, lo)

    monkeypatch.setattr(Spectrum, "_window_counts", planted)
    windows = enumerate_spectrum(1000).count_windows(_pair)
    # on 2 CPUs the worker has windows 1, 3, 5, ... and this process 0, 2, 4, ...
    assert [lo for lo, _ in itertools.islice(windows, 5)] == [0, 64, 128, 192, 256]
    with pytest.raises(ValueError) as raised:
        next(windows)
    assert str(raised.value) == message
    assert len(forks) == 1


@pytest.mark.parametrize("stop", ["dies", "cuts its last window short"])
def test_a_worker_that_stops_early_leaves_its_windows_to_this_process(monkeypatch, forks, stop):
    # 16 windows on 3 CPUs: the first worker has windows 1, 4, 7, 10, 13,
    # the second 2, 5, 8, 11, 14, and this process 0, 3, 6, 9, 12, 15
    monkeypatch.setattr(spectrum_module, "_cpus", lambda: 1)
    alone = list(enumerate_spectrum(1000).count_windows(_pair))
    monkeypatch.setattr(spectrum_module, "_cpus", lambda: 3)
    parent = os.getpid()
    window_counts = Spectrum._window_counts
    at, undelivered = (7, [7, 10, 13]) if stop == "dies" else (14, [14])
    striped_here = []

    def planted(self, lo):
        if os.getpid() == parent:
            striped_here.append(lo // 64)
        elif lo == at * 64 and stop == "dies":
            os._exit(3)
        return window_counts(self, lo)

    def dump(result, pipe):
        record = marshal.dumps(result)
        if result[0] == at * 64:  # write part of the record, and leave
            pipe.write(record[:len(record) // 2])
            pipe.flush()
            os._exit(0)
        pipe.write(record)

    monkeypatch.setattr(Spectrum, "_window_counts", planted)
    monkeypatch.setattr(spectrum_module, "marshal", SimpleNamespace(dump=dump, load=marshal.load))
    assert list(enumerate_spectrum(1000).count_windows(_pair)) == alone
    assert striped_here == sorted([0, 3, 6, 9, 12, 15] + undelivered)
    assert len(forks) == 2


def test_a_worker_killed_mid_stripe_leaves_its_windows_to_this_process(monkeypatch, forks):
    # Results of 2 MB overfill a pipe of 64 KB, Linux's default, so the
    # worker, with windows 1 and 3 of 5, cannot have written its first
    # whole when it is killed
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", 1 << 21)
    monkeypatch.setattr(spectrum_module, "_cpus", lambda: 1)
    alone = list(enumerate_spectrum(1 << 23).count_windows(_pair))
    monkeypatch.setattr(spectrum_module, "_cpus", lambda: 2)
    windows = enumerate_spectrum(1 << 23).count_windows(_pair)
    assert next(windows) == alone[0]
    assert len(forks) == 1
    os.kill(forks[0], signal.SIGKILL)
    assert list(windows) == alone[1:]


@pytest.mark.parametrize("cpus", [2, 3])
def test_stopping_after_one_window_reaps_every_worker(monkeypatch, forks, cpus):
    # Results of 2 MB overfill a pipe of 64 KB, so a worker whose stripe
    # stops is blocked on a write, and the workers of the second stripe hold
    # the read ends of the first stripe's pipes, forked before them: a
    # worker waited on but not killed would never see its pipe close.
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", 1 << 21)
    monkeypatch.setattr(spectrum_module, "_cpus", lambda: cpus)
    first, second = (enumerate_spectrum(1 << 23).count_windows(_pair) for _ in range(2))
    for windows in (first, second):
        lo, counts = next(windows)
        assert lo == 0 and len(counts) == 1 << 21
    first.close()
    second.close()
    assert len(forks) == 2 * (cpus - 1)
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


_KILLED_MID_STRIPE = """
import os, sys
from triform import spectrum
spectrum._COUNT_WINDOW = 1 << 21
spectrum._cpus = lambda: 3
fork = os.fork

def recorded():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = recorded
windows = spectrum.enumerate_spectrum(1 << 23).count_windows(lambda lo, counts: counts)
next(windows)
print("read", flush=True)
sys.stdin.read()
"""


def _running(pid):
    """Whether pid runs: it has not exited, nor is it a zombie left to init."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads a worker's state in /proc")
@pytest.mark.parametrize("signame", ["SIGTERM", "SIGKILL"])
def test_workers_leave_when_the_census_process_is_killed(signame):
    # The process reading the stripe is killed after one window, so its
    # `finally` never runs.  Its two workers are blocked writing windows of
    # 2 MB into pipes of 64 KB, and each must then fail the write and leave
    # by itself, which it cannot while any worker holds a read end.
    src = Path(__file__).resolve().parents[1] / "src"
    census = subprocess.Popen(
        [sys.executable, "-c", _KILLED_MID_STRIPE],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    pids = [int(line) for line in iter(census.stdout.readline, "read\n")]
    census.send_signal(getattr(signal, signame))
    census.wait()
    census.stdin.close()
    census.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 20
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left, f"workers outlived the census process: {left}"


def test_no_fork_without_fork_or_with_a_second_thread(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert spectrum_module._cpus() == len(os.sched_getaffinity(0))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert spectrum_module._cpus() == 1
    finally:
        release.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert spectrum_module._cpus() == 1


@pytest.mark.parametrize("energy", [4.0, 76.0, 91.0, 2.5, "91", None])
def test_solver_and_level_refuse_an_energy_that_is_not_an_int(energy):
    # 4.0 got EnergyLevel(energy=4.0), 76.0 a TypeError from the prime split
    for solve in (level_of, form_solutions, rep_search):
        with pytest.raises(ValueError, match=repr(energy).replace(".", r"\.")):
            solve(energy)


def test_a_value_equal_to_the_cached_energy_is_still_refused():
    assert level_of(91).degeneracy == 2  # 91 is now the solve's cached energy
    for energy in (91.0, Fraction(91)):
        with pytest.raises(ValueError):
            rep_search(energy)
        with pytest.raises(ValueError):
            level_of(energy)
    assert level_of(True) is None and rep_search(True) == []  # a bool is an int


@pytest.mark.parametrize("e_max", [10.0, 1e6, "28", None])
def test_spectrum_refuses_a_bound_that_is_not_an_int(e_max):
    with pytest.raises(ValueError, match="e_max must be an int"):
        enumerate_spectrum(e_max)


def test_energy_level_validation():
    with pytest.raises(ValueError):
        EnergyLevel(28, ())
    with pytest.raises(ValueError):
        EnergyLevel(28, (State(2, 4), State(1, 5)))  # not ascending in n1
    with pytest.raises(ValueError):
        EnergyLevel(29, (State(1, 5),))  # wrong energy
    with pytest.raises(ValueError):
        EnergyLevel(28, ((1.0, 5.0),))  # float indices, energy 28.0
    level = EnergyLevel(28, (State(1, 5), State(2, 4), State(3, 1)))
    assert level.degeneracy == 3
    assert level.parity is Parity.SAME


@pytest.mark.parametrize("states, message", [
    (((0, 5),), "state indices must be positive integers, got (0, 5)"),
    (((1, 5), (0, 5)), "state indices must be positive integers, got (0, 5)"),
    (((-1, 5),), "state indices must be positive integers, got (-1, 5)"),
    (((1, -5),), "state indices must be positive integers, got (1, -5)"),
    ((("1", 5),), "state indices must be positive integers, got (1, 5)"),
    (((1, "5"),), "state indices must be positive integers, got (1, 5)"),
    (((1.0, 4.0),), "state indices must be positive integers, got (1.0, 4.0)"),
    (((1.0, 5.0),), "state indices must be positive integers, got (1.0, 5.0)"),
    (((1, 4),), "state (1, 4) does not have energy 28"),
    (((1, 5), (2, 5)), "state (2, 5) does not have energy 28"),
    (((2, 4), (1, 5)), "states must be strictly ascending in n1"),
    (((1, 5), (1, 5)), "states must be strictly ascending in n1"),
])
def test_energy_level_names_the_first_failed_check(states, message):
    # each state goes through energy_of, which names a bad index, then the
    # energy test, then the n1 order; the first state to fail names itself
    with pytest.raises(ValueError) as raised:
        EnergyLevel(28, states)
    assert str(raised.value) == message


def test_energy_level_takes_bool_indices_as_ints():
    assert EnergyLevel(28, ((True, 5),)).degeneracy == 1


def test_iter_levels_equals_level_of_up_to_2700(spectrum_2700):
    levels = list(spectrum_2700.iter_levels())
    assert [level.energy for level in levels] == list(spectrum_2700)
    for level in levels:
        assert level == level_of(level.energy)
        assert all(type(s) is State and len(s) == 2 for s in level.states)


_LEVEL_CLASSES = ([(parity, g) for parity in Parity for g in range(1, 7)]
                  + [(parity, None) for parity in Parity] + [(None, g) for g in range(1, 7)])


def _filtered_walk(spectrum, parity, degeneracy):
    """The full level walk, filtered on the built levels."""
    return [level for level in spectrum.iter_levels()
            if parity in (None, level.parity) and degeneracy in (None, level.degeneracy)]


@pytest.mark.parametrize("parity, degeneracy", _LEVEL_CLASSES)
def test_class_walk_equals_the_filtered_full_walk(spectrum_2700, parity, degeneracy):
    walked = list(spectrum_2700.iter_levels(parity, degeneracy))
    assert walked == _filtered_walk(spectrum_2700, parity, degeneracy)
    # the two conjecture classes, as the census table of 2700 counts them
    assert len(walked) == {(Parity.OPPOSITE, 2): 109, (Parity.SAME, 3): 132}.get(
        (parity, degeneracy), len(walked))


@pytest.mark.parametrize("e_max", [4, 5, 7, 63, 64, 65, 127, 128, 129, 1000, 2999, 3000])
def test_class_walk_across_small_windows(monkeypatch, e_max):
    monkeypatch.setattr(spectrum_module, "_LEVEL_WINDOW", 64)
    spectrum = enumerate_spectrum(e_max)
    for parity, degeneracy in _LEVEL_CLASSES:
        assert (list(spectrum.iter_levels(parity, degeneracy))
                == _filtered_walk(spectrum, parity, degeneracy)), (parity, degeneracy)


@pytest.mark.parametrize("e_max", _LEVEL_EDGES)
def test_class_walk_at_the_window_edge(e_max):
    # the class of each oracle level read off the relative parity of its
    # first state, not off the energy
    spectrum = enumerate_spectrum(e_max)
    naive = sorted(oracles.naive_levels(e_max).items())
    for parity, degeneracy in [(Parity.OPPOSITE, 2), (Parity.SAME, 3), (None, 1)]:
        walked = [(lv.energy, lv.degeneracy) for lv in spectrum.iter_levels(parity, degeneracy)]
        assert walked == [
            (energy, len(states)) for energy, states in naive
            if parity in (None, Parity.SAME if (states[0][0] - states[0][1]) % 2 == 0
                          else Parity.OPPOSITE) and degeneracy in (None, len(states))
        ]


def test_class_walk_reads_explicit_buckets():
    buckets = {e: list(states) for e, states in enumerate_spectrum(3000).raw_items()}
    odd_3_fold = next(e for e, states in sorted(buckets.items()) if e % 2 and len(states) == 3)
    del buckets[odd_3_fold][0]  # planted: a 3-fold level left with two states
    del buckets[91][0]  # a doublet left with one state
    spectrum = Spectrum(3000, buckets)
    doublets = [lv.energy for lv in spectrum.iter_levels(Parity.OPPOSITE, 2)]
    assert odd_3_fold in doublets and 91 not in doublets
    assert doublets == sorted(e for e, states in buckets.items() if e % 2 and len(states) == 2)
    assert spectrum[91].degeneracy == 2  # `[]` solves; the buckets changed only the walk


@pytest.mark.parametrize("parity, degeneracy", [
    (None, 0), (None, -1), (None, 2.0), (Parity.SAME, "3"), ("opposite", 2), ("same", None),
])
def test_class_walk_rejects_an_invalid_class(parity, degeneracy):
    with pytest.raises(ValueError):
        enumerate_spectrum(300).iter_levels(parity, degeneracy)


@given(st.integers(1, 3000), st.integers(1, 3000))
def test_realized_energies_never_2_mod_4(n1, n2):
    assert energy_of((n1, n2)) % 4 != 2


@given(st.integers(1, 60), st.integers(1, 60))
def test_every_state_appears_in_its_level(n1, n2):
    level = level_of(energy_of((n1, n2)))
    assert State(n1, n2) in level.states


# ------------------------------------------------------------- form solver

def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_factorize_rebuilds_n_from_primes():
    for n in range(1, 3001):
        factors = factorize(n)
        product = 1
        for p, k in factors:
            assert _is_prime(p) and k >= 1
            product *= p ** k
        assert product == n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
    for n in (0, -12):
        with pytest.raises(ValueError):
            factorize(n)


def test_factorize_matches_a_smallest_prime_factor_sieve():
    expected = oracles.sieve_factorizations(10**5)
    for n in range(1, 10**5 + 1):
        assert factorize(n) == expected[n], n


@pytest.mark.parametrize("n, factors", [
    (561, [(3, 1), (11, 1), (17, 1)]),  # Carmichael numbers
    (41041, [(7, 1), (11, 1), (13, 1), (41, 1)]),
    (825265, [(5, 1), (7, 1), (17, 1), (19, 1), (73, 1)]),
    (3215031751, [(151, 1), (751, 1), (28351, 1)]),  # strong pseudoprime to 2, 3, 5, 7
    (999983**2, [(999983, 2)]),
    (1000003 * 1000033, [(1000003, 1), (1000033, 1)]),
    (999999999989, [(999999999989, 1)]),  # prime
])
def test_factorize_hard_cases(n, factors):
    assert factorize(n) == factors


def _up_to_sign(y, x):
    """The one of +-(y + x*sqrt(-3)) with x > 0, or with x = 0 and y > 0."""
    return (y, x) if (x, y) > (0, 0) else (-y, -x)


def _elements_of_norm(n):
    """Every y + x*sqrt(-3) of norm y^2 + 3*x^2 = n, one of each +- pair, by a
    scan over x."""
    elements = set()
    for x in range(math.isqrt(n // 3) + 1):
        y = math.isqrt(n - 3 * x * x)
        if y * y == n - 3 * x * x:
            elements |= {_up_to_sign(y, x), _up_to_sign(-y, x)}
    return elements


@pytest.mark.parametrize("p", [p for p in range(2, 200) if _is_prime(p)])
def test_prime_rows_hold_one_element_per_associate_class_of_each_norm(p):
    # the units of Z[sqrt(-3)] are +-1, so a class of associates is a +- pair
    for k in range(5):
        rows = _prime_rows(p, k)
        inert = p % 3 == 2
        exponents = [] if inert and k % 2 else range(0, k + 1, 2) if inert else range(k + 1)
        assert sorted({q for q, _, _ in rows}) == [p**e for e in exponents], (p, k)
        for e in exponents:
            row = [_up_to_sign(y, x) for q, y, x in rows if q == p**e]
            assert all(y * y + 3 * x * x == p**e for y, x in row), (p, e)
            assert len(set(row)) == len(row), (p, e)  # no two equal up to sign
            assert set(row) == _elements_of_norm(p**e), (p, e)
            if p % 3 == 1:
                assert len(row) == e + 1
            elif p == 2 and e:
                assert len(row) == 3  # 2^(e/2) and its two rotations
            else:
                assert len(row) == 1


@pytest.mark.parametrize("p, k", [(2, 3), (3, 4), (5, 2), (7, 3), (13, 1), (2, 4), (11, 2)])
def test_prime_rows_are_tuples(p, k):
    rows = _prime_rows(p, k)
    assert type(rows) is tuple
    assert all(type(t) is tuple and len(t) == 3 and all(type(n) is int for n in t) for t in rows)
    assert _prime_rows(p, k) is rows  # kept, and no caller can change it


# 7932652 = 4*7*13*19*31*37 shares 7 and 13 with 91 = 7*13 and 7**4 * 13**2,
# and 7 with 1267 = 7*181
SHARED_SPLIT_PRIMES = [7932652, 7**4 * 13**2, 1267, 91]


@pytest.mark.parametrize("order", [SHARED_SPLIT_PRIMES, SHARED_SPLIT_PRIMES[::-1]])
def test_kept_rows_solve_as_cold_rows_do(order):
    cold = {}
    for energy in order:
        spectrum_module._prime_rows.cache_clear()
        spectrum_module._rep_tuples.cache_clear()
        cold[energy] = spectrum_module._rep_tuples(energy)
    spectrum_module._prime_rows.cache_clear()
    for energy in order:
        spectrum_module._rep_tuples.cache_clear()
        assert spectrum_module._rep_tuples(energy) == cold[energy], energy
    assert spectrum_module._prime_rows.cache_info().hits > 0


def _exponent_rows(n):
    """The `_prime_rows` elements of every exponent vector of n, one list of
    (y, x) per prime, an exponent the rows leave out giving an empty list."""
    factors = factorize(n)
    tables = [_prime_rows(p, k) for p, k in factors]
    for exps in itertools.product(*(range(k + 1) for _, k in factors)):
        yield [[(y, x) for q, y, x in rows if q == p**e]
               for (p, _), rows, e in zip(factors, tables, exps)]


def _solutions(rows):
    """The solutions read off the products of one element of each row, as
    `_rep_tuples` reads them: (|x|, |y|) of each product y + x*sqrt(-3)
    with x*y > 0, ascending in x."""
    elements = [(1, 0)]
    for row in rows:
        elements = [(y * c - 3 * x * d, y * d + x * c) for y, x in elements for c, d in row]
    return sorted((abs(x), abs(y)) for y, x in elements if x * y > 0)


def test_solutions_match_the_unit_loop_up_to_5000():
    solved = 0
    for energy in range(1, 5001):
        for rows in _exponent_rows(4 * energy):
            expected = oracles.unit_loop_solutions(rows)
            assert _solutions(rows) == expected, (energy, rows)
            solved += bool(expected)
    # the rows leave out an exponent whose cofactor has no element, such as
    # 2^1 and 2^3 of 4*E for an even E not divisible by 4
    assert solved > 9000


def test_solutions_match_the_unit_loop_on_a_seeded_sample():
    rng = random.Random(6151)
    sample = [rng.randint(5001, 10**9) for _ in range(20)]
    sample += [energy_of((rng.randint(1, 12909), rng.randint(1, 22360))) for _ in range(20)]
    sample += [energy_of((rng.randint(1, 80), rng.randint(1, 80)))
               * energy_of((rng.randint(1, 80), rng.randint(1, 80))) for _ in range(20)]
    solved = 0
    for energy in sample:
        for rows in _exponent_rows(4 * energy):
            expected = oracles.unit_loop_solutions(rows)
            assert _solutions(rows) == expected, (energy, rows)
            solved += bool(expected)
    assert solved > 1000


@pytest.mark.parametrize("n", [4 * 3 * 7, 2**6 * 3**5 * 7 * 13, 2**10 * 7 * 13 * 19, 4**3 * 7**3])
def test_solutions_of_elements_that_2_divides_match_the_unit_loop(n):
    # 2 is inert, so its row at an even exponent 2j >= 2 holds 2^j and its
    # two rotations 2^(j-1) * (-1 +- sqrt(-3)), one class of associates in
    # Z[w]: the unit loop takes each class of the products once, so the
    # three rows together must give each solution once
    solved = 0
    for rows in _exponent_rows(n):
        if len(rows[0]) == 3:
            expected = oracles.unit_loop_solutions(rows)
            assert _solutions(rows) == expected, rows
            solved += bool(expected)
    assert solved >= 3


def test_form_solutions_match_scan_up_to_20000():
    for n in range(-2, 20001):
        assert form_solutions(n) == oracles.scan_form_solutions(n), n


def test_form_solutions_match_scan_on_a_seeded_sample():
    rng = random.Random(20240)
    sample = [rng.randint(4, 4 * 10**9) for _ in range(30)]
    # realized values and products of two, which have many solutions
    for _ in range(30):
        x = rng.randint(1, 36000)
        y = rng.randint(1, math.isqrt(4 * 10**9 - 3 * x * x))
        sample.append(3 * x * x + y * y)
    for _ in range(30):
        x1, y1, x2, y2 = (rng.randint(1, 150) for _ in range(4))
        sample.append((3 * x1 * x1 + y1 * y1) * (3 * x2 * x2 + y2 * y2))
    assert sum(bool(form_solutions(n)) for n in sample) >= 60
    for n in sample:
        assert form_solutions(n) == oracles.scan_form_solutions(n), n


STRUCTURED = (
    [3**k for k in range(1, 17)]
    + [p * p for p in (2, 5, 11, 17, 23, 29, 41, 47, 53, 59)]
    + [5**4, 11**4, 2**6 * 7, 4 * 25 * 13]
    + [7**k for k in range(1, 9)] + [13**k for k in range(1, 7)]
    + [7**3 * 13**2, 3 * 7**2 * 19**2, 4 * 7 * 13 * 19 * 31]
    + [4 * p for p in (7, 13, 19, 5, 11, 10007, 99991, 1000003)]
    + [4 * k + 2 for k in range(1, 400, 37)] + [2 * 7**4, 2 * 3**7]
    # 3*p^2 for p = 2 (mod 3): the only solution, (p, 0), has a zero index
    + [3 * 5**2, 3 * 11**2, 3 * 251**2]
)


@pytest.mark.parametrize("n", STRUCTURED)
def test_form_solutions_match_scan_on_structured_n(n):
    solutions = form_solutions(n)
    assert solutions == oracles.scan_form_solutions(n)
    if n % 4 == 2:
        assert solutions == []


@pytest.mark.parametrize("energy", [energy_of((12345, 23456)), 3 * 7**4 * 13**2 * 37**2,
                                    energy_of((500000, 300000)), 10**12])
def test_level_of_large_energies_match_scan(energy):
    level = level_of(energy)
    expected = oracles.scan_form_solutions(energy)
    assert expected and [tuple(s) for s in level.states] == expected


def _doubled(reps):
    """Oracle reps (v1, v2, v3, v4) as the solver's (v1, v2, 2*v3, 2*v4)."""
    return tuple((v1, v2, int(2 * v3), int(2 * v4)) for v1, v2, v3, v4 in reps)


def test_rep_tuples_heavy_in_2_and_3_match_the_product_oracle_up_to_5000(oracle_reps_5000):
    # 16 | E puts 2's rotations at e >= 4 into the solve, 27 | E (sqrt(-3))^e
    # at e >= 3
    energies = [e for e in range(1, 5001) if e % 16 == 0 or e % 27 == 0]
    for energy in energies:
        assert _rep_tuples(energy) == _doubled(oracle_reps_5000.get(energy, [])), energy
    assert sum(bool(_rep_tuples(e)) for e in energies) > 140


# Heavy in the inert 2 and the ramified 3: 95420416 = 4^10*91 has 6 states
# and 316 reps, 551124 = 4*3^9*7 has 3 states and 80 reps, and 3^12 has
# only the solution (0, 3^6), whose zero index no state takes.
HEAVY_IN_2_AND_3 = [4**10 * 91, 4 * 3**9 * 7, 2**30, 3**12, 4**6 * 11**2 * 7,
                    2**20 * 3**3 * 7**2 * 13]
_HEAVY_RNG = random.Random(2330)
SEEDED_HEAVY_IN_2_AND_3 = [
    e for e in (energy * 4 ** _HEAVY_RNG.randint(0, 8) * 3 ** _HEAVY_RNG.randint(0, 6)
                for energy in oracles.seeded_realized_energies(2330, 20, 10**3, 10**8))
    if e <= 10**12
]


@pytest.mark.parametrize("energy", HEAVY_IN_2_AND_3 + SEEDED_HEAVY_IN_2_AND_3)
def test_solves_heavy_in_2_and_3_match_the_scans(energy):
    assert form_solutions(energy) == oracles.scan_form_solutions(energy)
    if energy <= 10**10:  # where the divisor scan stays under a second
        assert _rep_tuples(energy) == _doubled(oracles.scan_reps(energy))


# ------------------------------------------------------ divisor-sum oracle

def test_degeneracy_matches_the_divisor_sum_up_to_10_6():
    # the stripe over the whole range, and the solve of each energy up to 2*10^5
    spectrum = enumerate_spectrum(10**6)
    expected = oracles.divisor_sum_degeneracies(10**6)
    assert list(spectrum.degeneracies()) == expected
    assert [spectrum.degeneracy_of(n) for n in range(2 * 10**5 + 1)] == expected[:2 * 10**5 + 1]


def test_form_solutions_count_matches_the_divisor_sum_at_large_energies():
    rng = random.Random(1011)
    energies = []
    while len(energies) < 20:
        energy = energy_of((rng.randint(1, 182574), rng.randint(1, 316227)))
        if 10**9 <= energy <= 10**11:
            energies.append(energy)
    spectrum = enumerate_spectrum(10**11)  # no table: each read is one solve
    for energy in energies:
        count = oracles.divisor_sum_degeneracy(energy)
        assert len(form_solutions(energy)) == spectrum.degeneracy_of(energy) == count, energy
    assert spectrum._counts is None


# ------------------------------------------- divisor-sum count windows
# The divisor windows are held to the stripe of the states themselves
# (`oracles.stripe_counts`), a different derivation of the same counts.

def test_divisor_windows_of_64_equal_the_stripe_up_to_5000(monkeypatch):
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", 64)
    windows = list(enumerate_spectrum(5000).count_windows(_pair))
    assert [lo for lo, _ in windows] == list(range(0, 5001, 64))
    for lo, counts in windows:
        assert counts == oracles.stripe_counts(lo, min(lo + 64, 5001)), lo


@pytest.mark.parametrize("lo", [k << 20 for k in range(4)])
def test_divisor_window_equals_the_stripe_at_window_starts(lo):
    assert _divisor_counts(lo, lo + (1 << 20)) == oracles.stripe_counts(lo, lo + (1 << 20))


@pytest.mark.parametrize("lo", [10**8, 10**9, 10**10])
def test_divisor_window_equals_the_stripe_far_out(lo):
    counts = _divisor_counts(lo, lo + (1 << 20))
    assert counts == oracles.stripe_counts(lo, lo + (1 << 20))
    assert max(counts) > 8  # far out, levels of many states are counted too


@pytest.mark.parametrize("e_max", [3 * 4096 + 1, 100_003])
def test_census_and_table_from_divisor_sums_equal_those_from_the_stripe(monkeypatch, e_max):
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", 4096)
    summed = (build_census(enumerate_spectrum(e_max)), enumerate_spectrum(e_max).degeneracies())
    monkeypatch.setattr(spectrum_module, "_divisor_counts", oracles.stripe_counts)
    striped = (build_census(enumerate_spectrum(e_max)), enumerate_spectrum(e_max).degeneracies())
    assert summed[1] == bytes(oracles.divisor_sum_degeneracies(e_max))
    assert striped == summed


def test_divisor_sums_stay_below_a_byte_in_any_range_that_counts():
    # 7^3*13*19*31*37*43*61 is the first E whose divisor sum is 256 (odd,
    # 128 states); below it the sums held mod 256 are exact.  A range from
    # 0 raises at the first count past a byte, 145651423372, long before.
    assert _DIVISOR_SUM_EXACT == 7**3 * 13 * 19 * 31 * 37 * 43 * 61 == 254_889_990_901
    assert len(form_solutions(_DIVISOR_SUM_EXACT)) == 128
    assert 145_651_423_372 < _DIVISOR_SUM_EXACT


def test_a_divisor_window_reaching_a_wrapped_sum_raises():
    last = _DIVISOR_SUM_EXACT
    for lo, hi in ((last, last + 1), (last - 4, last + 1), (last - 4, last + 64)):
        with pytest.raises(ValueError):
            _divisor_counts(lo, hi)
    # the window that stops just short of it is counted
    below = range(last - 4, last)
    assert list(_divisor_counts(below.start, below.stop)) == [len(form_solutions(e)) for e in below]


def test_a_divisor_window_past_a_count_byte_raises_as_the_stripe_does():
    energy = 145_651_423_372  # 288 states, see test_first_level_past_a_count_byte
    for count in (_divisor_counts, oracles.stripe_counts):
        with pytest.raises(ValueError):
            count(energy - 8, energy + 8)
    assert _divisor_counts(energy - 8, energy) == oracles.stripe_counts(energy - 8, energy)
