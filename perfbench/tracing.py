"""Spans around triform's layers, recorded from outside the package.

`install` replaces the public names that `triform.cli` and `triform.census`
import with wrappers that open a span on entry and close it on exit, plus
`Spectrum.iter_levels` and `Spectrum.__getitem__`, where levels are
materialized.  A span is ``[name, start, end, parent]`` kept in memory for
one pass; a layer's self time is its spans' durations minus the time their
child spans cover.  Span names are the per-layer metric names they feed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

CLI = "cli.self_s"
ENUMERATE = "spectrum.enumerate_s"
MATERIALIZE = "spectrum.materialize_s"
LEVEL_OF = "spectrum.level_of_s"
BUILD = "census.build_s"
CHECK_PERRIN = "census.check_perrin_s"
CHECK_BRAHMAGUPTA = "census.check_brahmagupta_s"
COVERAGE = "census.doublet_coverage_s"
MATCH = "perrin.match_s"
REP_SMALL = "brahmagupta.rep_search_s.small"
REP_LARGE = "brahmagupta.rep_search_s.large"
SPANS = (CLI, ENUMERATE, MATERIALIZE, LEVEL_OF, BUILD, CHECK_PERRIN,
         CHECK_BRAHMAGUPTA, COVERAGE, MATCH, REP_SMALL, REP_LARGE)

UNITS = {
    **{name: "s" for name in SPANS},
    "brahmagupta.rep_search_s": "s",
    "spectrum.states": "count",
    "spectrum.levels": "count",
    "perrin.match_calls": "count",
    "perrin.hit_ratio": "ratio",
    "brahmagupta.rep_search_calls": "count",
    "brahmagupta.reps_built": "count",
    "brahmagupta.strict_yield": "ratio",
    "cli.output_bytes": "B",
}

# rep_search cost grows with the energy; 10^6 splits desk-scale calls
# (verify's many small levels) from the large single queries.
LARGE_ENERGY = 10**6


class Tracer:
    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.counts: "Counter[str]" = Counter()
        self._stack: "list[int]" = []
        self._factorization_reps: "dict[int, int]" = {}

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.spans[i][0]} closed out of order")

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is `name`."""
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if count is None and self.inside(name):
                # A span directly inside one of the same name adds nothing to
                # that name's self time; fold it in (iter_levels calls __getitem__).
                return fn(*args, **kwargs)
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
            if count is not None:
                count(result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Time each step of a generator, so consumer code between steps is excluded."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(i)
                yield item

        return traced

    def wrap_rep_search(self, fn, strict_mode):
        def traced(energy, mode=None):
            args = (energy,) if mode is None else (energy, mode)
            i = self.begin(REP_LARGE if energy >= LARGE_ENERGY else REP_SMALL)
            try:
                reps = fn(*args)
            finally:
                self.end(i)
            c = self.counts
            c["rep_search_calls"] += 1
            if mode is strict_mode:
                # Strict mode builds the whole factorization list and filters
                # it; every CLI path asks for that list first, so its length
                # is known from the preceding call on the same energy.
                built = self._factorization_reps.get(energy)
                if built is None:
                    c["reps_built"] += len(reps)
                else:
                    c["reps_built"] += built
                    c["strict_built"] += built
                    c["strict_kept"] += len(reps)
            else:
                self._factorization_reps[energy] = len(reps)
                c["reps_built"] += len(reps)
            return reps

        return traced

    def metrics(self) -> "dict[str, float]":
        """Per-layer metrics of the pass recorded so far."""
        own = self_times(self.spans)
        m = {name: own.get(name, 0.0) for name in SPANS}
        m["brahmagupta.rep_search_s"] = m[REP_SMALL] + m[REP_LARGE]
        c = self.counts
        m["spectrum.states"] = c["states"]
        m["spectrum.levels"] = c["levels"]
        m["perrin.match_calls"] = c["match_calls"]
        m["perrin.hit_ratio"] = c["match_hits"] / c["match_calls"] if c["match_calls"] else 0.0
        m["brahmagupta.rep_search_calls"] = c["rep_search_calls"]
        m["brahmagupta.reps_built"] = c["reps_built"]
        m["brahmagupta.strict_yield"] = (
            c["strict_kept"] / c["strict_built"] if c["strict_built"] else 0.0
        )
        return m

    def structure_errors(self, calls: int) -> "list[str]":
        """Each of the pass's `calls` operations must be one root `main` span,
        and spans must close, nest inside their parents and not overlap their
        siblings."""
        errors = []
        roots = sum(name == CLI and parent < 0 for name, _, _, parent in self.spans)
        if roots != calls:
            errors.append(f"{roots} root {CLI} spans for {calls} operations")
        last_child_end: "dict[int, float]" = {}
        for name, start, end, parent in self.spans:
            if end < start:
                errors.append(f"span {name} never closed")
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if start < max(p_start, last_child_end.get(parent, p_start)) or end > p_end:
                    errors.append(f"span {name} escapes its parent or overlaps a sibling")
                last_child_end[parent] = end
            if len(errors) > 5:
                break
        return errors


def self_times(spans) -> "dict[str, float]":
    """Sum over spans of each name of (duration - duration of direct children)."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: "dict[str, float]" = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


def install(tracer: Tracer):
    """Route triform's layer boundaries through `tracer`; return the traced `main`."""
    import triform.census as census
    import triform.cli as cli
    from triform.brahmagupta import RepMode, rep_search
    from triform.spectrum import Spectrum

    c = tracer.counts

    def count_spectrum(spectrum) -> None:
        c["states"] += spectrum.state_count
        c["levels"] += len(spectrum)

    def count_level(level) -> None:
        if level is not None:
            c["states"] += level.degeneracy
            c["levels"] += 1

    def count_match(seed) -> None:
        c["match_calls"] += 1
        c["match_hits"] += seed is not None

    cli.enumerate_spectrum = tracer.wrap(ENUMERATE, cli.enumerate_spectrum, count_spectrum)
    cli.level_of = tracer.wrap(LEVEL_OF, cli.level_of, count_level)
    cli.build_census = tracer.wrap(BUILD, cli.build_census)
    cli.check_perrin_conjecture = tracer.wrap(CHECK_PERRIN, cli.check_perrin_conjecture)
    cli.check_brahmagupta_conjecture = tracer.wrap(
        CHECK_BRAHMAGUPTA, cli.check_brahmagupta_conjecture
    )
    cli.doublet_coverage = tracer.wrap(COVERAGE, cli.doublet_coverage)
    cli.match_perrin = census.match_perrin = tracer.wrap(MATCH, cli.match_perrin, count_match)
    cli.rep_search = census.rep_search = tracer.wrap_rep_search(rep_search, RepMode.STRICT)
    Spectrum.iter_levels = tracer.wrap_generator(MATERIALIZE, Spectrum.iter_levels)
    Spectrum.__getitem__ = tracer.wrap(MATERIALIZE, Spectrum.__getitem__)
    return tracer.wrap(CLI, cli.main)
