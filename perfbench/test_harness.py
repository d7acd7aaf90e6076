"""Self-tests of the benchmark harness: oracles, gates, tracing, BENCHMARK.json.

Run from the root of the checkout:

    python3 perfbench/test_harness.py

The gates run on real CLI output at toy sizes and must pass; deliberately
wrong outputs (a dropped state, a stubbed rep list, a wrong tally) must fail.
"""

import io
import json
import math
import random
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import triform.cli as cli  # noqa: E402
from triform.spectrum import Spectrum, enumerate_spectrum  # noqa: E402


def brute_levels(e_max):
    levels = {}
    for n1 in range(1, math.isqrt(e_max // 3) + 1):
        for n2 in range(1, math.isqrt(e_max) + 1):
            e = 3 * n1 * n1 + n2 * n2
            if e <= e_max:
                levels[e] = levels.get(e, 0) + 1
    return levels


def run_cli(argv, main=None):
    out = io.StringIO()
    code, _ = worker.call(main or cli.main, argv, out)
    return code, json.loads(out.getvalue())


def toy(builder, *args):
    """Pass 0 of a workload at a toy size, with the plan's warm-up argv."""
    plan = builder(random.Random(7), *args)
    return plan.warm, plan.batch(0)


class OracleTests(unittest.TestCase):
    def test_divisor_sum_degeneracy_matches_brute_force(self):
        levels = brute_levels(3000)
        table = oracle.degeneracies_upto(3000)
        for n in range(1, 3001):
            self.assertEqual(oracle.degeneracy(n), levels.get(n, 0), n)
            self.assertEqual(table[n], levels.get(n, 0), n)

    def test_rep_counts_match_quadruple_loop(self):
        for energy in (4, 7, 28, 52, 91, 196, 364):
            reps = [
                (v1, v2, a, b)
                for v1 in range(1, 40) for v2 in range(1, 40)
                for a in range(1, 40) for b in range(1, 80)
                if (3 * v1 * v1 + v2 * v2) * (3 * a * a + b * b) == 4 * energy
            ]
            self.assertEqual(oracle.rep_count(energy), len(reps), energy)
            self.assertEqual(
                oracle.all_integer_rep_count(energy),
                sum(a % 2 == 0 and b % 2 == 0 for _, _, a, b in reps),
                energy,
            )
        self.assertEqual((oracle.rep_count(91), oracle.all_integer_rep_count(91)), (16, 2))

    def test_state_count_and_census_reference(self):
        for e_max in (4, 5, 100, 2701):
            levels = brute_levels(e_max)
            self.assertEqual(oracle.state_count(e_max), sum(levels.values()))
            self.assertEqual(oracle.census_reference(e_max)["levels"], len(levels))

    def test_query_energies_are_realized_stratified_and_seeded(self):
        for candidates in (1, 5):
            energies = workloads.sample_energies(random.Random(3), 50, 10**4, 10**9, candidates)
            self.assertEqual(
                energies, workloads.sample_energies(random.Random(3), 50, 10**4, 10**9, candidates)
            )
            self.assertTrue(all(10**4 <= e <= 10**9 for e in energies))
            self.assertTrue(all(oracle.degeneracy(e) > 0 for e in energies))
            decades = sorted(int(math.log10(e)) for e in energies)
            self.assertEqual([decades.count(d) for d in range(4, 9)], [10] * 5)

    def test_factorize_matches_trial_division(self):
        for n in [1, 2, 97, 2**31 - 1, 4 * 999_999_937, 3**7 * 5**3 * 7919, *range(2, 500)]:
            fac = oracle.factorize(n)
            self.assertEqual(math.prod(p**k for p, k in fac.items()), n)
            self.assertTrue(all(all(p % q for q in range(2, math.isqrt(p) + 1)) for p in fac))


class GateTests(unittest.TestCase):
    def test_census_gate(self):
        e_max = 3000
        ref = oracle.census_reference(e_max)
        code, doc = run_cli(["census", "--emax", str(e_max), "--format", "json"])
        self.assertEqual((code, oracle.check_census(doc, e_max, ref)), (0, []))
        doc["rows"][1]["levels"] += 1
        doc["rows"][1]["states"] += doc["rows"][1]["degeneracy"]
        self.assertTrue(oracle.check_census(doc, e_max, ref))

    def test_spectrum_gate_catches_a_dropped_state(self):
        e_max = 2000
        sample = list(range(1, e_max + 1, 7))
        code, doc = run_cli(["spectrum", "--emax", str(e_max), "--format", "json"])
        self.assertEqual((code, oracle.check_spectrum(doc, e_max, sample)), (0, []))
        level = next(lv for lv in doc["levels"] if lv["degeneracy"] >= 2)
        level["states"].pop()
        level["degeneracy"] -= 1
        self.assertTrue(oracle.check_spectrum(doc, e_max, sample))

    def test_level_gate_catches_stubbed_or_wrong_reps(self):
        for energy in (91, 196, 1729, 4 * 7 * 13 * 19):
            ref = oracle.level_reference(energy)
            code, doc = run_cli(["level", str(energy), "--format", "json"])
            self.assertEqual((code, oracle.check_level(doc, energy, ref)), (0, []))
            stubbed = dict(doc, reps=doc["reps"][:-1])
            self.assertTrue(oracle.check_level(stubbed, energy, ref))
            v1, v2, v3, v4 = doc["reps"][0]
            wrong = dict(doc, reps=[[v1, v2 + 1, v3, v4], *doc["reps"][1:]])
            self.assertTrue(oracle.check_level(wrong, energy, ref))
            counts = dict(doc["rep_counts"], strict=doc["rep_counts"]["factorization"] + 1)
            self.assertTrue(oracle.check_level(dict(doc, rep_counts=counts), energy, ref))
        _, doc = run_cli(["level", "196", "--format", "json"])
        ref = oracle.level_reference(196)
        self.assertEqual(doc["perrin_seed"], [3, 5])
        self.assertTrue(oracle.check_level(dict(doc, perrin_seed=[2, 5]), 196, ref))

    def test_verify_gate(self):
        e_max = 600
        ref = oracle.verify_reference(e_max)
        code, doc = run_cli(["verify", "--emax", str(e_max), "--format", "json"])
        self.assertEqual((code, oracle.check_verify(doc, e_max, ref)), (0, []))
        self.assertTrue(oracle.check_verify(dict(doc, ok=False), e_max, ref))
        doc["brahmagupta"]["levels_without_all_integer_rep"] = [7]
        self.assertTrue(oracle.check_verify(doc, e_max, ref))

    def test_gates_fail_when_the_package_drops_a_state(self):
        def dropping(e_max):
            buckets = {e: list(states) for e, states in enumerate_spectrum(e_max).raw_items()}
            buckets[max(e for e, s in buckets.items() if len(s) >= 2)].pop()
            return Spectrum(e_max, buckets)

        with mock.patch.object(cli, "enumerate_spectrum", dropping):
            _, batch = toy(workloads.census_bulk, 3000)
            self.assertEqual(len(self.gate(batch)), 1)
            _, batch = toy(workloads.spectrum_dump, 3000)
            self.assertEqual(len(self.gate(batch)), 1)

    def test_gates_fail_when_the_package_returns_no_reps(self):
        _, batch = toy(workloads.energy_queries, 4)
        self.assertEqual(self.gate(batch), [])
        with mock.patch.object(cli, "rep_search", lambda energy, mode=None: []):
            self.assertEqual(len(self.gate(batch)), 4)

    def test_run_gate_counts_bad_exits_and_malformed_output(self):
        _, batch = toy(workloads.verify_range, 300)
        batch.calls = batch.calls * 2
        self.assertEqual(len(run.gate(batch, [1, 0], ["", "{not json"])), 2)

    def test_query_passes_draw_fresh_energies_reproducibly(self):
        plan = workloads.plan("energy_queries", 5)
        first, second = plan.batch(0).calls, plan.batch(1).calls
        self.assertNotEqual(first, second)
        self.assertEqual(first, workloads.plan("energy_queries", 5).batch(0).calls)
        self.assertNotEqual(first, workloads.plan("energy_queries", 6).batch(0).calls)

    @staticmethod
    def gate(batch):
        codes, outputs = [], []
        for argv in batch.calls:
            out = io.StringIO()
            codes.append(worker.call(cli.main, argv, out)[0])
            outputs.append(out.getvalue())
        return run.gate(batch, codes, outputs)


class TraceTests(unittest.TestCase):
    def run_worker(self, pass_spec, trace):
        """One pass in a worker process; its outputs are gated before they are deleted."""
        warm, batch = pass_spec
        with tempfile.TemporaryDirectory() as outdir:
            result = run.run_pass(warm, batch, trace, time.monotonic() + 120, outdir)
            self.assertEqual(run.gate(batch, result["codes"], run.read_outputs(result)), [])
        return result

    def test_self_times_subtract_children(self):
        spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
        self.assertEqual(dict(tracing.self_times(spans)), {"a": 6.0, "b": 3.0, "c": 1.0})

    def test_structure_errors_flag_overlapping_spans_and_missing_calls(self):
        tracer = tracing.Tracer()
        tracer.spans = [[tracing.CLI, 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 3.0, 11.0, 0]]
        self.assertEqual(len(tracer.structure_errors(1)), 1)
        tracer.spans = tracer.spans[:2]
        self.assertEqual(tracer.structure_errors(1), [])
        self.assertEqual(len(tracer.structure_errors(2)), 1)

    def test_span_inside_one_of_the_same_name_is_folded(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("m", lambda: None)
        outer = tracer.wrap("m", lambda: inner())
        tracer.wrap("other", lambda: outer())()
        self.assertEqual([(name, parent) for name, _, _, parent in tracer.spans],
                         [("other", -1), ("m", 0)])

    def test_accounting_compares_traced_layers_with_untraced_wall(self):
        def traced(layer_s):
            return {"layers": {name: layer_s / len(tracing.SPANS) for name in tracing.SPANS},
                    "calibration": [0.1]}

        untraced = [{"walls": [0.5, 0.5], "calibration": [0.1, 0.1], "calibration_group": 2}] * 3
        self.assertAlmostEqual(run.accounting(untraced, [traced(1.0)] * 3), 1.0)
        self.assertAlmostEqual(run.accounting(untraced, [traced(2.0)] * 3), 2.0)

    def test_traced_pass_records_every_layer(self):
        for spec in (toy(workloads.verify_range, 2000), toy(workloads.energy_queries, 3),
                     toy(workloads.spectrum_dump, 5000), toy(workloads.census_bulk, 5000)):
            result = self.run_worker(spec, True)
            self.assertEqual(result["trace_errors"], [])
            layers = result["layers"]
            self.assertEqual(set(layers), set(tracing.UNITS))
            self.assertGreater(layers["cli.output_bytes"], 0)
        verify = toy(workloads.verify_range, 2000)
        untraced, traced = self.run_worker(verify, False), self.run_worker(verify, True)
        self.assertLess(abs(run.accounting([untraced], [traced]) - 1), run.ACCOUNTING_TOLERANCE)
        layers = traced["layers"]
        doublets = oracle.verify_reference(int(verify[1].calls[0][2]))["doublet_total"]
        self.assertEqual(layers["brahmagupta.rep_search_calls"], 3 * doublets)
        self.assertGreater(layers["census.doublet_coverage_s"], 0)
        self.assertGreater(layers["spectrum.materialize_s"], 0)
        self.assertTrue(0 < layers["brahmagupta.strict_yield"] < 1)

    def test_untraced_pass_reports_setup_and_rss(self):
        result = self.run_worker(toy(workloads.census_bulk, 1000), False)
        self.assertNotIn("layers", result)
        self.assertGreater(result["setup_s"], 0)
        self.assertGreater(result["rss_kb"], 0)

    def test_peak_rss_excludes_the_parent_process(self):
        ballast = b"x" * (200 << 20)  # resident pages the worker must not count
        result = self.run_worker(toy(workloads.census_bulk, 1000), False)
        self.assertLess(result["rss_kb"], 100 << 10)
        self.assertEqual(len(ballast), 200 << 20)


class BenchmarkFileTests(unittest.TestCase):
    def test_benchmark_json_matches_what_run_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        units = dict(tracing.UNITS, **{"trace.wall_s": "s", "trace.overhead_s": "s"})
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, units)
        fake = [{"setup_s": 0.1, "walls": [1.0, 2.0], "rss_kb": 1024, "calibration": [0.1, 0.1],
                 "calibration_group": 25}]
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {k: u for k, (_, u) in run.end_to_end(fake).items()},
        )
        self.assertTrue(set(run.LAYER_TARGETS) <= set(units))

    def test_each_call_is_rescaled_by_the_calibrations_around_it(self):
        ref = run.CALIBRATION_REF_S
        result = {"walls": [1.0, 1.0, 1.0], "calibration": [ref, 3 * ref, ref],
                  "calibration_group": 2}
        self.assertEqual(run.scaled_walls(result), [0.5, 0.5, 0.5])

    def test_tail_percentile_keeps_ten_samples_beyond_it(self):
        self.assertEqual([run.tail_percentile(n) for n in (9, 20, 100, 200, 600)],
                         [50, 50, 90, 95, 95])


if __name__ == "__main__":
    unittest.main()
