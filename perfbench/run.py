"""Benchmark for the triform CLI: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One run is a closed loop with one client: passes run
back to back until ``--seconds`` have elapsed (at least MIN_PASSES of them),
each pass in a fresh interpreter, because peak RSS only rises within a
process and repeat passes in one process run slower than the first.  Every
operation's output is checked by the gates in ``oracle.py`` outside the
timed region; a failed gate or a non-zero exit counts as a failed operation.
Each pass also times a fixed pure-Python calibration loop before its first
operation and after every few operations, and each operation's time is
rescaled to a reference host speed by the calibrations around it, because
the shared host's own speed drifts by tens of percent from minute to minute.

Each operation's stdout goes to a file in a temporary directory of the
checkout, which the gates read back, so no output stays resident in the
measured process.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: medians over
the traced passes, plus the tracing overhead (traced minus untraced wall
time).  It checks that the traced layer times account for the untraced
wall time of the same inputs.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
records the seed, the inputs' digest, the Python version, the CPU count and
the commit.
``--workload all`` runs every workload both ways, each in its own process,
and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a run must finish within 180 s; no pass may start a timeout past this
# Typical time of worker.calibrate() on the reference host (2-vCPU Xeon VM at
# 2.1 GHz, Python 3.11).  Reported times are rescaled by this over the
# calibration measured around them; see README, "Noise on a shared host".
CALIBRATION_REF_S = 0.0233
# The traced passes' layer self times must sum to within this share of the
# untraced wall time of the same inputs (median over pass pairs).  Measured
# ratios lie between 0.94 and 1.23: tracing costs about 2 us per span, which
# is 5-10 % on spectrum_dump and verify_range (tens of thousands of spans per
# pass), and paired passes run at different moments of a noisy host.
ACCOUNTING_TOLERANCE = 0.4

# Which end-to-end metric each per-layer metric should move, and on which workload.
LAYER_TARGETS = {
    "spectrum.enumerate_s": "wall_s, peak_rss_mb on census_bulk",
    "spectrum.materialize_s": "wall_s on spectrum_dump, verify_range",
    "spectrum.level_of_s": "query_p50_ms on energy_queries",
    "census.build_s": "wall_s on census_bulk",
    "census.check_perrin_s": "wall_s on verify_range",
    "census.check_brahmagupta_s": "wall_s on verify_range",
    "census.doublet_coverage_s": "wall_s on verify_range",
    "perrin.match_s": "query_p50_ms on energy_queries",
    "brahmagupta.rep_search_s.small": "wall_s on verify_range",
    "brahmagupta.rep_search_s.large": "query_p95_ms on energy_queries",
    "cli.self_s": "wall_s on spectrum_dump",
}


def source_info() -> dict:
    """Where the measured code came from; the checkout may not be a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "triform").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT / ".git"),
        "source_sha256": digest.hexdigest()[:16],
    }


def git_commit(git: Path) -> "str | None":
    """The commit HEAD names, from a loose ref or packed-refs; None if unknown."""
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref  # detached HEAD holds the hash itself
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    return None


def run_pass(warm: "list[str]", batch: workloads.Batch, traced: bool, deadline: float,
             outdir: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(SRC), *warm],
        input=json.dumps({"calls": batch.calls, "outdir": outdir, "trace": traced}),
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed (exit {proc.returncode}): {proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)  # tracebacks of operations that raised
    return json.loads(proc.stdout)


def read_outputs(result: dict):
    """The stdout of each of a pass's operations, read back one at a time."""
    for path in result["outputs"]:
        yield Path(path).read_text(encoding="utf-8")


def gate(batch: workloads.Batch, codes: "list[int]", outputs) -> "list[str]":
    """Errors of every operation in one pass; one entry per failed operation."""
    failures = []
    for i, (code, text) in enumerate(zip(codes, outputs)):
        if code != 0:
            failures.append(f"{batch.calls[i]}: exit {code}")
            continue
        try:
            errors = batch.check(i, json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError, AttributeError,
                ArithmeticError) as exc:
            errors = [f"malformed output: {exc!r}"]
        if errors:
            failures.append(f"{batch.calls[i]}: {'; '.join(errors[:3])}")
    return failures


def speed(result: dict) -> float:
    """Factor that rescales a pass's times to the reference host speed."""
    return CALIBRATION_REF_S / statistics.median(result["calibration"])


def scaled_walls(result: dict) -> "list[float]":
    """Each operation's time at the reference host speed, rescaled by the mean
    of the calibration points just before and just after its group."""
    cal, group = result["calibration"], result["calibration_group"]
    return [wall * 2 * CALIBRATION_REF_S / (cal[i // group] + cal[i // group + 1])
            for i, wall in enumerate(result["walls"])]


def tail_percentile(n: int) -> int:
    """Highest percentile, at most 95, with at least ten samples beyond it; 50 below that."""
    return max(50, min(95, 100 - math.ceil(1000 / n)))


def end_to_end(passes: "list[dict]") -> dict:
    per_pass = [scaled_walls(p) for p in passes]
    calls = [w for walls in per_pass for w in walls]
    walls = [sum(walls) for walls in per_pass]
    percentiles = statistics.quantiles(calls, n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(p["setup_s"] * speed(p) for p in passes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
        "query_p50_ms": (percentiles[49] * 1e3, "ms"),
        "query_p95_ms": (percentiles[tail_percentile(len(calls)) - 1] * 1e3, "ms"),
        "queries_per_s": (len(calls) / sum(calls), "1/s"),
    }


def per_layer(untraced: "list[dict]", traced: "list[dict]") -> dict:
    out = {}
    for name, unit in tracing.UNITS.items():
        scaled = unit == "s"
        value = statistics.median(p["layers"][name] * (speed(p) if scaled else 1) for p in traced)
        out[name] = (value, unit)
    traced_wall = statistics.median(sum(scaled_walls(p)) for p in traced)
    untraced_wall = statistics.median(sum(scaled_walls(p)) for p in untraced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def accounting(untraced: "list[dict]", traced: "list[dict]") -> float:
    """Traced layer self times over the untraced wall time of the same inputs.

    The self times of all layers, `cli.self_s` included, sum to the traced
    wall time by construction.  Each traced pass repeats the inputs of the
    untraced pass before it, so their ratio, median over the pairs, tells
    whether the per-layer breakdown describes the code as it runs untraced.
    """
    return statistics.median(
        sum(t["layers"][name] for name in tracing.SPANS) * speed(t)
        / sum(scaled_walls(u))
        for u, t in zip(untraced, traced)
    )


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    t_start = time.monotonic()
    plan = workloads.plan(name, seed)
    deadline = t_start + RUN_LIMIT_S
    stop = time.monotonic() + seconds
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    untraced, traced, failures, harness_errors, batches = [], [], [], [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        while len(untraced) + len(traced) < min_passes or time.monotonic() < stop:
            with_trace = trace and len(untraced) > len(traced)
            if not with_trace:  # a traced pass repeats the inputs of the untraced one before it
                drawn = time.monotonic()
                batches.append(plan.batch(len(batches)))
                stop += time.monotonic() - drawn  # drawing inputs is not measured time
            result = run_pass(plan.warm, batches[-1], with_trace, deadline, outdir)
            failures += gate(batches[-1], result["codes"], read_outputs(result))
            del result["outputs"]
            if with_trace:
                harness_errors += result["trace_errors"]
                traced.append(result)
            else:
                untraced.append(result)
    ratio = accounting(untraced, traced) if trace else None
    if ratio is not None and abs(ratio - 1) > ACCOUNTING_TOLERANCE:
        harness_errors.append(f"traced layer times are {ratio:.3f} of the untraced wall time")
    passes = untraced + traced
    attempted = sum(len(p["codes"]) for p in passes)
    for line in failures[:10] + harness_errors[:10]:
        print(f"{name}: {line}", file=sys.stderr)
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced)
    calls = sum(len(p["walls"]) for p in untraced)
    print(json.dumps({
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "inputs": plan.inputs,
        "inputs_sha256": workloads.digest(batches),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "timed_operations": calls,
        "raw_wall_s": statistics.median(sum(p["walls"]) for p in passes),
        "calibration_s": statistics.median(c for p in passes for c in p["calibration"]),
        "error_rate": len(failures) / attempted,
        "trace_accounting": ratio,
        "harness_errors": len(harness_errors),
        **source_info(),
    }))
    print(json.dumps({
        "correct": not failures and not harness_errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=RUN_LIMIT_S + 10,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} --trace {trace} failed with exit {proc.returncode}")
                ok = False
                continue
            info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            ok = ok and result["correct"]
            if not trace:
                rows.append((name, "error_rate", info["error_rate"], "ratio", ""))
            for metric, m in result["metrics"].items():
                rows.append((name, metric, m["value"], m["unit"], LAYER_TARGETS.get(metric, "")))
    print(f"{'workload':<15} {'metric':<32} {'value':>14} {'unit':<6} moves")
    for name, metric, value, unit, target in rows:
        print(f"{name:<15} {metric:<32} {value:>14.6g} {unit:<6} {target}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for per-layer metrics; --workload all runs both")
    args = parser.parse_args(argv)
    if not (SRC / "triform" / "__init__.py").is_file():
        print(f"error: no triform sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
