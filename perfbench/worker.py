"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py SRC_DIR WARM_ARGV...  (pass spec as JSON on stdin)

Set-up is timed first, before anything else is imported: importing
`triform.cli` from SRC_DIR plus the first call of `main(WARM_ARGV)`, which
builds the parser.  The spec on stdin then lists the argv of every timed
operation, the directory their outputs go to, and whether to trace.  A
calibration point runs before the first timed operation and after every
CALIBRATION_GROUP of them, so the parent can rescale each operation's time
to the reference host speed by the calibrations around it.  Each operation
calls `triform.cli.main` in-process with stdout sent to its own file in the
output directory, so no output stays resident in this process.  Peak RSS
is read right after the last operation, before results are serialized.
One JSON object goes to the real stdout.
"""

import os
import sys
import time

CALIBRATION_GROUP = 25  # timed operations between two calibration points


def call(main, argv, out):
    """Run main(argv) with stdout sent to `out`; return (exit code, seconds)."""
    real = sys.stdout
    sys.stdout = out
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        import traceback

        traceback.print_exc()
        code = -1
    finally:
        wall = time.perf_counter() - start
        sys.stdout = real
    return code, wall


def peak_rss_kb():
    """High-water RSS of this process's own address space, in KiB.

    VmHWM belongs to the memory map that exec created, so it starts from
    zero in the new interpreter.  ru_maxrss does not: on Linux, exec carries
    the pre-exec high-water mark over, which is the parent's RSS when the
    parent spawns this process, so it would count the harness's memory.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status; peak RSS needs Linux")


def calibrate():
    """Seconds for a fixed slice of pure-Python work: dict-of-lists building
    and integer arithmetic, the mix triform's hot loops are made of.  The
    table is cleared every 20 rows so the working set stays under 1 MB and
    never sets the pass's peak RSS."""
    start = time.perf_counter()
    buckets = {}
    for n1 in range(1, 200):
        if n1 % 20 == 0:
            buckets.clear()
        base = 3 * n1 * n1
        for n2 in range(1, 200):
            e = (base + n2 * n2) % 4093
            bucket = buckets.get(e)
            if bucket is None:
                buckets[e] = [(n1, n2)]
            else:
                bucket.append((n1, n2))
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def calibration_point():
    """Median of three calibration loops: the host's speed at this moment."""
    return sorted(calibrate() for _ in range(3))[1]


def main():
    t0 = time.perf_counter()
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    import triform.cli as cli

    with open(os.devnull, "w") as devnull:
        warm_code, _ = call(cli.main, sys.argv[2:], devnull)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"triform was imported from {cli.__file__}, not from {src}")
    if warm_code != 0:
        sys.exit(f"warm-up call {sys.argv[2:]} exited with {warm_code}")

    import json

    spec = json.load(sys.stdin)
    tracer = None
    entry = cli.main
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        entry = tracing.install(tracer)

    calls = spec["calls"]
    calibration = [calibration_point()]
    codes, walls, paths = [], [], []
    for i, argv in enumerate(calls):
        path = os.path.join(spec["outdir"], f"{i}.out")
        with open(path, "w", encoding="utf-8") as out:
            code, wall = call(entry, argv, out)
        codes.append(code)
        walls.append(wall)
        paths.append(path)
        if (i + 1) % CALIBRATION_GROUP == 0 or i + 1 == len(calls):
            calibration.append(calibration_point())
    rss_kb = peak_rss_kb()

    result = {
        "setup_s": setup_s,
        "codes": codes,
        "walls": walls,
        "rss_kb": rss_kb,
        "calibration": calibration,
        "calibration_group": CALIBRATION_GROUP,
        "outputs": paths,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.output_bytes"] = sum(os.path.getsize(path) for path in paths)
        result["layers"] = layers
        result["trace_errors"] = tracer.structure_errors(len(codes))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
