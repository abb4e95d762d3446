"""One benchmark process: set-up, then timed or traced repetitions of a
workload, printing one JSON object as its last line of output.

    python3 bench/worker.py --mode {setup,timed,traced} --workload NAME \
        --seed N --seconds S

`setup` imports the program and builds the inputs, and stops there. `timed`
then runs one untimed warm-up repetition and repeats the workload until
`--seconds` have passed, each repetition from empty program caches. `traced`
does the same, alternating an untraced repetition with a traced one. Peak
memory is read before the checks that need reference values are finished,
so that computing the references sets neither the time nor the peak.
`run.py` starts this file with the BLAS thread variables pinned; run that
instead.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import `hybridcat` from this checkout's sources, and nowhere else."""
    sys.path.insert(0, SRC)
    import hybridcat
    import hybridcat.cli  # noqa: F401  the entry point of the grid workloads

    if not os.path.abspath(hybridcat.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported hybridcat from {hybridcat.__file__}, not {SRC}")
    return hybridcat


def clear_program_caches() -> int:
    """Empty every functools cache in the program's modules, as a fresh CLI
    invocation starts with; found by attribute, so new caches are included."""
    cleared = 0
    for name, module in list(sys.modules.items()):
        if name != "hybridcat" and not name.startswith("hybridcat."):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                value.cache_clear()
                cleared += 1
    return cleared


def repetition(workload):
    """One timed repetition: empty caches and outputs, run, check."""
    clear_program_caches()
    workload.clean()
    gc.collect()
    began = time.perf_counter()
    output = workload.run()
    wall = time.perf_counter() - began
    return wall, workload.check(output)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    hybridcat = import_program()
    workload = WORKLOADS[args.workload](args.out, args.seed)
    workload.build()
    setup_s = time.perf_counter() - STARTED
    record = {"mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    import numpy
    import scipy

    record["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hybridcat": hybridcat.__version__,
        "program_caches": clear_program_caches(),
    }
    repetition(workload)  # warm-up: the first computation in a process is slower

    if args.mode == "traced":
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    walls, untraced_walls, summaries = [], [], []
    attempted, failures, errors, deferred = 0, [], [], []

    def tally(outcome):
        nonlocal attempted
        attempted += outcome.attempted
        failures.extend(outcome.failures)
        errors.extend(outcome.errors)
        deferred.extend(outcome.deferred)

    began = time.perf_counter()
    while not walls or time.perf_counter() - began < args.seconds:
        wall, outcome = repetition(workload)
        tally(outcome)
        if args.mode == "timed":
            walls.append(wall)
            continue
        untraced_walls.append(wall)
        tracer.start()
        try:
            wall, outcome = repetition(workload)
        finally:
            summary = tracer.stop()
        tally(outcome)
        walls.append(wall)
        summaries.append(summary)
        rows = outcome.attempted

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures += workload.check_deferred(deferred)
    record.update(
        walls=walls,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:10],
        errors=errors[:10],
        peak_rss_mb=peak_rss_mb,
    )
    if args.mode == "traced":
        metrics = layer_metrics(tracer, summaries, walls, rows)
        metrics["traced.overhead_s"] = statistics.median(walls) - statistics.median(
            untraced_walls
        )
        record.update(
            untraced_walls=untraced_walls,
            layers=metrics,
            missing=tracer.missing,
            never_called=sorted(tracer.never_called),
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
