"""Benchmark of hybridcat: one run of one workload.

    python3 bench/run.py --workload {ideal_grids,realistic_grids,large_amplitude} \
        --seed N --seconds S --trace {0,1}

With `--trace 0` it reports the end-to-end metrics `wall_s` (median wall time
of a repetition), `peak_rss_mb` (peak resident memory of the process running
the workload) and `setup_s` (median time to import hybridcat and build the
inputs, over eleven fresh processes). With `--trace 1` it reports the
per-layer metrics of a traced run instead. Every line before the last is for
people; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A record of the run, with its
environment, is written under `bench/out/runs/`.

The workloads call the program through its public entry points only, in
worker processes started with BLAS pinned to one thread; see README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "hybridcat")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("ideal_grids", "realistic_grids", "large_amplitude")
# Fresh processes that only set up, on top of the timed worker's own set-up:
# this many before the timed worker and as many after it, so that the
# samples span the run.
SETUP_PROCESSES_EACH_SIDE = 5
# A run must end within this many seconds.
RUN_LIMIT_S = 175.0
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RunError(Exception):
    """A worker process failed; the run reports no result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, args, deadline: float) -> dict:
    command = [
        sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--out", os.path.join(OUT, args.workload),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker did not finish in time") from None
    if done.returncode != 0:
        raise RunError(f"{mode} worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def git_sha() -> str:
    """The checkout's commit, or "unknown" outside a git repository; git
    does not look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the program's sources, which names the code measured
    also where there is no git."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(SRC, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def environment(worker_record: dict) -> dict:
    env = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }
    env.update(worker_record.get("env", {}))
    return env


def measure(args, deadline: float):
    """Run the workers; return (metrics as name -> (value, unit), worker
    record, extra record fields)."""
    if args.trace:
        record = run_worker("traced", args, deadline)
        sys.path.insert(0, HERE)
        from tracer import PER_LAYER

        metrics = {
            name: (record["layers"][name], unit)
            for name, (unit, _) in PER_LAYER.items()
        }
        if record["missing"] or record["never_called"]:
            print("traced functions not found: " + (", ".join(record["missing"]) or "none"))
            print("traced functions never called: "
                  + (", ".join(record["never_called"]) or "none"))
        return metrics, record, {}
    def setup_samples():
        return [run_worker("setup", args, deadline)["setup_s"]
                for _ in range(SETUP_PROCESSES_EACH_SIDE)]

    setups = setup_samples()
    record = run_worker("timed", args, deadline)
    setups += [record["setup_s"]] + setup_samples()
    metrics = {
        "wall_s": (statistics.median(record["walls"]), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, record, {"setup_samples": setups}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2

    try:
        metrics, record, extra = measure(args, started + RUN_LIMIT_S)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(record)
    repetitions = len(record["walls"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {repetitions}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:.6g} {unit}")
    print(f"  operations attempted {record['attempted']}, failed {record['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for error in record["errors"]:
        print(f"  ERROR {error}")

    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    path = os.path.join(
        OUT, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            dict(record, workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, env=env, **extra),
            handle, indent=1, sort_keys=True,
        )
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
