"""Two sets of benchmark runs of the same code, and each end-to-end metric's
spread against its bound in BENCHMARK.json.

    python3 bench/spread.py [--runs 10] [--first-seed 1]

Every workload in BENCHMARK.json runs `--runs` times in each of two sets,
each run with its own seed. For every workload and end-to-end metric it
prints, per set, the median and the distance between the first and third
quartile as a share of the median (`spread`), and the shift of the second
set's median from the first's, in the direction that is worse. A metric
passes when both spreads and the shift stay within its bound, and the share
of failed operations is the same in every run. Raw results go to
`bench/out/spread-<time>.json`. Exits 1 if anything does not pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def one_run(benchmark: dict, workload: str, seed: int) -> dict:
    command = list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          stdin=subprocess.DEVNULL, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(benchmark: dict, runs: int, first_seed: int):
    workloads = [w["name"] for w in benchmark["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = first_seed
    for set_index in range(SETS):
        for _ in range(runs):
            for workload in workloads:
                result = one_run(benchmark, workload, seed)
                results[workload][set_index].append(dict(result, seed=seed))
                values = ", ".join(f"{k}={v['value']:.4g}"
                                   for k, v in result["metrics"].items())
                print(f"set {set_index + 1} seed {seed} {workload}: {values}",
                      flush=True)
            seed += 1
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"raw results -> {os.path.relpath(path, ROOT)}")
    return results


def report(benchmark: dict, results: dict) -> bool:
    passed = True
    print(f"\n{'workload':<16} {'metric':<12} {'bound':>6}  "
          + "  ".join(f"{'median' + str(s + 1):>10} {'spread' + str(s + 1):>8}"
                      for s in range(SETS))
          + f"  {'shift':>7}  verdict")
    for workload, sets in results.items():
        shares = {run["failed"] / run["attempted"] for runs in sets for run in runs}
        if len(shares) != 1:
            passed = False
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            medians, spreads = [], []
            for runs in sets:
                values = [run["metrics"][name]["value"] for run in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            shift = max(sign * (m / medians[0] - 1.0) for m in medians)
            ok = shift <= bound and all(s <= bound for s in spreads)
            passed = passed and ok
            steady = all(s <= bound / 3.0 for s in spreads)
            verdict = ("ok" if ok else "FAIL") + ("" if steady else " (spread > bound/3)")
            print(f"{workload:<16} {name:<12} {bound:>6.3f}  "
                  + "  ".join(f"{m:>10.4g} {s:>8.2%}" for m, s in zip(medians, spreads))
                  + f"  {shift:>+7.2%}  {verdict}")
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    benchmark = load_benchmark()
    results = collect(benchmark, args.runs, args.first_seed)
    return 0 if report(benchmark, results) else 1


if __name__ == "__main__":
    sys.exit(main())
