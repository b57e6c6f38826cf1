"""Steadiness check: run one workload on several seeds and compare the spread
of each end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload vqe-qng --seeds 10 --save a.json
    python3 perfbench/steady.py --workload vqe-qng --seeds 10 --first-seed 101 --against a.json

For each metric it prints the median, the quartiles and their distance as a
share of the median (statistics.quantiles(values, n=4)), against a third of
the bound. With --against it also compares the medians of the two sets. Run
it from the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def collect(workload: str, seeds: range, seconds: int) -> list[dict]:
    results = []
    for seed in seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}"
                                           for k, v in results[-1]["metrics"].items()),
              flush=True)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = collect(args.workload, range(args.first_seed, args.first_seed + args.seeds),
                      bench["run_seconds"])
    if args.save:
        args.save.write_text(json.dumps(results) + "\n", encoding="utf-8")
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results + (earlier or [])}
    print(f"correct in every run: {ok}; failed shares seen: {sorted(shares)}")
    ok &= len(shares) == 1
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        line = (f"{name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}  "
                f"bound {bound}  (a third: {bound / 3:.3f})")
        ok &= spread <= bound / 3
        if earlier is not None:
            before = statistics.median(r["metrics"][name]["value"] for r in earlier)
            worse = (med - before) / before * (1 if metric["better"] == "lower" else -1)
            line += f"  vs earlier median {before:.5g}: {worse:+.3f} worse"
            ok &= worse <= bound
        print(line)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
