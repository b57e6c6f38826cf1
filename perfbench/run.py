"""pqcgeo benchmark: drives `pqcgeo.cli.main(argv)` in-process, the way the
`pqcgeo` command runs, and checks every output against `oracle`.

    python3 perfbench/run.py --workload vqe-qng --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the root of a pqcgeo checkout; it imports the sources under
`src/`. A run repeats whole rounds of the workload's commands (see
`workloads.py`) for about `--seconds` seconds, then prints one JSON object as
its last line of standard output: the end-to-end metrics with `--trace 0`,
the per-layer metrics of `tracing.py` with `--trace 1`. The exit code is 0 when
every output checked out, 1 when one did not, 2 on a usage or set-up error.
"""
from __future__ import annotations

import os

# single-threaded BLAS: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402

SETUP_PER_ROUND = 8

# name -> unit of every end-to-end metric
METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_cli():
    """The checkout's own pqcgeo.cli, never an installed copy."""
    if not (SRC / "pqcgeo" / "__init__.py").is_file():
        fail(f"no pqcgeo sources under {SRC}; run from the root of a pqcgeo checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pqcgeo.cli
    if Path(pqcgeo.cli.__file__).resolve().parent != SRC / "pqcgeo":
        fail(f"imported pqcgeo from {pqcgeo.cli.__file__}, not from {SRC}")
    return pqcgeo.cli


def run_op(cli, op, clock: HostClock) -> tuple[object, float, float, str, str]:
    """Exit code (or the exception raised), raw and scaled seconds, stdout and
    stderr of one command."""
    if op.out is not None:
        shutil.rmtree(op.out, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()

    def command():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(op.argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            return f"{type(exc).__name__}: {exc}"

    rc, raw, scaled = clock.measure(command)
    return rc, raw, scaled, out.getvalue(), err.getvalue()


def check_op(op, rc, stdout: str, stderr: str, rng) -> tuple[str | None, list[str], int]:
    """(why the operation failed or None, problems in its outputs, units of work done)."""
    if rc != op.expect_rc:
        return f"exit {rc!r}, expected {op.expect_rc}", [], 0
    if op.check == "refused":
        lines = stderr.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return f"refused without a one-line error message: {stderr!r}", [], 0
        return None, [], 0
    if op.check == "vqe":
        problems, work = checks.check_vqe(op.out, op.spec, stdout, rng)
    elif op.check == "scan-pole":
        # the cells were computed and written either way, so they count as work
        faults = checks.pole_curve_faults(op.out, op.spec)
        if faults:
            return (f"{len(faults)} of {len(op.spec['pole_curve'])} cells on the C = 1 curve "
                    f"differ from the clipped R(C), first {faults[0]}"), [], op.spec["grid"] ** 2
        problems, work = checks.check_scan(op.out, op.spec, stdout)
    elif op.check == "scan":
        problems, work = checks.check_scan(op.out, op.spec, stdout)
    else:
        problems, work = checks.check_validate(stdout)
    return None, problems, work


class Run:
    """Counts, outcomes and times of the rounds of one run."""

    def __init__(self, cli, ops, seed: int):
        self.cli, self.ops, self.seed = cli, ops, seed
        self.clock = HostClock()
        self.attempted = self.failed = self.work = 0
        self.problems: list[str] = []
        self.failures: set[str] = set()
        self.raw_seconds = 0.0

    def round(self) -> list[float]:
        """One pass over the operations; returns each command's scaled seconds."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, self.attempted)))
        times = []
        for op in self.ops:
            rc, raw, scaled, stdout, stderr = run_op(self.cli, op, self.clock)
            times.append(scaled)
            self.raw_seconds += raw
            self.attempted += 1
            why, problems, work = check_op(op, rc, stdout, stderr, rng)
            if why is not None:
                self.failed += 1
                self.failures.add(f"{op.label}: {why}")
            self.problems += [f"{op.label}: {p}" for p in problems]
            self.work += work
        return times


def rounds_for(seconds: float, do_round) -> list:
    """Repeat whole rounds until stopping lands closest to `seconds` of wall time."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(do_round())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last / 2 >= seconds:
            return results


def typical_pass(passes: list[list[float]]) -> list[float]:
    """Each command's median time over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


def setup_seconds(workload: str, seed: int, work: Path, clock: HostClock) -> float:
    """Scaled time to import pqcgeo afresh and build the workload's inputs. The run
    keeps the modules it imported first; later imports only replace sys.modules."""
    for name in [m for m in sys.modules if m.split(".")[0] == "pqcgeo"]:
        del sys.modules[name]
    _, _, scaled = clock.measure(lambda: (import_cli(), workloads.build(workload, seed, work)))
    return scaled


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    cli = import_cli()
    run = Run(cli, workloads.build(workload, seed, work), seed)
    if trace:
        from tracing import Tracer
        tracer, traced = Tracer(), []

        def untraced_then_traced():
            untraced = run.round()
            tracer.install()
            try:
                traced.append(run.round())
            finally:
                tracer.uninstall()
            return untraced

        untraced = rounds_for(seconds, untraced_then_traced)
        metrics = tracer.report(len(traced), sum(typical_pass(traced)), sum(typical_pass(untraced)))
    else:
        setup = []

        def setup_then_round():
            # set-up samples spread over the run, so that a slow spell of the host
            # moves a few of them rather than all
            setup.extend(setup_seconds(workload, seed, work, run.clock)
                         for _ in range(SETUP_PER_ROUND))
            return run.round()

        passes = rounds_for(seconds, setup_then_round)
        typical = typical_pass(passes)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(typical),
            "op_s_p50": statistics.median(t for times in passes for t, op in zip(times, run.ops)
                                          if op.expect_rc == 0),
            "work_per_s": run.work / len(passes) / sum(typical),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
    for line in sorted(run.failures):
        print(f"failed: {line}", file=sys.stderr)
    for line in run.problems[:50]:
        print(f"wrong output: {line}", file=sys.stderr)
    rounds = run.attempted // len(run.ops)
    print(f"{workload} seed {seed}: {rounds} rounds of {len(run.ops)} commands, "
          f"{run.attempted} attempted, {run.failed} failed, {len(run.problems)} wrong outputs; "
          f"{run.raw_seconds / rounds:.3f} s of raw wall time per round")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload, each in its own process, with one table at the end."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 2
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
