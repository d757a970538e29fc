"""Benchmark of the geofpca command-line tool, run as its users run it.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; it uses ``src/`` of that checkout
and writes only under ``.perfbench_work/`` there, which it removes at the end.
Each CLI command is its own process in the inherited environment; the
benchmark never sets BLAS or OpenMP thread variables.

``--trace 0`` generates the inputs (timed as set-up), then runs the
workload's cycles until ``--seconds`` have passed, timing every command from
outside and checking every output against ``reference/``. ``--trace 1`` runs
one cycle untraced, then the same cycle under ``launcher.py`` until
``--seconds`` have passed, and reports per-layer metrics per cycle together
with the tracing overhead. The last line of standard output is the result
object; the line before it is a report with the environment and the
per-command samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, layer_metrics
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0   # commands still running then are killed and count as failed


class Runner:
    """Runs one process at a time, timing it and reaping it with its usage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        paths = [str(ROOT / "src")] + [p for p in [self.env.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)

    def run(self, argv: list[str]) -> Outcome:
        self.count += 1
        out_path = self.work / f"cmd-{self.count}.out"
        err_path = self.work / f"cmd-{self.count}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.work, start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - start),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss, out_path.read_text(), err_path.read_text())

    def cli(self, args: list[str]) -> Outcome:
        return self.run([sys.executable, "-m", "geofpca.cli", *args])

    def traced_cli(self, span_dir: Path, run_id: str, args: list[str]) -> Outcome:
        return self.run([sys.executable, str(HERE / "launcher.py"), str(span_dir),
                         run_id, *args])


def environment(library: dict) -> dict:
    """What the numbers depend on besides the code: machine, versions, BLAS."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **library,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "git_rev": rev, "src_sha256": digest.hexdigest()}


def set_up(name: str, runner: Runner) -> tuple[float, dict]:
    """Generate the inputs SETUP_REPEATS times; median time and library info."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = runner.run([sys.executable, str(HERE / "inputs.py"), name, str(runner.work)])
        if done.rc != 0:
            raise RuntimeError(f"input generation failed: {done.stderr.strip()}")
        times.append(done.wall)
    return statistics.median(times), json.loads(done.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, verdict) -> None:
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.messages += verdict.messages


def timed_run(workload, cycles, runner: Runner, seconds: float, tally: Tally) -> dict:
    walls: dict[str, list[float]] = defaultdict(list)
    units, unit_wall = 0, 0.0
    rss_kb = 0
    start = time.perf_counter()
    n_cycles = 0
    while n_cycles == 0 or time.perf_counter() - start < seconds:
        cycle = next(cycles)
        outcomes = [runner.cli(c.args) for c in cycle.commands]
        tally.add(cycle.check(outcomes))
        for command, outcome in zip(cycle.commands, outcomes):
            walls[command.kind].append(outcome.wall)
            if command.units:
                units += command.units
                unit_wall += outcome.wall
            rss_kb = max(rss_kb, outcome.rss_kb)
        n_cycles += 1
    return {"command_s": statistics.median(walls[workload.timed_kind]),
            "units_per_s": units / unit_wall,
            "peak_rss_mb": rss_kb / 1024.0,
            "cycles": n_cycles,
            "samples": {kind: values for kind, values in walls.items()}}


def _span_docs(span_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(span_dir.glob("spans-*.json"))]


def traced_run(workload, cycles, runner: Runner, seconds: float, tally: Tally) -> dict:
    cycle = next(cycles)
    start = time.perf_counter()
    base = [runner.cli(c.args) for c in cycle.commands]
    tally.add(cycle.check(base))
    base_wall = sum(o.wall for o in base)
    per_cycle, walls = [], []
    while not walls or time.perf_counter() - start < seconds:
        span_dir = runner.work / f"spans-{len(walls)}"
        span_dir.mkdir()
        outcomes = [runner.traced_cli(span_dir, f"{len(walls)}.{k}", c.args)
                    for k, c in enumerate(cycle.commands)]
        tally.add(cycle.check(outcomes))
        walls.append(sum(o.wall for o in outcomes))
        per_cycle.append(layer_metrics(_span_docs(span_dir)))
    layers = {name: statistics.median_low(m[name] for m in per_cycle) for name in per_cycle[0]}
    pooled = getattr(workload, "pooled", None)
    if pooled:
        # The timed cycles run serially; one cycle at the CLI's default
        # --threads measures the process pool, with its workers' spans.
        pool_cycle = pooled(cycle)
        span_dir = runner.work / "spans-pool"
        span_dir.mkdir()
        outcomes = [runner.traced_cli(span_dir, f"pool.{k}", c.args)
                    for k, c in enumerate(pool_cycle.commands)]
        tally.add(pool_cycle.check(outcomes))
        docs = _span_docs(span_dir)
        layers["simulation.pool.busy_ratio"] = \
            layer_metrics(docs)["simulation.pool.busy_ratio"]
        pool = {"pool_cycle_s": sum(o.wall for o in outcomes),
                "pool_span_files": len(docs)}
    layers["process.cpu_s"] = sum(o.cpu for o in base)
    layers["trace.overhead_ratio"] = statistics.median(walls) / base_wall
    return {"layers": layers, "cycles": len(walls), "untraced_cycle_s": base_wall,
            "traced_cycle_s": walls, **(pool if pooled else {})}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "geofpca" / "cli.py").is_file():
        print(f"no geofpca sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, time.perf_counter() + RUN_LIMIT_S)
        setup_s, library = set_up(args.workload, runner)
        workload = workload_cls(reference, work)
        tally = Tally()
        problem = getattr(workload, "check_inputs", lambda: None)()
        if problem:
            raise RuntimeError(problem)
        cycles = workload.cycles(random.Random(args.seed))
        if args.trace:
            measured = traced_run(workload, cycles, runner, args.seconds, tally)
            values = measured.pop("layers")
            specs = PER_LAYER
        else:
            measured = timed_run(workload, cycles, runner, args.seconds, tally)
            values = {"setup_s": setup_s,
                      "success_ratio": 1.0 - tally.failed / tally.attempted,
                      **{k: measured.pop(k) for k in ("command_s", "units_per_s",
                                                      "peak_rss_mb")}}
            specs = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(library), "setup_s": setup_s,
              "failed_ratio": tally.failed / tally.attempted,
              "failures": tally.messages[:20], **measured}
    if not args.trace:
        report["named"] = {workload.aliases[k]: values[k] for k in workload.aliases}
    print(json.dumps(report, sort_keys=True))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit, _ in specs}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
