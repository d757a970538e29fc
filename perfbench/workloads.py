"""The benchmark's workloads: which CLI commands a cycle runs, and the checks
of their outputs against the reference outputs kept in ``reference/``.

Every workload is a closed loop of cycles run from one process, one CLI
command at a time. The benchmark seed only chooses which targets, centers or
study seeds a cycle gets; the inputs themselves are fixed (``inputs.py``), so
``make_reference.py`` could record the reference output of every choice.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

# Relative tolerance on every compared number. Planned optimizations move
# outputs by about 1e-6 (BLAS thread pinning) and 1e-5 (a closed-form
# variogram fit) relative; a wrong answer moves them by more than 1e-3.
# Spectra are compared on the scale of their variation between targets
# (about 1.2), not of their level (about 54), so that the kriged part is held
# to the same tolerance as everything else.
RTOL = 1e-4

TARGETS_PER_IMPUTE = 16
CENTERS_PER_VALIDATE = 2
STUDY_REPS = 20
STUDY_RHO_GRID = (0.01, 0.05, 0.1, 0.15, 0.2)   # the CLI's default grid
VALIDATE_FLAGS = ["--threads", "1", "--n-perm", "199", "--r", "1:8"]
VALIDATE_METRICS = ("rrmse_functional", "rrmse_interpolation", "rmspe")


@dataclass
class Command:
    kind: str          # fit, impute, validate or study
    args: list[str]    # geofpca CLI arguments
    units: int         # targets, cells or replicates completed (0 for fit)


@dataclass
class Outcome:
    rc: int
    wall: float        # seconds, from just before start to reaped
    cpu: float         # user + system seconds, including reaped pool workers
    rss_kb: int        # largest peak RSS among the process and its workers
    stdout: str
    stderr: str


@dataclass
class Verdict:
    attempted: int
    failed: int
    messages: list[str]


@dataclass
class Cycle:
    commands: list[Command]
    check: Callable[[list[Outcome]], Verdict]


def close(actual: float, expected: float, scale: float | None = None) -> bool:
    """``actual`` within RTOL of ``expected``, relative to ``scale`` or |expected|."""
    if math.isnan(actual) or math.isnan(expected):
        return math.isnan(actual) and math.isnan(expected)
    return abs(actual - expected) <= RTOL * (abs(expected) if scale is None else scale)


def _draws(rng: random.Random, pool: list, size: int) -> Iterator[list]:
    """Endless chunks of ``size`` items; the pool is reshuffled when used up."""
    order: list = []
    while True:
        if len(order) < size:
            order = order + rng.sample(pool, len(pool))
        yield order[:size]
        order = order[size:]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _failure(outcome: Outcome) -> str | None:
    if outcome.rc != 0:
        return f"exit {outcome.rc}: {outcome.stderr.strip()[-300:]}"
    return None


class RegionImpute:
    """Fit the n=1200 region, then krige spectra at targets with its model."""

    name = "region-impute"
    timed_kind = "fit"
    aliases = {"command_s": "fit_s", "units_per_s": "impute_targets_per_s"}

    def __init__(self, ref: dict, work: Path):
        self.ref = ref
        self.work = work
        self.pool = {int(t["id"]): t for t in ref["targets"]}

    def cycles(self, rng: random.Random) -> Iterator[Cycle]:
        for i, ids in enumerate(_draws(rng, sorted(self.pool), TARGETS_PER_IMPUTE)):
            model = self.work / f"model-{i}.json"
            targets = self.work / f"targets-{i}.csv"
            spectra = self.work / f"spectra-{i}.csv"
            lines = ["id,latitude,longitude,footprint"]
            lines += [f"{t},{self.pool[t]['latitude']!r},{self.pool[t]['longitude']!r},"
                      f"{self.pool[t]['footprint']}" for t in ids]
            targets.write_text("\n".join(lines) + "\n")
            fit = Command("fit", ["fit", "--input", str(self.work / "region.csv"),
                                  "--out", str(model)], 0)
            impute = Command("impute", ["impute", "--model", str(model), "--targets",
                                        str(targets), "--out", str(spectra)], len(ids))
            yield Cycle([fit, impute], self._checker(ids, model, spectra))

    def _checker(self, ids: list[int], model: Path, spectra: Path):
        def check(outcomes: list[Outcome]) -> Verdict:
            problem = _failure(outcomes[0]) or self._check_model(model)
            if problem:
                return Verdict(len(ids), len(ids), [f"fit: {problem}"])
            problem = _failure(outcomes[1])
            if problem:
                return Verdict(len(ids), len(ids), [f"impute: {problem}"])
            got = {int(row["id"]): row for row in read_csv(spectra)}
            bad = [t for t in ids if not self._spectrum_ok(t, got.get(t))]
            return Verdict(len(ids), len(bad),
                           [f"impute: target {t} spectrum differs" for t in bad])
        return check

    def _check_model(self, path: Path) -> str | None:
        basis = json.loads(path.read_text())["basis"]
        want = self.ref["model"]
        if basis["K"] != want["K"]:
            return f"K={basis['K']}, reference K={want['K']}"
        if not all(map(close, basis["eigenvalues"], want["eigenvalues"])):
            return f"eigenvalues {basis['eigenvalues']} != {want['eigenvalues']}"
        return None

    def _spectrum_ok(self, target: int, row: dict | None) -> bool:
        if row is None:
            return False
        want = self.ref["spectra"][str(target)]
        got = [float(row[f"w_{w}"]) for w in self.ref["wavelengths"]]
        return all(close(a, e, self.ref["spectrum_scale"]) for a, e in zip(got, want))


def aggregate(stats: list[dict]) -> dict:
    """Per-metric mean, 95% CI and count of pooled cells, as ``Aggregate.of``."""
    out = {}
    for m in VALIDATE_METRICS:
        n = sum(s[m]["n"] for s in stats)
        total = sum(s[m]["sum"] for s in stats)
        if n == 0:
            out[m] = (math.nan, math.nan, math.nan, 0)
            continue
        mean = total / n
        half = 0.0
        if n > 1:
            ss = sum(s[m]["sumsq"] for s in stats) - n * mean * mean
            half = 1.96 * math.sqrt(max(ss, 0.0) / (n - 1)) / math.sqrt(n)
        out[m] = (mean, mean - half, mean + half, n)
    return out


def cell_stats(rows: list[dict]) -> dict:
    """Count, sum and sum of squares of each metric over report rows."""
    stats = {"rows": len(rows)}
    for m in VALIDATE_METRICS:
        vals = [float(r[m]) for r in rows if not math.isnan(float(r[m]))]
        stats[m] = {"n": len(vals), "sum": math.fsum(vals),
                    "sumsq": math.fsum(v * v for v in vals)}
    return stats


class CrosstrackValidate:
    """Cross-track removal validation on the criterion-3 orbit, serially."""

    name = "crosstrack-validate"
    timed_kind = "validate"
    aliases = {"command_s": "validate_s", "units_per_s": "validate_cells_per_s"}

    def __init__(self, ref: dict, work: Path):
        self.ref = ref
        self.work = work

    def check_inputs(self) -> str | None:
        centers = json.loads((self.work / "centers.json").read_text())
        if centers["qualifying"] != self.ref["centers"]:
            return "qualifying centers differ from the reference list"
        return None

    def cycles(self, rng: random.Random) -> Iterator[Cycle]:
        pool = json.loads((self.work / "centers.json").read_text())["full_window"]
        for i, centers in enumerate(_draws(rng, pool, CENTERS_PER_VALIDATE)):
            report = self.work / f"report-{i}.csv"
            summary = self.work / f"summary-{i}.csv"
            args = ["validate", "--input", str(self.work / "orbit.csv"),
                    "--centers", ":".join(map(str, centers)), *VALIDATE_FLAGS,
                    "--out", str(report), "--summary", str(summary)]
            yield Cycle([Command("validate", args, 8 * len(centers))],
                        self._checker(centers, report, summary))

    def _checker(self, centers: list[int], report: Path, summary: Path):
        cells = [(c, r) for c in centers for r in range(1, 9)]

        def check(outcomes: list[Outcome]) -> Verdict:
            problem = _failure(outcomes[0])
            if problem:
                return Verdict(len(cells), len(cells), [f"validate: {problem}"])
            rows: dict[tuple[int, int], list[dict]] = {}
            for row in read_csv(report):
                rows.setdefault((int(row["center"]), int(row["r"])), []).append(row)
            bad = {cell for cell in cells
                   if not self._cell_ok(cell_stats(rows.get(cell, [])), cell)}
            by_r = {int(row["r"]): row for row in read_csv(summary)}
            for r in range(1, 9):
                expected = aggregate([self.ref["cells"][f"{c}:{r}"] for c in centers])
                if not self._summary_ok(by_r.get(r), expected):
                    bad |= {cell for cell in cells if cell[1] == r}
            # A cell the CLI reports as failed has no report rows, so it differs.
            return Verdict(len(cells), len(bad),
                           [f"validate: cell {c}:{r} differs" for c, r in sorted(bad)])
        return check

    def _cell_ok(self, got: dict, cell: tuple[int, int]) -> bool:
        want = self.ref["cells"][f"{cell[0]}:{cell[1]}"]
        if got["rows"] != want["rows"]:
            return False
        for m in VALIDATE_METRICS:
            g, w = got[m], want[m]
            if g["n"] != w["n"] or (w["n"] and not close(g["sum"] / g["n"], w["sum"] / w["n"])):
                return False
        return True

    @staticmethod
    def _summary_ok(row: dict | None, expected: dict) -> bool:
        if row is None:
            return False
        for m in VALIDATE_METRICS:
            mean, lo, hi, n = expected[m]
            if int(row[f"{m}_n"]) != n:
                return False
            if not all(close(float(row[f"{m}_{k}"]), v)
                       for k, v in (("mean", mean), ("ci_low", lo), ("ci_high", hi))):
                return False
        return True


class UnmixStudy:
    """The replicated unmixing-vs-interpolation study over the default grid."""

    name = "unmix-study"
    timed_kind = "study"
    aliases = {"command_s": "study_s", "units_per_s": "study_reps_per_s"}

    def __init__(self, ref: dict, work: Path):
        self.ref = ref
        self.work = work

    def cycles(self, rng: random.Random) -> Iterator[Cycle]:
        seeds = sorted(int(s) for s in self.ref["studies"])
        for i, (seed,) in enumerate(_draws(rng, seeds, 1)):
            out = self.work / f"study-{i}.csv"
            args = ["simulate", "--study", "--n-reps", str(STUDY_REPS), "--seed",
                    str(seed), "--threads", "1", "--out", str(out)]
            units = STUDY_REPS * len(STUDY_RHO_GRID)
            yield Cycle([Command("study", args, units)], self._checker(seed, out, units))

    @staticmethod
    def pooled(cycle: Cycle) -> Cycle:
        """The same cycle at the CLI's default --threads (one worker per CPU)."""
        commands = []
        for c in cycle.commands:
            i = c.args.index("--threads")
            commands.append(Command(c.kind, c.args[:i] + c.args[i + 2:], c.units))
        return Cycle(commands, cycle.check)

    def _checker(self, seed: int, out: Path, units: int):
        def check(outcomes: list[Outcome]) -> Verdict:
            problem = _failure(outcomes[0])
            if problem:
                return Verdict(units, units, [f"study: {problem}"])
            got = read_csv(out)
            want = self.ref["studies"][str(seed)]
            if len(got) != len(want):
                return Verdict(units, units, [f"study {seed}: {len(got)} rows"])
            failed, messages = 0, []
            for rho in STUDY_RHO_GRID:
                pairs = [(g, w) for g, w in zip(got, want) if w["rho"] == rho]
                ok = all(float(g["rho"]) == w["rho"] and g["method"] == w["method"]
                         and int(g["n_reps"]) == w["n_reps"]
                         and close(float(g["trimmed_mean_rel_abs_error"]), w["value"])
                         for g, w in pairs)
                # Replicates the CLI itself reports as failed count as failed.
                failed += (STUDY_REPS - min(int(g["n_reps"]) for g, _ in pairs)
                           if ok else STUDY_REPS)
                if not ok:
                    messages.append(f"study {seed}: rho={rho} differs")
            return Verdict(units, failed, messages)
        return check


WORKLOADS = {w.name: w for w in (RegionImpute, CrosstrackValidate, UnmixStudy)}
