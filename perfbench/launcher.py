"""Run the geofpca CLI with every public function of interest wrapped in a span.

Usage: python3 perfbench/launcher.py SPAN_DIR RUN_ID CLI_ARG...

Each wrapped call records a span: name, start, end, parent span, pid and run
id. Spans stay in memory and are written when the process ends, as
``SPAN_DIR/spans-<run id>-<pid>.json``; forked pool workers start with an
empty record and write their own file when they exit. A wrapper replaces the
function at every module attribute that binds it, because ``from .x import f``
copies the binding. Counters are kept for functions too cheap to span. Needs
``src`` on PYTHONPATH.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

# (module, function, how): "span" records a span; "count" only counts calls.
TRACED = [
    ("cli", "main", "span"),
    ("dataset", "load_dataset", "span"),
    ("dataset", "pairwise_distances", "span"),
    ("mean_model", "fit_mean_model", "span"),
    ("fpca", "estimate_error_covariance", "span"),
    ("fpca", "estimate_signal_covariance", "span"),
    ("fpca", "eigendecompose", "span"),
    ("fpca", "compute_scores", "span"),
    ("geostat", "spatial_dependence_test", "span"),
    ("geostat", "empirical_semivariogram", "span"),
    ("geostat", "fit_variogram_wls", "span"),
    ("geostat", "exponential_variogram", "count"),
    ("geostat", "krige_score", "span"),
    ("imputation", "fit_geofpca", "span"),
    ("imputation", "predict_scores", "span"),
    ("imputation", "impute_radiance", "span"),
    ("imputation", "interpolate_radiance", "span"),
    ("imputation", "load_model", "span"),
    ("imputation", "save_model", "span"),
    ("unmixing", "smooth_scores", "span"),
    ("unmixing", "detect_mixed_region", "span"),
    ("unmixing", "unmix_region", "span"),
    ("simulation", "simulate_mixed_transect", "span"),
    ("simulation", "run_unmixing_study", "span"),
    ("simulation", "_study_cell", "span"),
    ("validation", "run_imputation_experiment", "span"),
]


def _pairs(bound) -> dict:
    """Distances a pairwise_distances call computes: n x n."""
    return {"pairs": len(bound.arguments["lat"]) ** 2}


def _krige_matrix(bound) -> dict:
    """Bytes of the n x n float64 covariance a krige_score call builds."""
    a = bound.arguments
    n = len(a["scores"].sounding_ids)
    builds = a["dependent"] and a["fit"] is not None and n >= 2
    return {"matrix_bytes": 8 * n * n if builds else 0}


def _threads(bound) -> dict:
    return {"threads": int(bound.arguments["threads"])}


MEASURES = {
    "dataset.pairwise_distances": _pairs,
    "geostat.krige_score": _krige_matrix,
    "simulation.run_unmixing_study": _threads,
}


class Tracer:
    """In-memory span and counter record of one process."""

    def __init__(self, out_dir: Path, run_id: str):
        self.out_dir = out_dir
        self.run_id = run_id
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []   # [name, start, end, parent index, attrs]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def after_fork(self) -> None:
        """In a forked worker: drop the parent's record and write at exit."""
        self._reset()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def record(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, end, parent, None])

    def span(self, name: str, fn):
        measure = MEASURES.get(name)
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if measure:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = measure(bound)
            rec = [name, time.perf_counter(), None,
                   self.stack[-1] if self.stack else None, attrs]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def flush(self) -> None:
        doc = {"run_id": self.run_id, "pid": self.pid, "spans": self.spans,
               "counts": self.counts}
        path = self.out_dir / f"spans-{self.run_id}-{self.pid}.json"
        path.write_text(json.dumps(doc))


def install(tracer: Tracer) -> int:
    """Wrap every TRACED function at each geofpca module attribute bound to it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "geofpca" or name.startswith("geofpca."))]
    rebound = 0
    for module_name, func_name, how in TRACED:
        original = getattr(sys.modules[f"geofpca.{module_name}"], func_name)
        name = f"{module_name}.{func_name}"
        wrapper = (tracer.span if how == "span" else tracer.counter)(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    rebound += 1
    return rebound


def main(argv: list[str]) -> int:
    out_dir, run_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    start = time.perf_counter()
    import geofpca.cli
    tracer = Tracer(out_dir, run_id)
    tracer.record("cli.import", start, time.perf_counter())
    install(tracer)
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    try:
        return geofpca.cli.main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
