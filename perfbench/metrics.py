"""Metric names, and the arithmetic that turns recorded spans into per-layer
metrics: self time, call counts and computed work sizes per cycle."""

from __future__ import annotations

import statistics
from collections import defaultdict

# (name, unit, better). Printed with --trace 0; BENCHMARK.json lists the same.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("command_s", "s", "lower"),
    ("units_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_ratio", "ratio", "higher"),
]

# Layers whose self time is reported, as launcher span names.
TIMED_LAYERS = [
    "cli.main", "dataset.load_dataset", "dataset.pairwise_distances",
    "mean_model.fit_mean_model", "fpca.estimate_error_covariance",
    "fpca.estimate_signal_covariance", "fpca.eigendecompose", "fpca.compute_scores",
    "geostat.spatial_dependence_test", "geostat.empirical_semivariogram",
    "geostat.fit_variogram_wls", "geostat.krige_score", "imputation.fit_geofpca",
    "imputation.predict_scores", "imputation.impute_radiance",
    "imputation.interpolate_radiance", "imputation.load_model", "imputation.save_model",
    "unmixing.smooth_scores", "unmixing.detect_mixed_region", "unmixing.unmix_region",
    "simulation.simulate_mixed_transect", "validation.run_imputation_experiment",
]
# Layers whose call count is reported (exponential_variogram is only counted).
COUNTED_LAYERS = [
    "dataset.pairwise_distances", "geostat.spatial_dependence_test",
    "geostat.fit_variogram_wls", "geostat.exponential_variogram", "geostat.krige_score",
    "imputation.fit_geofpca", "imputation.predict_scores", "imputation.impute_radiance",
    "imputation.interpolate_radiance",
]

# (name, unit, better). Printed with --trace 1, per cycle of the workload.
PER_LAYER = (
    [("cli.import_s", "s", "lower")]
    + [(f"{layer}.s", "s", "lower") for layer in TIMED_LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in COUNTED_LAYERS]
    + [("dataset.pairwise_distances.pairs", "count", "lower"),
       ("geostat.krige_score.matrix_mb", "MB", "lower"),
       ("geostat.krige_score.calls_per_target", "ratio", "lower"),
       ("simulation.pool.busy_ratio", "ratio", "higher"),
       ("process.cpu_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` are one process's ``[name, start, end, parent index, attrs]``.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children[i] if e > start and s < end]
        out.append((end - start) - _union_length(inside))
    return out


def layer_totals(docs: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name over all processes: self time, calls and summed attributes."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for doc in docs:
        for span, own in zip(doc["spans"], self_times(doc["spans"])):
            t = totals[span[0]]
            t["s"] += own
            t["calls"] += 1
            for key, value in (span[4] or {}).items():
                t[key] += value
        for name, n in doc["counts"].items():
            totals[name]["calls"] += n
    return totals


def pool_busy_ratio(docs: list[dict]) -> float:
    """Worker busy time over pool wall time x workers; 0 when no pool ran."""
    capacity = 0.0
    busy = 0.0
    for doc in docs:
        for name, start, end, _, attrs in doc["spans"]:
            if name == "simulation.run_unmixing_study" and attrs["threads"] > 1:
                capacity += (end - start) * attrs["threads"]
    for doc in docs:
        # A replicate span counts as pool work only in a worker: a process
        # that did not run the study itself.
        if any(s[0] == "simulation.run_unmixing_study" for s in doc["spans"]):
            continue
        busy += sum(end - start for name, start, end, _, _ in doc["spans"]
                    if name == "simulation._study_cell")
    return busy / capacity if capacity else 0.0


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle, from all its processes' records."""
    totals = layer_totals(docs)

    def get(name: str, field: str) -> float:
        return totals[name][field] if name in totals else 0.0

    imports = [end - start for doc in docs for name, start, end, _, _ in doc["spans"]
               if name == "cli.import"]
    out = {"cli.import_s": statistics.median(imports) if imports else 0.0}
    out.update({f"{layer}.s": get(layer, "s") for layer in TIMED_LAYERS})
    out.update({f"{layer}.calls": int(get(layer, "calls")) for layer in COUNTED_LAYERS})
    targets = get("imputation.impute_radiance", "calls")
    out["dataset.pairwise_distances.pairs"] = int(get("dataset.pairwise_distances", "pairs"))
    out["geostat.krige_score.matrix_mb"] = get("geostat.krige_score", "matrix_bytes") / 1e6
    out["geostat.krige_score.calls_per_target"] = (
        get("geostat.krige_score", "calls") / targets if targets else 0.0)
    out["simulation.pool.busy_ratio"] = pool_busy_ratio(docs)
    return out
