"""The benchmark's own tests. Run: python3 perfbench/selftest.py

Kept out of the repository's pytest collection on purpose: they test the
benchmark, not the library.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, layer_metrics, pool_busy_ratio, self_times  # noqa: E402
from workloads import (RTOL, WORKLOADS, CrosstrackValidate, Outcome, RegionImpute,  # noqa: E402
                       UnmixStudy, aggregate, cell_stats, close)

OK = Outcome(0, 1.0, 1.0, 1000, "", "")


def span(name, start, end, parent=None, attrs=None):
    return [name, start, end, parent, attrs]


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("g", 2.0, 3.0, 1),
                 span("b", 5.0, 6.0, 0)]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0),
                 span("c", 9.0, 12.0, 0)]
        self.assertAlmostEqual(self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_layer_metrics_sum_self_time_calls_and_sizes(self):
        doc = {"pid": 1, "counts": {"geostat.exponential_variogram": 7}, "spans": [
            span("cli.import", 0.0, 0.5),
            span("cli.main", 0.5, 10.0),
            span("imputation.impute_radiance", 1.0, 5.0, 1),
            span("geostat.krige_score", 1.5, 4.0, 2, {"matrix_bytes": 8_000_000}),
            span("dataset.pairwise_distances", 2.0, 3.0, 3, {"pairs": 100}),
            span("geostat.krige_score", 4.0, 4.5, 2, {"matrix_bytes": 0}),
        ]}
        m = layer_metrics([doc])
        self.assertEqual({name for name, _, _ in PER_LAYER} - set(m),
                         {"process.cpu_s", "trace.overhead_ratio"})
        self.assertAlmostEqual(m["cli.main.s"], 9.5 - 4.0)
        self.assertAlmostEqual(m["imputation.impute_radiance.s"], 4.0 - 3.0)
        self.assertAlmostEqual(m["geostat.krige_score.s"], 1.5 + 0.5)
        self.assertEqual(m["geostat.krige_score.calls"], 2)
        self.assertEqual(m["geostat.krige_score.calls_per_target"], 2.0)
        self.assertEqual(m["geostat.krige_score.matrix_mb"], 8.0)
        self.assertEqual(m["dataset.pairwise_distances.pairs"], 100)
        self.assertEqual(m["geostat.exponential_variogram.calls"], 7)
        self.assertEqual(m["cli.import_s"], 0.5)
        self.assertEqual(m["unmixing.smooth_scores.s"], 0.0)

    def test_pool_busy_ratio_counts_worker_spans_only(self):
        main = {"pid": 1, "counts": {}, "spans": [
            span("simulation.run_unmixing_study", 0.0, 10.0, None, {"threads": 2})]}
        workers = [{"pid": p, "counts": {}, "spans": [
            span("simulation._study_cell", 0.0, t)]} for p, t in ((2, 9.0), (3, 6.0))]
        self.assertAlmostEqual(pool_busy_ratio([main] + workers), 15.0 / 20.0)
        serial = {"pid": 1, "counts": {}, "spans": [
            span("simulation.run_unmixing_study", 0.0, 10.0, None, {"threads": 1}),
            span("simulation._study_cell", 0.0, 9.0, 0)]}
        self.assertEqual(pool_busy_ratio([serial]), 0.0)


class Tolerance(unittest.TestCase):
    def test_close(self):
        self.assertTrue(close(1.0 + 1e-6, 1.0))
        self.assertTrue(close(1.0 + 0.9 * RTOL, 1.0))
        self.assertFalse(close(1.0 + 2 * RTOL, 1.0))
        self.assertTrue(close(54.0 + 1e-5, 54.0, scale=1.2))
        self.assertFalse(close(54.0 + 1e-3, 54.0, scale=1.2))
        self.assertTrue(close(math.nan, math.nan))
        self.assertFalse(close(math.nan, 1.0))

    def _impute_case(self, tmp: Path, delta: float):
        ref = {"model": {"K": 2, "eigenvalues": [4.0, 2.5]}, "wavelengths": [1, 2, 3],
               "targets": [{"id": 1, "latitude": 35.1, "longitude": 23.8, "footprint": 4},
                           {"id": 2, "latitude": 35.2, "longitude": 23.8, "footprint": 5}],
               "spectra": {"1": [50.0, 51.0, 52.0], "2": [53.0, 54.0, 55.0]},
               "spectrum_scale": 1.2}
        cycle = next(RegionImpute(ref, tmp).cycles(random.Random(0)))
        model = Path(cycle.commands[1].args[2])
        model.write_text(json.dumps({"basis": {"K": 2, "eigenvalues": [4.0, 2.5]}}))
        rows = ["id,latitude,longitude,footprint,land_fraction,w_1,w_2,w_3",
                "1,35.1,23.8,4,,50.0,51.0,52.0", f"2,35.2,23.8,5,,53.0,{54.0 + delta!r},55.0"]
        Path(cycle.commands[1].args[-1]).write_text("\n".join(rows) + "\n")
        return cycle.check([OK, OK])

    def test_impute_rejects_perturbed_spectrum(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.assertEqual(self._impute_case(Path(tmp), 0.0).failed, 0)
            self.assertEqual(self._impute_case(Path(tmp), 1e-6).failed, 0)
            verdict = self._impute_case(Path(tmp), 0.01)
            self.assertEqual((verdict.attempted, verdict.failed), (2, 1))

    def test_failed_command_fails_every_unit(self):
        with tempfile.TemporaryDirectory() as tmp:
            ref = {"studies": {"3": []}}
            cycle = next(UnmixStudy(ref, Path(tmp)).cycles(random.Random(0)))
            verdict = cycle.check([Outcome(4, 1.0, 1.0, 1, "", "numerical failure")])
            self.assertEqual(verdict.failed, verdict.attempted)

    def test_study_rejects_perturbed_row(self):
        want = [{"rho": rho, "method": m, "value": 0.1 + rho, "n_reps": 20}
                for rho in (0.01, 0.05, 0.1, 0.15, 0.2) for m in ("unmixing", "interpolation")]
        with tempfile.TemporaryDirectory() as tmp:
            study = UnmixStudy({"studies": {"7": want}}, Path(tmp))
            cycle = next(study.cycles(random.Random(0)))
            out = Path(cycle.commands[0].args[cycle.commands[0].args.index("--out") + 1])

            def verdict(bump):
                lines = ["rho,method,trimmed_mean_rel_abs_error,n_reps,seed"]
                lines += [f"{w['rho']!r},{w['method']},{w['value'] * (1 + bump)!r},20,7"
                          for w in want]
                out.write_text("\n".join(lines) + "\n")
                return cycle.check([OK])
            self.assertEqual(verdict(1e-6).failed, 0)
            self.assertEqual(verdict(1e-2).failed, 100)

    def test_validate_aggregate_matches_direct_statistics(self):
        values = [[0.004, 0.005, 0.0061], [0.0052, 0.0049]]
        stats = [cell_stats([{"rrmse_functional": v, "rrmse_interpolation": v,
                              "rmspe": "nan"} for v in cell]) for cell in values]
        flat = [v for cell in values for v in cell]
        mean, lo, hi, n = aggregate(stats)["rrmse_functional"]
        half = 1.96 * statistics.stdev(flat) / math.sqrt(len(flat))
        self.assertEqual(n, 5)
        self.assertAlmostEqual(mean, statistics.mean(flat), places=15)
        self.assertAlmostEqual(lo, mean - half, places=12)
        self.assertAlmostEqual(hi, mean + half, places=12)
        self.assertEqual(aggregate(stats)["rmspe"][3], 0)
        self.assertFalse(CrosstrackValidate._summary_ok(None, aggregate(stats)))


class Names(unittest.TestCase):
    def test_metric_and_workload_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         [tuple(m) for m in END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [tuple(m) for m in PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


class Launcher(unittest.TestCase):
    def test_wraps_every_binding(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        import geofpca.cli  # noqa: F401
        import launcher
        tracer = launcher.Tracer(Path(tempfile.gettempdir()), "selftest")
        original = sys.modules["geofpca.geostat"].krige_score
        self.assertGreaterEqual(launcher.install(tracer), len(launcher.TRACED))
        wrapped = sys.modules["geofpca.geostat"].krige_score
        self.assertIsNot(wrapped, original)
        self.assertIs(sys.modules["geofpca.imputation"].krige_score, wrapped)
        self.assertIs(sys.modules["geofpca"].krige_score, wrapped)
        self.assertIs(sys.modules["geofpca.cli"].impute_radiance,
                      sys.modules["geofpca.imputation"].impute_radiance)


if __name__ == "__main__":
    unittest.main()
