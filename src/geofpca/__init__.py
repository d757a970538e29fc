"""Geospatial functional model for spatially indexed hyperspectral soundings.

The pipeline: a footprint-specific linear mean per wavelength, functional
principal component analysis with a differencing-based measurement-error
correction, ordinary kriging of component scores for spectral imputation,
and least-squares unmixing of mixed land/water soundings against kriged
endmember spectra. A simulation generator and a cross-track-removal
validation harness accompany the estimators.

Importing the package executes none of its modules and loads no numpy. Every
submodule but ``cli`` is registered in ``sys.modules`` as a lazy module
(:class:`importlib.util.LazyLoader`) whose body runs at its first use, and
each public name below resolves from its module on first access, so a
command executes only the modules it runs.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_PUBLIC = {
    "dataset": ("Sounding", "SpectralDataset", "WavelengthSet", "common_wavelengths",
                "haversine_km", "load_dataset", "remove_cross_tracks", "save_dataset",
                "select_region", "track_numbers"),
    "errors": ("DataError", "GeofpcaError", "NumericalError"),
    "fpca": ("CovarianceMatrix", "FpcaBasis", "ScoreField", "compute_score_noise_variance",
             "compute_scores", "eigendecompose", "estimate_error_covariance",
             "estimate_signal_covariance"),
    "geostat": ("EmpiricalVariogram", "SpatialTestResult", "VariogramBins", "VariogramFit",
                "empirical_semivariogram", "exponential_variogram", "fit_variogram_wls",
                "krige_score", "kriged_scores", "kriging_weights", "spatial_dependence_test"),
    "imputation": ("FitConfig", "GeoFpcaModel", "fit_geofpca", "impute_radiance",
                   "interpolate_radiance", "load_model", "predict_scores", "save_model"),
    "mean_model": ("MeanModel", "evaluate_mean_at", "fit_mean_model"),
    "simulation": ("ComponentSpec", "OrbitConfig", "SimulationConfig", "run_unmixing_study",
                   "simulate_error_process", "simulate_mixed_transect", "simulate_orbit",
                   "synthetic_profile"),
    "unmixing": ("MixedRegionSpec", "detect_mixed_region", "estimate_land_fraction",
                 "smooth_scores", "unmix_region"),
    "validation": ("ExperimentReport", "rmspe", "rrmse", "run_imputation_experiment",
                   "select_centers"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_OWNER)

# Every submodule except cli: registering cli would make ``python -m
# geofpca.cli`` find it in sys.modules before running it as __main__.
_LAZY = ("dataset", "errors", "fpca", "geostat", "imputation", "mean_model", "parallel",
         "simulation", "unmixing", "validation")


def _register_lazily(name: str) -> None:
    """Put ``geofpca.<name>`` in sys.modules, and on the package, unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _LAZY:
    _register_lazily(_name)
del _name


def __getattr__(name: str):
    """A public name, read from its module (which runs then if it has not yet)."""
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
