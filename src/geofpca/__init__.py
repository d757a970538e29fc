"""Geospatial functional model for spatially indexed hyperspectral soundings.

The pipeline: a footprint-specific linear mean per wavelength, functional
principal component analysis with a differencing-based measurement-error
correction, ordinary kriging of component scores for spectral imputation,
and least-squares unmixing of mixed land/water soundings against kriged
endmember spectra. A simulation generator and a cross-track-removal
validation harness accompany the estimators.
"""

__version__ = "0.1.0"

from .dataset import (GeoLocation, Sounding, SpectralDataset, WavelengthSet,
                      common_wavelengths, haversine_km, load_dataset,
                      remove_cross_tracks, save_dataset, select_region,
                      track_numbers)
from .errors import DataError, DegenerateScoresError, GeofpcaError, NumericalError
from .fpca import (CovarianceMatrix, FpcaBasis, ScoreField,
                   compute_score_noise_variance, compute_scores, eigendecompose,
                   estimate_error_covariance, estimate_signal_covariance)
from .geostat import (EmpiricalVariogram, KrigingSystem, SpatialTestResult,
                      VariogramBins, VariogramFit, empirical_semivariogram,
                      exponential_variogram, fit_variogram_wls, krige_score,
                      spatial_dependence_test)
from .imputation import (FitConfig, GeoFpcaModel, fit_geofpca, impute_radiance,
                         interpolate_radiance, load_model, predict_scores,
                         save_model)
from .mean_model import MeanModel, evaluate_mean_at, fit_mean_model
from .simulation import (ComponentSpec, OrbitConfig, SimulationConfig,
                         run_unmixing_study, simulate_error_process,
                         simulate_mixed_transect, simulate_orbit, synthetic_profile)
from .unmixing import (LandFractionEstimate, MixedRegionSpec, detect_mixed_region,
                       estimate_land_fraction, smooth_scores, unmix_region)
from .validation import (ExperimentReport, rmspe, rrmse,
                         run_imputation_experiment, select_centers)
