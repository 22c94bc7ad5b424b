"""Selection-corrected quantile regression under outcome-dependent missingness.

The pipeline: a series 2SLS first stage for inverse selection
probabilities, floored at one, inverse probability weighted quantile
regression with plug-in asymptotic inference, a selection-corrected
distribution function, comparator estimators, and a Monte Carlo harness.
The cone projection (g >= 1 in coefficient space) stands alone: no weight reads it.
"""

__version__ = "0.1.0"

from .basis import (BasisPlan, DesignMatrices, KnotVector, build_designs,
                    default_plan, eval_basis, make_knots)
from .baselines import ProbitFit, probit_fit
from .data import ColumnMap, ObservationSet, ingest_csv, write_csv
from .distribution import CorrectedCDF, corrected_cdf
from .errors import InputError, NumericalError
from .estimator import (QuantileFit, fit, fit_mar, fit_semiparametric_iv,
                        fit_uncorrected)
from .first_stage import (FirstStageFit, WeightVector, cone_project,
                          estimate_unconstrained, moment_residual, weights)
from .inference import (conditional_density, confidence_intervals, covariance,
                        cv_bandwidths, default_bandwidths)
from .qr import (QuantileProblem, QuantileSolution, check_loss,
                 quantile_score, solve)
from .simlab import GeneratedDataset, MetricsTable, SimulationSpec, generate, run

__all__ = [
    "BasisPlan", "ColumnMap", "CorrectedCDF", "DesignMatrices",
    "FirstStageFit", "GeneratedDataset", "InputError", "KnotVector",
    "MetricsTable", "NumericalError", "ObservationSet", "ProbitFit",
    "QuantileFit", "QuantileProblem", "QuantileSolution", "SimulationSpec",
    "WeightVector", "build_designs", "check_loss",
    "conditional_density", "cone_project", "confidence_intervals",
    "corrected_cdf", "covariance", "cv_bandwidths", "default_bandwidths",
    "default_plan", "estimate_unconstrained", "eval_basis", "fit", "fit_mar",
    "fit_semiparametric_iv", "fit_uncorrected", "generate", "ingest_csv",
    "make_knots", "moment_residual", "probit_fit", "quantile_score",
    "run", "solve", "weights", "write_csv",
]
