"""F2PM -- the ML-based failure-prediction toolchain.

Reimplementation of the F2PM framework the paper builds on (Pellegrini,
Di Sanzo, Avresky, "A Machine Learning-based Framework for Building
Application Failure Prediction Models", DPDNS 2015).  F2PM:

1. monitors a large set of system features on each VM
   (:mod:`repro.ml.features`);
2. builds a dataset labelled with Remaining Time To Failure
   (:mod:`repro.ml.dataset`);
3. selects the most relevant features via Lasso regularisation
   (:mod:`repro.ml.lasso`);
4. trains and validates a suite of regression models -- Linear Regression,
   M5P, REP-Tree, Lasso-as-predictor, SVR and Least-Squares SVM
   (:mod:`repro.ml.linear`, :mod:`repro.ml.m5p`, :mod:`repro.ml.reptree`,
   :mod:`repro.ml.svr`, :mod:`repro.ml.lssvm`);
5. reports validation metrics so the user can pick the best model
   (:mod:`repro.ml.validation`, :mod:`repro.ml.toolchain`).

All models are implemented from scratch on NumPy (no scikit-learn in the
offline environment); each follows the textbook algorithm cited by the
paper's references.
"""

from repro.ml.base import FittedError, Regressor
from repro.ml.dataset import Dataset
from repro.ml.features import FEATURE_NAMES, FeatureVector
from repro.ml.lasso import LassoRegression, select_features
from repro.ml.linear import LinearRegression
from repro.ml.lssvm import LeastSquaresSVM
from repro.ml.m5p import M5PModelTree
from repro.ml.preprocessing import StandardScaler
from repro.ml.reptree import REPTree
from repro.ml.svr import LinearSVR
from repro.ml.validation import (
    ValidationReport,
    k_fold_indices,
    cross_validate,
    mean_absolute_error,
    mean_absolute_percentage_error,
    r2_score,
    root_mean_squared_error,
)
from repro.ml.toolchain import F2PMToolchain, ModelComparison, TrainedModel

__all__ = [
    "Regressor",
    "FittedError",
    "Dataset",
    "FEATURE_NAMES",
    "FeatureVector",
    "StandardScaler",
    "LinearRegression",
    "LassoRegression",
    "select_features",
    "REPTree",
    "M5PModelTree",
    "LinearSVR",
    "LeastSquaresSVM",
    "ValidationReport",
    "k_fold_indices",
    "cross_validate",
    "mean_absolute_error",
    "root_mean_squared_error",
    "mean_absolute_percentage_error",
    "r2_score",
    "F2PMToolchain",
    "ModelComparison",
    "TrainedModel",
]
