"""Datasets labelled with Remaining Time To Failure.

F2PM turns raw monitoring traces into supervised-learning datasets: every
feature sample taken at time ``t`` during a run that fails at time ``T`` is
labelled with the RTTF ``T - t``.  A *failure* is the user-defined failure
point -- an actual crash or an SLA violation (Sec. III).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import as_1d_float, as_2d_float, check_consistent
from repro.ml.features import FEATURE_NAMES


@dataclass
class Dataset:
    """A supervised dataset ``(X, y)`` with named columns.

    Attributes
    ----------
    X:
        ``(n_samples, n_features)`` design matrix.
    y:
        ``(n_samples,)`` target vector (RTTF in seconds for F2PM datasets).
    feature_names:
        Column names; defaults to the F2PM schema.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        self.X = as_2d_float(self.X)
        self.y = as_1d_float(self.y)
        check_consistent(self.X, self.y)
        self.feature_names = tuple(self.feature_names)
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} feature names for "
                f"{self.X.shape[1]} columns"
            )

    def __len__(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    def select_features(self, names: list[str] | tuple[str, ...]) -> "Dataset":
        """Project onto the named feature columns (Lasso selection output)."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise KeyError(f"features not in dataset: {missing}")
        idx = [self.feature_names.index(n) for n in names]
        return Dataset(self.X[:, idx], self.y.copy(), tuple(names))

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Row subset by integer index array."""
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.X[indices], self.y[indices], self.feature_names)

    @classmethod
    def from_run_traces(
        cls,
        runs: list[tuple[np.ndarray, np.ndarray, float]],
        feature_names: tuple[str, ...] = FEATURE_NAMES,
    ) -> "Dataset":
        """Build an RTTF dataset from profiling runs.

        Parameters
        ----------
        runs:
            Each element is ``(sample_times, features, failure_time)`` for one
            run-to-failure: ``sample_times`` is ``(k,)``, ``features`` is
            ``(k, n_features)`` and ``failure_time`` is when the failure point
            was reached.  Samples taken after the failure are discarded.
        """
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        for times, feats, failure_time in runs:
            times = as_1d_float(np.asarray(times), "sample_times")
            feats = as_2d_float(np.asarray(feats), "features")
            if times.shape[0] != feats.shape[0]:
                raise ValueError("sample_times and features length mismatch")
            mask = times <= failure_time
            xs.append(feats[mask])
            ys.append(failure_time - times[mask])
        if not xs:
            raise ValueError("no profiling runs supplied")
        X = np.vstack(xs)
        y = np.concatenate(ys)
        if X.shape[0] == 0:
            raise ValueError("all samples fell after the failure point")
        return cls(X, y, feature_names)
