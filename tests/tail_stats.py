"""Tail statistics that the tests estimate from draws."""

import math

import numpy as np


def hill_estimate(samples, k: int | None = None) -> float:
    """Hill estimator of the tail index from the k largest order statistics.

    alpha_hat = k / sum_{i=1..k} log(x_(n-i+1) / x_(n-k)); k defaults to
    ceil(n**0.6).  Samples must be positive; k must satisfy 1 <= k < n.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    if k is None:
        k = math.ceil(n**0.6)
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    top = x[n - k:]
    threshold = x[n - k - 1]
    return k / float(np.sum(np.log(top / threshold)))
