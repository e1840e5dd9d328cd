"""Percentiles with a sample-support rule, and run-to-run spread."""

import statistics

import numpy as np

MIN_BEYOND = 10   # a percentile is reported only with this many samples above it


def samples_beyond(n, q):
    """How many of n samples lie above the q-th percentile (q an int)."""
    return n - (-(-n * q // 100))   # n - ceil(n*q/100), in integers


def min_samples(q):
    """Fewest samples for which the q-th percentile is supported."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples, q):
    """q-th percentile of `samples`; raises if fewer than MIN_BEYOND lie above it."""
    n = len(samples)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"p{q} needs {min_samples(q)} samples, got {n}")
    return float(np.percentile(samples, q))


def quartile_spread(values):
    """(q3 - q1) / median, the run-to-run spread the benchmark is held to."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
