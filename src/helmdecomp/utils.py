"""Small shared helpers: smoothstep profile, worker-thread plumbing."""

import os

import numpy as np


def set_threads(k: int) -> None:
    """Cap the worker threads used by the jitted kernels."""
    try:
        import numba

        numba.set_num_threads(min(max(1, int(k)), numba.config.NUMBA_NUM_THREADS))
    except ImportError:  # pragma: no cover - numba is a declared dependency
        pass


def threads_from_env(default: int = 1) -> int:
    raw = os.environ.get("HELM_THREADS")
    if raw is None:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


def smoothstep(t):
    """Quintic smoothstep: 0 for t<=0, 1 for t>=1, C^2 across both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def plateau(t):
    """C^2 profile in |t|: 1 on |t|<=1/2, 0 on |t|>=3/4, quintic ramp between."""
    a = np.abs(np.asarray(t, dtype=float))
    return smoothstep((0.75 - a) * 4.0)
