import numpy as np
import pytest

from helmdecomp import BoundaryFunction, PerturbedHalfSpace
from helmdecomp.layers import SurfaceQuadrature


@pytest.fixture(scope="session")
def flat_hs():
    return PerturbedHalfSpace(BoundaryFunction.zero())


@pytest.fixture(scope="session")
def bump_hs():
    # the steep reference bump; reach overridden since the curvature-based
    # default is far too conservative for probe geometry
    b = BoundaryFunction.smooth_bump(0.3, 0.4)
    return PerturbedHalfSpace(b, reach_estimate=1.0)


@pytest.fixture(scope="session")
def small_bump_hs():
    b = BoundaryFunction.smooth_bump(0.01, 0.3)
    return PerturbedHalfSpace(b, reach_estimate=0.3)


@pytest.fixture(scope="session")
def gentle_hs():
    return PerturbedHalfSpace(BoundaryFunction.gaussian_bump(0.05, 0.5))


@pytest.fixture(scope="session")
def flat_quad(flat_hs):
    return SurfaceQuadrature(flat_hs, extent=6.0, res=64)


@pytest.fixture(scope="session")
def small_bump_quad(small_bump_hs):
    return SurfaceQuadrature(small_bump_hs, extent=2.0, res=64)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
