"""Shared fixtures: spectra and truths for the standard sample sizes.

Spectra are session-scoped (the n=961 eigendecomposition is the expensive
piece) and cached on disk inside the pytest tmp area so repeated fixtures
within one session reuse the same files.
"""

import numpy as np
import pytest
from hypothesis import settings

import splinesel as ss

# Property tests draw the same examples on every run, and are not timed:
# tier-1 results do not depend on a random seed or on the machine's speed.
settings.register_profile("splinesel", derandomize=True, deadline=None)
settings.load_profile("splinesel")

STANDARD_NS = (61, 121, 241, 481, 961)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("spectra")


@pytest.fixture(scope="session")
def spectra(cache_dir):
    """dict n -> DesignSpectrum for the standard equispaced designs."""
    out = {}
    for n in STANDARD_NS:
        grid = ss.build_design("equispaced", n, lo=-1.0, hi=1.0)
        out[n] = ss.cached_decompose(grid, cache_dir)
    return out


@pytest.fixture(scope="session")
def grids():
    return {n: ss.build_design("equispaced", n, lo=-1.0, hi=1.0) for n in STANDARD_NS}


@pytest.fixture(scope="session")
def truths(spectra, grids):
    """Demo-curve truths at sigma = 1 on the standard designs."""
    out = {}
    for n, spec in spectra.items():
        f = ss.truth_curve("paper-fig3", grids[n])
        out[n] = ss.make_truth(spec, f, 1.0)
    return out


@pytest.fixture(scope="session")
def spec_unit961(cache_dir):
    """Unit-interval design used by the spectral-sum approximation checks."""
    grid = ss.build_design("equispaced", 961, lo=0.0, hi=1.0)
    return ss.cached_decompose(grid, cache_dir)


@pytest.fixture(scope="session")
def spec61(spectra):
    return spectra[61]


@pytest.fixture(scope="session")
def truth61(truths):
    return truths[61]


@pytest.fixture(scope="session")
def window61(spec61):
    """The n = 61 spectrum's own selection window."""
    return spec61.window
