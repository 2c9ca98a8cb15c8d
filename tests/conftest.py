import numpy as np
import pytest

from osnrprobe.field import SampledField
from osnrprobe.fiberlink import FiberParams, LinkConfig, propagate
from osnrprobe.waveform import REGIONS, TxConfig, generate_reference

H_PLANCK = 6.62607015e-34
# One linear step over the default 100 km span (20 dB): it maps zeros to
# exact zeros, so a zero field comes out as one EDFA's ASE alone.
LINEAR_STEP = FiberParams(gamma=0.0, step_km=100.0)


def one_span(fld, fiber, nf_db=None, ase_seed=0):
    """fld, in its own precision, after one span of `fiber` and its EDFA,
    whose gain restores the span loss; no ASE with nf_db=None."""
    stack = fld.as_matrix()
    list(propagate(stack, fld.sample_rate, LinkConfig(fiber, 1, 0.0, nf_db), (ase_seed,), (1,)))
    return SampledField(*stack, fld.sample_rate)


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="also run tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; enable with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def tx_cfg():
    return TxConfig(n_symbols=2**14, seed=7)


@pytest.fixture(scope="session")
def reference(tx_cfg):
    return generate_reference(tx_cfg)


@pytest.fixture(scope="session")
def regions():
    return REGIONS
