import numpy as np
import pytest

from osnrprobe.field import SampledField
from osnrprobe.fiberlink import propagate
from osnrprobe.waveform import TxConfig, default_regions, generate_reference

H_PLANCK = 6.62607015e-34


def bare_fiber(fld, fiber):
    """One bare fiber span (no amplifier) through the engine."""
    stack = fld.as_matrix()
    list(propagate(stack, fld.sample_rate, (1,), fiber=fiber))
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
def regions(tx_cfg):
    return default_regions(tx_cfg)
