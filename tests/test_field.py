import pickle

import numpy as np
import pytest

from osnrprobe.field import SampledField


def test_total_power():
    fld = SampledField(np.full(16, 2.0 + 0j), np.zeros(16, complex), 1e9)
    assert fld.total_power() == pytest.approx(4.0)


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="equal length"):
        SampledField(np.zeros(8, complex), np.zeros(16, complex), 1e9)


def test_rejects_rough_length():
    # 14 = 2 * 7 brings a prime factor the mixed-radix transforms dislike
    with pytest.raises(ValueError, match="smooth"):
        SampledField(np.zeros(14, complex), np.zeros(14, complex), 1e9)


def test_rejects_bad_sample_rate():
    with pytest.raises(ValueError, match="sample_rate"):
        SampledField(np.zeros(8, complex), np.zeros(8, complex), 0.0)


def test_rejects_non_finite_power():
    x = np.zeros(8, complex)
    x[0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        SampledField(x, np.zeros(8, complex), 1e9)


def test_pickled_copy_is_read_only_and_leaves_the_spectrum_behind():
    rng = np.random.default_rng(4)
    fld = SampledField(rng.standard_normal(16) + 0j, rng.standard_normal(16) + 0j, 1e9)
    assert fld.spectrum.shape == (2, 16)
    copy = pickle.loads(pickle.dumps(fld))
    assert "spectrum" not in vars(copy)
    assert np.array_equal(copy.samples_x, fld.samples_x)
    assert not copy.samples_x.flags.writeable and not copy.samples_y.flags.writeable
