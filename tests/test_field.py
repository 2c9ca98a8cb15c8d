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


def random_spectrum(n=16, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))


def test_from_spectrum_transforms_nothing_until_the_samples_are_read(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        def counted(a, *args, _real=getattr(np.fft, name), **kwargs):
            calls.append(name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    spec = random_spectrum()
    fld = SampledField.from_spectrum(spec, 1e9)
    assert len(fld) == 16
    assert fld.spectrum is not spec and np.shares_memory(fld.spectrum, spec)
    assert not fld.spectrum.flags.writeable
    assert calls == []
    assert np.array_equal(fld.samples_x, np.fft.ifft(spec, axis=1)[0])
    assert fld.samples_y is fld.samples_y
    assert calls == ["ifft", "ifft"]  # the field's one, then the test's


def test_from_spectrum_samples_are_the_batched_inverse_transform():
    spec = random_spectrum(3 * 2**6)
    fld = SampledField.from_spectrum(spec, 1e9)
    want = np.fft.ifft(spec, axis=1)
    assert np.array_equal(fld.samples_x, want[0]) and np.array_equal(fld.samples_y, want[1])
    assert np.array_equal(fld.as_matrix(), want)
    assert not fld.samples_x.flags.writeable and not fld.samples_y.flags.writeable


@pytest.mark.parametrize("n, rate, bad, match", [
    (14, 1e9, None, "smooth"),
    (1, 1e9, None, "at least 2"),
    (8, 0.0, None, "sample_rate"),
    (8, 1e9, np.inf, "finite"),
    (8, 1e9, np.nan, "finite"),
])
def test_from_spectrum_refuses_what_the_sample_constructor_refuses(n, rate, bad, match):
    spec = random_spectrum(n)
    if bad is not None:
        spec[1, 0] = bad
    samples = np.fft.ifft(spec, axis=1)
    with pytest.raises(ValueError, match=match):
        SampledField(samples[0], samples[1], rate)
    with pytest.raises(ValueError, match=match):
        SampledField.from_spectrum(spec, rate)


def test_from_spectrum_refuses_other_shapes():
    with pytest.raises(ValueError, match=r"\(2, N\)"):
        SampledField.from_spectrum(random_spectrum()[0], 1e9)
    with pytest.raises(ValueError, match=r"\(2, N\)"):
        SampledField.from_spectrum(np.zeros((3, 8), complex), 1e9)


def test_pickled_spectrum_built_copy_keeps_the_spectrum_bits():
    fld = SampledField.from_spectrum(random_spectrum(), 1e9)
    fld.samples_x  # computed here, left behind by the copy
    copy = pickle.loads(pickle.dumps(fld))
    assert "_samples" not in vars(copy)
    assert np.array_equal(copy.spectrum, fld.spectrum)
    assert not copy.spectrum.flags.writeable
    assert copy.sample_rate == fld.sample_rate and len(copy) == len(fld)
    assert np.array_equal(copy.samples_x, fld.samples_x)
