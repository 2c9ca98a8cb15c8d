"""The batched, spectral transmitter against per-polarization oracles.

`waveform` builds the reference and each probe from its (2, N) spectrum
and transforms both polarizations in one numpy FFT call. numpy's pocketfft
gives a row the same bits whether it is transformed alone or in a batch, so
every field must equal, bit for bit, the one the `spectral_*` functions
below make: the same spectral construction written one polarization at a
time. The `reference_*` functions are the time-domain transmitter it
replaced; every field must stay within 1e-14 x RMS of theirs.
"""

import math

import numpy as np
import pytest

from osnrprobe.estimator import DELTA_GRID_DB
from osnrprobe.field import SampledField
from osnrprobe.waveform import (
    QPSK_POINTS,
    REGIONS,
    TxConfig,
    add_tx_noise_floor,
    apply_perturbation,
    build_profile,
    generate_reference,
    power_fractions,
    rrc_spectrum,
)


def energy(a):
    """sum |a|^2 of a 1-D array, summed as the transmitter sums it."""
    return np.einsum("i,i", a.real, a.real) + np.einsum("i,i", a.imag, a.imag)


def impulse_spectra(cfg):
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xD9)))
    n = cfg.n_symbols * cfg.samples_per_symbol
    shaping = np.sqrt(rrc_spectrum(np.fft.fftfreq(n, 1.0 / cfg.sample_rate)))
    spectra = []
    for _ in range(2):
        symbols = QPSK_POINTS[rng.integers(0, 4, cfg.n_symbols)]
        impulses = np.zeros(n, dtype=complex)
        impulses[:: cfg.samples_per_symbol] = symbols
        spectra.append(np.fft.fft(impulses) * shaping)
    return spectra


def gain_of(profile, n, sample_rate):
    m_a, m_b, m_n, _ = profile.regions.masks(np.fft.fftfreq(n, 1 / sample_rate))
    gain = np.ones(n)
    gain[m_a] = math.sqrt(profile.delta_a)
    gain[m_b] = math.sqrt(profile.delta_b)
    gain[m_n] = 0.0
    return gain


def spectral_generate(cfg):
    """The reference's (x, y) spectra, at unit mean power by Parseval."""
    spectra = impulse_spectra(cfg)
    n = len(spectra[0])
    scale = n / math.sqrt(energy(spectra[0]) + energy(spectra[1]))
    return [s * scale for s in spectra]


def spectral_fractions(spectra, regions, sample_rate):
    psd = np.abs(spectra[0]) ** 2 + np.abs(spectra[1]) ** 2
    m_a, m_b, m_n, m_boi = regions.masks(np.fft.fftfreq(len(psd), 1 / sample_rate))
    total = psd[m_boi].sum()
    return tuple(float(psd[m].sum() / total) for m in (m_a, m_b, m_n))


def spectral_perturb(spectra, profile, sample_rate):
    gain = gain_of(profile, len(spectra[0]), sample_rate)
    return [s * gain for s in spectra]


def spectral_noise_floor(spectra, cfg, seed, sample_rate):
    """The floored probe's (x, y) samples: noise added to the spectrum over
    the in-band bins, then one inverse transform per polarization."""
    lo, hi = REGIONS.f_boi
    n = len(spectra[0])
    boi = REGIONS.masks(np.fft.fftfreq(n, 1 / sample_rate))[3]
    k1, k2 = int(np.argmin(boi)), int(np.argmin(boi[::-1]))  # leading and trailing in-band bins
    assert np.count_nonzero(boi) == k1 + k2
    ranges = (slice(0, k1), slice(n - k2, n))
    in_band_power = sum(energy(s[bins]) for bins in ranges for s in spectra) / n**2
    noise_psd_per_pol = 0.5 * in_band_power / (hi - lo) * 10.0 ** (cfg.nfl_rel_db / 10.0)
    rng = np.random.default_rng(seed)
    amp = math.sqrt(noise_psd_per_pol * n * sample_rate / 2.0)
    out = []
    for s in spectra:
        draws = rng.standard_normal((2, k1 + k2))
        noisy = s.copy()
        noisy[boi] += amp * draws[0] + 1j * (amp * draws[1])
        out.append(np.fft.ifft(noisy))
    return out


def reference_generate(cfg):
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xD9)))
    n = cfg.n_symbols * cfg.samples_per_symbol
    shaping = np.sqrt(rrc_spectrum(np.fft.fftfreq(n, 1.0 / cfg.sample_rate)))
    pols = []
    for _ in range(2):
        symbols = QPSK_POINTS[rng.integers(0, 4, cfg.n_symbols)]
        impulses = np.zeros(n, dtype=complex)
        impulses[:: cfg.samples_per_symbol] = symbols
        pols.append(np.fft.ifft(np.fft.fft(impulses) * shaping))
    x, y = pols
    scale = 1.0 / math.sqrt(np.mean(np.abs(x) ** 2) + np.mean(np.abs(y) ** 2))
    return SampledField(x * scale, y * scale, cfg.sample_rate)


def reference_fractions(fld, regions):
    psd = np.abs(np.fft.fft(fld.samples_x)) ** 2 + np.abs(np.fft.fft(fld.samples_y)) ** 2
    m_a, m_b, m_n, m_boi = regions.masks(np.fft.fftfreq(len(fld), 1 / fld.sample_rate))
    total = psd[m_boi].sum()
    return tuple(float(psd[m].sum() / total) for m in (m_a, m_b, m_n))


def reference_perturb(fld, profile):
    gain = gain_of(profile, len(fld), fld.sample_rate)
    x = np.fft.ifft(np.fft.fft(fld.samples_x) * gain)
    y = np.fft.ifft(np.fft.fft(fld.samples_y) * gain)
    return SampledField(x, y, fld.sample_rate)


def reference_noise_floor(fld, cfg, seed):
    lo, hi = REGIONS.f_boi
    n = len(fld)
    boi = REGIONS.masks(np.fft.fftfreq(len(fld), 1 / fld.sample_rate))[3]
    psd_x = np.abs(np.fft.fft(fld.samples_x)) ** 2
    psd_y = np.abs(np.fft.fft(fld.samples_y)) ** 2
    in_band_power = (psd_x[boi].sum() + psd_y[boi].sum()) / n**2
    noise_psd_per_pol = 0.5 * in_band_power / (hi - lo) * 10.0 ** (cfg.nfl_rel_db / 10.0)
    rng = np.random.default_rng(seed)
    amp = math.sqrt(noise_psd_per_pol * n * fld.sample_rate / 2.0)
    out = []
    for samples in (fld.samples_x, fld.samples_y):
        spec = np.zeros(n, dtype=complex)
        draws = rng.standard_normal((2, int(boi.sum())))
        spec[boi] = amp * (draws[0] + 1j * draws[1])
        out.append(samples + np.fft.ifft(spec))
    return SampledField(out[0], out[1], fld.sample_rate)


def same_spectrum(fld, spectra):
    return np.array_equal(fld.spectrum, np.stack(spectra))


def samples_of(spectra):
    return [np.fft.ifft(s) for s in spectra]


def close_to(fld, old, rel=1e-14):
    m, m_old = fld.as_matrix(), old.as_matrix()
    rms = math.sqrt(np.mean(np.abs(m_old) ** 2))
    return np.max(np.abs(m - m_old)) <= rel * rms


@pytest.mark.parametrize("n_symbols", [2**14, 3 * 2**13], ids=["2^15", "3x2^14"])
def test_matches_per_polarization_transmitter(n_symbols):
    cfg = TxConfig(n_symbols=n_symbols, seed=17)
    fs = cfg.sample_rate
    ref = generate_reference(cfg)
    ref_spectra = spectral_generate(cfg)
    assert same_spectrum(ref, ref_spectra)
    assert np.array_equal(ref.as_matrix(), samples_of(ref_spectra))
    old_ref = reference_generate(cfg)
    assert close_to(ref, old_ref)
    assert power_fractions(ref, REGIONS) == spectral_fractions(ref_spectra, REGIONS, fs)
    assert power_fractions(ref, REGIONS) == pytest.approx(reference_fractions(old_ref, REGIONS),
                                                          rel=1e-12)
    for i, delta_db in enumerate(DELTA_GRID_DB):
        profile = build_profile(ref, REGIONS, delta_db)
        probe = apply_perturbation(ref, profile)
        probe_spectra = spectral_perturb(ref_spectra, profile, fs)
        assert same_spectrum(probe, probe_spectra), delta_db
        assert np.array_equal(probe.as_matrix(), samples_of(probe_spectra)), delta_db
        old_probe = reference_perturb(old_ref, profile)
        assert close_to(probe, old_probe), delta_db
        seed = np.random.SeedSequence((cfg.seed, 0x0F1, i))
        floored = add_tx_noise_floor(probe, cfg, seed)
        assert np.array_equal(floored.as_matrix(),
                              spectral_noise_floor(probe_spectra, cfg, seed, fs)), delta_db
        assert close_to(floored, reference_noise_floor(old_probe, cfg, seed)), delta_db


def test_each_field_is_transformed_once(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        def counted(a, *args, _real=getattr(np.fft, name), **kwargs):
            calls.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    cfg = TxConfig(n_symbols=2**14, seed=23)
    ref = generate_reference(cfg)                                   # fft
    profiles = [build_profile(ref, REGIONS, d) for d in DELTA_GRID_DB]  # ref.spectrum
    for i, profile in enumerate(profiles):
        probe = apply_perturbation(ref, profile)                    # probe.spectrum
        add_tx_noise_floor(probe, cfg, i)                           # ifft
        assert "_samples" not in vars(probe)
    assert calls == [(2, len(ref))] * 6
    assert "_samples" not in vars(ref)

    assert ref.spectrum is ref.spectrum
    assert not ref.spectrum.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ref.samples_x[0] = 0
