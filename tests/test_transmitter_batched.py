"""The batched transmitter against the per-polarization one it replaced.

`waveform` transforms both polarizations in one (2, N) numpy FFT call and
reuses each field's forward transform, `SampledField.spectrum`. numpy's
pocketfft gives a row the same bits whether it is transformed alone or in
a batch, so every field must equal, bit for bit, the one the functions
below make: the transmitter written one polarization at a time, kept here
as the reference.
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
    m_a, m_b, m_n, _ = profile.regions.masks(np.fft.fftfreq(len(fld), 1 / fld.sample_rate))
    gain = np.ones(len(fld))
    gain[m_a] = math.sqrt(profile.delta_a)
    gain[m_b] = math.sqrt(profile.delta_b)
    gain[m_n] = 0.0
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


def same_bits(a, b):
    return np.array_equal(a.samples_x, b.samples_x) and np.array_equal(a.samples_y, b.samples_y)


@pytest.mark.parametrize("n_symbols", [2**14, 3 * 2**13], ids=["2^15", "3x2^14"])
def test_matches_per_polarization_transmitter(n_symbols):
    cfg = TxConfig(n_symbols=n_symbols, seed=17)
    ref = generate_reference(cfg)
    old_ref = reference_generate(cfg)
    assert same_bits(ref, old_ref)
    assert power_fractions(ref, REGIONS) == reference_fractions(old_ref, REGIONS)
    for i, delta_db in enumerate(DELTA_GRID_DB):
        profile = build_profile(ref, REGIONS, delta_db)
        probe = apply_perturbation(ref, profile)
        old_probe = reference_perturb(old_ref, profile)
        assert same_bits(probe, old_probe), delta_db
        seed = np.random.SeedSequence((cfg.seed, 0x0F1, i))
        assert same_bits(add_tx_noise_floor(probe, cfg, seed),
                         reference_noise_floor(old_probe, cfg, seed)), delta_db


def test_each_field_is_transformed_once(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        def counted(a, *args, _real=getattr(np.fft, name), **kwargs):
            calls.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    cfg = TxConfig(n_symbols=2**14, seed=23)
    ref = generate_reference(cfg)                                   # fft + ifft
    profiles = [build_profile(ref, REGIONS, d) for d in DELTA_GRID_DB]  # ref.spectrum
    for i, profile in enumerate(profiles):
        add_tx_noise_floor(apply_perturbation(ref, profile), cfg, i)  # ifft, fft + ifft
    assert calls == [(2, len(ref))] * 18

    assert ref.spectrum is ref.spectrum
    assert not ref.spectrum.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ref.samples_x[0] = 0
