"""DP-QPSK transmitter: RRC-shaped reference waveform and spectral perturbations.

A transmitted probe spectrum is the reference spectrum with its PSD scaled by
a constant ratio inside each of three disjoint baseband regions: the boosted
bands (A), the compensating remainder (B), and the notch (N, zeroed). Ratios
are chosen so total transmitted power never changes. The regions are one
constant, `REGIONS`, which tiles the signal's occupied band.

Every transform runs over both polarizations at once, as one (2, N) numpy
FFT call, and a field's forward transform is `SampledField.spectrum`,
computed once and shared by every profile and probe built from it.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .field import SampledField, _is_smooth

QPSK_POINTS = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2)


class InfeasiblePerturbationError(ValueError):
    """Requested boost would need more power than the waveform carries."""


@dataclass
class TxConfig:
    """Transmitter parameters (defaults are the full-scale simulation values).

    The signal is the paper's one: 56.8 GBd with a 0.07 roll-off, class
    constants rather than fields. Two samples/symbol (fs 113.6 GHz) carry
    the 60.8 GHz-wide signal; its third-order products reach +-91 GHz and
    alias only onto |f| >= 22.4 GHz, clear of the +12..+14 GHz notch. A
    2^k-symbol record is then a power-of-two grid.
    """

    samples_per_symbol: int = 2
    n_symbols: int = 2**17
    nfl_rel_db: Optional[float] = -22.5  # noise floor PSD below in-band signal PSD; None disables
    seed: int = 1

    baud_rate = 56.8e9  # not fields: the one signal; perfbench reads both
    rolloff = 0.07

    def __post_init__(self):
        if self.samples_per_symbol < 2:
            raise ValueError("need >= 2 samples/symbol for the shaped spectrum")
        if self.n_symbols < 2:
            raise ValueError("n_symbols must be >= 2")
        if self.nfl_rel_db is not None and not math.isfinite(self.nfl_rel_db):
            raise ValueError(f"nfl_rel_db must be finite or None, got {self.nfl_rel_db}")
        if self.seed < 0:
            raise ValueError(f"tx.seed must be >= 0, got {self.seed}")
        if not _is_smooth(self.n_symbols * self.samples_per_symbol):
            raise ValueError(
                f"grid length {self.n_symbols * self.samples_per_symbol} not "
                "{2,3,5}-smooth; adjust n_symbols or samples_per_symbol"
            )

    @property
    def sample_rate(self) -> float:
        return self.baud_rate * self.samples_per_symbol


@dataclass(frozen=True)
class RegionSet:
    """Disjoint baseband intervals tiling the bandwidth of interest.

    f_a/f_b/f_n are tuples of [lo, hi) intervals in Hz; f_boi is the single
    interval they cover exactly.
    """

    f_a: tuple
    f_b: tuple
    f_n: tuple
    f_boi: tuple

    def masks(self, freqs: np.ndarray):
        """Boolean bin masks (a, b, n, boi) for an FFT frequency grid."""
        def mask_of(intervals):
            m = np.zeros(len(freqs), dtype=bool)
            for lo, hi in intervals:
                m |= (freqs >= lo) & (freqs < hi)
            return m

        lo, hi = self.f_boi
        return (
            mask_of(self.f_a),
            mask_of(self.f_b),
            mask_of(self.f_n),
            (freqs >= lo) & (freqs < hi),
        )


_HALF = 0.5 * (1.0 + TxConfig.rolloff) * TxConfig.baud_rate  # half the occupied band

# The one probe geometry: two 1 GHz boost bands at +11.5 and +14.5 GHz around
# a 2 GHz notch at +13 GHz, the rest of the occupied band compensating.
REGIONS = RegionSet(
    f_a=((11e9, 12e9), (14e9, 15e9)),
    f_b=((-_HALF, 11e9), (15e9, _HALF)),
    f_n=((12e9, 14e9),),
    f_boi=(-_HALF, _HALF),
)


def default_regions(cfg: TxConfig) -> RegionSet:
    """REGIONS, whatever `cfg`: perfbench calls `waveform.default_regions(tx)`,
    so the name and its argument stay until perfbench reads REGIONS."""
    return REGIONS


@dataclass
class PerturbationProfile:
    """One probe spectrum: region geometry plus the PSD ratios of the boost
    bands and the remainder; the notch is always zeroed.

    The power fractions the ratios were balanced against are kept so the
    conservation identity can be re-checked after construction.
    """

    delta_a: float
    delta_b: float
    regions: RegionSet
    k_a: float
    k_b: float

    def __post_init__(self):
        if self.delta_a < 0 or self.delta_b <= 0:
            raise InfeasiblePerturbationError("PSD ratios must be non-negative, delta_b > 0")
        budget = self.k_a * self.delta_a + self.k_b * self.delta_b
        if abs(budget - 1.0) > 1e-9:
            raise InfeasiblePerturbationError(
                f"power not conserved: K-weighted ratio sum {budget!r} != 1"
            )


@functools.lru_cache(maxsize=8)
def _masks(regions: RegionSet, n: int, sample_rate: float):
    """regions.masks on the n-point FFT grid at sample_rate, read-only,
    because the cache hands the same arrays to every caller."""
    masks = regions.masks(np.fft.fftfreq(n, d=1.0 / sample_rate))
    for m in masks:
        m.setflags(write=False)
    return masks


def rrc_spectrum(freqs: np.ndarray) -> np.ndarray:
    """Raised-cosine power spectrum (unit mid-band level) of the one signal
    (`TxConfig.baud_rate`, `TxConfig.rolloff`) on a frequency grid.

    This is the analytic |shaping filter|^2; integrating it over a region and
    dividing by the baud rate gives the fraction of signal power in that region.
    """
    baud_rate, rolloff = TxConfig.baud_rate, TxConfig.rolloff
    f = np.abs(np.asarray(freqs, dtype=float))
    flat_edge = 0.5 * (1.0 - rolloff) * baud_rate
    stop_edge = 0.5 * (1.0 + rolloff) * baud_rate
    out = np.zeros_like(f)
    out[f <= flat_edge] = 1.0
    t = (f > flat_edge) & (f < stop_edge)
    out[t] = 0.5 * (1.0 + np.cos(np.pi / (rolloff * baud_rate) * (f[t] - flat_edge)))
    return out


def generate_reference(cfg: TxConfig) -> SampledField:
    """Synthesize the seeded DP-QPSK reference waveform at unit mean power.

    Symbols are i.i.d. uniform over the 4-point alphabet per polarization,
    the x symbols drawn first; shaping is done spectrally (circular
    convolution), so the waveform is exactly cyclostationary on the grid and
    its spectrum follows the analytic root-raised-cosine shape with no
    filter transients.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xD9)))
    n = cfg.n_symbols * cfg.samples_per_symbol
    shaping = np.sqrt(rrc_spectrum(np.fft.fftfreq(n, 1.0 / cfg.sample_rate)))
    pols = np.zeros((2, n), dtype=complex)
    for impulses in pols:
        impulses[:: cfg.samples_per_symbol] = QPSK_POINTS[rng.integers(0, 4, cfg.n_symbols)]
    np.fft.fft(pols, axis=1, out=pols)
    pols *= shaping
    np.fft.ifft(pols, axis=1, out=pols)
    x, y = pols
    pols *= 1.0 / math.sqrt(np.mean(np.abs(x) ** 2) + np.mean(np.abs(y) ** 2))
    return SampledField(x, y, cfg.sample_rate)


def power_fractions(fld: SampledField, regions: RegionSet):
    """Fractions (K_A, K_B, K_N) of in-band power per region.

    Computed from the field's own full-resolution periodogram so that a
    profile balanced with these fractions conserves power exactly when
    applied to the same field.
    """
    spec_x, spec_y = fld.spectrum
    psd = np.abs(spec_x) ** 2 + np.abs(spec_y) ** 2
    m_a, m_b, m_n, m_boi = _masks(regions, len(fld), fld.sample_rate)
    total = psd[m_boi].sum()
    if total <= 0:
        raise ValueError("field carries no in-band power")
    k_a = psd[m_a].sum() / total
    k_b = psd[m_b].sum() / total
    k_n = psd[m_n].sum() / total
    return float(k_a), float(k_b), float(k_n)


def delta_b_for(delta_a: float, k_a: float, k_b: float) -> float:
    """Compensating PSD ratio for region B given the boost ratio for A.

    Solves K_A*delta_a + K_B*delta_b = 1 (notch ratio fixed at zero), which
    pins total transmitted power to the reference value.
    """
    if k_b <= 0:
        raise InfeasiblePerturbationError("region B carries no power to rebalance")
    if k_a * delta_a >= 1.0:
        raise InfeasiblePerturbationError(
            f"boost K_A*delta_A = {k_a * delta_a:.6g} >= 1 leaves no power for region B"
        )
    return (1.0 - k_a * delta_a) / k_b


def build_profile(fld: SampledField, regions: RegionSet, delta_a_db: float) -> PerturbationProfile:
    """Power-conserving profile for one boost value (dB) against a reference field."""
    k_a, k_b, _ = power_fractions(fld, regions)
    delta_a = 10.0 ** (delta_a_db / 10.0)
    delta_b = delta_b_for(delta_a, k_a, k_b)
    return PerturbationProfile(delta_a, delta_b, regions, k_a, k_b)


def apply_perturbation(fld: SampledField, profile: PerturbationProfile) -> SampledField:
    """Scale the field's spectral amplitude by sqrt(ratio) inside the boost
    bands and the remainder, and zero the notch.

    Both polarizations get the same scaling; bins outside the bandwidth of
    interest are untouched. Amplitude (not PSD) scaling is the unique
    phase-preserving realization of the piecewise PSD ratios.
    """
    m_a, m_b, m_n, _ = _masks(profile.regions, len(fld), fld.sample_rate)
    gain = np.ones(len(fld))
    gain[m_a] = math.sqrt(profile.delta_a)
    gain[m_b] = math.sqrt(profile.delta_b)
    gain[m_n] = 0.0
    spec = fld.spectrum * gain
    x, y = np.fft.ifft(spec, axis=1, out=spec)
    return SampledField(x, y, fld.sample_rate)


def add_tx_noise_floor(fld: SampledField, cfg: TxConfig, seed) -> SampledField:
    """Add the transmitter noise floor: white circular Gaussian noise confined
    to the bandwidth of interest, cfg.nfl_rel_db below the in-band average
    signal PSD.

    The reference level is computed from the input field's in-band power,
    which perturbation leaves unchanged, so the floor is the same for every
    profile.
    """
    if cfg.nfl_rel_db is None:
        return fld  # read-only samples: sharing the field is as safe as a copy
    lo, hi = REGIONS.f_boi
    n = len(fld)
    boi = _masks(REGIONS, n, fld.sample_rate)[3]
    width = hi - lo
    psd_x, psd_y = np.abs(fld.spectrum[:, boi]) ** 2
    in_band_power = (psd_x.sum() + psd_y.sum()) / n**2
    signal_apsd = in_band_power / width  # both polarizations, W/Hz
    noise_psd_per_pol = 0.5 * signal_apsd * 10.0 ** (cfg.nfl_rel_db / 10.0)

    rng = np.random.default_rng(seed)
    # E|W[k]|^2 = psd * n * fs on in-band bins makes the periodogram sit at
    # the target density. The x polarization's (real, imaginary) draws come
    # first, then the y polarization's.
    amp = math.sqrt(noise_psd_per_pol * n * fld.sample_rate / 2.0)
    draws = rng.standard_normal((2, 2, psd_x.size))
    draws *= amp
    spec = np.zeros((2, n), dtype=complex)
    spec.real[:, boi] = draws[:, 0]
    spec.imag[:, boi] = draws[:, 1]
    x, y = np.fft.ifft(spec, axis=1, out=spec)
    x += fld.samples_x
    y += fld.samples_y
    return SampledField(x, y, fld.sample_rate)
