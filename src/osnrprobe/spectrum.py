"""Emulated optical spectrum analyzer and average-PSD extraction.

PSDs are Welch estimates of both polarizations summed, then smoothed by a
unit-area 4th-order Super-Gaussian kernel that mimics a grating OSA's
150 MHz resolution. The Welch estimate (Welch, IEEE Trans. Audio
Electroacoust. AU-15(2):70-73, 1967) is computed here with numpy's FFT and
equals scipy's `signal.welch` bit for bit; importing scipy's signal package
would add about a second to every start. Average PSD (APSD) over a spectral
region is the integral of the trace across the region divided by the
region width; the notch region is integrated over its inner 80% so the
OSA's skirts at the region edges are discarded. There is one OSA: its
resolution, kernel order and notch fraction are module constants, not
parameters.
"""

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import SampledField

MIN_FIELD_SAMPLES = 2**14
MAX_NATIVE_BIN_HZ = 30e6
OSA_RBW_HZ = 150e6
SG_ORDER = 4
NOTCH_INNER_FRACTION = 0.8


@dataclass
class PsdTrace:
    """Frequency-gridded dual-pol PSD after OSA emulation."""

    freqs: np.ndarray   # Hz, ascending, uniform
    psd: np.ndarray     # W/Hz, both polarizations summed, at OSA_RBW_HZ resolution

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)
        if self.freqs.shape != self.psd.shape or self.freqs.ndim != 1:
            raise ValueError("freqs and psd must be matching 1-D arrays")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(self.psd < 0):
            raise ValueError("PSD must be non-negative")

    def total_power(self) -> float:
        """Integral of the trace, W."""
        return float(np.trapezoid(self.psd, self.freqs))


def supergaussian_kernel(df: float) -> np.ndarray:
    """Discrete unit-sum OSA kernel exp(-(f/f0)^(2m)), m = SG_ORDER, with
    3 dB full width OSA_RBW_HZ."""
    f0 = 0.5 * OSA_RBW_HZ / math.log(2.0) ** (1.0 / (2 * SG_ORDER))
    m = max(1, math.ceil(2.0 * f0 / df))
    f = np.arange(-m, m + 1) * df
    k = np.exp(-((np.abs(f) / f0) ** (2 * SG_ORDER)))
    return k / k.sum()


@functools.lru_cache(maxsize=8)
def _psd_window(nperseg: int, sample_rate: float) -> np.ndarray:
    """Periodic Hann window scaled to a density, as scipy builds it: the
    symmetric window over nperseg + 1 points with the last dropped, times
    1/sqrt(sum(w^2) / (1/fs)) with the builtin sum (`ShortTimeFFT.fac_psd`).
    Read-only, because the cache hands the same array to every caller."""
    w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    w *= 1 / np.sqrt(sum(w**2) / (1 / sample_rate))
    w.setflags(write=False)
    return w


def welch_psd(fld: SampledField, nperseg: int) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD of each polarization: (freqs, (2, nperseg) array) in FFT
    order, W/Hz, Hann window, 50% overlap, two-sided, no detrend.

    Each polarization's segments are windowed straight into one
    (2, segments, nperseg) array, and one numpy FFT runs over it in place.
    numpy's and scipy's FFTs give the same bits in complex128, so for a
    complex128 field (every field the program measures) each row equals scipy's
    `signal.welch(samples, fs, window="hann", nperseg=nperseg,
    noverlap=nperseg // 2, detrend=False, return_onesided=False,
    scaling="density")` bit for bit. The segment mean runs over a
    contiguous (polarization, frequency, segment) copy, the layout scipy
    averages, because numpy's pairwise sum depends on it.
    """
    # Every hop-th window is scipy's (n - noverlap) // hop segments.
    hop = nperseg - nperseg // 2
    n_seg = (len(fld) - nperseg // 2) // hop
    window = _psd_window(nperseg, fld.sample_rate)
    dtype = np.result_type(fld.samples_x, fld.samples_y, window)
    segments = np.empty((2, n_seg, nperseg), dtype)
    for row, samples in zip(segments, (fld.samples_x, fld.samples_y)):
        windows = np.lib.stride_tricks.sliding_window_view(samples, nperseg)
        np.multiply(windows[::hop], window, out=row)
    np.fft.fft(segments, out=segments)
    power = segments.real**2 + segments.imag**2
    pxx = np.ascontiguousarray(power.transpose(0, 2, 1)).mean(axis=-1)
    return np.fft.fftfreq(nperseg, 1 / fld.sample_rate), pxx


def estimate_psd(fld: SampledField) -> PsdTrace:
    """Welch-averaged, OSA-smoothed PSD of a dual-polarization field.

    The segment is the record halved for as long as the native bin stays
    <= 30 MHz (Hann window, 50% overlap), so it is chosen by duration, not
    by sample count: a 2^k-symbol record gets sps * 2^m samples per
    segment and the same 27.7 MHz bin at any samples/symbol. Polarizations
    are summed before the Super-Gaussian smoothing so the trace is what a
    total-power OSA would display. The Welch step is `welch_psd`, which
    equals scipy's bit for bit.
    """
    n = len(fld)
    if n < MIN_FIELD_SAMPLES:
        raise ValueError(f"field too short for PSD estimation ({n} < {MIN_FIELD_SAMPLES})")
    nperseg = n
    while nperseg % 2 == 0 and 2 * fld.sample_rate / nperseg <= MAX_NATIVE_BIN_HZ:
        nperseg //= 2
    freqs, pxx = welch_psd(fld, nperseg)
    psd = pxx[0] + pxx[1]
    order = np.argsort(freqs)
    freqs = freqs[order]
    psd = psd[order]
    kernel = supergaussian_kernel(float(freqs[1] - freqs[0]))
    smoothed = np.convolve(psd, kernel, mode="same")
    return PsdTrace(freqs, np.maximum(smoothed, 0.0))


def apsd(trace: PsdTrace, region: Sequence, inner_fraction: float = 1.0) -> float:
    """Average PSD over a set of intervals, in dB re 1 W/Hz.

    Each interval is first shrunk symmetrically about its center to
    inner_fraction of its width; the trace is integrated over the shrunk
    intervals with the trapezoidal rule and divided by their total width.
    """
    if not 0.0 < inner_fraction <= 1.0:
        raise ValueError("inner_fraction must be in (0, 1]")
    intervals = [tuple(map(float, iv)) for iv in region]
    if not intervals:
        raise ValueError("empty region")
    f_lo, f_hi = trace.freqs[0], trace.freqs[-1]
    integral = 0.0
    width = 0.0
    for lo, hi in intervals:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * inner_fraction
        lo, hi = mid - half, mid + half
        if lo < f_lo or hi > f_hi:
            raise ValueError(f"region [{lo:.3e}, {hi:.3e}] outside the trace support")
        if hi <= lo:
            raise ValueError("interval shrank to nothing")
        inside = (trace.freqs > lo) & (trace.freqs < hi)
        grid = np.concatenate(([lo], trace.freqs[inside], [hi]))
        vals = np.interp(grid, trace.freqs, trace.psd)
        integral += np.trapezoid(vals, grid)
        width += hi - lo
    mean_psd = integral / width
    if mean_psd <= 0:
        return -math.inf
    return 10.0 * math.log10(mean_psd)


@dataclass
class ApsdReport:
    """APSD pair for one received probe spectrum."""

    p_ref_db: float
    p_n_db: float
    delta_a_db: float

    def __post_init__(self):
        if not (math.isfinite(self.p_ref_db) and math.isfinite(self.p_n_db)):
            raise ValueError("APSD values must be finite")
        if self.p_ref_db < self.p_n_db - 60.0:
            raise ValueError("reference APSD implausibly far below notch APSD")


def measure(fld: SampledField, regions, delta_a_db: float) -> ApsdReport:
    """One OSA measurement: APSD over the reference region (boost bands plus
    remainder) and over the inner NOTCH_INNER_FRACTION of the notch."""
    trace = estimate_psd(fld)
    p_ref = apsd(trace, list(regions.f_a) + list(regions.f_b), 1.0)
    p_n = apsd(trace, regions.f_n, NOTCH_INNER_FRACTION)
    return ApsdReport(p_ref, p_n, delta_a_db)
