"""Emulated optical spectrum analyzer and average-PSD extraction.

PSDs are Welch estimates of both polarizations summed, then smoothed by a
unit-area Super-Gaussian kernel that mimics a grating OSA's 150 MHz
resolution. Average PSD (APSD) over a spectral region is the integral of the
trace across the region divided by the region width; the notch region is
integrated over its inner 80% so the OSA's skirts at the region edges are
discarded.
"""

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import trapezoid
from scipy.signal import welch

from .field import SampledField

MIN_FIELD_SAMPLES = 2**14
MAX_NATIVE_BIN_HZ = 30e6
DEFAULT_OSA_RBW_HZ = 150e6
DEFAULT_SG_ORDER = 4


@dataclass
class PsdTrace:
    """Frequency-gridded dual-pol PSD after OSA emulation."""

    freqs: np.ndarray   # Hz, ascending, uniform
    psd: np.ndarray     # W/Hz, both polarizations summed
    rbw: float          # effective resolution bandwidth, Hz

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
        return float(trapezoid(self.psd, self.freqs))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["freq_hz", "psd_w_per_hz"])
            for f, p in zip(self.freqs, self.psd):
                writer.writerow([repr(float(f)), repr(float(p))])


def supergaussian_kernel(df: float, rbw: float = DEFAULT_OSA_RBW_HZ,
                         order: int = DEFAULT_SG_ORDER) -> np.ndarray:
    """Discrete unit-sum OSA kernel exp(-(f/f0)^(2m)) with 3 dB full width rbw."""
    f0 = 0.5 * rbw / math.log(2.0) ** (1.0 / (2 * order))
    m = max(1, math.ceil(2.0 * f0 / df))
    f = np.arange(-m, m + 1) * df
    k = np.exp(-((np.abs(f) / f0) ** (2 * order)))
    return k / k.sum()


def estimate_psd(fld: SampledField, rbw: float = DEFAULT_OSA_RBW_HZ,
                 sg_order: int = DEFAULT_SG_ORDER) -> PsdTrace:
    """Welch-averaged, OSA-smoothed PSD of a dual-polarization field.

    The segment is the record halved for as long as the native bin stays
    <= 30 MHz (Hann window, 50% overlap), so it is chosen by duration, not
    by sample count: a 2^k-symbol record gets sps * 2^m samples per
    segment and the same 27.7 MHz bin at any samples/symbol. Polarizations
    are summed before the Super-Gaussian smoothing so the trace is what a
    total-power OSA would display.
    """
    n = len(fld)
    if n < MIN_FIELD_SAMPLES:
        raise ValueError(f"field too short for PSD estimation ({n} < {MIN_FIELD_SAMPLES})")
    nperseg = n
    while nperseg % 2 == 0 and 2 * fld.sample_rate / nperseg <= MAX_NATIVE_BIN_HZ:
        nperseg //= 2
    psd = None
    for samples in (fld.samples_x, fld.samples_y):
        freqs, pxx = welch(samples, fs=fld.sample_rate, window="hann",
                           nperseg=nperseg, noverlap=nperseg // 2,
                           detrend=False, return_onesided=False,
                           scaling="density")
        psd = pxx if psd is None else psd + pxx
    order = np.argsort(freqs)
    freqs = freqs[order]
    psd = psd[order]
    kernel = supergaussian_kernel(float(freqs[1] - freqs[0]), rbw, sg_order)
    smoothed = np.convolve(psd, kernel, mode="same")
    return PsdTrace(freqs, np.maximum(smoothed, 0.0), rbw)


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
        integral += trapezoid(vals, grid)
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
    scenario: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.p_ref_db) and math.isfinite(self.p_n_db)):
            raise ValueError("APSD values must be finite")
        if self.p_ref_db < self.p_n_db - 60.0:
            raise ValueError("reference APSD implausibly far below notch APSD")


def measure(fld: SampledField, regions, delta_a_db: float, scenario: str = "",
            notch_inner_fraction: float = 0.8) -> ApsdReport:
    """One OSA measurement: APSD over the reference region (boost bands plus
    remainder) and over the inner part of the notch."""
    trace = estimate_psd(fld)
    p_ref = apsd(trace, list(regions.f_a) + list(regions.f_b), 1.0)
    p_n = apsd(trace, regions.f_n, notch_inner_fraction)
    return ApsdReport(p_ref, p_n, delta_a_db, scenario)
