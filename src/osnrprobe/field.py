"""Dual-polarization sampled optical field container."""

from dataclasses import dataclass

import numpy as np

CARRIER_HZ = 193.4e12  # the one C-band carrier every layer assumes


def _is_smooth(n: int) -> bool:
    """True if n has no prime factor larger than 5 (FFT-friendly length)."""
    if n < 1:
        return False
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@dataclass
class SampledField:
    """Complex baseband field on a uniform time grid, one array per polarization.

    Units: |samples|^2 is instantaneous power in W. The grid length must be
    5-smooth so mixed-radix FFTs stay fast; the presets' 2^k symbols at 2
    samples/symbol give a power of two.
    """

    samples_x: np.ndarray
    samples_y: np.ndarray
    sample_rate: float
    center_freq: float = CARRIER_HZ  # label only: perfbench sets and reads it

    def __post_init__(self):
        self.samples_x = np.asarray(self.samples_x)
        self.samples_y = np.asarray(self.samples_y)
        if self.samples_x.ndim != 1 or self.samples_y.ndim != 1:
            raise ValueError("polarization sample arrays must be 1-D")
        if len(self.samples_x) != len(self.samples_y):
            raise ValueError("x and y polarizations must have equal length")
        if len(self.samples_x) < 2:
            raise ValueError("field needs at least 2 samples")
        if not _is_smooth(len(self.samples_x)):
            raise ValueError(
                f"grid length {len(self.samples_x)} has prime factors > 5; "
                "use a {2,3,5}-smooth length"
            )
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        if not np.isfinite(self.total_power()):
            raise ValueError("field power is not finite")

    def __len__(self) -> int:
        return len(self.samples_x)

    def total_power(self) -> float:
        """Mean power over both polarizations, in W."""
        px = np.mean(np.abs(self.samples_x) ** 2)
        py = np.mean(np.abs(self.samples_y) ** 2)
        return float(px + py)

    def freqs(self) -> np.ndarray:
        """Baseband FFT bin frequencies in Hz (numpy fftfreq order)."""
        return np.fft.fftfreq(len(self), d=1.0 / self.sample_rate)

    def copy(self) -> "SampledField":
        return SampledField(
            self.samples_x.copy(),
            self.samples_y.copy(),
            self.sample_rate,
            self.center_freq,
        )

    def as_matrix(self) -> np.ndarray:
        """(2, N) view-ish stack of both polarizations (copies)."""
        return np.stack([self.samples_x, self.samples_y])
