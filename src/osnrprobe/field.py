"""Dual-polarization sampled optical field container."""

import functools
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
    samples/symbol give a power of two. The samples are read-only views, so
    `spectrum`, computed on first use, always matches them.
    """

    samples_x: np.ndarray
    samples_y: np.ndarray
    sample_rate: float
    center_freq: float = CARRIER_HZ  # label only: perfbench sets and reads it

    def __post_init__(self):
        self.samples_x = _read_only(self.samples_x)
        self.samples_y = _read_only(self.samples_y)
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
        # total_power()'s test without its temporaries: sum |s|^2 for each
        # polarization. einsum sums in numpy's own loops; np.vdot would call
        # a threaded BLAS and wake its thread pool for every field.
        for s in (self.samples_x, self.samples_y):
            energy = np.einsum("i,i", s.real, s.real) + np.einsum("i,i", s.imag, s.imag)
            if not np.isfinite(energy):
                raise ValueError("field power is not finite")

    def __reduce__(self):
        # Pickled as its constructor call: a copy sent to a worker process
        # has read-only samples too, and the cached spectrum stays behind.
        return type(self), (self.samples_x, self.samples_y, self.sample_rate,
                            self.center_freq)

    def __len__(self) -> int:
        return len(self.samples_x)

    def total_power(self) -> float:
        """Mean power over both polarizations, in W."""
        px = np.mean(np.abs(self.samples_x) ** 2)
        py = np.mean(np.abs(self.samples_y) ** 2)
        return float(px + py)

    def as_matrix(self) -> np.ndarray:
        """New writable (2, N) array holding the x row and the y row."""
        return np.stack([self.samples_x, self.samples_y])

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only (2, N) `np.fft.fft` of both polarizations, computed
        once per field in one call. Each row has the bits of the row's own
        1-D transform."""
        m = self.as_matrix()
        m = m.astype(np.result_type(m, np.complex64), copy=False)
        np.fft.fft(m, axis=1, out=m)
        m.setflags(write=False)
        return m


def _read_only(samples) -> np.ndarray:
    view = np.asarray(samples).view()
    view.flags.writeable = False
    return view
