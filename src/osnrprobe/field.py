"""Dual-polarization sampled optical field container.

A field is built from its samples, `SampledField(x, y, fs)`, or from its
(2, N) spectrum, `SampledField.from_spectrum(spectrum, fs)`. The other side
is one (2, N) numpy transform, computed the first time it is read. Both
sides are read-only, so they always match.
"""

import functools

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


def _energy(*rows) -> float:
    """Sum of |a|^2 over 1-D arrays without temporaries. einsum sums in
    numpy's own loops; np.vdot would call a threaded BLAS and wake its
    thread pool for every field."""
    return sum(np.einsum("i,i", a.real, a.real) + np.einsum("i,i", a.imag, a.imag)
               for a in rows)


def _validate(n: int, sample_rate: float, energy: float):
    """What every field must be, whichever side it was built from: a
    5-smooth grid of at least 2 points, a positive rate and finite energy."""
    if n < 2:
        raise ValueError("field needs at least 2 samples")
    if not _is_smooth(n):
        raise ValueError(f"grid length {n} has prime factors > 5; use a {{2,3,5}}-smooth length")
    if not sample_rate > 0:
        raise ValueError("sample_rate must be positive")
    if not np.isfinite(energy):
        raise ValueError("field power is not finite")


class SampledField:
    """Complex baseband field on a uniform time grid, one array per polarization.

    Units: |samples|^2 is instantaneous power in W. The grid length must be
    5-smooth so mixed-radix FFTs stay fast; the presets' 2^k symbols at 2
    samples/symbol give a power of two. `samples_x`, `samples_y` and
    `spectrum` are read-only, so the side computed from the other always
    matches it. `center_freq` is a label only: perfbench sets and reads it.
    """

    _spectral = False  # built by from_spectrum

    def __init__(self, samples_x, samples_y, sample_rate: float,
                 center_freq: float = CARRIER_HZ):
        x, y = _read_only(samples_x), _read_only(samples_y)
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("polarization sample arrays must be 1-D")
        if len(x) != len(y):
            raise ValueError("x and y polarizations must have equal length")
        _validate(len(x), sample_rate, _energy(x, y))
        self._samples = (x, y)
        self.sample_rate = sample_rate
        self.center_freq = center_freq

    @classmethod
    def from_spectrum(cls, spectrum, sample_rate: float) -> "SampledField":
        """Field whose `spectrum` is the (2, N) complex128 array `spectrum`,
        taken over without a copy. Its samples are one (2, N) `np.fft.ifft`,
        computed the first time either polarization is read. The energy
        check reads the spectrum (Parseval), so building the field
        transforms nothing."""
        spec = _read_only(np.asarray(spectrum, dtype=np.complex128))
        if spec.ndim != 2 or len(spec) != 2:
            raise ValueError("spectrum must be a (2, N) array, one row per polarization")
        n = spec.shape[1]
        _validate(n, sample_rate, _energy(*spec) / n)
        fld = cls.__new__(cls)
        fld.spectrum = spec
        fld.sample_rate = sample_rate
        fld.center_freq = CARRIER_HZ
        fld._spectral = True
        return fld

    def __reduce__(self):
        # Pickled as the call that built it: a copy sent to a worker process
        # is read-only too, has the same bits on the side it was built from,
        # and the side computed from that stays behind.
        if self._spectral:
            return type(self).from_spectrum, (self.spectrum, self.sample_rate)
        return type(self), (self.samples_x, self.samples_y, self.sample_rate,
                            self.center_freq)

    def __len__(self) -> int:
        return (self.spectrum if self._spectral else self._samples[0]).shape[-1]

    @functools.cached_property
    def _samples(self) -> tuple:
        """(x, y): the rows of the read-only (2, N) `np.fft.ifft` of a
        spectrum-built field."""
        return tuple(_read_only(np.fft.ifft(self.spectrum, axis=1)))

    @property
    def samples_x(self) -> np.ndarray:
        return self._samples[0]

    @property
    def samples_y(self) -> np.ndarray:
        return self._samples[1]

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
