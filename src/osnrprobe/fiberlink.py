"""Multi-span amplified fiber link: split-step Manakov propagation plus EDFAs.

The dual-polarization field is advanced with a symmetric split-step scheme:
half-step linear operator (dispersion + loss) in the frequency domain, full
nonlinear phase rotation at the step midpoint, half-step linear. After each
span a constant-gain amplifier restores the span loss and injects white ASE,
so the ASE density never depends on the loaded spectrum.

`propagate` is the one propagation engine. It advances a (2P, N) stack that
holds P fields (the probes of one work unit, or a single field) in place:
every FFT, linear multiply and inverse FFT runs once over the whole stack,
while the nonlinear phase, which couples only the two polarizations of one
field, is applied one row pair at a time through a preallocated workspace.
Each field keeps its own ASE seed, so a field's samples are bit-identical
whether it travels alone or in a stack. The memory cost is the stack itself:
five probes at 2 samples/symbol in complex64 take 2.6 MB at desk size
(N = 2^15) and about 21 MB at paper size (N = 2^18). The benchmark has no
paper-size workload, so that cost is not measured.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.constants as const
import scipy.fft as sfft

from .field import SampledField, DEFAULT_CARRIER_HZ

MANAKOV_FACTOR = 8.0 / 9.0
NL_PHASE_STEP_LIMIT = 0.05  # rad per step before the accuracy warning fires
QUANTUM_NF_DB = 10.0 * math.log10(2.0)


@dataclass
class FiberParams:
    """Non-dispersion-shifted fiber with uniform split-step integration.

    The default 0.5 km step (200 steps per 100 km span) is converged for the
    notch APSD the method reads: at +6 dBm over two spans the desk notch
    lies within 0.0003 dB of the same symbols at 4 samples/symbol in
    complex128 at 0.1 km steps, and the test suite fails if the presets'
    samples/symbol, step and precision move it by more than 0.05 dB.
    """

    dispersion_D: float = 16.7      # ps/nm/km
    gamma: float = 1.3              # 1/(W km)
    alpha_db_per_km: float = 0.2
    span_length_km: float = 100.0
    step_km: float = 0.5

    def __post_init__(self):
        if min(self.dispersion_D, self.gamma, self.alpha_db_per_km) < 0:
            raise ValueError("fiber parameters must be non-negative")
        if self.span_length_km <= 0 or self.step_km <= 0:
            raise ValueError("span_length_km and step_km must be positive")
        if self.step_km > self.span_length_km:
            raise ValueError("step_km larger than the span")

    def beta2(self, carrier_hz: float) -> float:
        """Group-velocity dispersion in s^2/m from D at the carrier."""
        lam = const.c / carrier_hz
        d_si = self.dispersion_D * 1e-6  # ps/nm/km -> s/m^2
        return -d_si * lam**2 / (2.0 * math.pi * const.c)

    @property
    def steps_per_span(self) -> int:
        """Uniform split steps per span: step_km rounded to divide the span."""
        return max(1, round(self.span_length_km / self.step_km))

    @property
    def alpha_np_per_km(self) -> float:
        """Power attenuation in nepers/km."""
        return self.alpha_db_per_km * math.log(10.0) / 10.0

    @property
    def span_loss_db(self) -> float:
        return self.alpha_db_per_km * self.span_length_km


@dataclass
class AmpParams:
    """Constant-gain EDFA; nf_db=None (or -inf) switches ASE off."""

    gain_db: float
    nf_db: Optional[float] = 4.5
    center_freq: float = DEFAULT_CARRIER_HZ

    def __post_init__(self):
        if not self.gain_db > 0:
            raise ValueError("gain_db must be positive")
        if self.noisy and self.nf_db < QUANTUM_NF_DB - 1e-9:
            raise ValueError(f"nf_db below the {QUANTUM_NF_DB:.2f} dB quantum limit")

    @property
    def noisy(self) -> bool:
        return self.nf_db is not None and self.nf_db != -math.inf

    @property
    def gain_linear(self) -> float:
        return 10.0 ** (self.gain_db / 10.0)

    def ase_psd_per_pol(self) -> float:
        """One-sided ASE density n_sp*h*nu*(G-1) per polarization, W/Hz.

        Uses the high-gain spontaneous-emission factor n_sp = NF_lin / 2.
        """
        if not self.noisy:
            return 0.0
        n_sp = 10.0 ** (self.nf_db / 10.0) / 2.0
        return n_sp * const.h * self.center_freq * (self.gain_linear - 1.0)


@dataclass
class LinkConfig:
    """One transmission scenario: fiber, amplifier, launch power, span count."""

    fiber: FiberParams
    n_spans: int
    launch_power_dbm: float
    nf_db: Optional[float] = 4.5
    center_freq: float = DEFAULT_CARRIER_HZ
    ase_seed: int = 0

    def __post_init__(self):
        if self.n_spans < 0:
            raise ValueError("n_spans must be >= 0")

    @property
    def amp(self) -> AmpParams:
        """Span-transparent amplifier: gain pinned to the span loss."""
        return AmpParams(self.fiber.span_loss_db, self.nf_db, self.center_freq)

    @property
    def launch_power_w(self) -> float:
        return 10.0 ** (self.launch_power_dbm / 10.0) * 1e-3


def span_seed(ase_seed: int, span_idx: int) -> np.random.SeedSequence:
    """ASE seed for one amplifier; prefix-stable so a k-span run equals the
    first k spans of a longer run with the same ase_seed."""
    return np.random.SeedSequence((int(ase_seed), 0xA5E, int(span_idx)))


class _SplitStep:
    """Symmetric split-step Manakov integration of one fiber span over a
    (2P, N) stack: the linear operator runs on the whole stack at once, the
    nonlinear phase one probe (row pair) at a time through a fixed
    workspace, so a span allocates nothing."""

    def __init__(self, stack: np.ndarray, sample_rate: float, carrier_hz: float,
                 fiber: FiberParams, workers: int):
        n = stack.shape[1]
        self.n_steps = fiber.steps_per_span
        h_km = fiber.span_length_km / self.n_steps
        alpha = fiber.alpha_np_per_km
        beta2_km = fiber.beta2(carrier_hz) * 1e3  # s^2/km
        omega = 2.0 * math.pi * sfft.fftfreq(n, d=1.0 / sample_rate)

        # Carrier convention with exp(+i w0 t): SPM phase is negative, so the
        # matching dispersion factor is exp(-i beta2/2 w^2 h).
        exponent = -0.5j * beta2_km * omega**2 - alpha / 2.0  # per km, amplitude
        self.half = np.exp(exponent * (h_km / 2.0)).astype(stack.dtype)
        self.full = self.half * self.half
        if alpha > 0:
            h_eff = 2.0 * math.sinh(alpha * h_km / 2.0) / alpha  # exact loss quadrature at midpoint
        else:
            h_eff = h_km
        real = stack.real.dtype
        self.coeff = real.type(MANAKOV_FACTOR * fiber.gamma * h_eff)
        self.workers = workers
        self.power = np.empty((2, n), real)   # |E|^2 per polarization, then phi, cos
        self.scratch = np.empty(n, real)      # imag^2, then sin
        self.rot = np.empty(n, stack.dtype)

    def _linear(self, buf: np.ndarray, factor: np.ndarray) -> np.ndarray:
        spec = sfft.fft(buf, axis=1, overwrite_x=True, workers=self.workers)
        spec *= factor
        return sfft.ifft(spec, axis=1, overwrite_x=True, workers=self.workers)

    def _rotate(self, pair: np.ndarray) -> float:
        """Apply the Manakov phase to one probe's (2, N) rows; return its
        largest phase. Same IEEE operations as exp(-i phi) built from
        cos(phi) - 1j*sin(phi), so a probe's bytes do not depend on the
        stack it travels in."""
        power, scratch, rot = self.power, self.scratch, self.rot
        np.multiply(pair.real, pair.real, out=power)
        for pol in (0, 1):
            np.multiply(pair[pol].imag, pair[pol].imag, out=scratch)
            np.add(power[pol], scratch, out=power[pol])
        phi = np.add(power[0], power[1], out=power[0])
        phi *= self.coeff
        max_phi = float(phi.max(initial=0.0))
        rot.real = np.cos(phi, out=power[1])
        np.subtract(0, np.sin(phi, out=scratch), out=rot.imag)
        pair *= rot
        return max_phi

    def span(self, stack: np.ndarray) -> float:
        """Advance the stack through one span in place; return the largest
        nonlinear phase of any step and probe."""
        max_phi = 0.0
        buf = self._linear(stack, self.half)
        for step in range(self.n_steps):
            if self.coeff != 0:
                for i in range(0, buf.shape[0], 2):
                    max_phi = max(max_phi, self._rotate(buf[i:i + 2]))
            buf = self._linear(buf, self.full if step < self.n_steps - 1 else self.half)
        if not np.may_share_memory(buf, stack):  # scipy transformed out of place
            stack[...] = buf
        return max_phi


def propagate(stack: np.ndarray, sample_rate: float, taps, *,
              fiber: Optional[FiberParams] = None, amp: Optional[AmpParams] = None,
              ase_seeds=(), carrier_hz: float = DEFAULT_CARRIER_HZ, workers: int = 2):
    """Advance a (2P, N) stack of P dual-polarization fields span by span,
    in place, and yield (k, stack, max_phi) after span k for every k in
    taps, where max_phi is the largest nonlinear phase (rad) that any split
    step of any field has applied up to span k.

    A span is `fiber` followed by `amp`; leave either out for a bare
    amplifier or a bare fiber. Rows 2i and 2i+1 hold field i (x, y), and its
    amplifier after span k draws ASE from span_seed(ase_seeds[i], k), so a
    field's bytes are the same whether it travels alone or in a stack. The
    yielded array is the live stack: read it before the next span.
    """
    if stack.ndim != 2 or stack.shape[0] % 2:
        raise ValueError("stack must be (2P, N): an x and a y row per field")
    noisy = amp is not None and amp.noisy
    if noisy and len(ase_seeds) != stack.shape[0] // 2:
        raise ValueError(f"need one ASE seed per field, got {len(ase_seeds)} "
                         f"for {stack.shape[0] // 2}")
    taps = {int(k) for k in taps}
    if taps and min(taps) < 1:
        raise ValueError("tap spans must be >= 1")
    stepper = (_SplitStep(stack, sample_rate, carrier_hz, fiber, workers)
               if fiber is not None and taps else None)
    if amp is not None:
        gain = stack.real.dtype.type(math.sqrt(amp.gain_linear))
        sigma = math.sqrt(amp.ase_psd_per_pol() * sample_rate / 2.0)
    max_phi = 0.0
    for k in range(max(taps, default=0)):
        if stepper is not None:
            span_phi = stepper.span(stack)
            max_phi = max(max_phi, span_phi)
            if span_phi > NL_PHASE_STEP_LIMIT:
                warnings.warn(
                    f"max nonlinear phase {span_phi:.3g} rad/step exceeds "
                    f"{NL_PHASE_STEP_LIMIT}; reduce step_km for trustworthy accuracy",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if amp is not None:
            stack *= gain
            if noisy:
                for i, seed in enumerate(ase_seeds):
                    noise = np.random.default_rng(span_seed(seed, k)).standard_normal(
                        (2, 2, stack.shape[1]))
                    stack[2 * i:2 * i + 2] += sigma * (noise[0] + 1j * noise[1])
        if k + 1 in taps:
            yield k + 1, stack, max_phi


def simulate_link(tx: SampledField, link: LinkConfig, workers: int = 2,
                  dtype=np.complex128) -> SampledField:
    """Launch-scale the unit-power waveform and run n_spans x (fiber; EDFA).

    dtype=np.complex64 roughly halves runtime at accuracy far below the
    statistical resolution of the spectral measurements.
    """
    mat = tx.as_matrix().astype(dtype)
    power = float(np.mean(np.abs(mat[0]) ** 2) + np.mean(np.abs(mat[1]) ** 2))
    if power > 0:
        mat *= mat.real.dtype.type(math.sqrt(link.launch_power_w / power))
    list(propagate(mat, tx.sample_rate, range(1, link.n_spans + 1), fiber=link.fiber,
                   amp=link.amp if link.n_spans else None, ase_seeds=(link.ase_seed,),
                   carrier_hz=link.center_freq, workers=workers))
    return SampledField(mat[0].astype(complex), mat[1].astype(complex),
                        tx.sample_rate, link.center_freq)


def reference_bandwidth_hz(center_freq: float = DEFAULT_CARRIER_HZ,
                           ref_bw_nm: float = 0.1) -> float:
    """0.1 nm OSNR reference bandwidth converted to Hz at the carrier."""
    return ref_bw_nm * 1e-9 * center_freq**2 / const.c


def analytic_osnr(link: LinkConfig, ref_bw_nm: float = 0.1) -> float:
    """Ground-truth OSNR in dB: launch power over accumulated dual-pol ASE
    power in the reference bandwidth."""
    if link.n_spans < 1:
        return math.inf
    s_ase = link.amp.ase_psd_per_pol()
    if s_ase == 0.0:
        return math.inf
    b_ref = reference_bandwidth_hz(link.center_freq, ref_bw_nm)
    return 10.0 * math.log10(link.launch_power_w / (link.n_spans * 2.0 * s_ase * b_ref))
