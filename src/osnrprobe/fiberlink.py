"""Multi-span amplified fiber link: split-step Manakov propagation plus EDFAs.

The dual-polarization field is advanced with a symmetric split-step scheme:
half-step linear operator (dispersion + loss) in the frequency domain, full
nonlinear phase rotation at the step midpoint, half-step linear. The steps
are not uniform: `FiberParams.step_lengths_km` gives each step the same
effective nonlinear length, `step_km`, and caps the steps in the tail of
the span at twice `step_km`, so a 100 km span takes 38 steps at the default
1.4 km, which a notch-error budget sets (`FiberParams`). The link
has one span model, `LinkConfig`: every span is the fiber followed by an
EDFA whose gain equals the span loss and which injects white ASE, so the
ASE density never depends on the loaded spectrum.

`simulate_link` is the one launch path, in complex64, and `propagate` the
one propagation engine under it. `propagate` advances a (2P, N) stack that
holds P fields (the probes of one work unit, or a single field) in place:
every FFT, linear multiply and inverse FFT runs once over the whole stack,
while the nonlinear phase, which couples only the two polarizations of one
field, is applied one row pair at a time through a preallocated workspace.
Each field keeps its own ASE seed, so a field's samples are bit-identical
whether it travels alone or in a stack. The memory cost is the stack
and the linear factors. Five probes at 2 samples/symbol in complex64 take
2.6 MB at desk size (N = 2^15) and about 21 MB at paper size (N = 2^18).
The factors, one complex64 array of N per distinct length between two
nonlinear rotations, are built once per `propagate` call and held for it:
on a 100 km span at 1.4 km steps there are 10, 2.6 MB at desk size and
21 MB at paper size (10 x 2.1 MB), measured with tracemalloc: the
benchmark has no paper-size workload.

The carrier is `field.CARRIER_HZ` throughout: it sets the dispersion
(`FiberParams.beta2`), the ASE photon energy and the 0.1 nm OSNR reference
bandwidth `REFERENCE_BANDWIDTH_HZ`. None of them is a parameter.
"""

import math
import os
import warnings
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
import scipy.fft as sfft

from .field import CARRIER_HZ, SampledField

# Exact by the definition of the SI, and equal to scipy's `constants.c` and
# `constants.h`, whose import loads the whole CODATA table.
C_M_PER_S = 299792458.0
H_PLANCK_J_S = 6.62607015e-34
MANAKOV_FACTOR = 8.0 / 9.0
# rad per step before the accuracy warning fires: the largest phase of a
# step that still met the notch-error budget, calibrated without ASE or the
# transmitter floor, which raise the phase read (0.1029 against 0.0921 rad
# at 2.0 km; see FiberParams)
NL_PHASE_STEP_LIMIT = 0.09
QUANTUM_NF_DB = 10.0 * math.log10(2.0)
# 0.1 nm OSNR reference bandwidth at the carrier. Keep the operation order:
# 0.1e-9 in place of 0.1 * 1e-9 moves the last bit, and so truth_osnr_db.
REFERENCE_BANDWIDTH_HZ = 0.1 * 1e-9 * CARRIER_HZ**2 / C_M_PER_S


@dataclass
class FiberParams:
    """Non-dispersion-shifted fiber and its split-step schedule.

    `step_km` is each step's effective nonlinear length measured from the
    span input, e^(-a z)(1 - e^(-a h))/a for a step of length h that starts
    at z, and no step is longer than 2 x step_km: short steps where the
    power, and so the nonlinear phase, is high, long steps in the tail of
    the span (Sinkin et al., JLT 21(1):61-68, 2003); non-uniform steps also
    suppress the spurious FWM tones that uniform steps create (Bosco et
    al., IEEE PTL 12(5):489-491, 2000). A lossless fiber gets uniform steps.

    The step is sized by the notch the method reads. The budget is 0.01 dB
    on the notch APSD p_n after 30 spans at the desk worst case: +6 dBm,
    the -10 and +10 dB probes, no ASE and no transmitter floor, in
    complex64 at 2 samples/symbol, against the same symbols at
    4 samples/symbol in complex128 at step_km 0.05 (no step over 0.1 km).
    The default, 1.4 km (38 steps of a 100 km span), is the coarsest step
    in the table whose error is at most half the budget. Delta p_n in dB
    of the -10 / +10 dB probes, and the largest nonlinear phase of any
    step over the 30 spans:

        step_km  steps  2 spans          10 spans         30 spans         rad/step
        0.7      77     -0.0004/-0.0003  -0.0004/-0.0013  -0.0026/-0.0033  0.034
        1.0      53     -0.0002/-0.0009  -0.0005/-0.0018  -0.0018/-0.0033  0.050
        1.4      38     +0.0000/-0.0021  -0.0013/-0.0031  -0.0019/-0.0044  0.069
        2.0      27     -0.0020/-0.0054  -0.0062/-0.0074  -0.0064/-0.0092  0.092
        3.0      18     -0.0015/-0.0141  -0.0220/-0.0326  -0.0404/-0.0678  0.144

    Up to 1.4 km the 30-span error is mostly the complex64 drift: 0.7 and
    1.0 km give the same -0.0033 dB. 2.0 km is the coarsest step that
    meets the full budget, and NL_PHASE_STEP_LIMIT is its largest phase per
    step (0.0921 rad) rounded down to 0.09 rad, so the engine warns when a
    step applies more phase than one whose notch error was measured within
    the budget. That phase was read without ASE or the transmitter floor;
    with them the phase the guard reads is higher (0.1029 rad at 2.0 km,
    +6 dBm, NF 7.5 dB), so a noisy unit trips the warning at a step whose
    noiseless notch met the budget. At the default step the desk grid's
    worst unit reads 0.0758 rad. p_ref moves by at most 0.0019 dB up to
    2.0 km. A test fails if the presets' samples/symbol and step move p_n
    by more than 0.05 dB over two spans, and a slow test if the default
    step breaks the budget.
    """

    dispersion_D: float = 16.7      # ps/nm/km
    gamma: float = 1.3              # 1/(W km)
    alpha_db_per_km: float = 0.2
    span_length_km: float = 100.0
    step_km: float = 1.4

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"fiber {f.name} must be finite, got {getattr(self, f.name)}")
        if min(self.dispersion_D, self.gamma, self.alpha_db_per_km) < 0:
            raise ValueError("fiber parameters must be non-negative")
        if self.span_length_km <= 0 or self.step_km <= 0:
            raise ValueError("span_length_km and step_km must be positive")
        if self.step_km > self.span_length_km:
            raise ValueError("step_km larger than the span")

    @property
    def beta2(self) -> float:
        """Group-velocity dispersion in s^2/m from D at the carrier."""
        lam = C_M_PER_S / CARRIER_HZ
        d_si = self.dispersion_D * 1e-6  # ps/nm/km -> s/m^2
        return -d_si * lam**2 / (2.0 * math.pi * C_M_PER_S)

    @property
    def step_lengths_km(self) -> np.ndarray:
        """The split steps of one span in km, from its input.

        Up to z1, where a 2 x step_km step first has an effective length of
        at most step_km, the steps are equal in effective length, their
        count rounded to a whole number as uniform steps always were (and
        raised if the last of them would pass 2 x step_km). The rest of
        the span is split into equal steps of at most 2 x step_km. A
        lossless fiber is all first part: round(L / step_km) uniform steps.
        """
        a, s, length = self.alpha_np_per_km, self.step_km, self.span_length_km
        if a == 0:
            n = max(1, round(length / s))
            return np.full(n, length / n)
        z1 = min(length, max(0.0, math.log(-math.expm1(-2.0 * a * s) / (a * s)) / a))
        steps = []
        if z1 > 0:
            eff = -math.expm1(-a * z1) / a
            # largest equal effective length whose step ending at z1 is <= 2s
            eff_max = math.expm1(2.0 * a * s) * math.exp(-a * z1) / a
            n = max(round(eff / s), math.ceil(eff / eff_max))
            edges = -np.log1p(-a * eff * np.arange(n + 1) / n) / a
            edges[-1] = z1
            steps.append(np.diff(edges))
        if z1 < length:
            n = math.ceil((length - z1) / (2.0 * s))
            steps.append(np.full(n, (length - z1) / n))
        return np.concatenate(steps)

    @property
    def steps_per_span(self) -> int:
        """Split steps per span: the length of `step_lengths_km`."""
        return len(self.step_lengths_km)

    @property
    def alpha_np_per_km(self) -> float:
        """Power attenuation in nepers/km."""
        return self.alpha_db_per_km * math.log(10.0) / 10.0

    @property
    def span_loss_db(self) -> float:
        return self.alpha_db_per_km * self.span_length_km


@dataclass
class LinkConfig:
    """One transmission scenario: n_spans spans, each the fiber followed by
    an EDFA whose gain restores the span loss, at one launch power. The
    EDFA adds white ASE of noise figure nf_db; nf_db=None switches it off."""

    fiber: FiberParams
    n_spans: int
    launch_power_dbm: float
    nf_db: Optional[float] = 4.5

    def __post_init__(self):
        if self.n_spans < 0:
            raise ValueError("n_spans must be >= 0")
        if not math.isfinite(self.launch_power_dbm):
            raise ValueError(f"launch_power_dbm {self.launch_power_dbm} not finite")
        try:
            self.launch_power_w
        except OverflowError:
            raise ValueError(f"launch_power_dbm {self.launch_power_dbm} overflows "
                             "a float in W") from None
        if self.nf_db is not None and not QUANTUM_NF_DB - 1e-9 <= self.nf_db < math.inf:
            raise ValueError(f"nf_db {self.nf_db} not finite or under the quantum limit")

    @property
    def launch_power_w(self) -> float:
        return 10.0 ** (self.launch_power_dbm / 10.0) * 1e-3

    @property
    def gain_linear(self) -> float:
        """EDFA power gain: the span loss, so every span is transparent."""
        return 10.0 ** (self.fiber.span_loss_db / 10.0)

    def ase_psd_per_pol(self) -> float:
        """One-sided ASE density n_sp*h*nu*(G-1) of one EDFA per
        polarization, W/Hz; 0 with nf_db=None.

        Uses the high-gain spontaneous-emission factor n_sp = NF_lin / 2.
        """
        if self.nf_db is None:
            return 0.0
        n_sp = 10.0 ** (self.nf_db / 10.0) / 2.0
        return n_sp * H_PLANCK_J_S * CARRIER_HZ * (self.gain_linear - 1.0)


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity set where the
    platform has one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallelism(units: int = 1) -> tuple[int, int]:
    """(processes, FFT threads per process) for `units` >= 1 independent
    work units: one process per unit up to the usable cores, and each process
    the cores left to it, `usable_cores() // processes`, as FFT threads.
    Processes come first because the split step's FFTs scale worse across
    threads than across units: on a shared 2-core VM the 20-unit desk grid
    at the 1.4 km default step took 202-220 s on one process with two FFT
    threads and 107-128 s on two processes with one each, in two
    alternating runs of each."""
    cores = usable_cores()
    processes = min(cores, units)
    return processes, cores // processes


def span_seed(ase_seed: int, span_idx: int) -> np.random.SeedSequence:
    """ASE seed for one amplifier; prefix-stable so a k-span run equals the
    first k spans of a longer run with the same ase_seed."""
    return np.random.SeedSequence((int(ase_seed), 0xA5E, int(span_idx)))


class _SplitStep:
    """Symmetric split-step Manakov integration of one fiber span over a
    (2P, N) stack on `FiberParams.step_lengths_km`: the linear operator
    runs on the whole stack at once, the nonlinear phase one probe (row
    pair) at a time through a fixed workspace, so a span allocates nothing.
    The linear factors, one per distinct length between two rotations (half
    of each neighbouring step), are built once and held for the call."""

    def __init__(self, stack: np.ndarray, sample_rate: float, fiber: FiberParams,
                 workers: int):
        n = stack.shape[1]
        steps = fiber.step_lengths_km
        alpha = fiber.alpha_np_per_km
        beta2_km = fiber.beta2 * 1e3  # s^2/km
        omega = 2.0 * math.pi * sfft.fftfreq(n, d=1.0 / sample_rate)

        # Carrier convention with exp(+i w0 t): SPM phase is negative, so the
        # matching dispersion factor is exp(-i beta2/2 w^2 h).
        exponent = -0.5j * beta2_km * omega**2 - alpha / 2.0  # per km, amplitude
        lengths = (np.concatenate((steps[:1], steps[:-1] + steps[1:], steps[-1:])) / 2.0).tolist()
        factors = {h: np.exp(exponent * h).astype(stack.dtype) for h in set(lengths)}
        self.factors = [factors[h] for h in lengths]
        if alpha > 0:
            h_eff = 2.0 * np.sinh(alpha * steps / 2.0) / alpha  # exact loss quadrature at midpoint
        else:
            h_eff = steps
        real = stack.real.dtype
        self.coeffs = (MANAKOV_FACTOR * fiber.gamma * h_eff).astype(real)
        self.workers = workers
        self.power = np.empty((2, n), real)   # |E|^2 per polarization, then phi, cos
        self.scratch = np.empty(n, real)      # imag^2, then sin
        self.rot = np.empty(n, stack.dtype)

    def _linear(self, buf: np.ndarray, factor: np.ndarray) -> np.ndarray:
        spec = sfft.fft(buf, axis=1, overwrite_x=True, workers=self.workers)
        spec *= factor
        return sfft.ifft(spec, axis=1, overwrite_x=True, workers=self.workers)

    def _rotate(self, pair: np.ndarray, coeff) -> float:
        """Apply the Manakov phase of one step (coeff x |E|^2) to one
        probe's (2, N) rows; return its largest phase. Same IEEE operations
        as exp(-i phi) built from cos(phi) - 1j*sin(phi), so a probe's bytes
        do not depend on the stack it travels in."""
        power, scratch, rot = self.power, self.scratch, self.rot
        np.multiply(pair.real, pair.real, out=power)
        for pol in (0, 1):
            np.multiply(pair[pol].imag, pair[pol].imag, out=scratch)
            np.add(power[pol], scratch, out=power[pol])
        phi = np.add(power[0], power[1], out=power[0])
        phi *= coeff
        max_phi = float(phi.max(initial=0.0))
        rot.real = np.cos(phi, out=power[1])
        np.subtract(0, np.sin(phi, out=scratch), out=rot.imag)
        pair *= rot
        return max_phi

    def span(self, stack: np.ndarray) -> float:
        """Advance the stack through one span in place; return the largest
        nonlinear phase of any step and probe."""
        max_phi = 0.0
        buf = self._linear(stack, self.factors[0])
        for coeff, factor in zip(self.coeffs, self.factors[1:]):
            if coeff != 0:
                for i in range(0, buf.shape[0], 2):
                    max_phi = max(max_phi, self._rotate(buf[i:i + 2], coeff))
            buf = self._linear(buf, factor)
        if not np.may_share_memory(buf, stack):  # scipy transformed out of place
            stack[...] = buf
        return max_phi


def propagate(stack: np.ndarray, sample_rate: float, link: LinkConfig, ase_seeds, taps,
              workers: Optional[int] = None):
    """Advance a (2P, N) stack of P dual-polarization fields over `link`,
    span by span, in place, and yield (k, max_phi) after span k for every k
    in taps (each in 1..link.n_spans), where max_phi is the largest
    nonlinear phase (rad) that any split step of any field has applied up
    to span k.

    A span is the fiber, the EDFA gain that restores its loss, then, unless
    link.nf_db is None, ASE. Rows 2i and 2i+1 hold field i (x, y), and the
    EDFA after span k draws its ASE from span_seed(ase_seeds[i], k), so a
    field's bytes are the same whether it travels alone or in a stack.
    `workers` FFT threads run each transform, by default every usable core
    (`parallelism()`); a field's bytes do not depend on it. The arguments
    are checked here, when propagate is called; the spans run as the
    returned generator is consumed.
    """
    if stack.ndim != 2 or stack.shape[0] % 2:
        raise ValueError("stack must be (2P, N): an x and a y row per field")
    if len(ase_seeds) != stack.shape[0] // 2:
        raise ValueError(f"need one ASE seed per field, got {len(ase_seeds)} "
                         f"for {stack.shape[0] // 2}")
    taps = {int(k) for k in taps}
    if not taps <= set(range(1, link.n_spans + 1)):
        raise ValueError(f"tap spans {sorted(taps)} outside the link's "
                         f"1..{link.n_spans}")
    if workers is None:
        workers = parallelism()[1]
    return _spans(stack, sample_rate, link, ase_seeds, taps, workers)


def _spans(stack, sample_rate, link, ase_seeds, taps, workers):
    """The generator that `propagate` returns, once its arguments are checked."""
    stepper = _SplitStep(stack, sample_rate, link.fiber, workers)
    gain = stack.real.dtype.type(math.sqrt(link.gain_linear))
    sigma = math.sqrt(link.ase_psd_per_pol() * sample_rate / 2.0)
    max_phi = 0.0
    for k in range(max(taps, default=0)):
        span_phi = stepper.span(stack)
        max_phi = max(max_phi, span_phi)
        if span_phi > NL_PHASE_STEP_LIMIT:
            warnings.warn(
                f"max nonlinear phase {span_phi:.3g} rad/step exceeds "
                f"{NL_PHASE_STEP_LIMIT}; reduce step_km, the effective nonlinear length "
                "of a step, for trustworthy accuracy",
                RuntimeWarning,
                stacklevel=2,
            )
        stack *= gain
        if link.nf_db is not None:
            for i, seed in enumerate(ase_seeds):
                noise = np.random.default_rng(span_seed(seed, k)).standard_normal(
                    (2, 2, stack.shape[1]))
                _add_ase(stack[2 * i:2 * i + 2], noise, sigma)
        if k + 1 in taps:
            yield k + 1, max_phi


def _add_ase(pair: np.ndarray, noise: np.ndarray, sigma: float) -> None:
    """pair += sigma * (noise[0] + 1j * noise[1]), byte for byte, without
    its complex128 temporaries: noise is scaled in place and its halves are
    added to the real and imaginary parts of the (2, N) rows."""
    noise *= sigma
    pair.real += noise[0]
    pair.imag += noise[1]


def simulate_link(fields, link: LinkConfig, ase_seeds, taps, workers: Optional[int] = None):
    """The one launch path: draw the fields one at a time into a complex64
    stack, field i scaled by float32(sqrt(P_launch / total_power)) (an
    all-zero field stays zero) and amplified with ASE from ase_seeds[i];
    propagate it over `link` and yield (k, received, max_phi) after span k
    for every k in taps (0 is the launch, the rest in 1..link.n_spans; any
    other tap raises before the launch is yielded).
    `received` reads the fields back one at a time as complex128
    `SampledField`s from the live stack: consume it before the next tap.
    An empty `fields` raises ValueError on the first next()."""
    stack, sample_rate = _launch(fields, link, ase_seeds)

    def received():
        for i in range(0, len(stack), 2):
            yield SampledField(stack[i].astype(complex), stack[i + 1].astype(complex),
                               sample_rate)

    spans = propagate(stack, sample_rate, link, ase_seeds, [k for k in taps if k], workers)
    if 0 in taps:
        yield 0, received(), 0.0
    for k, max_phi in spans:
        yield k, received(), max_phi


def _launch(fields, link: LinkConfig, ase_seeds):
    """The complex64 launch stack of `simulate_link` and the fields' sample
    rate. Only the stack outlives this call, not the last field drawn."""
    stack = None
    for i, (fld, _) in enumerate(zip(fields, ase_seeds, strict=True)):
        if stack is None:
            stack = np.empty((2 * len(ase_seeds), len(fld)), np.complex64)
            sample_rate = fld.sample_rate
        stack[2 * i], stack[2 * i + 1] = fld.samples_x, fld.samples_y
        power = fld.total_power()
        if power > 0:
            stack[2 * i:2 * i + 2] *= np.float32(math.sqrt(link.launch_power_w / power))
    if stack is None:
        raise ValueError("simulate_link needs at least one field to launch")
    return stack, sample_rate


def analytic_osnr(link: LinkConfig) -> float:
    """Ground-truth OSNR in dB: launch power over accumulated dual-pol ASE
    power in REFERENCE_BANDWIDTH_HZ."""
    if link.n_spans < 1:
        return math.inf
    s_ase = link.ase_psd_per_pol()
    if s_ase == 0.0:
        return math.inf
    return 10.0 * math.log10(
        link.launch_power_w / (link.n_spans * 2.0 * s_ase * REFERENCE_BANDWIDTH_HZ))
