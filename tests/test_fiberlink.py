import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osnrprobe.estimator import DELTA_GRID_DB
from osnrprobe.experiment import desk_preset
from osnrprobe.field import SampledField
from osnrprobe.fiberlink import (
    AmpParams,
    FiberParams,
    LinkConfig,
    analytic_osnr,
    propagate,
    reference_bandwidth_hz,
    simulate_link,
)
from osnrprobe.spectrum import apsd, estimate_psd, measure
from osnrprobe.waveform import (apply_perturbation, build_profile, default_regions,
                                generate_reference)

H_PLANCK = 6.62607015e-34


def white_field(n=3072, fs=40e9, power=1e-3, seed=0):
    rng = np.random.default_rng(seed)
    scale = math.sqrt(power / 2 / 2)
    return SampledField(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), fs)


def bare_fiber(fld, fiber):
    """One bare fiber span (no amplifier) through the engine."""
    stack = fld.as_matrix()
    list(propagate(stack, fld.sample_rate, (1,), fiber=fiber, carrier_hz=fld.center_freq))
    return SampledField(*stack, fld.sample_rate, fld.center_freq)


def noiseless_apsds(ref, regions, deltas_db, power_dbm, fiber, n_spans, dtype):
    """(p_ref, p_n) in dB per probe after n_spans of a link with no ASE:
    only the nonlinear fill (and round-off) reaches the notch."""
    link = LinkConfig(fiber, n_spans, power_dbm, None)
    probes = [apply_perturbation(ref, build_profile(ref, regions, d)) for d in deltas_db]
    stack = np.concatenate([p.as_matrix() for p in probes]).astype(dtype)
    stack *= stack.real.dtype.type(math.sqrt(link.launch_power_w / ref.total_power()))
    list(propagate(stack, ref.sample_rate, (n_spans,), fiber=fiber, amp=link.amp,
                   carrier_hz=link.center_freq))
    reports = [measure(SampledField(*stack[2 * i:2 * i + 2].astype(complex),
                                    ref.sample_rate, link.center_freq), regions, d)
               for i, d in enumerate(deltas_db)]
    return [(r.p_ref_db, r.p_n_db) for r in reports]


def bare_amp(fld, amp, seed):
    """One bare amplifier (no fiber) through the engine."""
    stack = fld.as_matrix()
    list(propagate(stack, fld.sample_rate, (1,), amp=amp, ase_seeds=(seed,)))
    return SampledField(*stack, fld.sample_rate, fld.center_freq)


class TestPropagateSpan:
    def test_linear_lossless_is_unitary(self):
        fld = white_field()
        fiber = FiberParams(dispersion_D=16.7, gamma=0.0, alpha_db_per_km=0.0,
                            span_length_km=100.0, step_km=1.0)
        out = bare_fiber(fld, fiber)
        assert out.total_power() == pytest.approx(fld.total_power(), rel=1e-9)
        mag_in = np.abs(np.fft.fft(fld.samples_x))
        mag_out = np.abs(np.fft.fft(out.samples_x))
        keep = mag_in > 1e-9 * mag_in.max()
        assert np.max(np.abs(mag_out[keep] / mag_in[keep] - 1.0)) <= 1e-9

    def test_spm_cw_phase(self):
        # oracle: closed-form dual-pol common phase -(8/9) * gamma * P * L
        power, length = 0.005, 80.0
        cw = SampledField(np.full(2048, math.sqrt(power), complex),
                          np.zeros(2048, complex), 10e9)
        fiber = FiberParams(dispersion_D=0.0, gamma=1.3, alpha_db_per_km=0.0,
                            span_length_km=length, step_km=0.1)
        out = bare_fiber(cw, fiber)
        expected = -(8.0 / 9.0) * 1.3 * power * length
        measured = float(np.angle(out.samples_x[0] / cw.samples_x[0]))
        assert measured == pytest.approx(expected, rel=0.005)
        # every lossless step of a CW field applies the same phase
        (_, _, max_phi), = propagate(cw.as_matrix(), cw.sample_rate, (1,), fiber=fiber)
        assert max_phi == pytest.approx(-expected / fiber.steps_per_span, rel=1e-9)

    def test_spm_cw_phase_with_loss(self):
        # oracle: effective length (1 - e^(-aL)) / a replaces L under loss
        power, length = 0.01, 100.0
        cw = SampledField(np.full(2048, math.sqrt(power), complex),
                          np.zeros(2048, complex), 10e9)
        fiber = FiberParams(dispersion_D=0.0, gamma=1.3, alpha_db_per_km=0.2,
                            span_length_km=length, step_km=0.05)
        a = fiber.alpha_np_per_km
        expected = -(8.0 / 9.0) * 1.3 * power * (1.0 - math.exp(-a * length)) / a
        out = bare_fiber(cw, fiber)
        assert float(np.angle(out.samples_x[0])) == pytest.approx(expected, rel=0.005)

    def test_gaussian_dispersion_broadening(self):
        # oracle: closed-form RMS growth sqrt(1 + (beta2 L / T0^2)^2)
        n, fs, t0_pulse = 8192, 2e12, 10e-12
        t = (np.arange(n) - n // 2) / fs
        pulse = np.exp(-(t**2) / (2 * t0_pulse**2)).astype(complex)
        fld = SampledField(pulse, np.zeros_like(pulse), fs)
        fiber = FiberParams(dispersion_D=16.7, gamma=0.0, alpha_db_per_km=0.0,
                            span_length_km=20.0, step_km=2.0)
        out = bare_fiber(fld, fiber)

        def rms(x):
            p = np.abs(x) ** 2
            mean = np.sum(t * p) / np.sum(p)
            return math.sqrt(np.sum((t - mean) ** 2 * p) / np.sum(p))

        length_m = fiber.span_length_km * 1e3
        expected = math.sqrt(1.0 + (fiber.beta2(fld.center_freq) * length_m / t0_pulse**2) ** 2)
        assert rms(out.samples_x) / rms(fld.samples_x) == pytest.approx(expected, rel=0.01)

    def test_loss_matches_span_budget(self):
        fld = white_field(power=1e-3)
        fiber = FiberParams(gamma=0.0, step_km=1.0)
        out = bare_fiber(fld, fiber)
        loss_db = 10 * math.log10(out.total_power() / fld.total_power())
        assert loss_db == pytest.approx(-20.0, abs=1e-9)

    def test_step_phase_warning(self):
        cw = SampledField(np.full(1024, 1.0 + 0j), np.zeros(1024, complex), 10e9)
        fiber = FiberParams(dispersion_D=0.0, gamma=1.3, alpha_db_per_km=0.0,
                            span_length_km=1.0, step_km=0.5)
        with pytest.warns(RuntimeWarning, match="nonlinear phase"):
            bare_fiber(cw, fiber)


class TestAmplify:
    def test_noiseless_pure_gain(self):
        fld = white_field()
        out = bare_amp(fld, AmpParams(gain_db=20.0, nf_db=None), 0)
        assert out.total_power() == pytest.approx(100.0 * fld.total_power(), rel=1e-12)

    def test_ase_density_matches_formula(self):
        # frozen oracle: (10^0.45 / 2) h nu (G - 1) = 1.7878e-17 W/Hz
        amp = AmpParams(gain_db=20.0, nf_db=4.5)
        expected = (10**0.45 / 2) * H_PLANCK * 193.4e12 * 99.0
        assert expected == pytest.approx(1.7878e-17, rel=1e-4)
        assert amp.ase_psd_per_pol() == pytest.approx(expected, rel=1e-12)
        zero = SampledField(np.zeros(2**16, complex), np.zeros(2**16, complex), 170.4e9)
        noise = bare_amp(zero, amp, 42)
        for pol in (noise.samples_x, noise.samples_y):
            measured = np.mean(np.abs(pol) ** 2) / 170.4e9
            assert abs(10 * math.log10(measured / expected)) <= 0.1

    def test_seeds_independent_same_power(self):
        zero = SampledField(np.zeros(2**16, complex), np.zeros(2**16, complex), 170.4e9)
        amp = AmpParams(gain_db=20.0, nf_db=4.5)
        a = bare_amp(zero, amp, 1)
        b = bare_amp(zero, amp, 2)
        assert not np.array_equal(a.samples_x, b.samples_x)
        corr = np.corrcoef(np.abs(a.samples_x) ** 2, np.abs(b.samples_x) ** 2)[0, 1]
        assert abs(corr) < 0.05
        assert abs(10 * math.log10(a.total_power() / b.total_power())) <= 0.1

    def test_quantum_limit_enforced(self):
        with pytest.raises(ValueError, match="quantum"):
            AmpParams(gain_db=20.0, nf_db=2.0)


class TestBatchedEngine:
    def test_stack_matches_fields_run_alone(self, reference, regions):
        # the five probes of a unit share every FFT, yet each one's bytes at
        # every tap equal those of the same probe propagated alone
        fiber = FiberParams(span_length_km=2.0, step_km=0.5)
        amp = LinkConfig(fiber, 2, 6.0, 4.5).amp
        scale = np.float32(math.sqrt(4e-3))
        probes = [scale * apply_perturbation(reference, build_profile(reference, regions, d))
                  .as_matrix().astype(np.complex64) for d in DELTA_GRID_DB]
        seeds = [101, 202, 303, 404, 505]
        taps = (1, 2)

        def run(stack, ase_seeds):
            return {k: out.copy() for k, out, _ in propagate(
                stack, reference.sample_rate, taps, fiber=fiber, amp=amp,
                ase_seeds=ase_seeds)}

        batched = run(np.concatenate(probes), seeds)
        assert sorted(batched) == list(taps)
        for i, probe in enumerate(probes):
            alone = run(probe.copy(), seeds[i:i + 1])
            for k in taps:
                assert np.array_equal(batched[k][2 * i:2 * i + 2], alone[k])
        assert not np.array_equal(batched[2][:2], probes[0])

    def test_rejects_missing_ase_seed(self, reference):
        stack = np.zeros((4, len(reference)), np.complex64)
        amp = AmpParams(gain_db=20.0, nf_db=4.5)
        with pytest.raises(ValueError, match="one ASE seed per field"):
            list(propagate(stack, reference.sample_rate, (1,), amp=amp, ase_seeds=(1,)))


class TestSimulateLink:
    def test_zero_spans_returns_launch_scaled_input(self, reference):
        link = LinkConfig(FiberParams(), 0, 2.0, 4.5)
        out = simulate_link(reference, link)
        assert out.total_power() == pytest.approx(link.launch_power_w, rel=1e-12)
        scaled = math.sqrt(link.launch_power_w) * reference.samples_x
        assert np.max(np.abs(out.samples_x - scaled)) <= 1e-9 * np.max(np.abs(scaled))

    def test_linear_regime_decomposition(self, reference, tx_cfg):
        # gamma = 0, one span: received trace is the scaled TX plus flat ASE
        fiber = FiberParams(gamma=0.0, step_km=5.0)
        link = LinkConfig(fiber, 1, -2.0, 6.0, ase_seed=3)
        rx = simulate_link(reference, link)
        trace = estimate_psd(rx)
        ase_db = 10 * math.log10(2 * link.amp.ase_psd_per_pol())
        # ASE alone between the signal edge and fs/2
        out_of_band = apsd(trace, [(tx_cfg.boi_halfwidth + 2e9,
                                    tx_cfg.sample_rate / 2 - 2e9)])
        assert out_of_band == pytest.approx(ase_db, abs=0.1)
        in_band = apsd(trace, [(-20e9, -16e9)])
        signal_db = 10 * math.log10(link.launch_power_w / 56.8e9)
        expected = 10 * math.log10(10 ** (signal_db / 10) + 10 ** (ase_db / 10))
        assert in_band == pytest.approx(expected, abs=0.2)

    def test_deterministic_given_seed(self, reference):
        link = LinkConfig(FiberParams(step_km=2.0), 2, 2.0, 4.5, ase_seed=11)
        a = simulate_link(reference, link)
        b = simulate_link(reference, link)
        np.testing.assert_array_equal(a.samples_x, b.samples_x)

    def test_ground_truth_consistency(self, reference, regions):
        # OSNR reassembled from a noiseless run and an ASE-only run matches
        # the closed-form link budget
        fiber = FiberParams(step_km=0.5)
        pert = apply_perturbation(reference, build_profile(reference, regions, 0.0))
        link = LinkConfig(fiber, 2, 2.0, 4.5, ase_seed=99)
        zero = SampledField(np.zeros(len(reference), complex),
                            np.zeros(len(reference), complex), reference.sample_rate)
        ase_rx = simulate_link(zero, link, dtype=np.complex64)
        ase_psd = 10 ** (apsd(estimate_psd(ase_rx), [(-5e9, 5e9)]) / 10)
        sig_rx = simulate_link(pert, LinkConfig(fiber, 2, 2.0, None), dtype=np.complex64)
        measured = 10 * math.log10(
            sig_rx.total_power() / (ase_psd * reference_bandwidth_hz()))
        assert measured == pytest.approx(analytic_osnr(link), abs=0.1)


class TestAnalyticOsnr:
    def test_matches_link_budget_oracle(self):
        link = LinkConfig(FiberParams(), 30, 2.0, 4.5)
        # independent budget: P_dBm - NF - 10log10(N) - 10log10(h nu (G-1) B_ref / 1 mW)
        b_ref = reference_bandwidth_hz(193.4e12)
        floor = 10 * math.log10(H_PLANCK * 193.4e12 * 99.0 * b_ref / 1e-3)
        expected = 2.0 - 4.5 - 10 * math.log10(30) - floor
        assert analytic_osnr(link) == pytest.approx(expected, abs=1e-9)
        assert analytic_osnr(link) == pytest.approx(20.7, abs=0.1)

    def test_span_scaling_exact(self):
        one = analytic_osnr(LinkConfig(FiberParams(), 1, 2.0, 4.5))
        ten = analytic_osnr(LinkConfig(FiberParams(), 10, 2.0, 4.5))
        assert one - ten == pytest.approx(10.0, abs=1e-12)

    def test_reference_bandwidth_doubling(self):
        link = LinkConfig(FiberParams(), 5, 0.0, 5.5)
        assert analytic_osnr(link, 0.1) - analytic_osnr(link, 0.2) == pytest.approx(
            10 * math.log10(2), abs=1e-12)

    def test_reference_bandwidth_value(self):
        assert reference_bandwidth_hz(193.4e12) == pytest.approx(12.48e9, rel=1e-3)


class TestInvariants:
    @settings(max_examples=15, deadline=None)
    @given(gamma=st.floats(min_value=0.0, max_value=3.0),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_lossless_energy_conservation(self, gamma, seed):
        fld = white_field(n=1536, power=2e-3, seed=seed)
        fiber = FiberParams(gamma=gamma, alpha_db_per_km=0.0,
                            span_length_km=5.0, step_km=0.5)
        out = bare_fiber(fld, fiber)
        assert out.total_power() == pytest.approx(fld.total_power(), rel=1e-9)

    def test_linear_superposition(self):
        a = white_field(seed=1)
        b = white_field(seed=2)
        fiber = FiberParams(gamma=0.0, step_km=5.0)
        both = SampledField(a.samples_x + b.samples_x, a.samples_y + b.samples_y,
                            a.sample_rate)
        out_sum = bare_fiber(both, fiber)
        pa = bare_fiber(a, fiber)
        pb = bare_fiber(b, fiber)
        recombined = pa.samples_x + pb.samples_x
        assert np.max(np.abs(out_sum.samples_x - recombined)) <= 1e-9 * np.max(
            np.abs(recombined))

    def test_step_convergence_quick(self, reference, regions):
        # halving the step moves the in-band APSD imperceptibly
        pert = apply_perturbation(reference, build_profile(reference, regions, 10.0))
        levels = []
        for step in (0.1, 0.05):
            link = LinkConfig(FiberParams(step_km=step), 2, 2.0, None)
            rx = simulate_link(pert, link, dtype=np.complex64)
            levels.append(apsd(estimate_psd(rx), list(regions.f_a) + list(regions.f_b)))
        assert abs(levels[0] - levels[1]) < 0.01

    def test_preset_step_converges_on_notch(self):
        # the method reads the notch, ~20 dB under the signal: at the desk
        # preset's own samples/symbol, step and precision its nonlinear fill
        # must match the same symbols at 4 samples/symbol in complex128 at
        # 0.1 km steps (desk waveform, no ASE and no tx floor, +6 dBm, the
        # extreme probes, two 100 km spans)
        cfg = desk_preset()
        tx = dataclasses.replace(cfg.tx, nfl_rel_db=None)
        tx_fine = dataclasses.replace(tx, samples_per_symbol=4)
        fine = FiberParams(step_km=0.1)
        assert cfg.fiber.step_km > fine.step_km
        assert tx.samples_per_symbol < tx_fine.samples_per_symbol
        regions = default_regions(tx)
        deltas = (DELTA_GRID_DB[0], DELTA_GRID_DB[-1])
        got = noiseless_apsds(generate_reference(tx), regions, deltas, 6.0,
                              cfg.fiber, 2, cfg.dtype)
        want = noiseless_apsds(generate_reference(tx_fine), regions, deltas, 6.0,
                               fine, 2, np.complex128)
        for (p_ref, p_n), (p_ref_fine, p_n_fine) in zip(got, want):
            assert abs(p_n - p_n_fine) <= 0.05
            assert abs(p_ref - p_ref_fine) <= 0.01

    @pytest.mark.slow
    def test_step_convergence_full(self, reference, regions):
        # the as-specified variant: 10 spans at 2 dBm, 0.05 vs 0.025 km
        pert = apply_perturbation(reference, build_profile(reference, regions, 10.0))
        levels = []
        for step in (0.05, 0.025):
            link = LinkConfig(FiberParams(step_km=step), 10, 2.0, None)
            rx = simulate_link(pert, link, dtype=np.complex64)
            levels.append(apsd(estimate_psd(rx), list(regions.f_a) + list(regions.f_b)))
        assert abs(levels[0] - levels[1]) < 0.01
        # and the notch at the desk worst case (+6 dBm, +10 dB probe, 10
        # spans): the preset's step in complex64 against 0.1 km in complex128
        cfg = desk_preset()
        (_, p_n), = noiseless_apsds(reference, regions, (10.0,), 6.0, cfg.fiber, 10,
                                    cfg.dtype)
        (_, p_n_fine), = noiseless_apsds(reference, regions, (10.0,), 6.0,
                                         FiberParams(step_km=0.1), 10, np.complex128)
        assert abs(p_n - p_n_fine) <= 0.05
