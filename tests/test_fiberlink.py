import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osnrprobe.estimator import DELTA_GRID_DB
from osnrprobe.experiment import desk_preset
from osnrprobe.field import SampledField
from osnrprobe.fiberlink import (
    REFERENCE_BANDWIDTH_HZ,
    FiberParams,
    LinkConfig,
    _add_ase,
    analytic_osnr,
    propagate,
    simulate_link,
)
from osnrprobe.spectrum import apsd, estimate_psd, measure
from osnrprobe.waveform import REGIONS, apply_perturbation, build_profile, generate_reference

from conftest import H_PLANCK, LINEAR_STEP, one_span


def white_field(n=3072, fs=40e9, power=1e-3, seed=0):
    rng = np.random.default_rng(seed)
    scale = math.sqrt(power / 2 / 2)
    return SampledField(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), fs)


def noiseless_apsds(ref, regions, deltas_db, power_dbm, fiber, n_spans, reference=False):
    """(p_ref, p_n) in dB per probe after n_spans of a link with no ASE:
    only the nonlinear fill (and round-off) reaches the notch. The link is
    simulate_link's, or with reference=True a complex128 stack propagated
    by hand, which shares no launch code with it."""
    link = LinkConfig(fiber, n_spans, power_dbm, None)
    probes = [apply_perturbation(ref, build_profile(ref, regions, d)) for d in deltas_db]
    if reference:
        stack = np.concatenate([p.as_matrix() for p in probes])
        stack *= math.sqrt(link.launch_power_w / ref.total_power())
        list(propagate(stack, ref.sample_rate, link, range(len(probes)), (n_spans,)))
        rx = [SampledField(*stack[i:i + 2], ref.sample_rate) for i in range(0, len(stack), 2)]
    else:
        (_, rx, _), = simulate_link(probes, link, range(len(probes)), (n_spans,))
    reports = [measure(fld, regions, d) for fld, d in zip(rx, deltas_db)]
    return [(r.p_ref_db, r.p_n_db) for r in reports]


def desk_worst_case_errors(n_spans):
    """(p_ref, p_n) errors in dB per probe of the desk worst case after
    n_spans: the desk waveform with no ASE and no tx floor, +6 dBm, the
    extreme probes, at the desk preset's samples/symbol and step through
    simulate_link, against the same symbols at 4 samples/symbol in
    complex128 at step_km 0.05, no step over 0.1 km."""
    cfg = desk_preset()
    tx = dataclasses.replace(cfg.tx, nfl_rel_db=None)
    tx_fine = dataclasses.replace(tx, samples_per_symbol=4)
    fine = FiberParams(step_km=0.05)
    assert cfg.fiber.step_km > fine.step_km
    assert fine.step_lengths_km.max() <= 0.1
    assert tx.samples_per_symbol < tx_fine.samples_per_symbol
    deltas = (DELTA_GRID_DB[0], DELTA_GRID_DB[-1])
    got = noiseless_apsds(generate_reference(tx), REGIONS, deltas, 6.0, cfg.fiber, n_spans)
    want = noiseless_apsds(generate_reference(tx_fine), REGIONS, deltas, 6.0, fine, n_spans,
                           reference=True)
    return [(p_ref - p_ref_fine, p_n - p_n_fine)
            for (p_ref, p_n), (p_ref_fine, p_n_fine) in zip(got, want)]


class TestPropagateSpan:
    def test_linear_lossless_is_unitary(self):
        fld = white_field()
        fiber = FiberParams(dispersion_D=16.7, gamma=0.0, alpha_db_per_km=0.0,
                            span_length_km=100.0, step_km=1.0)
        out = one_span(fld, fiber)
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
        out = one_span(cw, fiber)
        expected = -(8.0 / 9.0) * 1.3 * power * length
        measured = float(np.angle(out.samples_x[0] / cw.samples_x[0]))
        assert measured == pytest.approx(expected, rel=0.005)
        # every lossless step of a CW field applies the same phase
        link = LinkConfig(fiber, 1, 0.0, None)
        (_, max_phi), = propagate(cw.as_matrix(), cw.sample_rate, link, (0,), (1,))
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
        out = one_span(cw, fiber)
        assert float(np.angle(out.samples_x[0])) == pytest.approx(expected, rel=0.005)
        # a CW step's phase is (8/9) gamma P times the step's effective
        # length from the span input, which the schedule keeps near step_km
        (_, max_phi), = propagate(cw.as_matrix(), cw.sample_rate, LinkConfig(fiber, 1, 0.0, None),
                                  (0,), (1,))
        steps = fiber.step_lengths_km
        start = np.concatenate(([0.0], np.cumsum(steps)[:-1]))
        eff = np.exp(-a * start) * -np.expm1(-a * steps) / a
        assert max_phi == pytest.approx((8.0 / 9.0) * 1.3 * power * eff.max(), rel=1e-9)
        assert max_phi == pytest.approx((8.0 / 9.0) * 1.3 * power * fiber.step_km, rel=0.01)

    def test_loss_matches_span_budget(self):
        # the EDFA's gain is the 20 dB span loss, so the span is transparent
        fld = white_field(power=1e-3)
        fiber = FiberParams(gamma=0.0, step_km=1.0)
        assert LinkConfig(fiber, 1, 0.0, None).gain_linear == pytest.approx(100.0, rel=1e-12)
        out = one_span(fld, fiber)
        assert out.total_power() == pytest.approx(fld.total_power(), rel=1e-9)

    def test_step_phase_warning(self):
        cw = SampledField(np.full(1024, 1.0 + 0j), np.zeros(1024, complex), 10e9)
        fiber = FiberParams(dispersion_D=0.0, gamma=1.3, alpha_db_per_km=0.0,
                            span_length_km=1.0, step_km=0.5)
        with pytest.warns(RuntimeWarning, match="nonlinear phase"):
            one_span(cw, fiber)


class TestAmplify:
    def test_noiseless_pure_gain(self):
        # nf_db=None: the EDFA applies G = 100 (the 20 dB span) and adds nothing
        link = LinkConfig(FiberParams(), 1, 0.0, None)
        assert link.gain_linear == pytest.approx(100.0, rel=1e-12)
        assert link.ase_psd_per_pol() == 0.0
        zero = SampledField(np.zeros(3072, complex), np.zeros(3072, complex), 40e9)
        out = one_span(zero, LINEAR_STEP)
        assert not np.any(out.samples_x) and not np.any(out.samples_y)
        fld = white_field()
        out = one_span(fld, LINEAR_STEP)
        assert out.total_power() == pytest.approx(fld.total_power(), rel=1e-12)

    def test_ase_density_matches_formula(self):
        # frozen oracle: (10^0.45 / 2) h nu (G - 1) = 1.7878e-17 W/Hz; c4
        # measures the same density on the engine's output
        link = LinkConfig(FiberParams(), 1, 0.0, 4.5)  # 20 dB span, so G = 100
        expected = (10**0.45 / 2) * H_PLANCK * 193.4e12 * 99.0
        assert expected == pytest.approx(1.7878e-17, rel=1e-4)
        assert link.ase_psd_per_pol() == pytest.approx(expected, rel=1e-12)

    def test_ase_in_place_matches_complex_expression(self):
        # adding the scaled halves to .real and .imag of a row pair gives the
        # bytes of sigma * (noise[0] + 1j * noise[1]) added in complex128
        rng = np.random.default_rng(5)
        n = 4096
        stack = (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))).astype(
            np.complex64)
        noise = rng.standard_normal((2, 2, n))
        sigma = 3.7e-3
        want = stack.copy()
        want[2:4] += sigma * (noise[0] + 1j * noise[1])
        _add_ase(stack[2:4], noise.copy(), sigma)
        assert stack.tobytes() == want.tobytes()

    def test_seeds_independent_same_power(self):
        zero = SampledField(np.zeros(2**16, complex), np.zeros(2**16, complex), 170.4e9)
        a = one_span(zero, LINEAR_STEP, 4.5, 1)
        b = one_span(zero, LINEAR_STEP, 4.5, 2)
        assert not np.array_equal(a.samples_x, b.samples_x)
        corr = np.corrcoef(np.abs(a.samples_x) ** 2, np.abs(b.samples_x) ** 2)[0, 1]
        assert abs(corr) < 0.05
        assert abs(10 * math.log10(a.total_power() / b.total_power())) <= 0.1

    def test_quantum_limit_enforced(self):
        for nf_db in (2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="quantum"):
                LinkConfig(FiberParams(), 1, 0.0, nf_db)

    def test_launch_power_must_be_finite(self):
        # a NaN power would otherwise propagate every span before the
        # readback found the field non-finite, and one whose watts overflow
        # would fail only at launch
        for power_dbm in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="launch_power_dbm .* not finite"):
                LinkConfig(FiberParams(), 1, power_dbm, 4.5)
        with pytest.raises(ValueError, match="launch_power_dbm 4000.0 overflows"):
            LinkConfig(FiberParams(), 1, 4000.0, 4.5)


class TestBatchedEngine:
    def test_stack_matches_fields_run_alone(self, reference, regions):
        # the five probes of a unit share every FFT, yet each one's bytes at
        # every tap equal those of the same probe launched alone
        link = LinkConfig(FiberParams(span_length_km=2.0, step_km=0.5), 2, 6.0, 4.5)
        probes = [apply_perturbation(reference, build_profile(reference, regions, d))
                  for d in DELTA_GRID_DB]
        seeds = [101, 202, 303, 404, 505]
        taps = (0, 1, 2)

        def run(fields, ase_seeds):
            return {k: [f.as_matrix() for f in rx]
                    for k, rx, _ in simulate_link(fields, link, ase_seeds, taps)}

        batched = run(probes, seeds)
        assert sorted(batched) == list(taps)
        for i, probe in enumerate(probes):
            alone = run([probe], seeds[i:i + 1])
            for k in taps:
                assert np.array_equal(batched[k][i], alone[k][0])
        assert not np.array_equal(batched[2][0], batched[0][0])

    def test_rejects_missing_ase_seed(self, reference):
        stack = np.zeros((4, len(reference)), np.complex64)
        link = LinkConfig(LINEAR_STEP, 1, 0.0, 4.5)
        with pytest.raises(ValueError, match="one ASE seed per field"):
            list(propagate(stack, reference.sample_rate, link, (1,), (1,)))
        with pytest.raises(ValueError, match="shorter"):
            list(simulate_link([reference] * 2, LinkConfig(FiberParams(), 1, 0.0, 4.5), [1], [1]))


class TestSimulateLink:
    def test_zero_spans_returns_launch_scaled_input(self, reference):
        link = LinkConfig(FiberParams(), 0, 2.0, 4.5)
        (k, (out,), max_phi), = simulate_link([reference], link, [0], [0])
        assert (k, max_phi) == (0, 0.0)
        scale = np.float32(math.sqrt(link.launch_power_w / reference.total_power()))
        assert np.array_equal(out.as_matrix(), reference.as_matrix().astype(np.complex64) * scale)

    def test_linear_regime_decomposition(self, reference, tx_cfg):
        # gamma = 0, one span: received trace is the scaled TX plus flat ASE
        fiber = FiberParams(gamma=0.0, step_km=5.0)
        link = LinkConfig(fiber, 1, -2.0, 6.0)
        (_, (rx,), _), = simulate_link([reference], link, [3], [1])
        trace = estimate_psd(rx)
        ase_db = 10 * math.log10(2 * link.ase_psd_per_pol())
        # ASE alone between the signal edge and fs/2
        out_of_band = apsd(trace, [(REGIONS.f_boi[1] + 2e9,
                                    tx_cfg.sample_rate / 2 - 2e9)])
        assert out_of_band == pytest.approx(ase_db, abs=0.1)
        in_band = apsd(trace, [(-20e9, -16e9)])
        signal_db = 10 * math.log10(link.launch_power_w / 56.8e9)
        expected = 10 * math.log10(10 ** (signal_db / 10) + 10 ** (ase_db / 10))
        assert in_band == pytest.approx(expected, abs=0.2)

    def test_rejects_tap_beyond_link(self, reference):
        # the link's span count bounds the taps, before any span is run: the
        # first next() raises, before the launch fields of tap 0 are handed
        # out, and propagate raises when it is called
        link = LinkConfig(FiberParams(), 2, 0.0, 4.5)
        with pytest.raises(ValueError, match=r"\[1, 3\] outside the link's 1\.\.2"):
            list(simulate_link([reference], link, [0], [1, 3]))
        with pytest.raises(ValueError, match=r"\[5\] outside the link's 1\.\.2"):
            next(simulate_link([reference], link, [0], (0, 5)))
        with pytest.raises(ValueError, match="outside"):
            propagate(reference.as_matrix(), reference.sample_rate, link, [0], [0])

    def test_rejects_no_fields(self):
        link = LinkConfig(FiberParams(), 1, 0.0, 4.5)
        with pytest.raises(ValueError, match="at least one field"):
            next(simulate_link([], link, [], (0, 1)))

    def test_deterministic_given_seed(self, reference):
        link = LinkConfig(FiberParams(step_km=2.0), 2, 2.0, 4.5)
        (_, (a,), _), = simulate_link([reference], link, [11], [2])
        (_, (b,), _), = simulate_link([reference], link, [11], [2])
        np.testing.assert_array_equal(a.samples_x, b.samples_x)


class TestAnalyticOsnr:
    def test_matches_link_budget_oracle(self):
        link = LinkConfig(FiberParams(), 30, 2.0, 4.5)
        # independent budget: P_dBm - NF - 10log10(N) - 10log10(h nu (G-1) B_ref / 1 mW)
        b_ref = 0.1e-9 * 193.4e12**2 / 299792458.0
        floor = 10 * math.log10(H_PLANCK * 193.4e12 * 99.0 * b_ref / 1e-3)
        expected = 2.0 - 4.5 - 10 * math.log10(30) - floor
        assert analytic_osnr(link) == pytest.approx(expected, abs=1e-9)
        assert analytic_osnr(link) == pytest.approx(20.7, abs=0.1)

    def test_span_scaling_exact(self):
        one = analytic_osnr(LinkConfig(FiberParams(), 1, 2.0, 4.5))
        ten = analytic_osnr(LinkConfig(FiberParams(), 10, 2.0, 4.5))
        assert one - ten == pytest.approx(10.0, abs=1e-12)

    def test_reference_bandwidth_value(self):
        assert REFERENCE_BANDWIDTH_HZ == pytest.approx(12.48e9, rel=1e-3)
        # the exact float every truth_osnr_db in the dataset was computed with
        assert REFERENCE_BANDWIDTH_HZ == 12476484648.589794


class TestStepSchedule:
    def test_default_step_counts(self):
        # 38 steps of a 100 km span, 3 of the benchmark's 5 km span
        assert FiberParams().steps_per_span == 38
        assert FiberParams(span_length_km=5.0).steps_per_span == 3

    @settings(max_examples=300, deadline=None)
    @given(alpha_db=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0)),
           length=st.floats(min_value=0.5, max_value=200.0),
           per_step=st.floats(min_value=1.0, max_value=2000.0))
    def test_schedule_properties(self, alpha_db, length, per_step):
        fiber = FiberParams(alpha_db_per_km=alpha_db, span_length_km=length,
                            step_km=length / per_step)
        s, a = fiber.step_km, fiber.alpha_np_per_km
        steps = fiber.step_lengths_km
        assert fiber.steps_per_span == len(steps)
        assert steps.min() > 0
        assert steps.sum() == pytest.approx(length, rel=1e-12)
        assert steps.max() <= 2.0 * s * (1 + 1e-12)
        if a == 0:
            n = max(1, round(length / s))
            assert np.array_equal(steps, np.full(n, length / n))
            eff = steps
        else:
            start = np.concatenate(([0.0], np.cumsum(steps)[:-1]))
            eff = np.exp(-a * start) * -np.expm1(-a * steps) / a
        # a step's effective length passes step_km only where the count of
        # equal steps was rounded to a whole number, as uniform steps always
        # were: then the first m steps, by at most half a step over m
        over = eff > s * (1 + 1e-9)
        m = int(over.sum())
        if m:
            assert over[:m].all()
            assert eff.max() <= s * (1 + 0.5 / m) * (1 + 1e-9)


class TestInvariants:
    @settings(max_examples=15, deadline=None)
    @given(gamma=st.floats(min_value=0.0, max_value=3.0),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_lossless_energy_conservation(self, gamma, seed):
        fld = white_field(n=1536, power=2e-3, seed=seed)
        fiber = FiberParams(gamma=gamma, alpha_db_per_km=0.0,
                            span_length_km=5.0, step_km=0.5)
        out = one_span(fld, fiber)
        assert out.total_power() == pytest.approx(fld.total_power(), rel=1e-9)

    def test_linear_superposition(self):
        a = white_field(seed=1)
        b = white_field(seed=2)
        fiber = FiberParams(gamma=0.0, step_km=5.0)
        both = SampledField(a.samples_x + b.samples_x, a.samples_y + b.samples_y,
                            a.sample_rate)
        out_sum = one_span(both, fiber)
        pa = one_span(a, fiber)
        pb = one_span(b, fiber)
        recombined = pa.samples_x + pb.samples_x
        assert np.max(np.abs(out_sum.samples_x - recombined)) <= 1e-9 * np.max(
            np.abs(recombined))

    def test_preset_step_converges_on_notch(self):
        # the method reads the notch, ~20 dB under the signal: over two
        # 100 km spans of the desk worst case its nonlinear fill must match
        # the fine reference
        for d_ref, d_n in desk_worst_case_errors(2):
            assert abs(d_n) <= 0.05
            assert abs(d_ref) <= 0.01

    @pytest.mark.slow
    def test_notch_error_budget(self):
        # FiberParams' budget: after 30 spans of the desk worst case, the
        # default step keeps the notch within 0.01 dB of the fine reference
        assert desk_preset().fiber == FiberParams()
        for _, d_n in desk_worst_case_errors(30):
            assert abs(d_n) <= 0.01

    @pytest.mark.slow
    def test_step_convergence_full(self, reference, regions):
        # the as-specified variant: 10 spans at 2 dBm, step_km 0.05 vs 0.025
        # (steps of at most 0.1 and 0.05 km), in complex128, where the step
        # error is not buried under the ~6e-7 dB that every complex64 split
        # step loses
        (p_ref, _), = noiseless_apsds(reference, regions, (10.0,), 2.0,
                                      FiberParams(step_km=0.05), 10, reference=True)
        (p_ref_fine, _), = noiseless_apsds(reference, regions, (10.0,), 2.0,
                                           FiberParams(step_km=0.025), 10, reference=True)
        assert abs(p_ref - p_ref_fine) < 0.01
        # and the desk worst case (+6 dBm, +10 dB probe, 10 spans): the
        # preset's step in complex64 against step_km 0.05 (no step over
        # 0.1 km) in complex128, which also bounds the complex64 drift of the
        # reference APSD
        cfg = desk_preset()
        (p_ref, p_n), = noiseless_apsds(reference, regions, (10.0,), 6.0, cfg.fiber, 10)
        (p_ref_fine, p_n_fine), = noiseless_apsds(reference, regions, (10.0,), 6.0,
                                                  FiberParams(step_km=0.05), 10,
                                                  reference=True)
        assert abs(p_n - p_n_fine) <= 0.05
        assert abs(p_ref - p_ref_fine) <= 0.01
