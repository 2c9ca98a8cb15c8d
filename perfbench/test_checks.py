"""Each benchmark check passes a consistent row and fails a corrupted one.

Run with: python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
from types import SimpleNamespace

import pytest

import checks

NF_DB = 5.5
SPAN_LOSS_DB = 1.0
N_SPANS = 2
LAUNCH_DBM = 6.0


def desk_scenario(n_samples=2**14 * 3):
    return checks.Scenario(
        launch_w=checks.undb(LAUNCH_DBM) * 1e-3,
        ase_w_per_hz=2.0 * N_SPANS * checks.ase_psd_per_pol(NF_DB, SPAN_LOSS_DB),
        baud_rate=56.8e9, rolloff=0.07, nfl_rel_db=-22.5,
        n_samples=n_samples, sample_rate=3 * 56.8e9)


def good_row(sc):
    floor = sc.notch_floor_db()
    return SimpleNamespace(
        truth_osnr_db=checks.link_osnr_db(LAUNCH_DBM, N_SPANS, NF_DB, SPAN_LOSS_DB),
        p_ref_db=sc.ref_apsd_db() + 0.02,
        p_n_db=tuple(floor + d for d in (-0.1, 0.0, 0.1, 0.3, 0.8)),
        launch_power_dbm=LAUNCH_DBM, n_spans=N_SPANS, nf_db=NF_DB)


def corrupt(row, **changes):
    return SimpleNamespace(**{**vars(row), **changes})


def test_link_budget_matches_the_58_db_rule():
    # OSNR = 58 dB + P[dBm] - NF - span loss for one span; the exact form
    # differs by hv*B_ref = -57.96 dBm and G - 1 in place of G.
    assert checks.link_osnr_db(0.0, 1, 5.0, 20.0) == pytest.approx(33.0, abs=0.01)
    assert checks.link_osnr_db(0.0, 10, 5.0, 20.0) == pytest.approx(23.0, abs=0.01)


def test_notch_tolerance_widens_for_short_records():
    assert desk_scenario().notch_sigma_db() == pytest.approx(0.143, abs=0.002)
    assert desk_scenario().notch_tol_db() == pytest.approx(6 * 0.143, abs=0.01)
    assert desk_scenario(2**17 * 3).notch_tol_db() == pytest.approx(checks.NOTCH_TOL_DB, abs=0.005)


def test_good_row_passes_every_row_check():
    sc = desk_scenario()
    row = good_row(sc)
    assert checks.check_truth(row, row.truth_osnr_db) == []
    assert checks.check_ref(row, sc) == []
    assert checks.check_notch_floor(row, sc) == []


def test_truth_check_fails_off_budget():
    sc = desk_scenario()
    row = good_row(sc)
    want = checks.link_osnr_db(LAUNCH_DBM, N_SPANS, NF_DB, SPAN_LOSS_DB)
    assert checks.check_truth(corrupt(row, truth_osnr_db=want + 1e-6), want)
    # One span fewer is a 3 dB error.
    assert checks.check_truth(row, checks.link_osnr_db(LAUNCH_DBM, 1, NF_DB, SPAN_LOSS_DB))


@pytest.mark.parametrize("offset_db", (-0.15, 0.15))
def test_ref_check_fails_off_launch_power(offset_db):
    sc = desk_scenario()
    row = corrupt(good_row(sc), p_ref_db=sc.ref_apsd_db() + offset_db)
    assert checks.check_ref(row, sc)


def test_notch_check_fails_below_floor():
    sc = desk_scenario()
    row = good_row(sc)
    low = sc.notch_floor_db() - sc.notch_tol_db() - 0.01
    bad = corrupt(row, p_n_db=(low,) + row.p_n_db[1:])
    assert len(checks.check_notch_floor(bad, sc)) == 1
    # Without the transmitter floor the expected notch is ASE alone.
    no_floor = dataclasses.replace(sc, nfl_rel_db=None)
    assert checks.check_notch_floor(corrupt(row, p_n_db=(no_floor.notch_floor_db() - 1.0,) * 5),
                                    no_floor)


def test_axiom_check_fails_when_boost_does_not_fill_notch():
    row = good_row(desk_scenario())
    assert checks.check_axiom_mean([row.p_n_db[-1] - row.p_n_db[0]]) == []
    assert checks.check_axiom_mean([0.5, -0.1, 0.3]) == []
    swapped = corrupt(row, p_n_db=(row.p_n_db[-1],) + row.p_n_db[1:-1] + (row.p_n_db[0],))
    assert checks.check_axiom_mean([swapped.p_n_db[-1] - swapped.p_n_db[0]])
    assert checks.check_axiom_mean([0.0, 0.0])
    assert checks.check_axiom_mean([0.2, -0.3])
    assert checks.check_axiom_mean([])


def test_b2b_notch_mean_check():
    assert checks.check_b2b_notch_mean([-0.2, 0.1, 0.25, -0.1]) == []
    assert checks.check_b2b_notch_mean([0.3, 0.4, 0.2, 0.5])
    assert checks.check_b2b_notch_mean([-0.5, -0.4])


def test_b2b_probe_independence_check():
    assert checks.check_b2b_probe_independence([0.3, -0.25, 0.05, -0.1]) == []
    assert checks.check_b2b_probe_independence([0.3, 0.1, 0.2])
    assert checks.check_b2b_probe_independence([-0.2, -0.15])


def test_cv_rmse_check():
    assert checks.check_cv_rmse(0.3) == []
    assert checks.check_cv_rmse(0.51)
    assert checks.check_cv_rmse(float("nan"))
