import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osnrprobe.estimator import (
    DELTA_GRID_DB,
    N_FOLDS,
    OSNR_CAP_DB,
    Dataset,
    FeatureRow,
    FitCoefficients,
    RankDeficientError,
    build_feature_row,
    cross_validate,
    evaluate,
    fit_least_squares,
    kfold_by_spans,
    load_rows,
    predict_osnr,
    save_rows,
)
from osnrprobe.spectrum import ApsdReport

TRUE_K = np.array([40.0, 0.8, -0.5, 0.3, -0.2, 0.15, 0.55])  # truths near -113 dB


def synthetic_rows(n=60, seed=0, coeffs=TRUE_K, noise_db=0.0):
    """Rows drawn exactly from the affine model (optionally with noise)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        p_ref = -135.0 + rng.normal(0, 2.0)
        p_n = -150.0 + rng.normal(0, 3.0, size=5)
        features = np.array([1.0, p_ref, *p_n])
        truth = float(features @ coeffs) + rng.normal(0, noise_db)
        rows.append(FeatureRow(p_ref, tuple(p_n), truth,
                               launch_power_dbm=float(-2 + 2 * (i % 5)),
                               n_spans=1 + (i % 6) * 5, nf_db=4.5 + (i % 4)))
    return rows


def reports_for(deltas=DELTA_GRID_DB):
    return [ApsdReport(p_ref_db=-135.0, p_n_db=-150.0 - d / 10, delta_a_db=d)
            for d in deltas]


class TestBuildFeatureRow:
    def test_complete_grid(self):
        row = build_feature_row(reports_for(), 21.0, (2.0, 10, 4.5))
        assert row.p_ref_db == -135.0
        assert row.p_n_db == tuple(-150.0 - d / 10 for d in DELTA_GRID_DB)
        assert row.n_spans == 10

    def test_missing_probe(self):
        with pytest.raises(ValueError, match="incomplete"):
            build_feature_row(reports_for(DELTA_GRID_DB[:-1]), 21.0, (2.0, 10, 4.5))

    def test_duplicate_probe(self):
        reports = reports_for() + reports_for((0.0,))
        with pytest.raises(ValueError, match="duplicate"):
            build_feature_row(reports, 21.0, (2.0, 10, 4.5))

    def test_wrong_grid(self):
        with pytest.raises(ValueError, match="incomplete"):
            build_feature_row(reports_for((-10.0, -5.0, 0.0, 5.0, 7.0)), 21.0,
                              (2.0, 10, 4.5))


class TestFit:
    def test_exact_model_recovery(self):
        data = Dataset(synthetic_rows())
        coeffs = fit_least_squares(data)
        np.testing.assert_allclose(coeffs.values, TRUE_K, rtol=1e-8)

    def test_cap_removes_high_osnr_rows(self):
        # truths spread about 3 dB around the 30 dB cap
        rows = synthetic_rows(n=80, coeffs=TRUE_K + [143.0, 0, 0, 0, 0, 0, 0], noise_db=0.3)
        below = [r for r in rows if r.truth_osnr_db <= OSNR_CAP_DB]
        assert 7 <= len(below) < len(rows)
        capped = fit_least_squares(Dataset(rows))
        manual = fit_least_squares(Dataset(below))
        np.testing.assert_array_equal(capped.values, manual.values)
        assert evaluate(Dataset(rows), capped).n_rows == len(below)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="training rows"):
            fit_least_squares(Dataset(synthetic_rows(n=5)))

    def test_rank_deficiency_names_columns(self):
        # a linear-regime dataset: every notch APSD pinned to the same floor
        rng = np.random.default_rng(1)
        rows = []
        for i in range(30):
            p_ref = -135.0 + rng.normal(0, 2.0)
            rows.append(FeatureRow(p_ref, (-150.0,) * 5, 20.0 + p_ref * 0.1,
                                   2.0, 10, 4.5))
        with pytest.raises(RankDeficientError, match=r"p_n"):
            fit_least_squares(Dataset(rows))

        # two notches that differ by far less than the rank tolerance: both
        # are named, and nothing else
        rows = synthetic_rows()
        noise = np.random.default_rng(2).normal(size=len(rows))
        for row, eps in zip(rows, noise):
            row.p_n_db = (*row.p_n_db[:4], row.p_n_db[3] + 1e-11 * eps)
        with pytest.raises(RankDeficientError) as err:
            fit_least_squares(Dataset(rows))
        assert err.value.columns == ("p_n[+5dB]", "p_n[+10dB]")


class TestPredict:
    def test_intercept_only(self):
        coeffs = FitCoefficients(np.array([21.0, 0, 0, 0, 0, 0, 0]))
        row = synthetic_rows(n=1)[0]
        assert predict_osnr(coeffs, row) == pytest.approx(21.0)

    def test_training_rows_reproduced(self):
        rows = synthetic_rows()
        coeffs = fit_least_squares(Dataset(rows))
        for row in rows[:10]:
            assert predict_osnr(coeffs, row) == pytest.approx(row.truth_osnr_db,
                                                              abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(idx=st.integers(min_value=0, max_value=6),
           bump=st.floats(min_value=-5.0, max_value=5.0))
    def test_affine_in_each_feature(self, idx, bump):
        coeffs = FitCoefficients(TRUE_K)
        row = synthetic_rows(n=1)[0]
        base = predict_osnr(coeffs, row)
        feats = row.features()
        if idx == 0:
            return  # intercept column is fixed
        feats[idx] += bump
        shifted = FeatureRow(feats[1], tuple(feats[2:]), row.truth_osnr_db,
                             row.launch_power_dbm, row.n_spans, row.nf_db)
        assert predict_osnr(coeffs, shifted) - base == pytest.approx(
            TRUE_K[idx] * bump, rel=1e-9, abs=1e-9)


class TestEvaluate:
    def test_perfect_predictions(self):
        rows = synthetic_rows()
        coeffs = fit_least_squares(Dataset(rows))
        report = evaluate(Dataset(rows), coeffs)
        assert report.rmse_db == pytest.approx(0.0, abs=1e-8)
        assert report.n_rows == len(rows)

    def test_constant_offset(self):
        rows = synthetic_rows()
        shifted = FitCoefficients(TRUE_K + np.array([1.0, 0, 0, 0, 0, 0, 0]))
        report = evaluate(Dataset(rows), shifted)
        assert report.rmse_db == pytest.approx(1.0, abs=1e-9)
        assert report.bias_db == pytest.approx(1.0, abs=1e-9)
        assert report.max_abs_error_db == pytest.approx(1.0, abs=1e-9)

    def test_empty_test_set(self):
        rows = synthetic_rows(n=8, coeffs=TRUE_K + [200.0, 0, 0, 0, 0, 0, 0])
        assert min(r.truth_osnr_db for r in rows) > OSNR_CAP_DB
        with pytest.raises(ValueError, match="no test rows"):
            evaluate(Dataset(rows), FitCoefficients(TRUE_K))

    def test_report_csv(self, tmp_path):
        rows = synthetic_rows(n=10)
        report = evaluate(Dataset(rows), FitCoefficients(TRUE_K))
        path = tmp_path / "report.csv"
        report.save_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "truth_osnr_db,predicted_osnr_db,power_dbm,n_spans,nf_db"


class TestSplits:
    def test_kfold_partitions_rows(self):
        data = Dataset(synthetic_rows(n=57))
        seen = []
        for train, test in kfold_by_spans(data):
            assert not set(train) & set(test)
            seen.extend(test)
        assert sorted(seen) == list(range(57))

    def test_kfold_stratifies_spans(self):
        data = Dataset(synthetic_rows(n=60))
        for train, test in kfold_by_spans(data):
            spans = {data.rows[i].n_spans for i in test}
            assert len(spans) >= 5  # every fold samples most span counts

    def test_cross_validate_pools_everything(self):
        rows = synthetic_rows(noise_db=0.3)
        data = Dataset(rows)
        report, fold_coeffs = cross_validate(data)
        assert report.n_rows == len(rows)
        assert len(fold_coeffs) == N_FOLDS
        assert 0.0 < report.rmse_db < 1.0


class TestPersistence:
    def test_csv_roundtrip(self, tmp_path):
        rows = synthetic_rows(n=12)
        path = tmp_path / "rows.csv"
        save_rows(rows, path)
        back = load_rows(path)
        assert len(back) == 12
        orig = sorted(rows, key=lambda r: (r.launch_power_dbm, r.nf_db, r.n_spans))
        for a, b in zip(orig, back):
            assert a == b

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            load_rows(path)

    def test_coefficients_json_roundtrip(self, tmp_path):
        coeffs = FitCoefficients(TRUE_K)
        path = tmp_path / "coeffs.json"
        coeffs.save(path)
        np.testing.assert_array_equal(FitCoefficients.load(path).values, TRUE_K)

    @pytest.mark.parametrize("doc, match", [
        pytest.param({f"k{i}": 1.0 for i in range(12)},
                     re.escape("missing [], extra ['k10', 'k11', 'k7', 'k8', 'k9']"),
                     id="twelve-keys"),
        pytest.param({f"k{i}": 1.0 for i in range(6)}, re.escape("missing ['k6'], extra []"),
                     id="missing-key"),
        pytest.param(list(TRUE_K), "must hold a JSON object", id="array"),
        pytest.param({**{f"k{i}": 1.0 for i in range(7)}, "k3": "0.5", "k5": True},
                     re.escape("values of ['k3', 'k5'] must be numbers"), id="not-numbers"),
    ])
    def test_coefficients_load_refuses_other_layouts(self, tmp_path, doc, match):
        # eval must not score a file written for another model as this one
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            FitCoefficients.load(path)


class TestFitOptimality:
    def test_no_single_coefficient_improvement(self):
        # at the LS optimum, nudging any coefficient cannot reduce training SSE
        rows = synthetic_rows(noise_db=0.5, seed=9)
        data = Dataset(rows)
        coeffs = fit_least_squares(data)
        x = np.array([r.features() for r in data.capped()])
        y = np.array([r.truth_osnr_db for r in data.capped()])

        def sse(values):
            residual = y - x @ values
            return float(residual @ residual)

        base = sse(coeffs.values)
        for i in range(7):
            for bump in (1e-6, -1e-6):
                nudged = coeffs.values.copy()
                nudged[i] += bump
                assert sse(nudged) >= base
