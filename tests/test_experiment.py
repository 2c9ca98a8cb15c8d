import hashlib
import json
import math

import numpy as np
import pytest

from osnrprobe import cli, estimator, experiment
from osnrprobe.estimator import DELTA_GRID_DB
from osnrprobe.experiment import (
    ExperimentConfig,
    desk_preset,
    paper_preset,
    run_dataset,
)
from osnrprobe.fiberlink import FiberParams
from osnrprobe.waveform import InfeasiblePerturbationError, RegionSet, TxConfig


def tiny_config(**overrides):
    base = dict(
        tx=TxConfig(n_symbols=2**13, seed=5),
        fiber=FiberParams(step_km=0.5),
        powers_dbm=(2.0,),
        spans=(1, 2),
        nf_dbs=(4.5,),
        precision="single",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def wide_boost_regions():
    """A 10 GHz boost band around the carrier: with the tiny_config
    transmitter it holds K_A = 0.174 of the power, so the +10 dB probe
    needs more than the waveform carries while -10..+5 dB stay feasible."""
    half = tiny_config().tx.boi_halfwidth
    return RegionSet(f_a=[(-5e9, 5e9)], f_n=[(12e9, 14e9)],
                     f_b=[(-half, -5e9), (5e9, 12e9), (14e9, half)],
                     f_boi=(-half, half))


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        assert ExperimentConfig.from_json(path) == cfg

    def test_rejects_unknown_schema(self):
        doc = json.loads(tiny_config().to_json())
        # a version 1 document carried the probe grid and the OSNR cap
        v1 = dict(doc, schema_version=1, delta_a_grid_db=list(DELTA_GRID_DB),
                  osnr_cap_db=30.0)
        for bad in (dict(doc, schema_version=99), v1):
            with pytest.raises(ValueError, match="schema_version"):
                ExperimentConfig.from_json(json.dumps(bad))

    def test_missing_file_is_not_json_text(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_json(tmp_path / "missing.json")
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_json(str(tmp_path / "missing.json"))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            tiny_config(powers_dbm=())

    def test_desk_preset_values(self):
        cfg = desk_preset()
        assert cfg.tx.n_symbols == 2**14
        assert cfg.tx.samples_per_symbol == 2
        assert cfg.fiber.step_km == 0.5
        assert cfg.spans == (1, 5, 10, 15, 20, 25, 30)
        assert cfg.powers_dbm == (-2.0, 0.0, 2.0, 4.0, 6.0)
        assert cfg.nf_dbs == (4.5, 5.5, 6.5, 7.5)

    def test_paper_preset_values(self):
        cfg = paper_preset()
        assert cfg.tx.n_symbols == 2**17
        assert cfg.fiber.step_km == 0.5
        assert cfg.spans == tuple(range(1, 31))
        assert cfg.tx.baud_rate == 56.8e9
        assert cfg.tx.rolloff == 0.07
        assert cfg.tx.nfl_rel_db == -22.5
        assert cfg.tx.samples_per_symbol == 2
        assert cfg.precision == "single"


class TestRunDataset:
    def test_grid_and_resume(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "rows.csv"
        messages = []
        rows = run_dataset(cfg, out, log=messages.append)
        assert len(rows) == 2
        assert any("200 steps/span, max nonlinear phase" in m for m in messages)
        first_hash = file_hash(out)

        messages = []
        run_dataset(cfg, out, log=messages.append)
        assert any("already complete" in m for m in messages)
        assert file_hash(out) == first_hash

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_dataset(cfg, a, log=lambda *_: None)
        run_dataset(cfg, b, log=lambda *_: None)
        assert file_hash(a) == file_hash(b)

    def test_partial_file_resumes_to_same_bytes(self, tmp_path):
        cfg = tiny_config(powers_dbm=(0.0, 2.0))
        full = tmp_path / "full.csv"
        run_dataset(cfg, full, log=lambda *_: None)

        # keep only the first unit's rows, then resume
        partial = tmp_path / "partial.csv"
        rows = estimator.load_rows(full)
        estimator.save_rows([r for r in rows if r.launch_power_dbm == 0.0], partial)
        run_dataset(cfg, partial, log=lambda *_: None)
        assert file_hash(partial) == file_hash(full)

    def test_rows_carry_truth_and_features(self, tmp_path):
        cfg = tiny_config()
        rows = run_dataset(cfg, tmp_path / "rows.csv", log=lambda *_: None)
        by_spans = {r.n_spans: r for r in rows}
        assert by_spans[1].truth_osnr_db - by_spans[2].truth_osnr_db == pytest.approx(
            10 * math.log10(2), abs=1e-9)
        for row in rows:
            assert row.p_ref_db > max(row.p_n_db)  # notch sits below the carrier

    def test_infeasible_boost_reports_scenario(self, tmp_path):
        cfg = tiny_config(regions=wide_boost_regions())
        with pytest.raises(InfeasiblePerturbationError, match="power=.*delta_A=\\+10"):
            run_dataset(cfg, tmp_path / "rows.csv", log=lambda *_: None)

    def test_bad_probe_grid_fails_before_propagation(self, tmp_path, monkeypatch):
        def no_propagation(*args, **kwargs):
            raise AssertionError("a span was propagated before the config error")

        monkeypatch.setattr(experiment, "propagate", no_propagation)
        with pytest.raises(InfeasiblePerturbationError, match="power=.*delta_A=\\+10"):
            run_dataset(tiny_config(regions=wide_boost_regions()),
                        tmp_path / "a.csv", log=lambda *_: None)


class TestCli:
    def test_margin_command(self, tmp_path):
        out = tmp_path / "margin.csv"
        assert cli.main(["margin", "--out", str(out), "--snr-max-db", "10"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "snr_db,bwd_pert_hz,penalty_db"
        for bad in (["--snr-step-db", "0"], ["--snr-step-db", "-1"],
                    ["--snr-min-db", "10", "--snr-max-db", "5"]):
            with pytest.raises(ValueError, match="snr-step-db"):
                cli.main(["margin", "--out", str(tmp_path / "bad.csv"), *bad])
        assert not (tmp_path / "bad.csv").exists()

    def test_fit_and_eval_commands(self, tmp_path):
        rng = np.random.default_rng(0)
        coeffs_true = np.array([40.0, 0.8, -0.5, 0.3, -0.2, 0.15, 0.55])
        rows = []
        for i in range(40):
            feats = np.array([1.0, -135 + rng.normal(0, 2), *(-150 + rng.normal(0, 3, 5))])
            rows.append(estimator.FeatureRow(
                feats[1], tuple(feats[2:]), float(feats @ coeffs_true),
                float(-2 + 2 * (i % 5)), 1 + (i % 6) * 5, 4.5 + (i % 4)))
        data_path = tmp_path / "rows.csv"
        estimator.save_rows(rows, data_path)
        coeffs_path = tmp_path / "coeffs.json"
        report_path = tmp_path / "pred.csv"
        assert cli.main(["fit", "--dataset", str(data_path), "--coeffs",
                         str(coeffs_path), "--mode", "fit-all",
                         "--osnr-cap-db", "inf"]) == 0
        assert coeffs_path.exists()
        for folds in ("0", "1"):
            with pytest.raises(ValueError, match="n_folds >= 2"):
                cli.main(["fit", "--dataset", str(data_path), "--coeffs",
                          str(tmp_path / "cv.json"), "--folds", folds])
        assert cli.main(["eval", "--dataset", str(data_path), "--coeffs",
                         str(coeffs_path), "--osnr-cap-db", "inf",
                         "--report", str(report_path)]) == 0
        assert report_path.read_text().startswith("truth_osnr_db,")

    def test_dataset_command_prints_cv_summary(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(1)
        coeffs_true = np.array([40.0, 0.8, -0.5, 0.3, -0.2, 0.15, 0.55])
        rows = []
        for i in range(40):
            feats = np.array([1.0, -135 + rng.normal(0, 2), *(-150 + rng.normal(0, 3, 5))])
            rows.append(estimator.FeatureRow(
                feats[1], tuple(feats[2:]), min(float(feats @ coeffs_true), 29.0),
                float(-2 + 2 * (i % 5)), 1 + (i % 6) * 5, 4.5 + (i % 4)))
        calls = []

        def fake_run(cfg, out, workers, fft_workers):
            calls.append((workers, fft_workers))
            return rows

        monkeypatch.setattr(cli, "run_dataset", fake_run)
        assert cli.main(["dataset", "--out", str(tmp_path / "rows.csv"),
                         "--fft-workers", "1"]) == 0
        assert calls == [(1, 1)]
        out = capsys.readouterr().out
        assert "cross-validated RMSE:" in out
        for power in ("-2", "+0", "+2", "+4", "+6"):
            assert f"launch {power} dBm: RMSE" in out

    def test_dataset_and_psd_commands(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        tiny_config().to_json(cfg_path)
        out = tmp_path / "rows.csv"
        assert cli.main(["dataset", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(estimator.load_rows(out)) == 2

        trace_path = tmp_path / "trace.csv"
        assert cli.main(["psd", "--config", str(cfg_path), "--out", str(trace_path),
                         "--power-dbm", "2", "--spans", "1", "--no-ase"]) == 0
        assert trace_path.read_text().startswith("freq_hz,psd_w_per_hz")


class TestConfigRegions:
    def test_explicit_regions_roundtrip(self, tmp_path):
        from osnrprobe.waveform import RegionSet

        half = 0.5 * 1.07 * 56.8e9
        custom = RegionSet(
            f_a=[(10e9, 11e9), (15e9, 16e9)],
            f_n=[(12e9, 14e9)],
            f_b=[(-half, 10e9), (11e9, 12e9), (14e9, 15e9), (16e9, half)],
            f_boi=(-half, half),
        )
        cfg = tiny_config(regions=custom)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        back = ExperimentConfig.from_json(path)
        assert back.regions == custom
        assert back == cfg


class TestWorkers:
    def test_process_pool_matches_serial(self, tmp_path):
        cfg = tiny_config(powers_dbm=(0.0, 2.0))
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        run_dataset(cfg, serial, workers=1, log=lambda *_: None)
        run_dataset(cfg, pooled, workers=2, fft_workers=1, log=lambda *_: None)
        assert file_hash(serial) == file_hash(pooled)


class TestResumeHygiene:
    def test_foreign_rows_dropped_on_resume(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "rows.csv"
        run_dataset(cfg, out, log=lambda *_: None)
        rows = estimator.load_rows(out)
        # smuggle in a row from a different grid
        alien = estimator.FeatureRow(rows[0].p_ref_db, rows[0].p_n_db, 25.0,
                                     launch_power_dbm=9.0, n_spans=3, nf_db=5.0)
        estimator.save_rows(rows + [alien], out)
        messages = []
        run_dataset(cfg, out, log=messages.append)
        assert any("dropping 1 rows" in m for m in messages)
        back = estimator.load_rows(out)
        assert all(r.launch_power_dbm == 2.0 for r in back)
