import dataclasses
import hashlib
import json
import math
import shlex
from pathlib import Path

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
from osnrprobe.waveform import (REGIONS, InfeasiblePerturbationError, TxConfig, build_profile,
                                generate_reference)

README = Path(__file__).resolve().parents[1] / "README.md"
DESK_DATASET = Path(__file__).resolve().parents[1] / "data" / "desk_dataset.csv"


def tiny_config(**overrides):
    base = dict(
        tx=TxConfig(n_symbols=2**13, seed=5),
        fiber=FiberParams(step_km=0.5),
        powers_dbm=(2.0,),
        spans=(1, 2),
        nf_dbs=(4.5,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


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
        # a version 1 document carried the probe grid and the OSNR cap,
        # version 2 the propagation precision, version 3 the probe geometry
        # and the signal's baud rate and roll-off
        v1 = dict(doc, schema_version=1, delta_a_grid_db=list(DELTA_GRID_DB),
                  osnr_cap_db=30.0)
        v2 = dict(doc, schema_version=2, precision="single")
        v3 = dict(doc, schema_version=3, regions=None,
                  tx=dict(doc["tx"], baud_rate=56.8e9, rolloff=0.07))
        for bad in (dict(doc, schema_version=99), v1, v2, v3):
            with pytest.raises(ValueError, match="schema_version"):
                ExperimentConfig.from_json(json.dumps(bad))

    @pytest.mark.parametrize("where, key, match", [
        pytest.param(None, "regions", "unknown config key.*'regions'", id="None-regions"),
        pytest.param("tx", "baud_rate", "unknown tx key.*'baud_rate'", id="tx-baud_rate"),
        pytest.param("fiber", "precision", "unknown fiber key.*'precision'",
                     id="fiber-precision"),
        pytest.param(None, "tx", "tx must be a JSON object, got null", id="None-tx"),
        pytest.param(None, "fiber", "fiber must be a JSON object, got null", id="None-fiber"),
    ])
    def test_rejects_unknown_key(self, where, key, match):
        # a schema-4 document with a key no field takes, e.g. one left over
        # from schema 3, or a null where an object belongs, is named, not a
        # TypeError from the constructor or from the key check
        doc = json.loads(tiny_config().to_json())
        (doc[where] if where else doc)[key] = None
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_missing_file_is_not_json_text(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_json(tmp_path / "missing.json")
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_json(str(tmp_path / "missing.json"))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            tiny_config(powers_dbm=())

    @pytest.mark.parametrize("bad", [dict(powers_dbm=(math.nan,)), dict(powers_dbm=(math.inf,)),
                                     dict(nf_dbs=(math.nan,)), dict(nf_dbs=(2.0,)),
                                     dict(powers_dbm=(2.0, 2.0)), dict(nf_dbs=(4.5, 5.5, 4.5)),
                                     dict(spans=(1, 2, 1))])
    def test_rejects_non_physical_grid(self, bad):
        # a repeated value would simulate one scenario twice under two seeds
        with pytest.raises(ValueError, match="finite|quantum|repeats"):
            tiny_config(**bad)

    def test_rejects_lossless_fiber(self):
        # the EDFA gain is the span loss: without loss there is no ASE and
        # the truth OSNR is infinite, so the config fails before any span
        with pytest.raises(ValueError, match="span loss must be positive, got 0 dB"):
            tiny_config(fiber=FiberParams(alpha_db_per_km=0.0))

    def test_rejects_record_too_short_to_measure(self):
        with pytest.raises(ValueError, match="8192 samples too short"):
            tiny_config(tx=TxConfig(n_symbols=2**12, seed=5))

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
        assert cfg.dtype is np.complex64


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

        # keep only one unit's rows, then resume; the rows come back in the
        # file's order whichever unit was kept
        rows = estimator.load_rows(full)
        for kept_dbm in (0.0, 2.0):
            partial = tmp_path / f"partial{kept_dbm}.csv"
            estimator.save_rows([r for r in rows if r.launch_power_dbm == kept_dbm], partial)
            resumed = run_dataset(cfg, partial, log=lambda *_: None)
            assert file_hash(partial) == file_hash(full)
            assert resumed == estimator.load_rows(partial)

    def test_rows_carry_truth_and_features(self, tmp_path):
        cfg = tiny_config()
        rows = run_dataset(cfg, tmp_path / "rows.csv", log=lambda *_: None)
        by_spans = {r.n_spans: r for r in rows}
        assert by_spans[1].truth_osnr_db - by_spans[2].truth_osnr_db == pytest.approx(
            10 * math.log10(2), abs=1e-9)
        for row in rows:
            assert row.p_ref_db > max(row.p_n_db)  # notch sits below the carrier

    def test_bad_probe_grid_fails_before_propagation(self, tmp_path, monkeypatch):
        # a +20 dB boost needs K_A < 0.01; the probe geometry carries ~0.035
        def no_propagation(*args, **kwargs):
            raise AssertionError("a span was propagated before the config error")

        monkeypatch.setattr(experiment, "simulate_link", no_propagation)
        monkeypatch.setattr(experiment, "DELTA_GRID_DB", (-10.0, -5.0, 0.0, 5.0, 20.0))
        with pytest.raises(InfeasiblePerturbationError, match="K_A\\*delta_A"):
            run_dataset(tiny_config(), tmp_path / "a.csv", log=lambda *_: None)
        assert not (tmp_path / "a.csv").exists()


class TestCli:
    def test_margin_command(self, tmp_path):
        out = tmp_path / "margin.csv"
        assert cli.main(["margin", "--out", str(out), "--snr-max-db", "10"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "snr_db,bwd_pert_hz,penalty_db"
        for bad, match in ((["--snr-step-db", "0"], "snr-step-db"),
                           (["--snr-step-db", "-1"], "snr-step-db"),
                           (["--snr-min-db", "10", "--snr-max-db", "5"], "snr-step-db"),
                           (["--bwd-ghz", "60"], "probe bandwidth")):
            with pytest.raises(ValueError, match=match):
                cli.main(["margin", "--out", str(tmp_path / "bad.csv"), *bad])
        assert not (tmp_path / "bad.csv").exists()

    def test_fit_and_eval_commands(self, tmp_path, capsys):
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
                         str(coeffs_path)]) == 0
        np.testing.assert_allclose(estimator.FitCoefficients.load(coeffs_path).values,
                                   coeffs_true, rtol=1e-8)
        capsys.readouterr()
        assert cli.main(["eval", "--dataset", str(data_path), "--coeffs",
                         str(coeffs_path), "--report", str(report_path)]) == 0
        in_sample = json.loads(capsys.readouterr().out)
        assert in_sample["n_rows"] == 40 and in_sample["rmse_db"] < 1e-8
        assert report_path.read_text().startswith("truth_osnr_db,")

    def test_readme_commands_parse(self):
        # every `osnrprobe ...` line of README's shell blocks, with its
        # backslash continuations joined, must be a command the CLI accepts
        blocks = README.read_text().split("```bash\n")[1:]
        commands = [shlex.split(line, comments=True)[1:]
                    for block in blocks
                    for line in block.split("```")[0].replace("\\\n", " ").splitlines()
                    if line.startswith("osnrprobe ")]
        assert len(commands) >= 5
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: osnrprobe {shlex.join(argv)}")

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
        for spans in ("1", "0"):
            assert cli.main(["psd", "--config", str(cfg_path), "--out", str(trace_path),
                             "--power-dbm", "2", "--spans", spans, "--no-ase"]) == 0
            assert trace_path.read_text().startswith("freq_hz,psd_w_per_hz")


class TestWorkers:
    def test_process_pool_matches_serial(self, tmp_path):
        cfg = tiny_config(powers_dbm=(0.0, 2.0))
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        run_dataset(cfg, serial, workers=1, log=lambda *_: None)
        messages = []
        run_dataset(cfg, pooled, workers=2, fft_workers=1, log=messages.append)
        assert file_hash(serial) == file_hash(pooled)
        assert sum(" done in " in m for m in messages) == 2  # each unit's wall time


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


class TestReproducibility:
    def test_desk_unit_reproduces_committed_row(self, tmp_path):
        # the dataset's byte-for-byte contract, on one span of the desk
        # preset's (+6 dBm, NF 7.5 dB) unit: a unit's seeds do not depend on
        # its span list, so this is the span-1 row of the committed file
        cfg = dataclasses.replace(desk_preset(), spans=(1,))
        assert (cfg.powers_dbm[4], cfg.nf_dbs[3]) == (6.0, 7.5)
        ref = generate_reference(cfg.tx)
        profiles = [build_profile(ref, REGIONS, d) for d in DELTA_GRID_DB]
        rows, _, _ = experiment._run_unit(cfg, 4, 3, ref, profiles, fft_workers=1)
        estimator.save_rows(rows, tmp_path / "row.csv")
        header, row = (tmp_path / "row.csv").read_text().splitlines()
        committed = DESK_DATASET.read_text().splitlines()
        assert header == committed[0]
        assert row in committed
        assert row.startswith("6.0,1,7.5,")
