import argparse
import dataclasses
import hashlib
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from osnrprobe import cli, estimator, experiment, fiberlink
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


def load_doc(tmp_path, doc):
    """ExperimentConfig.from_json of a file holding the JSON document doc."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return ExperimentConfig.from_json(path)


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert ExperimentConfig.from_json(path) == cfg
        # null turns the floor off, and an integer is a number
        doc = json.loads(cfg.to_json())
        doc["tx"]["nfl_rel_db"], doc["fiber"]["span_length_km"] = None, 100
        no_floor = dataclasses.replace(cfg, tx=dataclasses.replace(cfg.tx, nfl_rel_db=None))
        assert load_doc(tmp_path, doc) == no_floor

    def test_rejects_unknown_schema(self, tmp_path):
        doc = json.loads(tiny_config().to_json())
        # a version 1 document carried the probe grid and the OSNR cap,
        # version 2 the propagation precision, version 3 the probe geometry
        # and the signal's baud rate and roll-off; version 4 had the keys of
        # today, but its step_km was a uniform step, not an effective length
        v1 = dict(doc, schema_version=1, delta_a_grid_db=list(DELTA_GRID_DB),
                  osnr_cap_db=30.0)
        v2 = dict(doc, schema_version=2, precision="single")
        v3 = dict(doc, schema_version=3, regions=None,
                  tx=dict(doc["tx"], baud_rate=56.8e9, rolloff=0.07))
        v4 = dict(doc, schema_version=4)
        for bad in (dict(doc, schema_version=99), v1, v2, v3, v4):
            with pytest.raises(ValueError, match="schema_version"):
                load_doc(tmp_path, bad)

    @pytest.mark.parametrize("where, key, match", [
        pytest.param(None, "regions", "unknown config key.*'regions'", id="None-regions"),
        pytest.param("tx", "baud_rate", "unknown tx key.*'baud_rate'", id="tx-baud_rate"),
        pytest.param("fiber", "precision", "unknown fiber key.*'precision'",
                     id="fiber-precision"),
        pytest.param(None, "tx", "tx must be a JSON object, got null", id="None-tx"),
        pytest.param(None, "fiber", "fiber must be a JSON object, got null", id="None-fiber"),
    ])
    def test_rejects_unknown_key(self, tmp_path, where, key, match):
        # a schema-5 document with a key no field takes, e.g. one left over
        # from schema 3, or a null where an object belongs, is named, not a
        # TypeError from the constructor or from the key check
        doc = json.loads(tiny_config().to_json())
        (doc[where] if where else doc)[key] = None
        with pytest.raises(ValueError, match=match):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("where, key, value, kind", [
        pytest.param(None, "powers_dbm", "26", "an array of numbers", id="powers-string"),
        pytest.param(None, "nf_dbs", [True], "an array of numbers", id="nf-bool"),
        pytest.param(None, "spans", 5, "an array of integers", id="spans-scalar"),
        pytest.param(None, "spans", [1.0, 2.0], "an array of integers", id="spans-float"),
        pytest.param(None, "seed", 1.5, "an integer", id="seed-float"),
        pytest.param("tx", "n_symbols", 16384.0, "an integer", id="n_symbols-float"),
        pytest.param("tx", "seed", True, "an integer", id="tx-seed-bool"),
        pytest.param("tx", "nfl_rel_db", "-22.5", "a number or null", id="nfl-string"),
        pytest.param("fiber", "gamma", "1.3", "a number", id="gamma-string"),
        pytest.param("fiber", "step_km", False, "a number", id="step-bool"),
    ])
    def test_rejects_wrong_json_type(self, tmp_path, where, key, value, kind):
        # each would otherwise be coerced ("26" to (2.0, 6.0), true to 1.0),
        # fail later inside a unit, or raise a bare TypeError
        doc = json.loads(tiny_config().to_json())
        (doc[where] if where else doc)[key] = value
        with pytest.raises(ValueError, match=f"{where or 'config'} key '{key}' must be {kind}, "
                                             f"got {re.escape(json.dumps(value))}$"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("doc", [[1], "x"], ids=["array", "string"])
    def test_rejects_non_object_document(self, tmp_path, doc):
        # not a TypeError from reading schema_version off a list or a string
        with pytest.raises(ValueError, match=f"must be a JSON object, got "
                                             f"{re.escape(json.dumps(doc))}$"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("where, value, name", [
        pytest.param(None, -1, "seed", id="seed"),
        pytest.param("tx", -3, "tx.seed", id="tx-seed"),
    ])
    def test_rejects_negative_seed(self, tmp_path, where, value, name):
        # numpy's SeedSequence takes no negative entropy: without this check
        # the run would fail inside its first unit, after synthesis
        doc = json.loads(tiny_config().to_json())
        (doc[where] if where else doc)["seed"] = value
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= 0, got {value}$"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("key, value", [
        ("gamma", math.nan), ("dispersion_D", math.inf), ("step_km", math.nan),
        ("span_length_km", math.inf), ("alpha_db_per_km", -math.inf),
    ])
    def test_non_finite_fiber_value_fails_before_propagation(self, tmp_path, monkeypatch,
                                                             key, value):
        # json reads NaN and Infinity as numbers; the fiber refuses them by
        # name before the run writes its config file or starts a span
        def no_propagation(*args, **kwargs):
            raise AssertionError("a span was propagated before the fiber check")

        monkeypatch.setattr(experiment, "simulate_link", no_propagation)
        doc = json.loads(tiny_config().to_json())
        doc["fiber"][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert ("NaN" if math.isnan(value) else "Infinity") in cfg_path.read_text()
        out = tmp_path / "out" / "rows.csv"
        with pytest.raises(ValueError, match=f"^fiber {key} must be finite, got {value}$"):
            cli.main(["dataset", "--config", str(cfg_path), "--out", str(out)])
        assert not out.parent.exists()

    def test_missing_file_is_not_json_text(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_json(tmp_path / "missing.json")
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_json(str(tmp_path / "missing.json"))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            tiny_config(powers_dbm=())

    @pytest.mark.parametrize("bad", [dict(powers_dbm=(math.nan,)), dict(powers_dbm=(math.inf,)),
                                     dict(powers_dbm=(2.0, 4000.0)),
                                     dict(nf_dbs=(math.nan,)), dict(nf_dbs=(2.0,)),
                                     dict(powers_dbm=(2.0, 2.0)), dict(nf_dbs=(4.5, 5.5, 4.5)),
                                     dict(spans=(1, 2, 1))])
    def test_rejects_non_physical_grid(self, bad):
        # a repeated value would simulate one scenario twice under two seeds
        with pytest.raises(ValueError, match="finite|overflows|quantum|repeats"):
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
        assert cfg.fiber.step_km == 1.4
        assert cfg.spans == (1, 5, 10, 15, 20, 25, 30)
        assert cfg.powers_dbm == (-2.0, 0.0, 2.0, 4.0, 6.0)
        assert cfg.nf_dbs == (4.5, 5.5, 6.5, 7.5)

    def test_paper_preset_values(self):
        cfg = paper_preset()
        assert cfg.tx.n_symbols == 2**17
        assert cfg.fiber.step_km == 1.4
        assert cfg.spans == tuple(range(1, 31))
        assert cfg.tx.baud_rate == 56.8e9
        assert cfg.tx.rolloff == 0.07
        assert cfg.tx.nfl_rel_db == -22.5
        assert cfg.tx.samples_per_symbol == 2
        assert cfg.dtype is np.complex64


class TestRunDataset:
    def test_grid_and_resume(self, tmp_path, capsys):
        cfg = tiny_config()
        out = tmp_path / "rows.csv"
        rows = run_dataset(cfg, out)
        assert len(rows) == 2
        assert "107 steps/span, max nonlinear phase" in capsys.readouterr().out
        first_hash = file_hash(out)

        run_dataset(cfg, out)
        assert "already complete" in capsys.readouterr().out
        assert file_hash(out) == first_hash

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_dataset(cfg, a)
        run_dataset(cfg, b)
        assert file_hash(a) == file_hash(b)

    def test_partial_file_resumes_to_same_bytes(self, tmp_path):
        cfg = tiny_config(powers_dbm=(0.0, 2.0))
        full = tmp_path / "full.csv"
        run_dataset(cfg, full)

        # keep only one unit's rows, then resume; the rows come back in the
        # file's order whichever unit was kept
        rows = estimator.load_rows(full)
        for kept_dbm in (0.0, 2.0):
            partial = tmp_path / f"partial{kept_dbm}.csv"
            estimator.save_rows([r for r in rows if r.launch_power_dbm == kept_dbm], partial)
            Path(f"{partial}.config.json").write_text(cfg.to_json())
            resumed = run_dataset(cfg, partial)
            assert file_hash(partial) == file_hash(full)
            assert resumed == estimator.load_rows(partial)

    def test_rows_carry_truth_and_features(self, tmp_path):
        cfg = tiny_config()
        rows = run_dataset(cfg, tmp_path / "rows.csv")
        by_spans = {r.n_spans: r for r in rows}
        assert by_spans[1].truth_osnr_db - by_spans[2].truth_osnr_db == pytest.approx(
            10 * math.log10(2), abs=1e-9)
        for row in rows:
            assert row.p_ref_db > max(row.p_n_db)  # notch sits below the carrier

    def test_desk_grid_largest_phase_matches_readme(self):
        # README gives the largest nonlinear phase per step in the desk grid.
        # The desk file's regeneration logged it in the unit at the grid's
        # top power and noise figure, run here as the dataset runs it: all
        # five probes, ASE and the transmitter floor, 30 spans at the
        # default step, with no warning
        cfg = desk_preset()
        assert cfg.fiber == FiberParams()
        ip, inf_ = cfg.powers_dbm.index(max(cfg.powers_dbm)), cfg.nf_dbs.index(max(cfg.nf_dbs))
        ref = generate_reference(cfg.tx)
        profiles = [build_profile(ref, REGIONS, delta_db) for delta_db in DELTA_GRID_DB]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, max_phi, _ = experiment._run_unit(cfg, ip, inf_, ref, profiles,
                                                 fiberlink.parallelism()[1])
        readme = " ".join(README.read_text().split())
        claim = re.search(r"largest nonlinear phase of a step in the desk grid is (\S+) rad", readme)
        assert claim, "README no longer states the desk grid's largest phase"
        assert round(max_phi, 3) == float(claim[1])
        assert max_phi < fiberlink.NL_PHASE_STEP_LIMIT

    def test_bad_probe_grid_fails_before_propagation(self, tmp_path, monkeypatch):
        # a +20 dB boost needs K_A < 0.01; the probe geometry carries ~0.035
        def no_propagation(*args, **kwargs):
            raise AssertionError("a span was propagated before the config error")

        monkeypatch.setattr(experiment, "simulate_link", no_propagation)
        monkeypatch.setattr(experiment, "DELTA_GRID_DB", (-10.0, -5.0, 0.0, 5.0, 20.0))
        with pytest.raises(InfeasiblePerturbationError, match="K_A\\*delta_A"):
            run_dataset(tiny_config(), tmp_path / "a.csv")
        assert not (tmp_path / "a.csv").exists()


class TestCli:
    def test_margin_command(self, tmp_path):
        out = tmp_path / "margin.csv"
        assert cli.main(["margin", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "snr_db,bwd_pert_hz,penalty_db"

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

    def test_fit_refuses_a_repeated_scenario(self, tmp_path):
        # repeated rows would weigh twice in the fit: the committed file with
        # its last 20 rows appended is refused, naming the first repeat
        lines = DESK_DATASET.read_text().splitlines(keepends=True)
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("".join(lines + lines[-20:]))
        coeffs = tmp_path / "coeffs.json"
        with pytest.raises(ValueError, match=f"{re.escape(str(doubled))} holds the scenario "
                                             r"power=\+6 dBm nf=5.5 dB spans=5 twice"):
            cli.main(["fit", "--dataset", str(doubled), "--coeffs", str(coeffs)])
        assert not coeffs.exists()

    def test_readme_documents_every_flag(self):
        text = README.read_text()
        parser = cli.build_parser()
        subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                for flag in action.option_strings:
                    if flag not in ("-h", "--help"):
                        assert re.search(re.escape(flag) + r"(?![\w-])", text), \
                            f"README.md never mentions `osnrprobe {name} {flag}`"

    @pytest.mark.parametrize("command", ["dataset", "psd"])
    def test_negative_seed_fails_before_synthesis(self, tmp_path, monkeypatch, command):
        # --seed goes through the config's constructors, so their check sees it
        def no_reference(*args, **kwargs):
            raise AssertionError("a reference was synthesized before the seed check")

        monkeypatch.setattr(cli, "generate_reference", no_reference)
        monkeypatch.setattr(experiment, "generate_reference", no_reference)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            cli.main([command, "--seed", "-1", "--out", str(tmp_path / "out.csv")])
        assert list(tmp_path.iterdir()) == []

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

        def fake_run(cfg, out):
            calls.append(out)
            return rows

        monkeypatch.setattr(cli, "run_dataset", fake_run)
        assert cli.main(["dataset", "--out", str(tmp_path / "rows.csv")]) == 0
        assert calls == [str(tmp_path / "rows.csv")]
        out = capsys.readouterr().out
        assert "cross-validated RMSE:" in out
        for power in ("-2", "+0", "+2", "+4", "+6"):
            assert f"launch {power} dBm: RMSE" in out

    @pytest.mark.parametrize("flag", ["--workers", "--fft-workers"])
    def test_dataset_takes_no_parallelism_flag(self, tmp_path, flag, capsys):
        # the run works out its processes and FFT threads from the machine
        with pytest.raises(SystemExit) as exc:
            cli.main(["dataset", "--out", str(tmp_path / "rows.csv"), flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("power", ["nan", "inf", "-inf", "4000"])
    def test_psd_non_finite_power_fails_before_propagation(self, tmp_path, monkeypatch, power):
        # 4000 dBm is finite, but its watts overflow a float
        def no_propagation(*args, **kwargs):
            raise AssertionError("a span was propagated before the power check")

        monkeypatch.setattr(cli, "simulate_link", no_propagation)
        with pytest.raises(ValueError, match="launch_power_dbm .* (not finite|overflows)"):
            cli.main(["psd", "--spans", "1", f"--power-dbm={power}",
                      "--out", str(tmp_path / "trace.csv")])
        assert list(tmp_path.iterdir()) == []

    def test_psd_trace_is_pinned(self, tmp_path):
        # the single-probe path end to end: synthesis, floor, one span, OSA
        out = tmp_path / "trace.csv"
        assert cli.main(["psd", "--preset", "desk", "--spans", "1", "--power-dbm", "6",
                         "--delta-db", "10", "--out", str(out)]) == 0
        assert file_hash(out) == (
            "235544aedfb855b93dbbab4bb58f4ec8fd50c1213322e862f278b772c20e7c92")

    def test_dataset_and_psd_commands(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_config().to_json())
        out = tmp_path / "rows.csv"
        assert cli.main(["dataset", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(estimator.load_rows(out)) == 2

        trace_path = tmp_path / "trace.csv"
        for spans in ("1", "0"):
            assert cli.main(["psd", "--config", str(cfg_path), "--out", str(trace_path),
                             "--power-dbm", "2", "--spans", spans, "--no-ase"]) == 0
            assert trace_path.read_text().startswith("freq_hz,psd_w_per_hz")


class TestWorkers:
    def test_process_pool_matches_serial(self, tmp_path, monkeypatch, capsys):
        # one core runs the two units in this process, two cores in two
        # processes with one FFT thread each; the bytes are the same
        cfg = tiny_config(powers_dbm=(0.0, 2.0))
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        monkeypatch.setattr(fiberlink, "usable_cores", lambda: 1)
        run_dataset(cfg, serial)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "work units: 2, processes: 1, FFT threads per process: 1"
        monkeypatch.setattr(fiberlink, "usable_cores", lambda: 2)
        run_dataset(cfg, pooled)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "work units: 2, processes: 2, FFT threads per process: 1"
        assert file_hash(serial) == file_hash(pooled)
        assert sum(" done in " in line for line in lines) == 2  # each unit's wall time

    def test_one_unit_runs_in_process(self, tmp_path, monkeypatch, capsys):
        # a single pending unit, as in every benchmark operation or a resume
        # with one unit left, builds no process pool and takes every core
        # as FFT threads; an explicit fft_workers overrides the threads only
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built for one work unit")

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(fiberlink, "usable_cores", lambda: 2)
        run_dataset(tiny_config(), tmp_path / "a.csv")
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "work units: 1, processes: 1, FFT threads per process: 2"
        run_dataset(tiny_config(), tmp_path / "b.csv", fft_workers=1)
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "work units: 1, processes: 1, FFT threads per process: 1"
        assert file_hash(tmp_path / "a.csv") == file_hash(tmp_path / "b.csv")

    @pytest.mark.parametrize("cores, units, want", [
        (1, 20, (1, 1)), (2, 20, (2, 1)), (2, 1, (1, 2)), (4, 3, (3, 1)), (8, 3, (3, 2)),
    ])
    def test_parallelism_rule(self, monkeypatch, cores, units, want):
        monkeypatch.setattr(fiberlink, "usable_cores", lambda: cores)
        assert fiberlink.parallelism(units) == want


class TestResumeHygiene:
    def test_foreign_rows_refused_on_resume(self, tmp_path, monkeypatch):
        # with the config file matching, a row off the grid or (refused by
        # load_rows) a repeated scenario can only be a hand edit: the run
        # names it and leaves the file alone, before any synthesis
        cfg = tiny_config()
        out = tmp_path / "rows.csv"
        run_dataset(cfg, out)
        rows = estimator.load_rows(out)
        alien = estimator.FeatureRow(rows[0].p_ref_db, rows[0].p_n_db, 25.0,
                                     launch_power_dbm=9.0, n_spans=3, nf_db=5.0)
        again = dataclasses.replace(rows[1], truth_osnr_db=25.0)

        def no_reference(*args, **kwargs):
            raise AssertionError("a reference was synthesized before the rows were checked")

        monkeypatch.setattr(experiment, "generate_reference", no_reference)
        for smuggled, match in ((alien, "power=\\+9 dBm nf=5 dB spans=3 outside"),
                                (again, "power=\\+2 dBm nf=4.5 dB spans=2 twice")):
            estimator.save_rows(rows + [smuggled], out)
            edited = file_hash(out)
            with pytest.raises(ValueError, match=f"{re.escape(str(out))} holds .*{match}"):
                run_dataset(cfg, out)
            assert file_hash(out) == edited

    def test_csv_of_another_config_is_refused(self, tmp_path, monkeypatch):
        # a seed-5 file is no partial result of a seed-6 run, and neither is
        # a file with no config beside it; both fail before any simulation
        cfg = tiny_config()
        out = tmp_path / "rows.csv"
        config = tmp_path / "rows.csv.config.json"
        run_dataset(cfg, out)
        assert config.read_text() == cfg.to_json()
        first_hash = file_hash(out)
        reseeded = dataclasses.replace(cfg, seed=6)

        def no_reference(*args, **kwargs):
            raise AssertionError("a reference was synthesized before the config check")

        with monkeypatch.context() as m:
            m.setattr(experiment, "generate_reference", no_reference)
            with pytest.raises(ValueError, match="not written by this config"):
                run_dataset(reseeded, out)
            config.unlink()
            with pytest.raises(ValueError, match="not written by this config"):
                run_dataset(cfg, out)
        assert file_hash(out) == first_hash

        # without the CSV it is a fresh run, whatever config sits beside it
        config.write_text(cfg.to_json())
        out.unlink()
        rows = run_dataset(reseeded, out)
        assert config.read_text() == reseeded.to_json()
        assert len(rows) == 2 and file_hash(out) != first_hash


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

    def test_committed_dataset_carries_its_config(self):
        config = DESK_DATASET.with_name(DESK_DATASET.name + ".config.json")
        assert config.read_text() == desk_preset().to_json()
