"""Experiment configuration, presets, and the scenario-grid dataset runner.

A dataset run sweeps the (launch power, span count, noise figure) grid; for
every scenario the five probe spectra are synthesized, propagated, and
measured, producing one feature row. The reference waveform and the five
probe profiles (one per boost of `estimator.DELTA_GRID_DB`, on the one
probe geometry `waveform.REGIONS`) are built once per run, before
any propagation. Scenarios sharing launch power and NF differ only in span
count, so each (power, NF) work unit launches its five probes as one
(10, N) stack through `fiberlink.simulate_link` once up to the largest span
count, measuring every probe at each requested intermediate count.
Per-probe, per-span ASE seeding makes this bit-identical to simulating
each probe and span count separately.
"""

import json
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields, asdict, is_dataclass
from pathlib import Path

import numpy as np

from . import estimator
from .estimator import DELTA_GRID_DB, build_feature_row
from .field import SampledField
from .fiberlink import FiberParams, LinkConfig, analytic_osnr, parallelism, simulate_link
from .spectrum import MIN_FIELD_SAMPLES, measure
from .waveform import (REGIONS, TxConfig, add_tx_noise_floor, apply_perturbation,
                       build_profile, generate_reference)

SCHEMA_VERSION = 5


@dataclass
class ExperimentConfig:
    """Everything a dataset run needs, JSON round-trippable. Every field
    changes the simulated rows; the signal, the probe geometry, the probe
    grid and the OSNR cap are constants. A record too short to measure, a
    lossless fiber, a grid that repeats a value, a negative seed, or a launch
    power or noise figure that `fiberlink.LinkConfig` refuses is rejected
    here, before anything propagates; `from_json` also rejects a value of
    the wrong JSON type, by key."""

    tx: TxConfig = field(default_factory=TxConfig)
    fiber: FiberParams = field(default_factory=FiberParams)
    powers_dbm: tuple[float, ...] = (-2.0, 0.0, 2.0, 4.0, 6.0)
    spans: tuple[int, ...] = tuple(range(1, 31))
    nf_dbs: tuple[float, ...] = (4.5, 5.5, 6.5, 7.5)
    seed: int = 1234

    def __post_init__(self):
        self.powers_dbm = tuple(float(p) for p in self.powers_dbm)
        self.spans = tuple(int(s) for s in self.spans)
        self.nf_dbs = tuple(float(v) for v in self.nf_dbs)
        if not (self.powers_dbm and self.spans and self.nf_dbs):
            raise ValueError("all scenario grids must be non-empty")
        for name in ("powers_dbm", "spans", "nf_dbs"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
        if min(self.spans) < 1:
            raise ValueError("span counts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.fiber.span_loss_db > 0:
            raise ValueError(f"span loss must be positive, got {self.fiber.span_loss_db:g} dB: "
                             "each EDFA restores it, so a lossless span adds no ASE")
        for power in self.powers_dbm:
            for nf in self.nf_dbs:  # rejects a non-finite power or an NF under the quantum limit
                LinkConfig(self.fiber, 1, power, nf)
        n = self.tx.n_symbols * self.tx.samples_per_symbol
        if n < MIN_FIELD_SAMPLES:
            raise ValueError(f"record of {n} samples too short for PSD estimation "
                             f"(needs >= {MIN_FIELD_SAMPLES})")

    dtype = np.complex64  # not a field: perfbench reads it; simulate_link always runs complex64

    def to_json(self) -> str:
        return json.dumps({"schema_version": SCHEMA_VERSION, **asdict(self)}, indent=2) + "\n"

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Load the config file at path: a JSON object that `to_json` would
        write, with the current schema_version."""
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"config {path} must be a JSON object, got {json.dumps(doc)}")
        version = doc.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema_version {version!r}")
        return _from_doc(cls, doc, "config")


def _from_doc(kind, doc, where: str):
    """The dataclass `kind` built from doc, once doc is an object whose every
    key is a field of `kind` and holds a JSON value of the field's type."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {json.dumps(doc)}")
    types = {f.name: f.type for f in fields(kind)}
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown} for schema_version "
                         f"{SCHEMA_VERSION}")
    for key, value in doc.items():
        if is_dataclass(types[key]):
            doc[key] = _from_doc(types[key], value, key)
        elif not _is_json_type(value, types[key]):
            raise ValueError(f"{where} key {key!r} must be {_json_type_name(types[key])}, "
                             f"got {json.dumps(value)}")
    return kind(**doc)


def _is_json_type(value, kind) -> bool:
    """Whether a JSON value has the type of a config field: int, float,
    None, tuple[T, ...] (an array) or Optional[T]. Booleans are not numbers."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if isinstance(value, bool):
        return False
    if origin is tuple:
        return isinstance(value, list) and all(_is_json_type(v, args[0]) for v in value)
    if origin is typing.Union:
        return any(_is_json_type(value, k) for k in args)
    return isinstance(value, (int, float) if kind is float else kind)


def _json_type_name(kind) -> str:
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple:
        return "an array of " + {int: "integers", float: "numbers"}[args[0]]
    if origin is typing.Union:
        return " or ".join(_json_type_name(k) for k in args)
    return {int: "an integer", float: "a number", type(None): "null"}[kind]


def desk_preset() -> ExperimentConfig:
    """Reduced grid that a workstation can turn around: 2^14 symbols at the
    default 2 samples/symbol (N = 2^15), the default 1.4 km step (38 per
    span), seven span counts. The 140 scenarios took 59-61 s on a shared
    2-core machine, on the two processes with one FFT thread each that
    `run_dataset` picks there."""
    return ExperimentConfig(
        tx=TxConfig(n_symbols=2**14, seed=1234),
        spans=(1, 5, 10, 15, 20, 25, 30),
    )


def paper_preset() -> ExperimentConfig:
    """Full-scale grid: 2^17 symbols at the default 2 samples/symbol
    (N = 2^18), the default 1.4 km step (38 per span), spans 1..30. One
    span of a work unit's (10, N) stack took 2.0-2.1 s with one FFT thread
    on a shared 2-core machine, so the 20 units are about 21 min serial."""
    return ExperimentConfig(
        tx=TxConfig(n_symbols=2**17, seed=1234),
        spans=tuple(range(1, 31)),
    )


PRESETS = {"desk": desk_preset, "paper": paper_preset}


def _nfl_seed(cfg: ExperimentConfig, ip: int, inf_: int, idelta: int):
    return np.random.SeedSequence((cfg.seed, 0x0F1, ip, inf_, idelta))


def _chain_ase_seed(cfg: ExperimentConfig, ip: int, inf_: int, idelta: int) -> int:
    return int(np.random.SeedSequence((cfg.seed, 0xACE, ip, inf_, idelta)).generate_state(1)[0])


def _run_unit(cfg: ExperimentConfig, ip: int, inf_: int, ref: SampledField,
              profiles: list, fft_workers: int):
    """Simulate all probes of one (power, NF) pair as one stack; return its
    rows, the largest nonlinear phase of any split step (rad) and its wall
    time (s)."""
    started = time.monotonic()
    power = cfg.powers_dbm[ip]
    nf = cfg.nf_dbs[inf_]
    link = LinkConfig(cfg.fiber, max(cfg.spans), power, nf)
    probes = (add_tx_noise_floor(apply_perturbation(ref, profile), cfg.tx,
                                 _nfl_seed(cfg, ip, inf_, idelta))
              for idelta, profile in enumerate(profiles))
    ase_seeds = [_chain_ase_seed(cfg, ip, inf_, idelta) for idelta in range(len(profiles))]
    reports = {spans: [] for spans in cfg.spans}
    for k, received, max_phi in simulate_link(probes, link, ase_seeds, cfg.spans,
                                              workers=fft_workers):
        for fld, delta_db in zip(received, DELTA_GRID_DB):
            reports[k].append(measure(fld, REGIONS, delta_db))
    rows = []
    for spans in cfg.spans:
        truth = analytic_osnr(LinkConfig(cfg.fiber, spans, power, nf))
        rows.append(build_feature_row(reports[spans], truth, (power, spans, nf)))
    return rows, max_phi, time.monotonic() - started


def run_dataset(cfg: ExperimentConfig, out_path, fft_workers: typing.Optional[int] = None,
                log=print) -> list:
    """Run the scenario grid and persist feature rows as CSV.

    Resumable: rows already present in out_path are kept and their (power,
    NF) work units skipped, so interrupting and rerunning converges to the
    identical file an uninterrupted run would have produced. The config is
    written beside the CSV (`<out_path>.config.json`). An existing CSV whose
    config file is missing or differs, or which holds a row outside the grid
    or (as `estimator.load_rows` refuses) a scenario twice, is refused before
    anything is simulated, and its bytes are left as they are: its rows came
    from other seeds or physics, or from an edit.

    The pending units run in as many processes as `fiberlink.parallelism`
    gives for their count, in this process when that is one, each with that
    rule's FFT threads unless fft_workers sets them; the first log line
    states both. No row depends on either.
    """
    out_path = Path(out_path)
    config_path = out_path.with_name(out_path.name + ".config.json")
    config = cfg.to_json()
    rows_by_key = {}
    if out_path.exists():
        if not config_path.exists() or config_path.read_text() != config:
            raise ValueError(f"{out_path} was not written by this config ({config_path} is "
                             "missing or differs); move it aside or write to another path")
        grid_keys = {(p, nf, s) for p in cfg.powers_dbm for nf in cfg.nf_dbs for s in cfg.spans}
        for row in estimator.load_rows(out_path):
            if row.key not in grid_keys:
                raise ValueError(
                    f"{out_path} holds the scenario power={row.launch_power_dbm:+g} dBm "
                    f"nf={row.nf_db:g} dB spans={row.n_spans} outside the configured "
                    "grid; this config never writes that, so the file was edited")
            rows_by_key[row.key] = row

    units = [(ip, inf_) for ip, power in enumerate(cfg.powers_dbm)
             for inf_, nf in enumerate(cfg.nf_dbs)
             if not all((power, nf, s) in rows_by_key for s in cfg.spans)]
    if not units:
        log("dataset already complete; no simulations to run")
        return estimator.in_file_order(rows_by_key.values())
    processes, threads = parallelism(len(units))
    if fft_workers is not None:
        threads = fft_workers
    log(f"work units: {len(units)}, processes: {processes}, "
        f"FFT threads per process: {threads}")
    if rows_by_key:
        log(f"resuming: {len(rows_by_key)} rows already in {out_path}")
    ref = generate_reference(cfg.tx)
    profiles = [build_profile(ref, REGIONS, delta_db) for delta_db in DELTA_GRID_DB]
    if not out_path.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
        config_path.write_text(config)

    def results():
        """_run_unit's result per unit, in the order the units finish."""
        if processes == 1:
            for ip, inf_ in units:
                yield _run_unit(cfg, ip, inf_, ref, profiles, threads)
            return
        with ProcessPoolExecutor(processes) as pool:
            futures = [pool.submit(_run_unit, cfg, ip, inf_, ref, profiles, threads)
                       for ip, inf_ in units]
            for fut in as_completed(futures):
                yield fut.result()

    started = time.monotonic()
    tmp = out_path.with_suffix(out_path.suffix + ".tmp")
    for n, (unit_rows, max_phi, seconds) in enumerate(results(), 1):
        for row in unit_rows:
            rows_by_key[row.key] = row
        estimator.save_rows(list(rows_by_key.values()), tmp)
        os.replace(tmp, out_path)
        log(f"[{n}/{len(units)}] power={unit_rows[0].launch_power_dbm:+g} dBm "
            f"nf={unit_rows[0].nf_db:g} dB done in {seconds:.1f}s; "
            f"{cfg.fiber.steps_per_span} steps/span, max nonlinear phase "
            f"{max_phi:.3g} rad/step")
    log(f"dataset complete: {len(rows_by_key)} rows in {time.monotonic() - started:.0f}s")
    return estimator.in_file_order(rows_by_key.values())
