"""Least-squares OSNR regression over APSD features.

Each scenario contributes one feature row: the reference-region APSD of the
strongest attenuation probe plus the notch APSDs of all five probes. OSNR in
dB is modeled as an affine function of those six numbers; coefficients come
from a least-squares fit against the analytic ground truth, restricted to
scenarios at or below the 30 dB cap where the notch still carries signal,
and are scored by 5-fold cross-validation. The cap and the fold count are
module constants, not parameters.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .spectrum import ApsdReport

DELTA_GRID_DB = (-10.0, -5.0, 0.0, 5.0, 10.0)
OSNR_CAP_DB = 30.0
N_FOLDS = 5

FEATURE_NAMES = (
    "intercept",
    "p_ref",
    "p_n[-10dB]",
    "p_n[-5dB]",
    "p_n[0dB]",
    "p_n[+5dB]",
    "p_n[+10dB]",
)

CSV_COLUMNS = (
    "power_dbm", "n_spans", "nf_db", "truth_osnr_db", "p_ref_db",
    "p_n_m10_db", "p_n_m5_db", "p_n_0_db", "p_n_p5_db", "p_n_p10_db",
)


class RankDeficientError(ValueError):
    """Design matrix lost a direction; carries the collinear feature names."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(
            "design matrix is rank deficient; collinear columns: "
            + ", ".join(self.columns)
        )


@dataclass
class FeatureRow:
    """Regression inputs for one (launch power, span count, NF) scenario."""

    p_ref_db: float
    p_n_db: tuple          # five notch APSDs ordered by ascending boost
    truth_osnr_db: float
    launch_power_dbm: float
    n_spans: int
    nf_db: float

    def __post_init__(self):
        self.p_ref_db = float(self.p_ref_db)
        self.p_n_db = tuple(float(v) for v in self.p_n_db)
        self.truth_osnr_db = float(self.truth_osnr_db)
        self.launch_power_dbm = float(self.launch_power_dbm)
        self.n_spans = int(self.n_spans)
        self.nf_db = float(self.nf_db)
        if len(self.p_n_db) != len(DELTA_GRID_DB):
            raise ValueError(f"need {len(DELTA_GRID_DB)} notch APSDs, got {len(self.p_n_db)}")
        vals = (self.p_ref_db, *self.p_n_db, self.truth_osnr_db)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("feature row contains non-finite values")
        # the key: a NaN never equals itself, so it passes "each scenario once"
        if not (math.isfinite(self.launch_power_dbm) and math.isfinite(self.nf_db)):
            raise ValueError(f"scenario power={self.launch_power_dbm} dBm "
                             f"nf={self.nf_db} dB not finite")
        if self.n_spans < 1:
            raise ValueError(f"n_spans must be >= 1, got {self.n_spans}")

    @property
    def key(self) -> tuple:
        """The scenario's identity, (launch_power_dbm, nf_db, n_spans): what
        a dataset holds at most once, and the order files are written in."""
        return (self.launch_power_dbm, self.nf_db, self.n_spans)

    def features(self) -> np.ndarray:
        """Design-matrix row including the intercept column."""
        return np.array([1.0, self.p_ref_db, *self.p_n_db])


def build_feature_row(reports: Sequence[ApsdReport], truth_osnr_db: float,
                      meta) -> FeatureRow:
    """Assemble a row from the five probe measurements of one scenario.

    meta is (launch_power_dbm, n_spans, nf_db). The reference-region APSD is
    taken from the -10 dB probe alone; it barely varies across probes by
    construction, so one term carries all of its information.
    """
    by_delta = {}
    for rep in reports:
        if rep.delta_a_db in by_delta:
            raise ValueError(f"duplicate probe at boost {rep.delta_a_db:+g} dB")
        by_delta[rep.delta_a_db] = rep
    if sorted(by_delta) != sorted(DELTA_GRID_DB):
        raise ValueError(
            f"probe grid incomplete: have {sorted(by_delta)}, need {list(DELTA_GRID_DB)}"
        )
    power, spans, nf = meta
    return FeatureRow(
        p_ref_db=by_delta[DELTA_GRID_DB[0]].p_ref_db,
        p_n_db=tuple(by_delta[d].p_n_db for d in DELTA_GRID_DB),
        truth_osnr_db=truth_osnr_db,
        launch_power_dbm=float(power),
        n_spans=int(spans),
        nf_db=float(nf),
    )


@dataclass
class FitCoefficients:
    """k0..k6 of the affine OSNR model (k0 in dB, the rest per-dB weights)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(FEATURE_NAMES),) or not np.all(np.isfinite(self.values)):
            raise ValueError(f"need {len(FEATURE_NAMES)} finite coefficients")

    def as_dict(self) -> dict:
        return {f"k{i}": float(v) for i, v in enumerate(self.values)}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "FitCoefficients":
        """Read what `save` writes: a JSON object whose keys are exactly k<i>
        for each of FEATURE_NAMES, all numbers. Another model's file is refused."""
        raw = json.loads(Path(path).read_text())
        names = [f"k{i}" for i in range(len(FEATURE_NAMES))]
        if not isinstance(raw, dict):
            raise ValueError(f"{path} must hold a JSON object, got {json.dumps(raw)}")
        missing, extra = [k for k in names if k not in raw], sorted(set(raw) - set(names))
        if missing or extra:
            raise ValueError(f"{path} must hold the keys k0..{names[-1]}: "
                             f"missing {missing}, extra {extra}")
        bad = [k for k in names
               if isinstance(raw[k], bool) or not isinstance(raw[k], (int, float))]
        if bad:
            raise ValueError(f"{path} values of {bad} must be numbers")
        return cls(np.array([raw[k] for k in names], dtype=float))


@dataclass
class Dataset:
    """Feature rows, of which those at or below OSNR_CAP_DB are fitted and scored.

    Rows whose ground truth exceeds the OSNR cap take no part in fitting or
    scoring; at very high OSNR the notch bottoms out on the transmitter noise
    floor and carries no usable information.
    """

    rows: list

    def capped(self) -> list:
        return [r for r in self.rows if r.truth_osnr_db <= OSNR_CAP_DB]


def in_file_order(rows) -> list:
    """Rows in the order save_rows writes them: by power, NF, spans."""
    return sorted(rows, key=lambda r: r.key)


def write_csv(path, header, rows) -> None:
    """The one CSV writer: every float as repr(float(v)), its full-precision
    decimal, and every other value as csv writes it, so the same numbers
    always give the same bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def save_rows(rows: Sequence[FeatureRow], path) -> None:
    """Write rows sorted by scenario key, so a rerun with the same config
    reproduces the file byte for byte."""
    write_csv(path, CSV_COLUMNS, ([r.launch_power_dbm, r.n_spans, r.nf_db, r.truth_osnr_db,
                                   r.p_ref_db, *r.p_n_db] for r in in_file_order(rows)))


def load_rows(path) -> list:
    """The rows of a dataset CSV. A row that is not the header's length or
    does not parse is refused by its line; a scenario that appears twice by
    name, as fitting it would weight it twice and save_rows never writes it."""
    rows, seen = [], set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != CSV_COLUMNS:
            raise ValueError(f"unexpected dataset columns in {path}")
        for rec in filter(None, reader):  # a blank line is no row
            if len(rec) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {reader.line_num} has {len(rec)} fields; "
                                 f"the header has {len(CSV_COLUMNS)}")
            power, spans, nf, truth, p_ref, *p_n = rec
            try:
                row = FeatureRow(p_ref, tuple(p_n), truth, power, int(spans), nf)
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
            if row.key in seen:
                raise ValueError(f"{path} holds the scenario power={row.launch_power_dbm:+g} "
                                 f"dBm nf={row.nf_db:g} dB spans={row.n_spans} twice")
            seen.add(row.key)
            rows.append(row)
    return rows


def _design(rows: Sequence[FeatureRow]):
    x = np.array([r.features() for r in rows])
    y = np.array([r.truth_osnr_db for r in rows])
    return x, y


def fit_least_squares(data: Dataset) -> FitCoefficients:
    """Fit k0..k6 on the capped rows with one SVD-based least-squares call.

    Rank deficiency (for example a linear-regime dataset where every notch
    APSD sits on the same floor) raises RankDeficientError naming the
    dependent columns instead of silently returning one of many minimizers.
    """
    rows = data.capped()
    if len(rows) < len(FEATURE_NAMES):
        raise ValueError(f"need >= {len(FEATURE_NAMES)} training rows under the cap, "
                         f"have {len(rows)}")
    x, y = _design(rows)
    coeffs, _, _, s = np.linalg.lstsq(x, y, rcond=None)
    n_null = np.count_nonzero(s < s[0] * max(x.shape) * np.finfo(float).eps * 1e3)
    if n_null:
        # The columns with weight in the right null space are the ones that
        # collapsed onto each other; a column outside every dependency keeps
        # only rounding-level weight, far under 1e-6.
        null = np.linalg.svd(x, full_matrices=False)[2][-n_null:]
        weight = np.linalg.norm(null, axis=0)
        raise RankDeficientError([FEATURE_NAMES[i] for i in np.nonzero(weight > 1e-6)[0]])
    return FitCoefficients(coeffs)


def predict_osnr(coeffs: FitCoefficients, row: FeatureRow) -> float:
    """Affine model evaluation, dB in -> dB out."""
    return float(coeffs.values @ row.features())


@dataclass
class EvalReport:
    rmse_db: float
    bias_db: float
    max_abs_error_db: float
    n_rows: int
    per_power_rmse_db: dict
    records: list = field(repr=False, default_factory=list)  # (truth, predicted, power, spans, NF)

    def as_dict(self) -> dict:
        return {
            "rmse_db": self.rmse_db,
            "bias_db": self.bias_db,
            "max_abs_error_db": self.max_abs_error_db,
            "n_rows": self.n_rows,
            "per_power_rmse_db": self.per_power_rmse_db,
        }


def _report(records: list) -> EvalReport:
    """Error statistics over (truth, predicted, power, spans, NF) records."""
    errors = np.array([pred - truth for truth, pred, *_ in records])
    by_power = {}
    for rec, err in zip(records, errors):
        by_power.setdefault(rec[2], []).append(err)
    return EvalReport(
        rmse_db=float(np.sqrt(np.mean(errors**2))),
        bias_db=float(np.mean(errors)),
        max_abs_error_db=float(np.max(np.abs(errors))),
        n_rows=len(records),
        per_power_rmse_db={p: float(np.sqrt(np.mean(np.array(e) ** 2)))
                           for p, e in sorted(by_power.items())},
        records=records,
    )


def evaluate(data: Dataset, coeffs: FitCoefficients) -> EvalReport:
    """Score predictions on the capped rows."""
    rows = data.capped()
    if not rows:
        raise ValueError("no test rows under the OSNR cap")
    return _report([(r.truth_osnr_db, predict_osnr(coeffs, r), r.launch_power_dbm,
                     r.n_spans, r.nf_db) for r in rows])


def kfold_by_spans(dataset: Dataset):
    """N_FOLDS scenario-level folds stratified by span count, shuffled with
    seed 0.

    Yields (train_idx, test_idx) pairs covering every row exactly once on
    the test side.
    """
    rng = np.random.default_rng(np.random.SeedSequence((0, 0xF01D)))
    by_spans = {}
    for i, row in enumerate(dataset.rows):
        by_spans.setdefault(row.n_spans, []).append(i)
    folds = [[] for _ in range(N_FOLDS)]
    for spans in sorted(by_spans):
        idx = np.array(by_spans[spans])
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % N_FOLDS].append(int(i))
    for k in range(N_FOLDS):
        test = sorted(folds[k])
        train = sorted(i for j, f in enumerate(folds) if j != k for i in f)
        yield np.array(train), np.array(test)


def cross_validate(dataset: Dataset):
    """Held-out evaluation: fit on each fold's complement, score the fold,
    pool residuals. Returns (EvalReport, list of per-fold coefficients)."""
    def part(idx):
        return Dataset([dataset.rows[i] for i in idx])

    records = []
    all_coeffs = []
    for train, test in kfold_by_spans(dataset):
        coeffs = fit_least_squares(part(train))
        all_coeffs.append(coeffs)
        records += evaluate(part(test), coeffs).records
    return _report(records), all_coeffs
