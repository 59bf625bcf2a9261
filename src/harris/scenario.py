"""ASLib-style scenario ingestion and PAR10 preprocessing.

A scenario directory holds four files:

    description.txt      YAML metadata; must carry the algorithm cutoff time
                         and, in most scenarios, the algorithm list
    feature_values.arff  one row per instance: instance_id, repetition, then
                         one numeric column per feature ('?' = missing)
    algorithm_runs.arff  one row per (instance, algorithm): runtime and a
                         runstatus column ("ok" = finished before the cutoff)
    cv.arff              fold assignment per instance, folds 1..10

Instances keep the order of their first appearance in feature_values.arff
across every matrix. A missing (instance, algorithm) evaluation is treated
like an unfinished run: run_ok is false and the stored runtime is clamped to
the cutoff, so PAR10 labeling later maps it to 10 * cutoff.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .errors import ConsistencyError, DomainError, EmptyScenarioError, ParseError

N_FOLDS = 10

DESCRIPTION_FILE = "description.txt"
FEATURES_FILE = "feature_values.arff"
RUNS_FILE = "algorithm_runs.arff"
CV_FILE = "cv.arff"


@dataclass(frozen=True)
class Scenario:
    """One algorithm-selection benchmark, fully materialized in memory."""

    name: str
    algorithm_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    features: np.ndarray      # n x p floats, NaN = missing
    performances: np.ndarray  # n x k runtimes, cutoff-clamped where run_ok is false
    run_ok: np.ndarray        # n x k bools
    cutoff: float
    fold_of: np.ndarray       # n ints in 1..N_FOLDS
    instance_ids: tuple[str, ...]

    def __post_init__(self):
        n, p = self.features.shape
        k = len(self.algorithm_names)
        if n < 1 or k < 2 or p < 1:
            raise DomainError(f"scenario needs n >= 1, k >= 2, p >= 1; got {n}, {k}, {p}")
        if self.performances.shape != (n, k) or self.run_ok.shape != (n, k):
            raise DomainError("performance/run_ok shapes do not match features")
        if self.fold_of.shape != (n,) or len(self.instance_ids) != n:
            raise DomainError("fold/instance bookkeeping does not match features")
        if self.cutoff <= 0:
            raise DomainError(f"cutoff must be positive, got {self.cutoff}")
        if not np.all((self.fold_of >= 1) & (self.fold_of <= N_FOLDS)):
            raise DomainError(f"fold ids must lie in 1..{N_FOLDS}")
        if not np.all(np.isfinite(self.performances)) or np.any(self.performances < 0):
            raise DomainError("performances must be finite and nonnegative")
        for arr in (self.features, self.performances, self.run_ok, self.fold_of):
            arr.setflags(write=False)

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_algorithms(self) -> int:
        return len(self.algorithm_names)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def par10(runtime: float, finished: bool, cutoff: float) -> float:
    """PAR10 cost of a single run: the runtime if it finished below the
    cutoff, 10 * cutoff otherwise."""
    if runtime < 0:
        raise DomainError(f"runtime must be nonnegative, got {runtime}")
    if cutoff <= 0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    if finished and runtime < cutoff:
        return float(runtime)
    return 10.0 * float(cutoff)


def par10_matrix(scenario: Scenario) -> np.ndarray:
    """PAR10 costs for every (instance, algorithm), in original seconds."""
    out = np.where(scenario.run_ok & (scenario.performances < scenario.cutoff),
                   scenario.performances, 10.0 * scenario.cutoff)
    return out.astype(float)


def filter_unsolved(scenario: Scenario) -> Scenario:
    """Drop every instance no algorithm finished; order is preserved."""
    keep = scenario.run_ok.any(axis=1)
    if not keep.any():
        raise EmptyScenarioError(f"{scenario.name}: every instance is unsolved")
    if keep.all():
        return scenario
    idx = np.nonzero(keep)[0]
    return replace(
        scenario,
        features=scenario.features[idx].copy(),
        performances=scenario.performances[idx].copy(),
        run_ok=scenario.run_ok[idx].copy(),
        fold_of=scenario.fold_of[idx].copy(),
        instance_ids=tuple(scenario.instance_ids[i] for i in idx),
    )


def column_medians(features) -> np.ndarray:
    """Per-column median over non-missing entries; all-missing columns get 0."""
    X = np.asarray(features, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        med = np.nanmedian(X, axis=0)
    return np.where(np.isnan(med), 0.0, med)


def impute_features(features, medians=None) -> np.ndarray:
    """Replace missing entries by column medians (computed from `features`
    itself unless training-fold medians are supplied)."""
    X = np.asarray(features, dtype=float).copy()
    if medians is None:
        medians = column_medians(X)
    rows, cols = np.nonzero(np.isnan(X))
    X[rows, cols] = np.asarray(medians, dtype=float)[cols]
    return X


@dataclass(frozen=True)
class ScaleParams:
    """Global min-max parameters of a cost matrix, for mapping to [0, 1]
    and back to original units."""

    min: float
    max: float

    @classmethod
    def fit(cls, costs) -> "ScaleParams":
        c = np.asarray(costs, dtype=float)
        return cls(min=float(c.min()), max=float(c.max()))

    def transform(self, costs) -> np.ndarray:
        c = np.asarray(costs, dtype=float)
        span = self.max - self.min
        if span == 0.0:
            return np.zeros_like(c)
        return (c - self.min) / span

    def invert(self, scaled) -> np.ndarray:
        s = np.asarray(scaled, dtype=float)
        return s * (self.max - self.min) + self.min


def scale_performances(costs) -> tuple[np.ndarray, ScaleParams]:
    """Min-max scale a cost matrix jointly over all entries.

    The affine map preserves per-instance argmins and rankings; the returned
    parameters allow reporting in original units. A constant matrix maps to
    all zeros.
    """
    params = ScaleParams.fit(costs)
    return params.transform(costs), params


# --- ASLib directory parsing -------------------------------------------------

_ATTRIBUTE = re.compile(r"""@attribute\s+('[^']*'|"[^"]*"|\S+)\s+\S""", re.IGNORECASE)


def _split_quoted(line: str) -> list[str]:
    """Split an ARFF data line on the commas outside '...' and "..." quotes.

    Either quote style may appear on one line. A quote opens a field only at
    its start (after spaces) and a backslash escapes the next character, as
    in csv.reader with escapechar='\\'.
    """
    fields, field, quote = [], "", None
    chars = iter(line)
    for ch in chars:
        if ch == "\\":
            field += next(chars, "")
        elif quote is not None:
            if ch == quote:
                quote = None
            else:
                field += ch
        elif ch in "'\"" and not field.strip():
            quote = ch
        elif ch == ",":
            fields.append(field)
            field = ""
        else:
            field += ch
    fields.append(field)
    return fields


def _read_arff(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Minimal ARFF reader: attribute names plus (line_number, fields) rows.

    Only the subset ASLib uses is supported: @relation/@attribute headers and
    comma-separated @data rows, with '%' comments and names or fields quoted
    with ' or ".
    """
    attributes: list[str] = []
    rows: list[tuple[int, list[str]]] = []
    in_data = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data:
                lowered = line.lower()
                if lowered.startswith("@attribute"):
                    match = _ATTRIBUTE.match(line)
                    if match is None:
                        raise ParseError(f"{path.name}:{lineno}: malformed @attribute line")
                    attributes.append(match.group(1).strip("'\""))
                elif lowered.startswith("@data"):
                    in_data = True
                elif lowered.startswith("@relation"):
                    continue
                else:
                    raise ParseError(f"{path.name}:{lineno}: unexpected header line {line!r}")
            else:
                if "'" in line:
                    fields = _split_quoted(line)
                else:
                    fields = next(csv.reader([line]))
                fields = [f.strip().strip("'\"") for f in fields]
                if len(fields) != len(attributes):
                    raise ParseError(
                        f"{path.name}:{lineno}: expected {len(attributes)} fields, got {len(fields)}"
                    )
                rows.append((lineno, fields))
    if not in_data:
        raise ParseError(f"{path.name}: no @data section")
    if not attributes:
        raise ParseError(f"{path.name}: no @attribute declarations")
    return attributes, rows


def _float_or_nan(value: str, path: Path, lineno: int) -> float:
    if value == "?" or value == "":
        return float("nan")
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"{path.name}:{lineno}: not a number: {value!r}") from None


def _require_column(attributes: list[str], name: str, path: Path) -> int:
    for i, attr in enumerate(attributes):
        if attr.lower() == name:
            return i
    raise ParseError(f"{path.name}: missing required column {name!r}")


def _algorithms_from_description(meta: dict) -> list[str]:
    names: list[str] = []
    metainfo = meta.get("metainfo_algorithms")
    if isinstance(metainfo, dict):
        names.extend(str(a) for a in metainfo)
    for key in ("algorithms_deterministic", "algorithms_stochastic"):
        value = meta.get(key)
        if value is None:
            continue
        if isinstance(value, str):
            parts = [v.strip() for v in value.split(",")]
        else:
            parts = [str(v).strip() for v in value]
        names.extend(p for p in parts if p)
    seen: dict[str, None] = {}
    for n in names:
        seen.setdefault(n, None)
    return list(seen)


def parse_scenario(directory) -> Scenario:
    """Parse an ASLib-style scenario directory into a Scenario.

    Raises ParseError for missing/malformed files and ConsistencyError when
    the files disagree about the instance set.
    """
    root = Path(directory)
    paths = {}
    for fname in (DESCRIPTION_FILE, FEATURES_FILE, RUNS_FILE, CV_FILE):
        p = root / fname
        if not p.is_file():
            raise ParseError(f"missing required file {fname} in {root}")
        paths[fname] = p

    try:
        meta = yaml.safe_load(paths[DESCRIPTION_FILE].read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ParseError(f"{DESCRIPTION_FILE}: invalid YAML: {exc}") from None
    if not isinstance(meta, dict):
        raise ParseError(f"{DESCRIPTION_FILE}: expected a YAML mapping")
    if "algorithm_cutoff_time" not in meta:
        raise ParseError(f"{DESCRIPTION_FILE}: missing algorithm_cutoff_time")
    try:
        cutoff = float(meta["algorithm_cutoff_time"])
    except (TypeError, ValueError):
        raise ParseError(f"{DESCRIPTION_FILE}: algorithm_cutoff_time is not a number") from None
    if cutoff <= 0:
        raise ParseError(f"{DESCRIPTION_FILE}: algorithm_cutoff_time must be positive")
    perf_measure = meta.get("performance_measures", "runtime")
    if isinstance(perf_measure, list):
        perf_measure = perf_measure[0] if perf_measure else "runtime"
    perf_measure = str(perf_measure).strip().lower()

    # Feature values: instance order is fixed here.
    fpath = paths[FEATURES_FILE]
    fattrs, frows = _read_arff(fpath)
    inst_col = _require_column(fattrs, "instance_id", fpath)
    rep_col = next((i for i, a in enumerate(fattrs) if a.lower() == "repetition"), None)
    skip = {inst_col} | ({rep_col} if rep_col is not None else set())
    feature_cols = [i for i in range(len(fattrs)) if i not in skip]
    if not feature_cols:
        raise ParseError(f"{fpath.name}: no feature columns")
    feature_names = tuple(fattrs[i] for i in feature_cols)

    instance_ids: list[str] = []
    index_of: dict[str, int] = {}
    feature_rows: list[list[float]] = []
    for lineno, fields in frows:
        inst = fields[inst_col]
        if inst in index_of:
            continue  # keep the first repetition only
        index_of[inst] = len(instance_ids)
        instance_ids.append(inst)
        feature_rows.append([_float_or_nan(fields[c], fpath, lineno) for c in feature_cols])
    if not instance_ids:
        raise ParseError(f"{fpath.name}: no data rows")
    features = np.asarray(feature_rows, dtype=float)
    n = len(instance_ids)

    # Algorithm runs.
    rpath = paths[RUNS_FILE]
    rattrs, rrows = _read_arff(rpath)
    r_inst = _require_column(rattrs, "instance_id", rpath)
    r_algo = _require_column(rattrs, "algorithm", rpath)
    r_status = _require_column(rattrs, "runstatus", rpath)
    lowered = [a.lower() for a in rattrs]
    if perf_measure in lowered:
        r_perf = lowered.index(perf_measure)
    else:
        reserved = {r_inst, r_algo, r_status}
        reserved |= {i for i, a in enumerate(lowered) if a == "repetition"}
        leftovers = [i for i in range(len(rattrs)) if i not in reserved]
        if not leftovers:
            raise ParseError(f"{rpath.name}: no performance column found")
        r_perf = leftovers[0]

    algorithm_names = _algorithms_from_description(meta)
    if not algorithm_names:
        seen: dict[str, None] = {}
        for _, fields in rrows:
            seen.setdefault(fields[r_algo], None)
        algorithm_names = list(seen)
    if len(algorithm_names) < 2:
        raise ParseError(f"{rpath.name}: need at least two algorithms")
    algo_index = {a: j for j, a in enumerate(algorithm_names)}
    k = len(algorithm_names)

    performances = np.full((n, k), cutoff, dtype=float)
    run_ok = np.zeros((n, k), dtype=bool)
    filled = np.zeros((n, k), dtype=bool)
    run_instances: set[str] = set()
    for lineno, fields in rrows:
        inst = fields[r_inst]
        run_instances.add(inst)
        if inst not in index_of:
            continue  # reported below as a set mismatch
        algo = fields[r_algo]
        if algo not in algo_index:
            raise ParseError(f"{rpath.name}:{lineno}: unknown algorithm {algo!r}")
        i, j = index_of[inst], algo_index[algo]
        if filled[i, j]:
            continue  # first repetition wins
        filled[i, j] = True
        status_ok = fields[r_status].strip().lower() == "ok"
        runtime = _float_or_nan(fields[r_perf], rpath, lineno)
        if status_ok and np.isfinite(runtime) and runtime >= 0:
            run_ok[i, j] = True
            performances[i, j] = min(runtime, cutoff)
        # otherwise keep the cutoff-clamped default (missing-evaluation policy)
    if run_instances != set(instance_ids):
        raise ConsistencyError(
            f"{rpath.name}: instance set differs from {fpath.name} "
            f"({len(run_instances)} vs {n} instances)"
        )

    # CV folds.
    cpath = paths[CV_FILE]
    cattrs, crows = _read_arff(cpath)
    c_inst = _require_column(cattrs, "instance_id", cpath)
    c_fold = _require_column(cattrs, "fold", cpath)
    fold_of = np.zeros(n, dtype=int)
    have_fold = np.zeros(n, dtype=bool)
    cv_instances: set[str] = set()
    for lineno, fields in crows:
        inst = fields[c_inst]
        cv_instances.add(inst)
        if inst not in index_of:
            continue
        try:
            fold = int(float(fields[c_fold]))
        except ValueError:
            raise ParseError(f"{cpath.name}:{lineno}: not a fold id: {fields[c_fold]!r}") from None
        if not 1 <= fold <= N_FOLDS:
            raise ParseError(f"{cpath.name}:{lineno}: fold {fold} outside 1..{N_FOLDS}")
        i = index_of[inst]
        if not have_fold[i]:
            fold_of[i] = fold
            have_fold[i] = True
    if cv_instances != set(instance_ids) or not have_fold.all():
        raise ConsistencyError(
            f"{cpath.name}: instance set differs from {fpath.name}"
        )

    return Scenario(
        name=str(meta.get("scenario_id", root.name)),
        algorithm_names=tuple(algorithm_names),
        feature_names=feature_names,
        features=features,
        performances=performances,
        run_ok=run_ok,
        cutoff=cutoff,
        fold_of=fold_of,
        instance_ids=tuple(instance_ids),
    )
