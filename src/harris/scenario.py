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

Only the first feature row of an instance and the first run row of an
(instance, algorithm) pair are read; later repetitions and run rows of
unknown instances are not converted, so a bad value there is no error. Every
cv.arff row of a known instance is checked. Refused, with the file and, for
data rows, the line: a byte that is not UTF-8 (in any file, with its line), a
cell that is not a number ('?' and an empty cell are missing), an infinite
feature value (a 'nan' cell counts as missing and is imputed), a fold that is
not an integer in 1..10 ('3.0' is fold 3, '1.7' and 'inf' are errors), an
algorithm_cutoff_time that is not a positive finite number ('.inf', '.nan'
and 'true' included), an algorithm list that is neither a list nor a string,
and YAML nested past the recursion limit.

Speed: a data line without quotes is split with str.split and its fields are
stripped only when it holds a space or an unprintable character, the only
characters str.strip removes. The run table and the feature block are built
with numpy from one comprehension each; a bad cell is then located by a
per-row rescan, which runs only on that error path, so errors keep the
file:line of the first offending row in file order.
"""

from __future__ import annotations

import contextlib
import csv
import math
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NoReturn

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
    itself unless training-fold medians, one per column, are supplied)."""
    X = np.asarray(features, dtype=float).copy()
    medians = column_medians(X) if medians is None else np.asarray(medians, dtype=float)
    if medians.shape != X.shape[1:]:
        raise DomainError(f"need one median per feature column ({X.shape[-1]}), got {medians.size}")
    rows, cols = np.nonzero(np.isnan(X))
    X[rows, cols] = medians[cols]
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

@contextlib.contextmanager
def decoding_errors_as(error_type, path, label=None):
    """Re-raise a UnicodeDecodeError from the block as error_type naming
    label:line (label defaults to path) of the file's first line that is not
    UTF-8; only this error path rescans the file for that line."""
    try:
        yield
    except UnicodeDecodeError:
        # surrogateescape decodes each bad byte to one of U+DC80..U+DCFF
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            lineno = next(n for n, line in enumerate(fh, 1) if any(
                "\udc80" <= c <= "\udcff" for c in line))
        raise error_type(f"{label or path}:{lineno}: not valid UTF-8") from None


def read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """(line, fields) of every row of a UTF-8 CSV file, a blank row as [].
    A byte that is not UTF-8 or an unreadable row (say, a field over
    csv.field_size_limit()) raises DomainError naming file:line."""
    with decoding_errors_as(DomainError, path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise DomainError(f"{path}:{reader.line_num}: unreadable CSV line: {exc}") from None


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
    with decoding_errors_as(ParseError, path, path.name), open(path, encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        for lineno, raw in lines:
            line = raw.strip()
            if not line or line[0] == "%":
                continue
            lowered = line.lower()
            if lowered.startswith("@attribute"):
                match = _ATTRIBUTE.match(line)
                if match is None:
                    raise ParseError(f"{path.name}:{lineno}: malformed @attribute line")
                attributes.append(match.group(1).strip("'\""))
            elif lowered.startswith("@data"):
                break
            elif not lowered.startswith("@relation"):
                raise ParseError(f"{path.name}:{lineno}: unexpected header line {line!r}")
        else:
            raise ParseError(f"{path.name}: no @data section")
        width = len(attributes)
        for lineno, raw in lines:
            line = raw.strip()
            if not line or line[0] == "%":
                continue
            if "'" in line:
                fields = [f.strip().strip("'\"") for f in _split_quoted(line)]
            elif '"' in line:
                try:
                    fields = [f.strip().strip("'\"") for f in next(csv.reader([line]))]
                except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                    raise ParseError(f"{path.name}:{lineno}: unreadable data line: {exc}") from None
            else:
                fields = line.split(",")
                # every whitespace character but ' ' is unprintable
                if " " in line or not line.isprintable():
                    fields = [f.strip() for f in fields]
            if len(fields) != width:
                raise ParseError(f"{path.name}:{lineno}: expected {width} fields, got {len(fields)}")
            rows.append((lineno, fields))
    if not attributes:
        raise ParseError(f"{path.name}: no @attribute declarations")
    return attributes, rows


_NAN = float("nan")


def _floats(values) -> list[float]:
    """float() of each ARFF cell, '?' and '' (missing) as NaN; a bad cell
    raises a bare ValueError, and the caller rescans for its file:line."""
    return [float(v) if v != "?" and v else _NAN for v in values]


def _float_or_nan(value: str, path: Path, lineno: int) -> float:
    if value == "?" or value == "":
        return _NAN
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"{path.name}:{lineno}: not a number: {value!r}") from None


def _raise_bad_feature(rows, cols: list[int], path: Path) -> NoReturn:
    """Raise the error of the first feature cell, in file order, that is not
    a number or is infinite."""
    for lineno, fields in rows:
        for c in cols:
            if math.isinf(_float_or_nan(fields[c], path, lineno)):
                raise ParseError(f"{path.name}:{lineno}: infinite feature value: {fields[c]!r}")
    raise AssertionError("no bad feature cell")


def _raise_bad_run(rows, cols: tuple[int, int, int], index_of: dict, algo_index: dict,
                   path: Path) -> NoReturn:
    """Raise the error of the first bad row of the runs file: an unknown
    algorithm, or a runtime that is not a number in the first row of its
    (instance, algorithm) pair. Rows of unknown instances are not read."""
    r_inst, r_algo, r_perf = cols
    seen = set()
    for lineno, fields in rows:
        if fields[r_inst] not in index_of:
            continue
        pair = (fields[r_inst], fields[r_algo])
        if pair[1] not in algo_index:
            raise ParseError(f"{path.name}:{lineno}: unknown algorithm {pair[1]!r}")
        if pair not in seen:
            seen.add(pair)
            _float_or_nan(fields[r_perf], path, lineno)
    raise AssertionError("no bad run row")


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
            value = value.split(",")
        elif not isinstance(value, (list, dict)):
            raise ParseError(f"{DESCRIPTION_FILE}: {key} must be a list or a comma-separated string")
        names.extend(p for p in (str(v).strip() for v in value) if p)
    return list(dict.fromkeys(names))  # first occurrence order


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
        with decoding_errors_as(ParseError, paths[DESCRIPTION_FILE], DESCRIPTION_FILE):
            meta = yaml.safe_load(paths[DESCRIPTION_FILE].read_text(encoding="utf-8"))
    except (yaml.YAMLError, RecursionError) as exc:  # RecursionError: nested too deeply
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
    if isinstance(meta["algorithm_cutoff_time"], bool) or not math.isfinite(cutoff):
        raise ParseError(
            f"{DESCRIPTION_FILE}: algorithm_cutoff_time must be a positive finite number")
    perf_measure = meta.get("performance_measures", "runtime")
    if isinstance(perf_measure, list):
        perf_measure = perf_measure[0] if perf_measure else "runtime"
    perf_measure = str(perf_measure).strip().lower()

    # Feature values: instance order is fixed here, and each instance keeps
    # its first repetition only.
    fpath = paths[FEATURES_FILE]
    fattrs, frows = _read_arff(fpath)
    inst_col = _require_column(fattrs, "instance_id", fpath)
    rep_col = next((i for i, a in enumerate(fattrs) if a.lower() == "repetition"), None)
    skip = {inst_col} | ({rep_col} if rep_col is not None else set())
    feature_cols = [i for i in range(len(fattrs)) if i not in skip]
    if not feature_cols:
        raise ParseError(f"{fpath.name}: no feature columns")
    feature_names = tuple(fattrs[i] for i in feature_cols)

    first_rows: dict[str, tuple[int, list[str]]] = {}
    for row in frows:
        first_rows.setdefault(row[1][inst_col], row)
    if not first_rows:
        raise ParseError(f"{fpath.name}: no data rows")
    instance_ids = tuple(first_rows)
    index_of = {inst: i for i, inst in enumerate(instance_ids)}
    try:
        features = np.array([_floats(map(fields.__getitem__, feature_cols))
                             for _, fields in first_rows.values()], dtype=float)
    except ValueError:
        features = None
    if features is None or np.isinf(features).any():
        _raise_bad_feature(first_rows.values(), feature_cols, fpath)
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
        algorithm_names = list(dict.fromkeys(fields[r_algo] for _, fields in rrows))
    if len(algorithm_names) < 2:
        raise ParseError(f"{rpath.name}: need at least two algorithms")
    algo_index = {a: j for j, a in enumerate(algorithm_names)}
    k = len(algorithm_names)

    # Rows of unknown instances are reported below as a set mismatch; the
    # first row of each (instance, algorithm) pair wins.
    run_inst = [fields[r_inst] for _, fields in rrows]
    row_i = np.array([index_of.get(inst, -1) for inst in run_inst], dtype=np.int64)
    row_j = np.array([algo_index.get(fields[r_algo], -1) for _, fields in rrows], dtype=np.int64)
    known = row_i >= 0
    if (row_j[known] < 0).any():
        _raise_bad_run(rrows, (r_inst, r_algo, r_perf), index_of, algo_index, rpath)
    pairs, first = np.unique(np.where(known, row_i * k + row_j, -1), return_index=True)
    read = pairs >= 0  # key -1 gathers the rows of unknown instances
    pairs, first = pairs[read], first[read].tolist()
    try:
        runtime = np.array(_floats(rrows[r][1][r_perf] for r in first), dtype=float)
    except ValueError:
        _raise_bad_run(rrows, (r_inst, r_algo, r_perf), index_of, algo_index, rpath)
    ok = np.array([rrows[r][1][r_status].strip().lower() == "ok" for r in first], dtype=bool)
    ok &= np.isfinite(runtime) & (runtime >= 0)
    # a pair without a finished run keeps the cutoff (missing-evaluation policy)
    performances = np.full(n * k, cutoff, dtype=float)
    run_ok = np.zeros(n * k, dtype=bool)
    done = pairs[ok]
    performances[done] = np.minimum(runtime[ok], cutoff)
    run_ok[done] = True
    performances, run_ok = performances.reshape(n, k), run_ok.reshape(n, k)
    run_instances = set(run_inst)
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
            fold = float(fields[c_fold])
        except ValueError:
            fold = None
        if fold is None or not fold.is_integer():
            raise ParseError(f"{cpath.name}:{lineno}: not a fold id: {fields[c_fold]!r}")
        fold = int(fold)
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
