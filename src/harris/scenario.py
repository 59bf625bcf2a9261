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
the cutoff, so PAR10 labeling later maps it to 10 * cutoff. One quoted-part
pattern serves header names and data fields: a name or field quoted with ' or
" keeps the whitespace inside its quotes and loses that outside, and inside
quotes, and only there, a backslash makes the next character literal, an
escaped quote at either end of the value included.

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

Speed and memory: a data section is read in one call and kept as its UTF-8
bytes. A plain one, one whose lines are printable, not empty, free of quotes,
'%' and spaces, and hold width - 1 commas each, is checked for those
conditions by one numpy pass over its bytes, then split in blocks of whole
rows of at most BLOCK_FIELDS fields (one row if a row holds more), one
str.split per block, each block only when its reader asks for it. Any other
section (a comment or blank line, a quoted field, whitespace, a wrong field
count) is read one line at a time into a single block, with the same fields
and the same errors. Either way every error of the file's format is raised
before any cell is converted. Each reader reduces a block to arrays before it
asks for the next, so a parse holds a file's bytes, one block of strings
and the arrays it returns, not one string per field of a file. No container
is kept per row, as one kept per row sets off a garbage collection every 700
rows, and the older generations' passes walk every row kept so far: a block's
fields go into one flat list (column c is cells[c::width]) beside its line
numbers. Without repetitions the feature reader drops the id and repetition
columns from a block's list in place and converts the rest in one
np.fromiter pass; the run table is built with numpy from each block's column
slices, the pairs of earlier blocks marked in a bool array, and the folds
from the joined columns of the small cv.arff. A block's one conversion also
gives the positions of the cells float() refuses, and its reader raises the
block's first bad row from them and its arrays; earlier blocks converted
cleanly, so errors keep the file:line of the first offending row in file
order, and a run table's instance-set mismatch is reported after its last
block.
"""

from __future__ import annotations

import contextlib
import csv
import math
import re
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import compress, islice, repeat
from pathlib import Path

import numpy as np
import yaml

from .errors import ConsistencyError, DomainError, EmptyScenarioError, ParseError
from .losses import real_array

N_FOLDS = 10
# a plain data section is split in blocks of whole rows holding at most this
# many fields (one row if a row holds more), each reduced before the next; a
# block of 4,096 short fields takes about 300 KB as strings, and parsed faster
# than blocks of 32,768 or 65,536 fields
BLOCK_FIELDS = 1 << 12

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


def _real_matrix(values, what: str) -> np.ndarray:
    """values as a float matrix, not copied when it already is one; DomainError
    naming what unless it has at least one row and one column of real numbers."""
    a = real_array(values, what)
    if a.ndim != 2 or 0 in a.shape:
        raise DomainError(f"{what} must be a nonempty matrix, got shape {a.shape}")
    return a


def column_medians(features) -> np.ndarray:
    """Per-column median over non-missing entries; all-missing columns get 0."""
    X = _real_matrix(features, "features")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        med = np.nanmedian(X, axis=0)
    return np.where(np.isnan(med), 0.0, med)


def impute_features(features, medians) -> np.ndarray:
    """Replace missing entries by the given column medians, one per column:
    the training fold's, from column_medians, so that no test row is imputed
    from its own fold."""
    X = _real_matrix(features, "features").copy()
    medians = real_array(medians, "medians")
    if medians.shape != X.shape[1:]:
        raise DomainError(f"need one median per feature column ({X.shape[-1]}), got {medians.size}")
    rows, cols = np.nonzero(np.isnan(X))
    X[rows, cols] = medians[cols]
    return X


@dataclass(frozen=True)
class ScaleParams:
    """Global min-max parameters of a cost matrix, as scale_performances
    found them, for mapping scaled costs back to original units."""

    min: float
    max: float

    def invert(self, scaled) -> np.ndarray:
        s = real_array(scaled, "scaled costs")
        return s * (self.max - self.min) + self.min


def scale_performances(costs) -> tuple[np.ndarray, ScaleParams]:
    """Min-max scale a cost matrix jointly over all entries.

    The affine map preserves per-instance argmins and rankings; the returned
    parameters allow reporting in original units. A constant matrix maps to
    all zeros. Costs that are not all finite, or whose range max - min
    overflows, raise DomainError.
    """
    c = _real_matrix(costs, "costs")
    if not np.isfinite(c).all():
        raise DomainError("costs must be finite real numbers")
    params = ScaleParams(min=float(c.min()), max=float(c.max()))
    span = params.max - params.min
    if not math.isfinite(span):
        raise DomainError(f"costs must span a finite range, got {params.min!r} to {params.max!r}")
    return (np.zeros_like(c) if span == 0.0 else (c - params.min) / span), params


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


# The one quoting rule of names and fields: a part quoted with ' or " opens
# only at the start of a name or field (after whitespace) and runs to the same
# quote or the line's end; inside it, and only there, a backslash makes the
# next character literal ("a backslash will escape individual characters",
# https://waikato.github.io/weka-wiki/formats_and_processing/arff_stable/),
# and one that ends the line is dropped.
_QUOTED = r"""(?P<quote>['"])(?P<text>(?:\\(?:.|$)|(?!(?P=quote))[^\\])*)"""
_ESCAPE = re.compile(r"\\(.?)")
# a name: a closed quoted part, else the first word; a data field: whitespace,
# a quoted part or none, the rest (quotes and backslashes ordinary), a comma
_ATTRIBUTE = re.compile(rf"@attribute\s+(?:{_QUOTED}(?P=quote)|(\S+))\s+\S", re.IGNORECASE)
_FIELD = re.compile(rf"\s*(?:{_QUOTED}(?P=quote)?)?([^,]*)(,?)")


_QUOTES = "'\""
# a quoted part's text up to the unescaped quotes at its end and the backslash
# that may end the line after them (an escape is one unit)
_OPEN_END = re.compile(r"((?:\\(?:.|$)|[^\\])*?)['\"]*\\?")


def _unquoted(text: str, rest: str) -> str:
    """A name or field as read: its quoted text unescaped, then the rest
    without its trailing whitespace, without the unescaped quotes at the ends
    (an escaped quote is literal wherever it sits)."""
    rest = rest.rstrip()
    if "\\" not in text:  # a test that spares most fields the slower path
        return (text + rest).strip(_QUOTES)
    text, rest = text.lstrip(_QUOTES), rest.rstrip(_QUOTES)
    if not rest:
        text = _OPEN_END.fullmatch(text)[1]
    return _ESCAPE.sub(r"\1", text) + rest


def _split_quoted(line: str) -> list[str]:
    """The fields of an ARFF data line, split on the commas outside quotes."""
    fields = []
    for _, text, rest, comma in _FIELD.findall(line):
        fields.append(_unquoted(text, rest))
        if not comma:
            return fields


# A data block: the line numbers of its rows and their fields in one flat list,
# so field c of row r is cells[r * width + c] and column c is cells[c::width].
Block = tuple[Sequence[int], list[str]]


def _read_arff(path: Path) -> tuple[list[str], Iterator[Block]]:
    """Minimal ARFF reader: attribute names and the data rows in blocks of
    whole rows, in file order.

    The whole file is read and checked before this returns, so every error
    of the file's format is raised here, before any cell is converted. A
    plain data section is then split one block at a time as the blocks are
    iterated, each of at most BLOCK_FIELDS fields (one row if a row holds
    more); any other section is read one line at a time into one block.

    Only the subset ASLib uses is supported: @relation/@attribute headers and
    comma-separated @data rows, with '%' comments and names or fields quoted
    with ' or ".
    """
    attributes: list[str] = []
    with decoding_errors_as(ParseError, path, path.name), open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line[0] == "%":
                continue
            lowered = line.lower()
            if lowered.startswith("@attribute"):
                match = _ATTRIBUTE.match(line)
                if match is None:
                    raise ParseError(f"{path.name}:{lineno}: malformed @attribute line")
                _, text, word = match.groups("")
                attributes.append(_unquoted(text, word))
            elif lowered.startswith("@data"):
                break
            elif not lowered.startswith("@relation"):
                raise ParseError(f"{path.name}:{lineno}: unexpected header line {line!r}")
        else:
            raise ParseError(f"{path.name}: no @data section")
        # universal newlines, as in the loop: lines end in "\n"; the text itself
        # is dropped at once, so that only its UTF-8 bytes are held
        data = fh.read().encode()
    width, first = len(attributes), lineno + 1
    bounds = _plain_bounds(data, width)
    if bounds is None:
        blocks = iter([_split_lines(data.decode().split("\n"), first, width, path)])
    else:
        blocks = _plain_blocks(data, bounds, first, width)
    if not attributes:
        raise ParseError(f"{path.name}: no @attribute declarations")
    return attributes, blocks


# the bytes of a plain data section: printable ASCII but ' " % and space, a
# line end, and every byte of a UTF-8 sequence past ASCII
_PLAIN_BYTES = bytes(c for c in range(256)
                     if c == 10 or (32 < c < 127 and chr(c) not in "'\"%") or c > 127)


def _plain_bounds(data: bytes, width: int) -> np.ndarray | None:
    """The byte offsets around the lines of a plain data section, UTF-8
    encoded (-1, each line end, then the end of the last line; a line end
    that ends the section ends no line), or None if it is not plain. A
    section is plain when it has lines, none of them empty, each with
    width - 1 commas, all printable and holding no quote, '%' or space: then
    no line is a comment, no field needs stripping, and the section's fields
    are those of its lines, in order."""
    size = len(data) - data.endswith(b"\n")
    if not size or data.translate(None, _PLAIN_BYTES):
        return None
    if not data.isascii() and not data.decode().replace("\n", "").isprintable():
        return None
    codes = np.frombuffer(data, np.uint8, size)
    bounds = np.concatenate(([-1], np.flatnonzero(codes == 10), [size]))
    if np.diff(bounds).min() < 2:
        return None  # an empty line
    commas = np.searchsorted(np.flatnonzero(codes == 44), bounds)
    if (np.diff(commas) != width - 1).any():
        return None
    return bounds


def _plain_blocks(data: bytes, bounds: np.ndarray, first: int, width: int) -> Iterator[Block]:
    """The rows of a plain section in blocks of at most BLOCK_FIELDS fields
    (one row if a row holds more), each split in one call when it is reached."""
    rows, lines = max(1, BLOCK_FIELDS // width), bounds.size - 1
    for start in range(0, lines, rows):
        stop = min(start + rows, lines)
        piece = data[bounds[start] + 1:bounds[stop]].decode()
        yield range(first + start, first + stop), piece.replace("\n", ",").split(",")


def _split_lines(lines: list[str], first: int, width: int,
                 path: Path) -> tuple[list[int], list[str]]:
    """The line numbers and flat fields of the data rows among lines, the
    first of which is line `first` of the file, read one line at a time:
    comment and blank lines are skipped, and a row that does not hold
    `width` fields is an error."""
    linenos: list[int] = []
    cells: list[str] = []
    for lineno, raw in enumerate(lines, start=first):
        line = raw.strip()
        if not line or line[0] == "%":
            continue
        if "'" in line or '"' in line:
            fields = _split_quoted(line)
        else:
            fields = line.split(",")
            # every whitespace character but ' ' is unprintable
            if " " in line or not line.isprintable():
                fields = [f.strip() for f in fields]
        if len(fields) != width:
            raise ParseError(f"{path.name}:{lineno}: expected {width} fields, got {len(fields)}")
        linenos.append(lineno)
        cells += fields
    return linenos, cells


# float() reads each of these cells as NaN: ARFF's missing value and an empty cell
_MISSING = {"?": "nan", "": "nan"}


def _floats(values: list[str]) -> tuple[np.ndarray, list[int]]:
    """float() of each ARFF cell, '?' and '' (missing) as NaN, as one array,
    and the positions, in order, of the cells float() refuses, NaN in the
    array; only a list holding such a cell is converted cell by cell."""
    try:
        return np.fromiter(map(float, map(_MISSING.get, values, values)), float,
                           len(values)), []
    except ValueError:
        out, refused = np.full(len(values), np.nan), []
    for at, value in enumerate(values):
        try:
            out[at] = float(_MISSING.get(value, value))
        except ValueError:
            refused.append(at)
    return out, refused


def _require_column(attributes: list[str], name: str, path: Path) -> int:
    for i, attr in enumerate(attributes):
        if attr.lower() == name:
            return i
    raise ParseError(f"{path.name}: missing required column {name!r}")


def _read_features(path: Path) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Feature names, instance ids in order of first appearance, and the
    n x p block of each instance's first row; later repetitions are not
    converted. Each block of the file is converted before the next is split."""
    attrs, blocks = _read_arff(path)
    w = len(attrs)
    inst_col = _require_column(attrs, "instance_id", path)
    rep_col = next((i for i, a in enumerate(attrs) if a.lower() == "repetition"), None)
    skip = {inst_col} | ({rep_col} if rep_col is not None else set())
    feature_cols = [i for i in range(w) if i not in skip]
    if not feature_cols:
        raise ParseError(f"{path.name}: no feature columns")
    order: dict[str, None] = {}
    parts = []  # the converted rows of each block
    for linenos, cells in blocks:
        ids = cells[inst_col::w]
        start = len(order)
        order.update(dict.fromkeys(ids))
        if len(order) - start == len(ids):
            # every row is its instance's first: drop the other columns
            for width, c in enumerate(sorted(skip, reverse=True)):
                del cells[c::w - width]
            values = cells
        else:
            first_row: dict[str, int] = {}
            for r, inst in enumerate(ids):
                first_row.setdefault(inst, r)
            new = [first_row[inst] for inst in islice(order, start, None)]
            linenos = [linenos[r] for r in new]
            values = [cells[r * w + c] for r in new for c in feature_cols]
        block, refused = _floats(values)
        infinite = np.flatnonzero(np.isinf(block))[:1].tolist()
        if refused or infinite:  # the first bad cell; earlier blocks converted cleanly
            at = min(refused[:1] + infinite)
            what = "not a number" if refused[:1] == [at] else "infinite feature value"
            raise ParseError(f"{path.name}:{linenos[at // len(feature_cols)]}: "
                             f"{what}: {values[at]!r}")
        parts.append(block)
    if not order:
        raise ParseError(f"{path.name}: no data rows")
    features = np.concatenate(parts).reshape(len(order), -1)
    return tuple(attrs[i] for i in feature_cols), tuple(order), features


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


def _require_two_algorithms(names, path: Path) -> None:
    if len(names) < 2:
        raise ParseError(f"{path.name}: need at least two algorithms")


def _read_runs(path: Path, meta: dict, perf_measure: str, index_of: dict, cutoff: float,
               fpath: Path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Algorithm names, then runtimes and run_ok (n x k) from the first row
    of each (instance, algorithm) pair of the runs file; a pair without a
    finished run keeps the cutoff (missing-evaluation policy). Each block of
    the file is reduced before the next is split; rows of unknown instances
    are reported after the last block as a set mismatch."""
    attrs, blocks = _read_arff(path)
    r_inst = _require_column(attrs, "instance_id", path)
    r_algo = _require_column(attrs, "algorithm", path)
    r_status = _require_column(attrs, "runstatus", path)
    lowered = [a.lower() for a in attrs]
    if perf_measure in lowered:
        r_perf = lowered.index(perf_measure)
    else:
        reserved = {r_inst, r_algo, r_status}
        reserved |= {i for i, a in enumerate(lowered) if a == "repetition"}
        leftovers = [i for i in range(len(attrs)) if i not in reserved]
        if not leftovers:
            raise ParseError(f"{path.name}: no performance column found")
        r_perf = leftovers[0]
    listed = _algorithms_from_description(meta)
    algo_index = {a: j for j, a in enumerate(listed)}
    if listed:
        _require_two_algorithms(listed, path)

    w, n = len(attrs), len(index_of)
    filled = np.zeros(n * len(listed), dtype=bool)  # filled[j * n + i]: pair (i, j) is read
    unknown: set[str] = set()  # instance ids that are not in the features file
    done, times = [], []  # per block: the keys of the finished first runs, their runtimes
    for linenos, cells in blocks:
        insts, algos, perfs = cells[r_inst::w], cells[r_algo::w], cells[r_perf::w]
        if not listed:  # the names come from this file, in order of first appearance
            for algo in dict.fromkeys(algos):
                algo_index.setdefault(algo, len(algo_index))
            filled = np.concatenate((filled, np.zeros(n * len(algo_index) - filled.size, bool)))
        row_i = np.array(list(map(index_of.get, insts, repeat(-1))), dtype=np.int64)
        row_j = np.array(list(map(algo_index.get, algos, repeat(-1))), dtype=np.int64)
        known = row_i >= 0
        if not known.all():
            unknown.update(compress(insts, ~known))
        keys, first = np.unique(np.where(known, row_j * n + row_i, -1), return_index=True)
        # negative keys gather the rows of unknown instances and algorithms; a
        # pair of an earlier block keeps its first row
        new = keys >= 0
        new[new] = ~filled[keys[new]]
        keys, first = keys[new], first[new].tolist()
        runtime, refused = _floats(list(map(perfs.__getitem__, first)))
        stray = np.flatnonzero(known & (row_j < 0))[:1].tolist()  # unknown algorithms
        if refused or stray:  # the first bad row in file order, not in key order
            r = min(stray + [first[at] for at in refused])
            names = set(algo_index)
            if len(names) < 2:  # a later block may still name a second algorithm
                for _, rest in blocks:
                    names.update(rest[r_algo::w])
            _require_two_algorithms(names, path)
            what = (f"unknown algorithm {algos[r]!r}" if stray == [r]
                    else f"not a number: {perfs[r]!r}")
            raise ParseError(f"{path.name}:{linenos[r]}: {what}")
        status = cells[r_status::w]
        finished = {s for s in set(status) if s.strip().lower() == "ok"}
        ok = np.fromiter(map(finished.__contains__, map(status.__getitem__, first)), bool,
                         len(first))
        ok &= np.isfinite(runtime) & (runtime >= 0)
        filled[keys] = True
        done.append(keys[ok])
        times.append(runtime[ok])
    _require_two_algorithms(algo_index, path)
    k = len(algo_index)
    performances = np.full(n * k, cutoff, dtype=float)
    run_ok = np.zeros(n * k, dtype=bool)
    keys = np.concatenate(done)
    at = keys % n * k + keys // n
    performances[at] = np.minimum(np.concatenate(times), cutoff)
    run_ok[at] = True
    seen = filled.reshape(k, n).any(axis=0)
    if unknown or not seen.all():
        raise ConsistencyError(f"{path.name}: instance set differs from {fpath.name} "
                               f"({np.count_nonzero(seen) + len(unknown)} vs {n} instances)")
    return tuple(algo_index), performances.reshape(n, k), run_ok.reshape(n, k)


def _read_folds(path: Path, index_of: dict, fpath: Path) -> np.ndarray:
    """The fold of each instance, from its first cv.arff row; every row of a
    known instance is checked. The file's blocks are joined: it holds two
    short columns per instance, the smallest of the three files."""
    attrs, blocks = _read_arff(path)
    c_inst = _require_column(attrs, "instance_id", path)
    c_fold = _require_column(attrs, "fold", path)
    w, n = len(attrs), len(index_of)
    linenos, insts, cells = [], [], []
    for block_lines, block in blocks:
        linenos += block_lines
        insts += block[c_inst::w]
        cells += block[c_fold::w]
    cv_i = np.array(list(map(index_of.get, insts, repeat(-1))), dtype=np.int64)
    folds = _floats(cells)[0]  # a cell that is not a number is NaN: not a fold id
    bad = np.flatnonzero((cv_i >= 0) & ~np.isin(folds, np.arange(1, N_FOLDS + 1)))
    if bad.size:  # the first row of a known instance whose fold is not in 1..N_FOLDS
        r = bad[0]
        if not folds[r].is_integer():
            raise ParseError(f"{path.name}:{linenos[r]}: not a fold id: {cells[r]!r}")
        raise ParseError(f"{path.name}:{linenos[r]}: fold {int(folds[r])} outside 1..{N_FOLDS}")
    if not (cv_i >= 0).all() or not np.bincount(cv_i, minlength=n).all():
        raise ConsistencyError(f"{path.name}: instance set differs from {fpath.name}")
    return folds[np.unique(cv_i, return_index=True)[1]].astype(int)  # first row wins


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

    fpath = paths[FEATURES_FILE]
    feature_names, instance_ids, features = _read_features(fpath)
    index_of = dict(zip(instance_ids, range(len(instance_ids))))
    algorithm_names, performances, run_ok = _read_runs(paths[RUNS_FILE], meta, perf_measure,
                                                       index_of, cutoff, fpath)
    fold_of = _read_folds(paths[CV_FILE], index_of, fpath)

    return Scenario(
        name=str(meta.get("scenario_id", root.name)),
        algorithm_names=algorithm_names,
        feature_names=feature_names,
        features=features,
        performances=performances,
        run_ok=run_ok,
        cutoff=cutoff,
        fold_of=fold_of,
        instance_ids=instance_ids,
    )
