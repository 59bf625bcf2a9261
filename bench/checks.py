"""Independent output checks.

Every reference value here is computed from the generator's ground truth
with plain numpy, not with harris code: oracle and single-best PAR10 per
fold, the PAR10 of a uniformly random choice, and Kendall's tau-b.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

REPORT_HEADER = ("scenario", "selector", "lambda", "depth", "fold", "row_type",
                 "par10", "par10_std", "tau", "tau_std", "n_instances")
LEARNED = ("harris", "rfr", "satzilla", "isac", "sbs")
REL_TOL = 1e-9


@dataclass(frozen=True)
class Reference:
    costs: np.ndarray        # m x k PAR10 of the solved instances, file order
    fold_of: np.ndarray      # m fold ids
    cutoff: float
    folds: tuple[int, ...]
    oracle: dict             # fold -> mean per-instance minimum
    sbs: dict                # fold -> PAR10 of the training folds' single best
    random: float            # mean PAR10 of a uniformly random choice

    @property
    def oracle_mean(self) -> float:
        return float(np.mean([self.oracle[f] for f in self.folds]))

    @property
    def sbs_mean(self) -> float:
        return float(np.mean([self.sbs[f] for f in self.folds]))


def reference(truth) -> Reference:
    """Reference values for the instances the program keeps (unsolved dropped)."""
    keep = truth.solved
    costs = truth.par10[keep]
    fold_of = truth.fold_of[keep]
    folds = tuple(sorted(int(f) for f in np.unique(fold_of)))
    oracle, sbs = {}, {}
    for f in folds:
        test = fold_of == f
        oracle[f] = float(costs[test].min(axis=1).mean())
        best = int(np.argmin(costs[~test].mean(axis=0)))
        sbs[f] = float(costs[test, best].mean())
    return Reference(costs=costs, fold_of=fold_of, cutoff=truth.cutoff, folds=folds,
                     oracle=oracle, sbs=sbs, random=float(costs.mean()))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _number(text: str):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_report(text: str, ref: Reference, expected_cells: dict):
    """Check a report CSV against the reference.

    expected_cells maps each selector to its number of (lambda, depth) cells.
    One operation is one (selector, cell, fold) evaluation. Returns
    (failed operations, messages, {(selector, lambda, depth): (par10, tau)}).
    """
    n_ops = sum(expected_cells.values()) * len(ref.folds)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != REPORT_HEADER:
        return n_ops, ["report header differs from the version-1 schema"], {}
    groups: dict = {}
    problems: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(REPORT_HEADER):
            problems.append(f"line {lineno}: {len(row)} fields")
            continue
        groups.setdefault((row[1], row[2], row[3]), []).append(row)

    failed = 0
    quality = {}
    counts = {sel: 0 for sel in expected_cells}
    sizes = {f: int((ref.fold_of == f).sum()) for f in ref.folds}
    limit = 10.0 * ref.cutoff
    for key, members in sorted(groups.items()):
        selector = key[0]
        if selector not in expected_cells:
            problems.append(f"unexpected selector {selector!r}")
            continue
        counts[selector] += 1
        bad_folds = set()
        fold_rows = {}
        aggregates = []
        for row in members:
            if row[5] == "aggregate":
                aggregates.append(row)
            elif row[5] == "fold" and row[4].isdigit() and int(row[4]) not in fold_rows:
                fold_rows[int(row[4])] = row
            else:
                problems.append(f"{key}: unexpected row {row[4:6]}")
        for f in ref.folds:
            row = fold_rows.get(f)
            if row is None:
                bad_folds.add(f)
                problems.append(f"{key}: fold {f} missing")
                continue
            par10, tau = _number(row[6]), _number(row[8]) if row[8] else None
            why = None
            if par10 is None or not (ref.oracle[f] * (1 - REL_TOL) <= par10 <= limit):
                why = f"PAR10 {row[6]} outside [oracle {ref.oracle[f]:.4f}, {limit:g}]"
            elif row[10] != str(sizes[f]):
                why = f"n_instances {row[10]} != {sizes[f]}"
            elif row[8] and (tau is None or not -1.0 <= tau <= 1.0):
                why = f"tau {row[8]} outside [-1, 1]"
            elif selector == "oracle" and not (_close(par10, ref.oracle[f])
                                               and tau is not None and _close(tau, 1.0)):
                why = f"oracle PAR10 {par10} != {ref.oracle[f]}"
            elif selector == "sbs" and not _close(par10, ref.sbs[f]):
                why = f"single-best PAR10 {par10} != {ref.sbs[f]}"
            if why:
                bad_folds.add(f)
                problems.append(f"{key} fold {f}: {why}")
        if len(fold_rows) > len(ref.folds) or set(fold_rows) - set(ref.folds):
            problems.append(f"{key}: extra fold rows")
            bad_folds.update(ref.folds)
        agg_ok = len(aggregates) == 1 and not bad_folds
        if agg_ok:
            agg = aggregates[0]
            par10 = _number(agg[6])
            tau = _number(agg[8]) if agg[8] else None
            mean = float(np.mean([float(fold_rows[f][6]) for f in ref.folds]))
            if par10 is None or not _close(par10, mean):
                problems.append(f"{key}: aggregate PAR10 {agg[6]} != fold mean {mean}")
                agg_ok = False
            elif agg[10] != str(len(ref.fold_of)):
                problems.append(f"{key}: aggregate n_instances {agg[10]}")
                agg_ok = False
            elif selector in LEARNED and not par10 < ref.random:
                problems.append(f"{key}: PAR10 {par10:.2f} no better than a random "
                                f"choice ({ref.random:.2f})")
                agg_ok = False
            else:
                quality[key] = (par10, tau)
        elif len(aggregates) != 1:
            problems.append(f"{key}: {len(aggregates)} aggregate rows")
        failed += len(ref.folds) if not agg_ok else len(bad_folds)
    for selector, want in expected_cells.items():
        if counts[selector] < want:
            failed += (want - counts[selector]) * len(ref.folds)
            problems.append(f"{selector}: {counts[selector]} of {want} cells present")
    return min(failed, n_ops), problems, quality


def tau_b(pred: np.ndarray, true: np.ndarray) -> np.ndarray:
    """Row-wise Kendall tau-b; NaN where either row is fully tied."""
    i, j = np.triu_indices(pred.shape[1], 1)
    dp = np.sign(pred[:, i] - pred[:, j])
    dt = np.sign(true[:, i] - true[:, j])
    pairs = i.size
    denom = np.sqrt((pairs - (dp == 0).sum(axis=1)) * (pairs - (dt == 0).sum(axis=1)))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, (dp * dt).sum(axis=1) / denom, np.nan)


def check_selections(choices: np.ndarray, predicted: np.ndarray, ref: Reference):
    """Check one served selection per instance.

    Returns (failed selections, messages, served PAR10, mean tau-b).
    """
    m, k = ref.costs.shape
    problems = []
    valid = (choices >= 0) & (choices < k)
    finite = (predicted.shape == (m, k)) and np.isfinite(predicted).all(axis=1)
    bad = ~valid | ~finite
    if predicted.shape == (m, k):
        bad |= valid & (choices != np.argmin(predicted, axis=1))
    if bad.any():
        problems.append(f"{int(bad.sum())} selections invalid, non-finite or not the "
                        "cheapest predicted algorithm")
    picked = ref.costs[np.arange(m), np.where(valid, choices, 0)]
    par10 = float(picked.mean())
    if not (ref.costs.min(axis=1).mean() <= par10 <= 10.0 * ref.cutoff and par10 < ref.random):
        problems.append(f"served PAR10 {par10:.2f} outside [oracle, random choice "
                        f"{ref.random:.2f})")
        bad[:] = True
    taus = tau_b(predicted, ref.costs) if predicted.shape == (m, k) else np.array([np.nan])
    tau = float(np.nanmean(taus)) if np.isfinite(taus).any() else float("nan")
    return int(bad.sum()), problems, par10, tau
