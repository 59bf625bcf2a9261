"""The columnar parser on the benchmark's full-size ingest-serve scenario.

parse_scenario reads the 12,000-instance scenario as the per-row reference
parser of the tests does, and so does its per-line path, on a copy with a
'%' line after each @data and on one with every instance id quoted, whose
~120,000 data lines all go through the quoted-field pattern. Its plain
sections are split in blocks, so the traced peak of parsing the plain copy
stays under 24 MB (46.0 MB when each file was split into one string per
field; 13.6 MB in blocks of 4,096 fields). Broken copies of the plain
scenario fail on the line the reference parser names, or, with a bad cell
the parser never reads, parse as the plain copy does. bench/ is only read.
"""

import re
import shutil
import tracemalloc
from pathlib import Path

import pytest

from harris.scenario import parse_scenario
from oracles import reference_parse_scenario
from test_scenario import parse_outcome

pytestmark = pytest.mark.full_size

BENCH = Path(__file__).resolve().parents[1] / "bench"
RUNS, CV, FEATURES = "algorithm_runs.arff", "cv.arff", "feature_values.arff"

# (file, pattern, replacement): one edit each; runs are written instance by
# instance, so (i000100, algo1) comes before (i000101, algo0) in the first
# block, but has the larger key
BROKEN = {
    "runtime-in-last-block": [(RUNS, r"(?m)^(i011999,1,algo7,)[^,]*", r"\1oops")],
    "two-runtimes-in-a-block": [(RUNS, r"(?m)^(i000100,1,algo1,)[^,]*", r"\1oops"),
                                (RUNS, r"(?m)^(i000101,1,algo0,)[^,]*", r"\1x")],
    "fold": [(CV, r"(?m)^(i005000,1,).*", r"\g<1>1.7")],
    "infinite-feature": [(FEATURES, r"(?m)^(i011000,1,)[^,]*", r"\1-inf")],
    "unknown-algorithm": [(RUNS, r"(?m)^(i006000,1,)algo3,", r"\1zz,")],
    "unread-repetition": [(FEATURES, r"\Z", "i000005,2," + ",".join(["oops"] * 40) + "\n")],
}


def rewrite_data(root, edit):
    """Replace the data section of each ARFF file in root by edit(section)."""
    for path in root.glob("*.arff"):
        text = path.read_text(encoding="utf-8")
        at = text.upper().index("@DATA")
        at = text.index("\n", at) + 1
        path.write_text(text[:at] + edit(text[at:]), encoding="utf-8")


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    """The ingest-serve scenario at seed 1, as the benchmark writes it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        from aslibgen import Shape, write_scenario
    root = tmp_path_factory.mktemp("ingest") / "plain"
    write_scenario(root, Shape(n=12000, k=8, p=40), 1, "ingest-serve")
    return root


@pytest.fixture(scope="module")
def plain_outcome(plain):
    ours = parse_outcome(parse_scenario, plain)
    assert not isinstance(ours[0], type), ours
    assert ours == parse_outcome(reference_parse_scenario, plain)
    return ours


def test_plain_parse_stays_under_its_traced_peak(plain):
    tracemalloc.start()
    try:
        parse_scenario(plain)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 24, f"parse_scenario traced peak {peak:.1f} MB"


@pytest.mark.parametrize("name, edit", [
    ("commented", lambda data: "% forces the per-line path\n" + data),
    ("quoted", lambda data: re.sub(r"(?m)^([^,\n]+),", r"'\1',", data)),
], ids=["commented", "quoted"])
def test_per_line_copies_parse_as_plain(plain, plain_outcome, tmp_path, name, edit):
    copy = tmp_path / name
    shutil.copytree(plain, copy)
    rewrite_data(copy, edit)
    if name == "quoted":
        assert "'i000000'," in (copy / CV).read_text(encoding="utf-8")
    assert plain_outcome == parse_outcome(parse_scenario, copy)
    assert plain_outcome == parse_outcome(reference_parse_scenario, copy)


@pytest.mark.parametrize("name", BROKEN)
def test_broken_copy_fails_where_the_reference_fails(plain, plain_outcome, tmp_path, name):
    copy = tmp_path / name
    shutil.copytree(plain, copy)
    for fname, pattern, replacement in BROKEN[name]:
        text, count = re.subn(pattern, replacement,
                              (copy / fname).read_text(encoding="utf-8"), count=1)
        assert count == 1, (name, pattern)
        (copy / fname).write_text(text, encoding="utf-8")
    outcome = parse_outcome(parse_scenario, copy)
    assert outcome == parse_outcome(reference_parse_scenario, copy), name
    assert (outcome == plain_outcome) == (name == "unread-repetition"), outcome
