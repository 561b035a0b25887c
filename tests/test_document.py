"""Every input file is read under one set of rules (paretocert.document).

One table of (reader, violation) cases: each input file the command line
reads is broken in one way, and the request must exit 1 with nothing on
stdout and an error that names the file and the JSON path at fault.
"""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from paretocert.cli import main
from paretocert.problem import ProblemFormatError, load_problem, serialize, builtin

SRC = Path(__file__).resolve().parent.parent / "src" / "paretocert"
DATA = Path(__file__).resolve().parent / "data"
BIG = "@1e999@"  # a sample written as the JSON number 1e999, which parses to inf

RAMP = json.loads((DATA / "ramp_8.json").read_text())
READERS = {
    # reader: (argv with {path}, valid document)
    "problem": (["check-kkt", "{path}", "--lambda", "0.5,0.5", "--grid", "8"],
                serialize(builtin("example_6_1"))),
    "findim": (["findim", "{path}", "--zbar", "0,0", "--steps", "4"],
               json.loads((DATA / "convex_pair.json").read_text())),
    "traj": (["check-kkt", "builtin:example_6_2", "--lambda", "0.5,0.5", "--traj", "{path}"],
             RAMP),
    "directions": (["check-socn", "builtin:example_6_2", "--grid", "8",
                    "--directions", "{path}"], RAMP),
    "control": (["integrate", "builtin:example_6_1", "--grid", "8", "--control", "{path}"],
                {"grid_n": 8, "u": RAMP["u"]}),
}


def _set(key, *index_value):
    """A violation that sets doc[key][index...] (or doc[key]) to a value."""
    *index, value = index_value

    def apply(doc):
        target = doc
        for i in [key, *index][:-1]:
            target = target[i]
        target[[key, *index][-1]] = value
    return apply


def _delete(key):
    return lambda doc: doc.pop(key)


def _resize(key, rows=None, cols=None):
    def apply(doc):
        values = np.asarray(doc[key], dtype=float)
        doc[key] = np.resize(values, (rows or len(values), cols or values.shape[1])).tolist()
    return apply


# violation: {reader: (change to the valid document, JSON path the error names)};
# "not JSON" and "top level" replace the whole text
VIOLATIONS = {
    "not-json": {reader: ("{not json", "invalid JSON") for reader in READERS},
    "top-level": {reader: ("42", "document must be a JSON object") for reader in READERS},
    "unknown-field": {reader: (_set("extra", 1), "extra") for reader in READERS},
    "missing-field": {"problem": (_delete("g"), "'g'"), "findim": (_delete("G"), "'G'"),
                      "traj": (_delete("x"), "'x'"), "directions": (_delete("u"), "'u'"),
                      "control": (_delete("u"), "'u'")},
    "bool-count": {"problem": (_set("n", True), "'n'"), "findim": (_set("nz", True), "'nz'"),
                   **{r: (_set("grid_n", True), "'grid_n'")
                      for r in ("traj", "directions", "control")}},
    "string-sample": {"problem": (_set("x0", 0, "0.0"), "'x0'"),
                      **{r: (_set("u", 0, 0, "1.5"), "'u'")
                         for r in ("traj", "directions", "control")}},
    "bool-sample": {"problem": (_set("x0", 0, True), "'x0'"),
                    **{r: (_set("u", 1, 1, True), "'u'")
                       for r in ("traj", "directions", "control")}},
    "nan-sample": {"problem": (_set("x0", 1, float("nan")), "'x0'"),
                   **{r: (_set("x" if r != "control" else "u", 3, 0, float("nan")),
                          "'x'" if r != "control" else "'u'")
                      for r in ("traj", "directions", "control")}},
    "1e999-sample": {"problem": (_set("x0", 0, BIG), "'x0'"),
                     **{r: (_set("u", 2, 1, BIG), "'u'")
                        for r in ("traj", "directions", "control")}},
    "column-count": {"problem": (_set("x0", [0.0, 0.0, 0.0]), "'x0'"),
                     "traj": (_resize("x", cols=3), "'x'"),
                     "directions": (_resize("u", cols=1), "'u'"),
                     "control": (_resize("u", cols=3), "'u'")},
    # the request's grid: the trajectory's own grid_n, --grid for directions
    # (no --traj), and the control's grid_n
    "grid-mismatch": {"traj": (_set("grid_n", 10), "'x'"),
                      "directions": (_set("grid_n", 10), "'grid_n'"),
                      "control": (_resize("u", rows=5), "'u'")},
}
CASES = [(reader, violation) for violation, by_reader in VIOLATIONS.items()
         for reader in by_reader]


@pytest.mark.parametrize("reader, violation", CASES, ids=[f"{r}-{v}" for r, v in CASES])
def test_broken_input_file_is_input_error(capsys, tmp_path, reader, violation):
    argv, valid = READERS[reader]
    change, json_path = VIOLATIONS[violation][reader]
    if isinstance(change, str):
        text = change
    else:
        doc = copy.deepcopy(valid)
        change(doc)
        text = json.dumps(doc).replace(f'"{BIG}"', "1e999")
    path = tmp_path / f"{reader}.json"
    path.write_text(text)
    code = main([arg.format(path=path) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: ") and json_path in err, err


@pytest.mark.parametrize("reader", sorted(READERS))
def test_valid_document_is_read(capsys, tmp_path, reader):
    # the table's base documents are valid, so each case fails on its violation
    argv, valid = READERS[reader]
    path = tmp_path / f"{reader}.json"
    path.write_text(json.dumps(valid))
    code = main([arg.format(path=path) for arg in argv])
    assert code in (0, 2), capsys.readouterr().err


@pytest.mark.parametrize("x0", [[True, 0.0], [float("nan"), 0.0], [0.0, float("inf")],
                                [0.0, 10 ** 400]],
                         ids=["bool", "nan", "inf", "huge-int"])
def test_problem_x0_must_be_finite_numbers(x0):
    doc = serialize(builtin("example_6_1"))
    doc["x0"] = x0
    with pytest.raises(ProblemFormatError, match="'x0' entries must be finite numbers"):
        load_problem(doc)


def test_problem_x0_beyond_double_range_in_text():
    text = json.dumps(serialize(builtin("example_6_1"))).replace("[0.0, 0.0]", "[1e999, 0.0]")
    with pytest.raises(ProblemFormatError, match="'x0'"):
        load_problem(text)


def test_json_is_parsed_only_in_the_document_module():
    parsers = {path.name for path in SRC.glob("*.py")
               if re.search(r"\bjson\.loads?\b", path.read_text(encoding="utf-8"))}
    assert parsers == {"document.py"}
