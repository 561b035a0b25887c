"""certificate.jsonable against a per-element reference converter, and the
byte format of four small certificates held under tests/data.

Regenerate the stored certificates after a deliberate format change with

    PYTHONPATH=src python tests/test_certificate.py

and state the change with the updated files.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from paretocert.certificate import jsonable
from paretocert.cli import main
from paretocert.trajectory import Grid, Trajectory


def reference(obj):
    """The conversion as it was written out per value: float(), bool() or
    int() on every element, then non-finite floats as strings."""
    if isinstance(obj, dict):
        return {str(k): reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [reference(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if hasattr(obj, "to_dict"):
        return reference(obj.to_dict())
    if dataclasses.is_dataclass(obj):
        return {f.name: reference(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def plain(obj):
    """Whether obj is built of JSON's own Python types only (no numpy
    scalar, not even np.float64, which json.dumps would also accept)."""
    if type(obj) is dict:
        return all(type(k) is str and plain(v) for k, v in obj.items())
    if type(obj) is list:
        return all(plain(v) for v in obj)
    return type(obj) in (str, int, float, bool, type(None))


@dataclasses.dataclass
class Holder:
    label: str
    traj: Trajectory
    flags: np.ndarray
    weight: np.float64


CASES = {
    "finite-floats": np.array([1.5, -0.0, 3.0, 1e-300, 0.1]),
    "nonfinite-floats": np.array([1.0, np.nan, np.inf, -np.inf, -0.0]),
    "nonfinite-2d": np.array([[1.0, np.nan], [-np.inf, 2.0]]),
    "finite-2d": np.arange(6, dtype=float).reshape(3, 2) - 2.5,
    "empty-float": np.zeros(0),
    "empty-2d": np.zeros((0, 2)),
    "int-array": np.array([0, -3, 7], dtype=np.int64),
    "bool-array": np.array([True, False]),
    "np-bool": np.bool_(True),
    "np-int64": np.int64(7),
    "np-float64": np.float64(0.1),
    "np-float64-nan": np.float64("nan"),
    "np-float64-neg-zero": np.float64(-0.0),
    "python-scalars": [1, 2.5, -0.0, True, None, "text", float("-inf")],
    "tuple": (1, (2.0, np.float64(3.0)), np.array([4.0])),
    "none": None,
    "empty-containers": {"a": {}, "b": [], "c": (), 3: np.zeros(0, dtype=int)},
    "dataclass-with-trajectory": Holder(
        "ramp",
        Trajectory(Grid(2), np.array([[0.0], [0.5], [1.0]]), np.array([[1.0], [np.nan], [1.0]])),
        np.array([True, False]),
        np.float64(-np.inf)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_jsonable_matches_reference(case):
    obj = CASES[case]
    got, want = jsonable(obj), reference(obj)
    assert plain(got)
    # the serialized text tells 1 from 1.0 and True, and 0.0 from -0.0
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_dataclass_without_to_dict_is_its_fields():
    converted = jsonable(CASES["dataclass-with-trajectory"])
    assert converted == {"label": "ramp", "flags": [True, False], "weight": "-inf",
                         "traj": {"grid_n": 2, "x": [[0.0], [0.5], [1.0]],
                                  "u": [[1.0], ["nan"], [1.0]]}}


# Four small certificates on polynomial problems, so that no transcendental
# function enters the stored numbers: (argv run from tests/data, exit code).
DATA = Path(__file__).resolve().parent / "data"
GOLDEN = {
    "check-kkt.cert.json": (["check-kkt", "builtin:example_6_1", "--lambda", "0.5,0.5",
                             "--grid", "8"], 0),
    "check-socn.cert.json": (["check-socn", "builtin:example_6_2", "--grid", "8",
                              "--directions", "ramp_8.json"], 2),
    "check-socs.cert.json": (["check-socs", "builtin:example_6_1", "--lambda", "0.5,0.5",
                              "--gamma0", "0.5", "--grid", "8", "--probes", "1",
                              "--max-iters", "3"], 0),
    "findim.cert.json": (["findim", "convex_pair.json", "--zbar", "0,0", "--steps", "3",
                          "--dir", "0,1"], 0),
}
WALL_TIME = re.compile(r'^  "wall_time_s": .*\n', re.MULTILINE)


def emit(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_match_stored(monkeypatch, name):
    argv, expected_code = GOLDEN[name]
    monkeypatch.chdir(DATA)
    code, text = emit(argv)
    assert code == expected_code
    stored = (DATA / name).read_text(encoding="utf-8")
    assert WALL_TIME.sub("", text) == WALL_TIME.sub("", stored)


if __name__ == "__main__":
    os.chdir(DATA)
    for name, (argv, _) in GOLDEN.items():
        _, text = emit(argv)
        Path(name).write_text(WALL_TIME.sub('  "wall_time_s": 0.0\n', text), encoding="utf-8")
