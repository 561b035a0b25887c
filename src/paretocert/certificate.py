"""Machine-readable certificates: assembly, hashing, and verdict recomputation.

A certificate records every residual, tolerance and fragment of a check,
and every request value once.  Its inputs are identified, not copied: a
problem by the SHA-256 of its canonical document, an input file by its path
(and the --directions file by the SHA-256 of its bytes), so that a
counterexample in a given file is named by its index.  The overall verdict
is a pure function of (command, fragments), factored into
``decide_verdict`` so the emitted verdict and any later recomputation
cannot drift apart.

``jsonable`` is the one conversion of program values to JSON values:
fragments and parameters hold result objects, arrays and numpy scalars as
the library returns them.  A result's JSON is its dataclass fields, by name,
unless the class defines ``to_dict`` for keys that differ from its fields.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from . import expr as ex
from .findim import FinDimProblem
from .problem import Problem, serialize

__all__ = [
    "SCHEMA",
    "TOOL_VERSION",
    "jsonable",
    "problem_hash",
    "findim_hash",
    "decide_verdict",
    "assemble",
    "recompute_overall_verdict",
    "dumps",
]

SCHEMA = "cert/1"
TOOL_VERSION = "0.1.0"


def jsonable(obj):
    """Convert program values to strict JSON values, recursively.

    Dicts (keys as ``str``), lists and tuples are converted entry by entry.
    Arrays become nested lists in one ``tolist()``; only a float array that
    holds a non-finite entry is walked element by element.  Numpy scalars
    become Python scalars, and non-finite floats become the strings
    "nan"/"inf"/"-inf", so the output stays valid JSON for every consumer,
    not just Python's parser.  An object with ``to_dict`` is that method's
    output, converted; any other dataclass is its fields, by name.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            return jsonable(obj.tolist())
        return obj.tolist()
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj == np.inf:
            return "inf"
        if obj == -np.inf:
            return "-inf"
        return obj
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if hasattr(obj, "to_dict"):
        return jsonable(obj.to_dict())
    if dataclasses.is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def _digest(document: dict) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def problem_hash(problem: Problem) -> str:
    return _digest(serialize(problem))


def findim_hash(problem: FinDimProblem) -> str:
    """SHA-256 of the canonical findim document {nz, m, f, G}."""
    return _digest({"nz": problem.nz, "m": problem.m,
                    "f": [ex.to_source(a) for a in problem.f],
                    "G": [ex.to_source(a) for a in problem.G]})


def decide_verdict(command: str, fragments: dict) -> str:
    """Overall verdict from serialized fragments; shared by emit and audit."""
    gates = [key for key in ("feasibility", "h2") if key in fragments]
    if any(not fragments[key]["passed"] for key in gates):
        return "fail"
    if command == "check-kkt":
        return "kkt-pass" if fragments["kkt"]["passed"] else "fail"
    if command == "check-socn":
        verdict = fragments["socn"]["verdict"]
        if verdict in ("holds", "vacuous"):
            return "socn-pass"
        if verdict == "violated":
            return "socn-violated"
        return "fail"
    if command == "check-socs":
        return "socs-pass" if fragments["socs"]["verdict"] == "pass-with-caveat" else "fail"
    if command == "findim":
        if not fragments["robinson"]["passed"]:
            return "fail"
        directions = fragments["directions"]
        checked = [d for d in directions if d.get("critical", False)]
        if any(not d["verdict"] for d in checked):
            return "fail"
        return "findim-pass" if fragments["oracle"]["weak_pareto"] else "fail"
    raise ValueError(f"unknown command {command!r}")


def assemble(
    command: str,
    fragments: dict,
    problem_name: str | None,
    problem_digest: str,
    grid_n: int | None,
    tolerances: dict,
    seed: int | None,
    parameters: dict,
    wall_time_s: float,
) -> dict:
    fragments = jsonable(fragments)
    return {
        "schema": SCHEMA,
        "tool_version": TOOL_VERSION,
        "command": command,
        "problem": {"name": problem_name, "sha256": problem_digest},
        "grid_n": grid_n,
        "tolerances": jsonable(tolerances),
        "seed": seed,
        "parameters": jsonable(parameters),
        "fragments": fragments,
        "overall_verdict": decide_verdict(command, fragments),
        # informational only; excluded from determinism comparisons
        "wall_time_s": wall_time_s,
    }


def recompute_overall_verdict(certificate: dict) -> str:
    """Re-derive the verdict from a certificate alone (round-trip audit)."""
    return decide_verdict(certificate["command"], certificate["fragments"])


def dumps(certificate: dict) -> str:
    return json.dumps(certificate, sort_keys=True, indent=2) + "\n"
