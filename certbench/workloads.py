"""Seeded certificate-request workloads.

Each workload is a fixed *cycle* of requests that the closed-loop client
replays until the run's time is up.  A cycle holds one request of every
request class the workload names, a class being a command, a problem and
its sizes (grid N, probes, oracle steps).  The seed draws only numbers:
objective weights, positive rescalings, ramp amplitudes, gamma0, probe
seeds, oracle radii and the request order.  It never picks a class or a
size, so every seed asks for the same classes.  The program sees only the
generated argv and the JSON documents written next to the manifest; every
expected verdict is known by construction (see the comments at each
generator).

Pure Python on purpose: the runner generates the inputs before it imports
numpy or the program, so the import is timed from a cold interpreter.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

# the CLI exits 0 for these overall verdicts and 2 for every other one
PASS_VERDICTS = ("kkt-pass", "socn-pass", "socs-pass", "findim-pass")


@dataclass
class Request:
    argv: list
    expected: str
    label: str  # request class, e.g. "check-kkt chain N=4000"


@dataclass
class Workload:
    name: str
    sizes: dict
    cycle: list
    warmup: list
    problem_docs: list = field(default_factory=list)  # file names of problem documents
    findim_docs: list = field(default_factory=list)
    builtins: list = field(default_factory=list)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _csv(values) -> str:
    return ",".join(_num(v) for v in values)


# ---------------------------------------------------------------------------
# Documents


def chain_doc(rng: random.Random) -> tuple[dict, list, list]:
    """6-state, 2-control, 3-objective nonlinear chain with positive rescalings.

    Every running cost is a positively weighted sum of terms whose gradient
    vanishes at the origin and whose Hessian there is positive semidefinite
    (squares, x5^4, exp(x1) - 1 - x1), the dynamics vanish at the origin and
    the constraint is active there with g_u = -(c, c).  So the zero
    trajectory is a KKT point with p = 0 and theta = 0 for every weight, the
    curvature form is that of sum_j lam_j L_j'' (nonnegative, positive in u),
    and check-kkt, check-socn and check-socs all pass.

    Returns the document and the u1^2, u2^2 coefficients of each objective,
    from which the coercivity constant min eig(lam^T L_uu) is known exactly.
    """
    def c():
        return float(_num(rng.uniform(0.5, 2.0)))

    cu1 = [c() for _ in range(3)]
    cu2 = [c() for _ in range(3)]
    L = [
        f"{c()} * x1^2 + {c()} * x2^2",
        f"{c()} * (x3 - x4)^2 + {c()} * x5^4 + {c()} * x2^2",
        f"{c()} * x6^2 + {c()} * (exp(x1) - 1 - x1) + {c()} * x4^2",
    ]
    L = [f"{s} + {a} * u1^2 + {b} * u2^2" for s, a, b in zip(L, cu1, cu2)]
    phi = [
        f"{c()} * sin(x2) - x1 + u1",
        f"{c()} * x1 * x3 + sin(x3) - x2",
        f"x2^2 + {c()} * x4 - x3",
        f"{c()} * sin(x5) - x4",
        f"x4 * x6 + {c()} * x6 - x5",
        f"{c()} * x5^2 - x6 + {c()} * u2",
    ]
    doc = {"n": 6, "l": 2, "m": 3, "x0": [0.0] * 6, "L": L, "phi": phi,
           "g": f"{c()} * (x1 + x6 - u1 - u2)"}
    return doc, cu1, cu2


def ramp_doc(n_intervals: int, alpha: float) -> dict:
    """alpha * (x, u) = alpha * ((t, t), (1, 1)) on the example_6_2 grid.

    Critical for example_6_2 at the origin (g = x1 + x2 - u1 - u2 is active
    everywhere and alpha * (2t - 2) <= 0), with curvature
    -(4/3) alpha^2 (lam1 + lam2) < 0 for every weight: socn-violated.
    """
    t = [i / n_intervals for i in range(n_intervals + 1)]
    return {"grid_n": n_intervals,
            "x": [[alpha * v, alpha * v] for v in t],
            "u": [[alpha, alpha] for _ in t]}


# The five acceptance-test fixtures: (f, G, zbar, directions, verdict).
# A common positive factor on the objectives and one positive factor per
# constraint leave the feasible set, the dominance order, every critical
# direction and the sampled weight grid's multipliers (rescaled e) intact,
# so each fixture keeps its verdict.
FINDIM_FIXTURES = [
    ("convex_pair", ["z1^2 + z2^2", "(z1 - 1)^2 + z2^2"], ["z1 + z2 - 1"],
     "0,0", ["0,1", "0,-1", "1,0"], "findim-pass"),
    ("shared_indefinite", ["z1^2 - z2^2", "z1^2 - z2^2"], ["z1 + z2 - 1"],
     "0,0", ["0,1"], "fail"),
    ("opposed_linear", ["z1", "0 - z1"], ["z1 + z2 - 1"],
     "0,0", ["0,1", "0,-1"], "findim-pass"),
    ("active_bound", ["(z1 + 1)^2 + z2^2", "(z1 + 2)^2 + z2^2"], ["-z1"],
     "0,0", ["0,1", "0,-1"], "findim-pass"),
    ("active_failing", ["z2 - z1^2", "z2 - z1^2"], ["-z2"],
     "0,0", ["1,0", "-1,0"], "fail"),
]

# 4-variable, 3-objective programs at zbar = 0 with G2 = -z4 active.
# pass: f1 is minimised at 0, so nothing strictly improves it (oracle True);
#   the only multiplier weight is lam = (1, 0, 0) and every curvature is >= 0.
# fail: every objective contains -z3^2, so (0, 0, s, 0) dominates (oracle
#   False) and d = (0, 0, 1, 0) is critical with curvature -2 (lam1 + lam3) < 0.
FINDIM_QUAD = [
    ("quad4_pass",
     ["z1^2 + z2^2 + z3^2 + z4^2", "(z1 - 1)^2 + z2^2 + z3^2 + z4^2",
      "z1^2 + z2^2 + (z3 + 1)^2 + z4^2"],
     ["z1 + z2 + z3 + z4 - 1", "-z4"],
     "0,0,0,0", ["0,1,0,0", "0,0,0,1"], "findim-pass"),
    ("quad4_fail",
     ["z1^2 + z2^2 - z3^2 + z4^2", "(z1 - 1)^2 + z2^2 - z3^2 + z4^2",
      "z1^2 + z2^2 - z3^2 + (z4 + 1)^2"],
     ["z1 + z2 + z3 + z4 - 1", "-z4"],
     "0,0,0,0", ["0,0,1,0", "0,1,0,0"], "fail"),
]


def _rescaled_findim(rng: random.Random, f, G) -> dict:
    scale = rng.uniform(0.5, 2.0)
    nz = 4 if any("z4" in s for s in f + G) else 2
    return {"nz": nz, "m": len(f),
            "f": [f"{_num(scale)} * ({s})" for s in f],
            "G": [f"{_num(rng.uniform(0.5, 2.0))} * ({s})" for s in G]}


# ---------------------------------------------------------------------------
# Workloads


def _weights(rng: random.Random, m: int) -> list:
    return [rng.uniform(0.1, 1.0) for _ in range(m)]


def _first_order(rng: random.Random, write) -> Workload:
    grids = (500, 1000, 2000, 4000)
    chains = [write(f"chain{i}.json", chain_doc(rng)[0]) for i in range(3)]
    for n_int in (100, *grids):
        write(f"ramp{n_int}.json", ramp_doc(n_int, rng.uniform(0.5, 2.0)))
    # origin with zero control: the two quadratic examples are KKT points;
    # the pendulum starts at x0 = (0.5, 0) where p2 != 0 forces theta != 0
    # against the inactive constraint u1 - 10, so its check fails
    builtins = {"example_6_1": "kkt-pass", "example_6_2": "kkt-pass",
                "damped_pendulum": "fail"}

    def kkt(ref, m, n_int, expected, label):
        return Request(["check-kkt", ref, "--lambda", _csv(_weights(rng, m)),
                        "--grid", str(n_int)], expected, label)

    def ramp(n_int):
        return Request(["check-socn", "builtin:example_6_2", "--directions",
                        f"ramp{n_int}.json", "--grid", str(n_int)],
                       "socn-violated", f"check-socn ramp N={n_int}")

    # one request per class: check-kkt on each builtin and on the chain, and
    # the ramp check-socn, at every N; the chain documents take turns
    cycle = []
    for i, n_int in enumerate(grids):
        cycle += [kkt(f"builtin:{name}", 2, n_int, expected, f"check-kkt {name} N={n_int}")
                  for name, expected in builtins.items()]
        cycle.append(kkt(chains[i % len(chains)], 3, n_int, "kkt-pass",
                         f"check-kkt chain N={n_int}"))
        cycle.append(ramp(n_int))
    rng.shuffle(cycle)
    warmup = [kkt(f"builtin:{name}", 2, 100, verdict, f"warm-up {name}")
              for name, verdict in builtins.items()]
    warmup += [kkt(c, 3, 100, "kkt-pass", "warm-up chain") for c in chains]
    warmup.append(ramp(100))
    return Workload(
        name="first-order",
        sizes={"N": list(grids), "n": [2, 6], "m": [2, 3], "lambda_grid": 21,
               "requests_per_cycle": len(cycle), "chain_pool": len(chains)},
        cycle=cycle, warmup=warmup, problem_docs=chains,
        builtins=list(builtins))


def _second_order(rng: random.Random, write) -> Workload:
    grids = (1000, 2000)
    # 50 curvature-search iterations (the CLI default is 100) shorten a
    # cycle, so a run holds more of them and its percentiles more samples
    socs_probes, socn_probes, max_iters = 1, 12, 50
    chains, coef = [], []
    for i in range(len(grids)):
        doc, cu1, cu2 = chain_doc(rng)
        chains.append(write(f"chain{i}.json", doc))
        coef.append((cu1, cu2))

    def socs(ref, lam, min_eig, n_int, label, iters=max_iters):
        # gamma0 below the exact min eigenvalue of lam^T L_uu: coercive, and
        # the curvature is positive on every unit direction, so socs-pass
        gamma0 = rng.uniform(0.3, 0.8) * min_eig
        return Request(["check-socs", ref, "--lambda", _csv(lam), "--gamma0",
                        _num(gamma0), "--probes", str(socs_probes), "--seed",
                        str(rng.randrange(1 << 30)), "--grid", str(n_int),
                        "--max-iters", str(iters)], "socs-pass", label)

    def socs_61(n_int, label, iters=max_iters):
        # example_6_1: L_uu = diag(2 lam1, 2 lam2) after rounding to 6 digits
        lam = [float(_num(v)) for v in _weights(rng, 2)]
        return socs("builtin:example_6_1", lam, 2 * min(lam), n_int, label, iters)

    def socs_chain(i, n_int, label, iters=max_iters):
        lam = [float(_num(v)) for v in _weights(rng, 3)]
        cu1, cu2 = coef[i]
        eig = 2 * min(sum(a * b for a, b in zip(lam, cu1)),
                      sum(a * b for a, b in zip(lam, cu2)))
        return socs(chains[i], lam, eig, n_int, label, iters)

    def socn(ref, n_int, probes, expected, label):
        return Request(["check-socn", ref, "--probes", str(probes), "--seed",
                        str(rng.randrange(1 << 30)), "--grid", str(n_int)],
                       expected, label)

    # example_6_1 and the chain have nonnegative curvature for every weight
    # (socn-pass); example_6_2 has int x_i^2 < int u_i^2 on every random
    # direction, so the first tested direction violates (socn-violated).
    # check-socs leaves example_6_2 out: its coercivity gate fails at once.
    # One request per class: each command on each of its problems at every N.
    cycle = []
    for i, n_int in enumerate(grids):
        cycle += [socs_61(n_int, f"check-socs example_6_1 N={n_int}"),
                  socs_chain(i, n_int, f"check-socs chain N={n_int}"),
                  socn("builtin:example_6_1", n_int, socn_probes, "socn-pass",
                       f"check-socn example_6_1 N={n_int}"),
                  socn(chains[i], n_int, socn_probes, "socn-pass",
                       f"check-socn chain N={n_int}"),
                  socn("builtin:example_6_2", n_int, socn_probes, "socn-violated",
                       f"check-socn example_6_2 N={n_int}")]
    rng.shuffle(cycle)
    warmup = [socs_61(100, "warm-up socs example_6_1", 5)]
    warmup += [socs_chain(i, 100, "warm-up socs chain", 5)
               for i in range(len(chains))]
    warmup += [socn(ref, 100, 2, expected, f"warm-up socn {ref}")
               for ref, expected in (("builtin:example_6_1", "socn-pass"),
                                     (chains[0], "socn-pass"),
                                     ("builtin:example_6_2", "socn-violated"))]
    return Workload(
        name="second-order",
        sizes={"N": list(grids), "n": [2, 6], "socs_probes": socs_probes,
               "socn_probes": socn_probes, "max_iters": max_iters,
               "requests_per_cycle": len(cycle)},
        cycle=cycle, warmup=warmup, problem_docs=chains,
        builtins=["example_6_1", "example_6_2"])


def _findim(rng: random.Random, write) -> Workload:
    oracle_steps = (12, 20, 25)
    cycle, warmup, docs = [], [], []

    def request(fname, zbar, dirs, steps, expected, label):
        argv = ["findim", fname, "--zbar", zbar,
                "--radius", _num(rng.uniform(0.3, 0.5)), "--steps", str(steps)]
        argv += [f"--dir={d}" for d in dirs]
        return Request(argv, expected, label)

    # one request per class: every program at every oracle grid
    for name, f, G, zbar, dirs, expected in FINDIM_FIXTURES + FINDIM_QUAD:
        fname = write(f"{name}.json", _rescaled_findim(rng, f, G))
        docs.append(fname)
        cycle += [request(fname, zbar, dirs, steps, expected, f"findim {name} steps={steps}")
                  for steps in oracle_steps]
        warmup.append(request(fname, zbar, dirs, 3, expected, f"warm-up {name}"))
    rng.shuffle(cycle)
    return Workload(
        name="findim",
        sizes={"nz": [2, 4], "m": [2, 3], "oracle_steps": list(oracle_steps),
               "oracle_points_max": (2 * max(oracle_steps) + 1) ** 4,
               "lambda_grid": 21, "requests_per_cycle": len(cycle)},
        cycle=cycle, warmup=warmup, findim_docs=docs)


GENERATORS = {"first-order": _first_order, "second-order": _second_order,
              "findim": _findim}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's documents into workdir and return its manifest.

    Request argv name documents relative to workdir; the runner makes it the
    current directory while requests run.
    """
    if name not in GENERATORS:
        raise KeyError(name)
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    def write(fname, doc):
        (workdir / fname).write_text(json.dumps(doc), encoding="utf-8")
        return fname

    workload = GENERATORS[name](rng, write)
    (workdir / "manifest.json").write_text(json.dumps(asdict(workload)),
                                           encoding="utf-8")
    return workload


def load_manifest(workdir: Path) -> Workload:
    data = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    for key in ("cycle", "warmup"):
        data[key] = [Request(**r) for r in data[key]]
    return Workload(**data)
