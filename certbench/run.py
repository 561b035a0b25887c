"""Certificate-throughput benchmark for paretocert.

Run from the repository root:

    python3 certbench/run.py --workload first-order --seed 1 --seconds 30 --trace 0

One closed-loop client in this process replays the workload's seeded
request cycle through ``paretocert.cli.main`` (imported from ``src/``),
sending each request only after the previous one returns, until
``--seconds`` have passed and the current cycle is complete.  BLAS/OpenMP
threads are capped at the number of usable cores.  Every certificate is
checked: the exit code must match the verdict (0 pass, 2 otherwise),
``certificate.recompute_overall_verdict`` must reproduce the emitted
verdict, the verdict must be the one known by construction, and a repeated
request must give the same bytes apart from ``wall_time_s``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced cycles with cycles in which every layer is wrapped (see
layers.py), reports the per-layer metrics and the tracing overhead (the
drop in certs_per_s from untraced to traced cycles of the same seed), and
writes the spans to ``.certbench_out/``.  The metric names and units are
the ones BENCHMARK.json lists.  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics; the exit
status is 1 if any certificate failed a check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".certbench_out"
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

THREADS = len(os.sched_getaffinity(0))
# must be set before numpy is imported anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import workloads  # noqa: E402  (stdlib only; sibling module)

SETUP_SAMPLES = 5  # this process plus four fresh interpreters
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
WALL_TIME_LINE = re.compile(r'^  "wall_time_s": .*$', re.MULTILINE)


class ProgramMissing(Exception):
    pass


def import_program():
    """Import the CLI and the loaders from the checkout's src/ tree."""
    if not (SRC / "paretocert" / "__init__.py").is_file():
        raise ProgramMissing(f"no paretocert package under {SRC}")
    sys.path.insert(0, str(SRC))
    from paretocert import certificate, cli, findim, problem

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"paretocert imported from {cli.__file__}, not {SRC}")
    return certificate, cli, findim, problem


class Client:
    """Sends requests through the in-process CLI and checks each certificate."""

    def __init__(self, certificate_mod, cli_mod):
        self.certificate = certificate_mod
        self.cli = cli_mod
        self.digests = {}
        self.repeats_checked = 0
        self.attempted = 0
        self.failures = []

    def send(self, request, key):
        """Returns (latency_s, ok)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(request.argv))
            except Exception as exc:  # a raising request is a failed request
                latency = time.perf_counter() - start
                return latency, self._fail(request, f"raised {type(exc).__name__}: {exc}")
            latency = time.perf_counter() - start
        return latency, self._check(request, key, code, out.getvalue(), err.getvalue())

    def _fail(self, request, reason):
        self.failures.append(f"{request.label}: {reason} [{' '.join(request.argv)}]")
        return False

    def _check(self, request, key, code, text, err_text):
        if code not in (0, 2):
            return self._fail(request, f"exit {code}: {err_text.strip()}")
        try:
            cert = json.loads(text)
        except json.JSONDecodeError as exc:
            return self._fail(request, f"certificate is not JSON ({exc})")
        verdict = cert["overall_verdict"]
        want_code = 0 if verdict in workloads.PASS_VERDICTS else 2
        if code != want_code:
            return self._fail(request, f"exit {code} for verdict {verdict}")
        recomputed = self.certificate.recompute_overall_verdict(cert)
        if recomputed != verdict:
            return self._fail(request, f"verdict {verdict} recomputes as {recomputed}")
        if verdict != request.expected:
            return self._fail(request, f"verdict {verdict}, expected {request.expected}")
        digest = hashlib.sha256(WALL_TIME_LINE.sub("", text).encode()).hexdigest()
        if key in self.digests:
            self.repeats_checked += 1
            if self.digests[key] != digest:
                return self._fail(request, "repeated request gave different bytes")
        else:
            self.digests[key] = digest
        return True


def set_up(workload, workdir):
    """Import, load every problem document, warm up.  Returns (seconds, client)."""
    start = time.perf_counter()
    certificate, cli, findim, problem = import_program()
    for name in workload.builtins:
        problem.builtin(name)
    for fname in workload.problem_docs:
        problem.load_problem((workdir / fname).read_text(encoding="utf-8"))
    for fname in workload.findim_docs:
        findim.load_findim_problem((workdir / fname).read_text(encoding="utf-8"))
    client = Client(certificate, cli)
    for i, request in enumerate(workload.warmup):
        client.send(request, ("warm-up", i))
    return time.perf_counter() - start, client


def probe_setup(workdir):
    """--setup-probe: one cold set-up in a fresh interpreter."""
    os.chdir(workdir)
    workload = workloads.load_manifest(workdir)
    seconds, client = set_up(workload, workdir)
    print(json.dumps({"setup_s": seconds, "failures": client.failures}))
    return 0


def setup_in_subprocess(workdir):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir)],
        cwd=workdir, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["failures"]


def run_cycles(client, cycle, seconds, on_request=None):
    """Closed loop over whole cycles until `seconds` have passed.

    Returns one list of (label, latency_s, ok) per completed cycle.
    """
    cycles = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        done = []
        for i, request in enumerate(cycle):
            if on_request is not None:
                on_request(request)
            latency, ok = client.send(request, i)
            done.append((request.label, latency, ok))
        cycles.append(done)
        if time.perf_counter() >= deadline:
            return cycles


def cycle_rate(cycles):
    """Median over cycles of correct certificates per second of service time.

    Every cycle holds the same requests, so per-cycle rates are comparable
    and their median shrugs off a cycle slowed by something outside the
    program.
    """
    return statistics.median(sum(ok for _, _, ok in c) / sum(lat for _, lat, _ in c)
                             for c in cycles)


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:  # too few samples: the maximum stands in
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def listed_metrics(key, values):
    """The metrics BENCHMARK.json lists under `key`, as name -> (value, unit)."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    missing = [m["name"] for m in spec[key] if m["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json {key} metrics without a value: {missing}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec[key]}


def report_line(name, value, unit, note=""):
    print(f"  {name:<46} {value:>14.6g} {unit:<10} {note}".rstrip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe is not None:
            return probe_setup(args.setup_probe)
        if args.workload is None:
            parser.error("--workload is required")
        if not (SRC / "paretocert" / "__init__.py").is_file():
            raise ProgramMissing(f"no paretocert package under {SRC}")
        workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        try:
            return measure(args, workdir)
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
    except ProgramMissing as exc:
        print(f"certbench: {exc}", file=sys.stderr)
        return 2


def measure(args, workdir):
    workload = workloads.generate(args.workload, args.seed, workdir)
    os.chdir(workdir)
    setup_s, client = set_up(workload, workdir)
    setups = [setup_s]
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            seconds, failures = setup_in_subprocess(workdir)
            setups.append(seconds)
            client.failures += failures

    cycle = workload.cycle
    trace_values = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        targets = layers.targets(tracer)
        labels = []

        def on_request(request):
            tracer.request_id = len(labels)
            labels.append(request.label)

        # untraced and traced cycles alternate, so the overhead compares
        # neighbouring cycles and slow drift of the machine cancels out
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            untraced += run_cycles(client, cycle, 0)
            tracer.install(targets)
            try:
                traced += run_cycles(client, cycle, 0, on_request)
            finally:
                tracer.uninstall()
        rate_untraced, rate_traced = cycle_rate(untraced), cycle_rate(traced)
        overhead = 1.0 - rate_traced / rate_untraced
        trace_values = layers.per_layer_values(tracer, len(labels), overhead)
        span_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(span_path, labels)
        # end-to-end figures in the report come from the untraced cycles
        cycles = untraced
    else:
        cycles = run_cycles(client, cycle, args.seconds)
    if client.repeats_checked == 0:
        client.send(cycle[0], 0)  # guarantees one repeated, byte-compared request
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = [done for c in cycles for done in c]
    latencies = [lat for _, lat, _ in timed]
    tail_value, tail_pct = tail(latencies)
    # failed_frac is printed below but not listed in BENCHMARK.json: it is 0
    # on a correct run, and the result line's failed / attempted carry it
    end_to_end = listed_metrics("end_to_end", {
        "setup_s": statistics.median(setups),
        "certs_per_s": cycle_rate(cycles),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    })
    failed = len(client.failures)
    attempted = client.attempted + (len(setups) - 1) * len(workload.warmup)

    print(f"certbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  load: closed loop, 1 client, in-process, BLAS/OpenMP threads capped at {THREADS}")
    print(f"  sizes: {json.dumps(workload.sizes)}")
    print(f"  requests: {len(timed)} timed ({len(cycles)} cycles of "
          f"{len(cycle)}), {attempted} attempted in all, {failed} failed "
          f"(failed_frac {failed / attempted:.4g}), "
          f"{client.repeats_checked} repeats byte-compared")
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "latency_tail_s": f"p{tail_pct:.1f} of {len(latencies)} samples, "
                          f"{min(TAIL_BEYOND, len(latencies) - 1)} beyond",
    }
    for name, (value, unit) in end_to_end.items():
        report_line(name, value, unit, notes.get(name, ""))
    by_label = {}
    for label, lat, _ in timed:
        by_label.setdefault(label, []).append(lat)
    print("  per request class (count, median latency s):")
    for label in sorted(by_label):
        print(f"    {label:<44} {len(by_label[label]):>4} "
              f"{statistics.median(by_label[label]):.4f}")
    for failure in client.failures[:20]:
        print(f"  FAILED {failure}")

    if trace_values is not None:
        print(f"  tracing: certs_per_s untraced {rate_untraced:.4f}, traced "
              f"{rate_traced:.4f}, overhead {overhead:.2%}; spans: {span_path.relative_to(ROOT)}")
        shown = listed_metrics("per_layer", trace_values)
        for name, (value, unit) in shown.items():
            report_line(name, value, unit)
    else:
        shown = end_to_end
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
