"""Benchmark of the lerchphi library: one workload per run, closed loop, one
caller, one thread.

    python3 perfbench/run.py --workload plane --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

A run builds the workload's pool of inputs from the seed and cycles through
it until --seconds have passed, at least once, timing every operation.  The
first pass gives the outputs that are checked: against 30-digit references
for a seeded sample of the pool, for well-formedness, and for equality with
every later repeat of the same input.

Each input's latency is its best over the repeats the run made of it, and
the loop moves to the next allowed CPU every CPU_SLICE seconds.  On a shared
machine other tenants slow one CPU, sometimes for a whole run, by up to 1.9x
in CPU time as well as in wall time; the best repeat is one such
interference left alone, and per-input costs are deterministic, so the
figures then repeat from run to run.

--trace 0 reports the end-to-end metrics; set-up is sampled in fresh
interpreters every SETUP_EVERY seconds during the run, and the best sample
counts.  --trace 1 reports the per-layer metrics of a separate traced run.
Human-readable lines go first; the last line of stdout is one JSON object.  Reports and spans are written under .bench_out/ in the checkout.
The exit code is 1 when any output is wrong (bound violation, malformed or
nondeterministic output) and 2 when the library's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("plane", "near_circle", "compare", "certify")
CPU_SLICE = 0.25  # seconds on one CPU before the timed loop moves on
SETUP_EVERY = 1.0  # seconds between set-up samples during a run

# end-to-end metric -> (better, unit), as in BENCHMARK.json
END_TO_END = {
    "ops_per_s": ("higher", "1/s"),
    "op_p50_ms": ("lower", "ms"),
    "op_tail_ms": ("lower", "ms"),
    "setup_s": ("lower", "s"),
}


def _load_library():
    if not (SRC / "lerchphi" / "__init__.py").is_file():
        print(f"benchmark: no library sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lerchphi

    if Path(lerchphi.__file__).resolve().parent != SRC / "lerchphi":
        print(f"benchmark: imported lerchphi from {lerchphi.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


class SetupSampler:
    """Seconds for a fresh interpreter to import the package and call every
    route once, sampled at most every SETUP_EVERY seconds while a run goes
    on, so that the samples span the run; the first start, unmeasured,
    writes bytecode caches."""

    def __init__(self):
        self.cmd = [sys.executable, "-I", str(HERE / "fresh_setup.py"), str(SRC)]
        self.samples = []
        self._run()
        self.samples.clear()
        self.last = time.perf_counter()

    def _run(self):
        out = subprocess.run(self.cmd, check=True, capture_output=True,
                             text=True, timeout=60)
        self.samples.append(float(out.stdout.strip().splitlines()[-1]))

    def __call__(self):
        if time.perf_counter() - self.last >= SETUP_EVERY:
            self._run()
            self.last = time.perf_counter()

    def best(self):
        while len(self.samples) < 5:
            self._run()
        return min(self.samples)


class _CpuRotation:
    """Moves this process from one allowed CPU to the next on request, and
    back to all of them on exit.  Another tenant of the machine can slow one
    CPU for a whole run; rotating gives each input repeats on every CPU.
    Where affinity cannot be set, it does nothing."""

    def __enter__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.i = 0
        return self

    def next(self):
        if len(self.cpus) > 1:
            self.i += 1
            self._pin({self.cpus[self.i % len(self.cpus)]})

    def __exit__(self, *exc):
        if len(self.cpus) > 1:
            self._pin(self.cpus)

    def _pin(self, cpus):
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            self.cpus = []


def _environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def _same(x, y):
    return x == y or repr(x) == repr(y)  # repr: NaN != NaN


class Passes:
    """Passes over a pool until a deadline, at least one: the first pass's
    outputs, each input's best latency and repeat count, and how many later
    outputs differed from the first.  ``before_op(j)`` is called before the
    operation on input j, ``before_op(None)`` after each full pass, and
    ``on_slice()`` each time the loop moves to another CPU."""

    def __init__(self, op, pool, seconds, before_op=None, on_slice=None):
        size = len(pool)
        self.keys, self.kinds = [None] * size, [None] * size
        self.best = [math.inf] * size
        self.mismatched = 0
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        switch = start
        i = 0
        with _CpuRotation() as cpus:
            while i < size or clock() < deadline:
                j = i % size
                if before_op is not None:
                    before_op(j)
                if clock() >= switch:
                    cpus.next()
                    if on_slice is not None:
                        on_slice()
                    switch = clock() + CPU_SLICE
                t0 = clock()
                key, kind = op(pool[j])
                t = clock() - t0
                if t < self.best[j]:
                    self.best[j] = t
                if i < size:
                    self.keys[j], self.kinds[j] = key, kind
                elif not _same(key, self.keys[j]):
                    self.mismatched += 1
                i += 1
                if before_op is not None and j == size - 1:
                    before_op(None)
        self.ops = i
        self.seconds = clock() - start
        self.repeats = [i // size + (j < i % size) for j in range(size)]

    def ops_per_s(self):
        """Pool size over the sum of the inputs' best latencies."""
        return len(self.best) / math.fsum(self.best)


def _quantile(sorted_values, q):
    """Nearest-rank quantile."""
    idx = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[idx]


def _reference_checks(wl, oracle, tol, pool, keys, sample):
    """(inputs with a bound violation, violations, estimate misses, notes)."""
    bad, notes = set(), []
    violations = misses = 0
    for i in sample:
        z, n, a = pool[i]
        ref = oracle.reference(z, n, a)
        for value, err, _, _ in wl.results(keys[i]):
            violation, miss = oracle.check(value, err, tol, ref)
            misses += miss
            violations += violation
            if violation:
                bad.add(i)
                notes.append(f"bound violation at {pool[i]}: value {value} "
                             f"err {err:.3g}, reference {ref[0]} +- {ref[1]:.3g}")
    return bad, violations, misses, notes


def run_workload(name, seed, seconds, trace):
    import oracle
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    pool = wl.inputs(rng, wl.pool)
    sample = sorted(rng.sample(range(wl.pool), wl.references))
    metrics = {}
    setup = None if trace else SetupSampler()
    run = Passes(wl.op, pool, seconds / 2 if trace else seconds, on_slice=setup)
    bad, violations, misses, notes = _reference_checks(
        wl, oracle, workloads.TOL, pool, run.keys, sample)
    for i, key in enumerate(run.keys):
        why = wl.malformed(key)
        if why:
            bad.add(i)
            notes.append(f"malformed output for {pool[i]}: {why}")
    work = {}
    for key in run.keys:
        for _, _, method, terms in wl.results(key):
            method = method.replace(" (degraded)", "")
            work[method] = work.get(method, 0) + terms

    tail = None
    if trace:
        tracer = tracing.Tracer()
        pass_counts, pass_times = [], []

        def before_op(j):
            if j is not None:
                tracer.op = j
                return
            spans = tracer.take()
            if not pass_counts:
                _write_spans(name, seed, spans)
            counts, times = tracing.aggregate(spans)
            pass_counts.append(counts)
            pass_times.append(times)

        tracer.install()
        try:
            traced = Passes(wl.op, pool, seconds / 2, before_op)
        finally:
            tracer.uninstall()
        if any(counts != pass_counts[0] for counts in pass_counts):
            notes.append("per-layer counts differ between passes")
            bad.add(-1)
        metrics.update(tracing.layer_metrics(pass_counts[0], pass_times))
        metrics.update(tracing.run_probes(repeats=5))
        metrics["trace.ops_per_s_untraced"] = run.ops_per_s()
        metrics["trace.ops_per_s_traced"] = traced.ops_per_s()
        metrics["trace.overhead_share"] = 1.0 - traced.ops_per_s() / run.ops_per_s()
        units = {n: (u, b) for n, b, u in tracing.metric_specs()}
    else:
        lat_ms = sorted(1e3 * t for t in run.best)
        metrics["setup_s"] = setup.best()
        metrics["ops_per_s"] = run.ops_per_s()
        metrics["op_p50_ms"] = statistics.median(lat_ms)
        metrics["op_tail_ms"] = _quantile(lat_ms, wl.tail_percentile / 100)
        tail = {"percentile": wl.tail_percentile, "inputs": wl.pool,
                "inputs_beyond": sum(t > metrics["op_tail_ms"] for t in lat_ms)}
        units = {n: (u, b) for n, (b, u) in END_TO_END.items()}

    failures = sum(r for r, kind in zip(run.repeats, run.kinds) if kind)
    kinds = {}
    for kind in run.kinds:
        if kind:
            kinds[kind] = kinds.get(kind, 0) + 1
    report = {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": _environment(),
        "pool": wl.pool, "attempted": run.ops, "timed_seconds": run.seconds,
        "repeats": [min(run.repeats), max(run.repeats)], "op_tail": tail,
        "fail_share": failures / run.ops, "failures": failures,
        "failing_inputs": kinds, "work_per_pass": work,
        "references": wl.references, "bound_violations": violations,
        "estimate_misses": misses, "mismatched": run.mismatched,
        "failed": sum(run.repeats[i] for i in bad if i >= 0) + run.mismatched,
        "correct": not bad and run.mismatched == 0,
        "notes": notes,
        "metrics": {n: {"value": v, "unit": units[n][0], "better": units[n][1]}
                    for n, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report


def _write_spans(name, seed, spans):
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
        fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                        "parent", "op"]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span[:5]) + "\n")


def _print_summary(report):
    lo, hi = report["repeats"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"ops {report['attempted']}  pool {report['pool']}  "
          f"repeats per input {lo}-{hi}")
    for name, m in report["metrics"].items():
        extra = ""
        if name == "op_tail_ms":
            tail = report["op_tail"]
            extra = (f"  (p{tail['percentile']:g} of {tail['inputs']} inputs, "
                     f"{tail['inputs_beyond']} beyond)")
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_share':<44} {report['fail_share']:.6g} share "
          f"({report['failures']} of {report['attempted']} ops; failing "
          f"inputs {report['failing_inputs']})")
    print(f"  bound_violations {report['bound_violations']} in "
          f"{report['references']} referenced inputs, estimate_misses "
          f"{report['estimate_misses']}, mismatched outputs "
          f"{report['mismatched']}")
    for note in report["notes"]:
        print(f"  ! {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_library()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        reports.append(run_workload(name, args.seed, args.seconds, args.trace))
        _print_summary(reports[-1])
    prefix = len(reports) > 1
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}.{n}" if prefix else n):
                {"value": m["value"], "unit": m["unit"]}
            for r in reports for n, m in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
