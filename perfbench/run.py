"""dequiv benchmark: run one workload closed loop and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; dequiv is imported from ./src.
One client, one job at a time, in this process: each pass runs every job
of the workload once and checks its answer.  Passes repeat until the next
one would end more than --seconds after the start, set-up included.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, including the
tracing overhead.  A record of the run (machine, revision, every job time
and the yardstick runs beside it) is written under perfbench/out/.

Exit codes: 0 all answers correct, 1 a job failed, 2 dequiv not found.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import jobs as workloads  # noqa: E402
import yardstick  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

LAYERS = ("exactla", "posets", "quivers", "algebra", "homology", "derived")
SETUP_REPEATS = 9
# the yardstick's time on an idle core of a shared 2-vCPU x86-64 VM; it only
# scales set-up time into seconds at that machine speed
NOMINAL_YARDSTICK_S = 0.0025
SAMPLE_INTERVAL_S = 0.25

# (name, unit, better); every one is reported on every workload.  Times are
# in yardsticks (see yardstick.py); set-up is in seconds at the nominal
# yardstick speed.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_ys", "yardstick", "lower"),
    ("cpu_ys", "yardstick", "lower"),
    ("job_p50_ys", "yardstick", "lower"),
    ("job_p90_ys", "yardstick", "lower"),
    ("jobs_per_kys", "1/kyardstick", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


class SetupError(RuntimeError):
    pass


def import_dequiv():
    """Import dequiv afresh from ./src and return its layer modules."""
    for name in [n for n in sys.modules if n == "dequiv" or n.startswith("dequiv.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dequiv")
    if Path(pkg.__file__).resolve().parent != SRC / "dequiv":
        raise SetupError("imported dequiv from %s, not from %s" % (pkg.__file__, SRC))
    mods = {layer: importlib.import_module("dequiv." + layer) for layer in LAYERS}
    return SimpleNamespace(package=pkg, **mods)


def setup(workload, seed):
    """Import dequiv and build the workload's inputs SETUP_REPEATS times.

    Returns the last result, each repeat's time in seconds and the same
    time in nominal seconds: scaled by NOMINAL_YARDSTICK_S over the mean of
    the yardstick runs just before and after it."""
    yardstick.measure()  # warm-up, not used
    raw, nominal = [], []
    before = yardstick.measure()[0]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        dq = import_dequiv()
        work = workloads.WORKLOADS[workload](dq, seed)
        raw.append(time.perf_counter() - t0)
        after = yardstick.measure()[0]
        nominal.append(raw[-1] * NOMINAL_YARDSTICK_S / ((before + after) / 2))
        before = after
    return dq, work, raw, nominal


class InJobSampler:
    """Runs the yardstick every SAMPLE_INTERVAL_S while a job runs, from a
    SIGALRM handler (no thread), so that a long job's cost is measured
    against the machine speed during the job and not only at its ends.
    The time the handler takes is kept apart and taken off the job's time."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.active = False
        self.samples, self.taken_wall, self.taken_cpu = [], 0.0, 0.0

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        if not self.active:
            return
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(yardstick.measure())
        self.taken_wall += time.perf_counter() - w0
        self.taken_cpu += time.process_time() - c0

    def start(self):
        self.samples, self.taken_wall, self.taken_cpu = [], 0.0, 0.0
        self.active = True

    def stop(self):
        self.active = False


def run_pass(work, tracer=None):
    """Run every job once, each between two yardstick runs and, in an
    untraced pass, with yardstick samples taken during the job.

    Returns per-job wall and CPU seconds, each job's yardstick runs as
    (wall, cpu) pairs, and the failures."""
    gc.collect()
    ctx = {}
    lat, cpu, job_ys, failures = [], [], [], []
    t_start = time.perf_counter()
    before = yardstick.measure()
    with InJobSampler(enabled=tracer is None) as sampler:
        for j, job in enumerate(work.jobs):
            if tracer is not None:
                tracer.job = j
            w0, c0 = time.perf_counter(), time.process_time()
            sampler.start()
            try:
                job.run(ctx)
            except Exception as exc:  # a failed job is counted, reported and not retried
                failures.append({"job": job.label, "error": "%s: %s" % (type(exc).__name__, exc),
                                 "traceback": traceback.format_exc(limit=4)})
            sampler.stop()
            lat.append(time.perf_counter() - w0 - sampler.taken_wall)
            cpu.append(time.process_time() - c0 - sampler.taken_cpu)
            after = yardstick.measure()
            job_ys.append([before] + sampler.samples + [after])
            before = after
    return {"elapsed": time.perf_counter() - t_start, "traced": tracer is not None,
            "job_wall": lat, "job_cpu": cpu, "job_yardsticks": job_ys, "failures": failures}


def in_yardsticks(p, job_key, which):
    """Each job's time divided by the median of its yardstick runs
    (which = 0 for wall, 1 for CPU time)."""
    return [t / statistics.median(y[which] for y in ys)
            for t, ys in zip(p[job_key], p["job_yardsticks"])]


def median_per_job(series):
    """Each job's median over the passes; `series` holds one list per pass."""
    return [statistics.median(col) for col in zip(*series)]


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(work, deadline, trace):
    """Closed loop of passes until the next pass would end after `deadline`
    (a time.perf_counter() value).

    In trace mode passes alternate untraced/traced, at least one of each."""
    tracer = Tracer() if trace else None
    passes, summaries, first_spans = [], [], []
    while True:
        if trace and len(passes) % 2 == 1:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(work, tracer)
            finally:
                tracer.uninstall()
            summaries.append(tracer.summary())
            if not first_spans:
                first_spans = list(tracer.spans)
        else:
            p = run_pass(work)
        passes.append(p)
        if trace and len(passes) < 2:
            continue
        slowest = max(q["elapsed"] for q in passes)
        if time.perf_counter() + slowest > deadline:
            break
    return passes, summaries, first_spans


def end_to_end(work, passes, setup_nominal, setup_raw):
    norm = median_per_job([in_yardsticks(p, "job_wall", 0) for p in passes])
    norm_cpu = median_per_job([in_yardsticks(p, "job_cpu", 1) for p in passes])
    raw = median_per_job([p["job_wall"] for p in passes])
    raw_cpu = median_per_job([p["job_cpu"] for p in passes])
    wall = sum(norm)
    values = {
        "setup_s": statistics.median(setup_nominal),
        "wall_ys": wall,
        "cpu_ys": sum(norm_cpu),
        "job_p50_ys": statistics.median(norm),
        "job_p90_ys": quantile(norm, 90),
        "jobs_per_kys": 1000.0 * len(norm) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # the same statistics in plain seconds, which drift with the machine
    extra = {
        "setup_raw_s": statistics.median(setup_raw),
        "job_samples": len(norm),
        "wall_s": sum(raw),
        "cpu_s": sum(raw_cpu),
        "job_p50_s": statistics.median(raw),
        "job_p90_s": quantile(raw, 90),
        "jobs_per_s": len(raw) / sum(raw),
    }
    if work.candidates:
        extra["candidates_per_s"] = work.candidates / sum(raw)
        extra["candidates_per_kys"] = 1000.0 * work.candidates / wall
    return values, extra


def per_layer(passes, summaries):
    """Counts from the first traced pass (they must repeat in every traced
    pass), times from the fastest traced pass, and the overhead as traced
    against untraced cost in yardsticks."""
    first = summaries[0]
    values = {}
    for name, unit, _ in PER_LAYER:
        if name in first:
            values[name] = min(s[name] for s in summaries) if unit == "s" else first[name]

    def cost(traced):
        return sum(median_per_job([in_yardsticks(p, "job_wall", 0)
                                   for p in passes if p["traced"] == traced]))
    traced, untraced = cost(True), cost(False)
    values["trace.overhead_frac"] = traced / untraced - 1.0
    mismatched = sorted(n for n, unit, _ in PER_LAYER
                        if unit == "count" and any(s[n] != first[n] for s in summaries))
    return values, {"traced_wall_ys": traced, "untraced_wall_ys": untraced,
                    "counts_repeat": not mismatched, "counts_differ": mismatched}


def git_revision():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "dequiv").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def write_outputs(args, record, spans):
    """The record, and the spans of the first traced pass (one file per
    workload, overwritten), go under perfbench/out/."""
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans:
        with gzip.open(OUT / ("spans-%s.tsv.gz" % args.workload), "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            for i, (name, start, end, parent, job, _) in enumerate(spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%s\n" % (i, name, start, end, parent, job))


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dequiv" / "__init__.py").is_file():
        print("error: %s/dequiv not found; run from the root of a dequiv checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        dq, work, setup_raw, setup_nominal = setup(args.workload, args.seed)
    except (ImportError, SetupError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    # set-up counts against --seconds, so a run takes about --seconds in all
    passes, summaries, spans = measure(work, started + args.seconds, bool(args.trace))
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["job_wall"]) for p in passes)
    if args.trace:
        values, extra = per_layer(passes, summaries)
        spec = PER_LAYER
    else:
        values, extra = end_to_end(work, passes, setup_nominal, setup_raw)
        spec = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(), "source_sha256": source_digest(),
        "python": platform.python_version(), "kernel_backend": dq.package.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)), "setup_raw_s": setup_raw,
        "setup_nominal_s": setup_nominal,
        "jobs": [j.label for j in work.jobs],
        "passes": [{k: v for k, v in p.items() if k != "failures"} for p in passes],
        "failures": failures, "metrics": values, "extra": extra,
    }
    write_outputs(args, record, spans)

    ys = [statistics.median(y[0] for ys in p["job_yardsticks"] for y in ys) for p in passes]
    print("workload=%s seed=%d trace=%d backend=%s python=%s nproc=%d rev=%s src=%s"
          % (args.workload, args.seed, args.trace, record["kernel_backend"], record["python"],
             record["nproc"], (record["git_revision"] or "none")[:12], record["source_sha256"]))
    print("passes=%d jobs/pass=%d attempted=%d failed=%d failed_frac=%.4f yardstick_ms=%.3f (%.3f-%.3f)"
          % (len(passes), len(work.jobs), attempted, len(failures), len(failures) / attempted,
             1000 * statistics.median(ys), 1000 * min(ys), 1000 * max(ys)))
    for key, value in sorted(extra.items()):
        print("  %s = %s" % (key, value))
    for name, unit, _ in spec:
        print("  %-44s %20s %s" % (name, values[name], unit))
    for f in failures[:5]:
        print("FAILED %s: %s" % (f["job"], f["error"]), file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
