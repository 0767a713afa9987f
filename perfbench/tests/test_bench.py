"""Self-tests of the benchmark's tracer, counters, runner and checks.

    python3 -m pytest perfbench/tests -q

(run from the root of the checkout; dequiv is imported from ./src)."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from dequiv import algebra, derived, exactla, homology, posets, quivers  # noqa: E402

import jobs  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402

COUNTS = [name for name, unit, _ in spans.PER_LAYER if unit == "count"]


def traced(fn):
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.summary()


@pytest.fixture(scope="module")
def two_table_runs():
    def table():
        derived.beilinson_table_check((3, 3, 3))
    return traced(table), traced(table)


def test_counts_repeat_between_traced_runs(two_table_runs):
    a, b = two_table_runs
    for name in ("exactla.rref.calls", "exactla.rref.cells", "exactla.matmul.mults",
                 "homology.minimal_resolution.distinct"):
        assert a[name] > 0, name
    assert {n: a[n] for n in COUNTS} == {n: b[n] for n in COUNTS}


def test_table_check_alone_records_resolutions(two_table_runs):
    a, _ = two_table_runs
    assert a["homology.minimal_resolution.calls"] > 0
    # the table check re-resolves the same simples: fewer distinct inputs than calls
    assert a["homology.minimal_resolution.distinct"] < a["homology.minimal_resolution.calls"]


def test_counts_do_not_depend_on_hash_seed():
    script = ("import json, sys; sys.path[:0] = [%r, %r]; import spans; "
              "from dequiv import derived; t = spans.Tracer(); t.install(); "
              "derived.no_poset_search(3); t.uninstall(); s = t.summary(); "
              "print(json.dumps({n: s[n] for n, u, _ in spans.PER_LAYER if u == 'count'}))"
              % (str(ROOT / "src"), str(BENCH)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        outs.append(json.loads(done.stdout))
    assert outs[0] == outs[1]


def test_from_imports_and_methods_are_rebound_and_restored():
    original_cert = homology.certificate
    original_rref = exactla.ExactMatrix.__dict__["rref"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert derived.certificate is homology.certificate is not original_cert
        assert derived.global_dimension is homology.global_dimension
        assert exactla.ExactMatrix.__dict__["rref"] is not original_rref
    finally:
        tracer.uninstall()
    assert derived.certificate is homology.certificate is original_cert
    assert exactla.ExactMatrix.__dict__["rref"] is original_rref


def test_calls_through_derived_are_traced():
    s = traced(lambda: derived.no_poset_search(2))
    # the target plus one certificate per connected 3-element poset
    assert s["homology.certificate.calls"] == 1 + jobs.CONNECTED_POSETS[3]
    assert s["derived.search.candidates"] == jobs.CONNECTED_POSETS[3]
    assert s["derived.search.hits"] == 0
    assert s["posets.enumerate_posets.calls"] == 2
    assert s["homology.global_dimension.calls"] == s["homology.certificate.calls"]


def test_distinct_counts_content_not_identity():
    algs = [algebra.build_algebra(quivers.canonical_presentation([2, 2, 3])) for _ in range(2)]

    def resolve():
        for a in algs:
            homology.minimal_resolution(algebra.simple_module(a, "0"))
        homology.minimal_resolution(algebra.simple_module(algs[0], "w"))

    s = traced(resolve)
    assert s["homology.minimal_resolution.calls"] == 3
    assert s["homology.minimal_resolution.distinct"] == 2


def test_self_time_excludes_children_and_total_counts_outer_spans():
    t = spans.Tracer()
    t.spans[:] = [
        ("homology.certificate", 0.0, 10.0, -1, 0, True),
        ("exactla.det", 1.0, 4.0, 0, 0, True),
        ("exactla.rref", 5.0, 9.0, 0, 0, True),
        ("exactla.rref", 6.0, 7.0, 2, 0, False),
    ]
    s = t.summary()
    assert s["homology.certificate.self_s"] == 3.0
    assert s["homology.certificate.total_s"] == 10.0
    assert s["exactla.det.self_s"] == 3.0
    assert s["exactla.rref.calls"] == 2
    assert s["exactla.rref.self_s"] == 4.0
    assert s["exactla.rref.total_s"] == 4.0


def test_failed_jobs_are_counted_once_and_not_retried():
    ran = []

    def ok(ctx):
        ran.append("ok")

    def wrong(ctx):
        ran.append("wrong")
        jobs.expect(False, "deliberately wrong")

    def boom(ctx):
        ran.append("boom")
        raise ValueError("deliberate")

    work = jobs.Workload([jobs.Job("ok", ok), jobs.Job("wrong", wrong), jobs.Job("boom", boom)], 0)
    p = bench.run_pass(work)
    assert ran == ["ok", "wrong", "boom"]
    assert [f["job"] for f in p["failures"]] == ["wrong", "boom"]
    assert len(p["job_wall"]) == 3


def test_known_answer_helpers():
    assert jobs.is_x222(posets.build_Xp(2, 2, 2))
    assert not jobs.is_x222(posets.chain(5))
    assert not jobs.is_x222(posets.build_Xp(2, 2, 3))
    assert jobs.components(["a", "b", "c", "d"], [("a", "b"), ("c", "b")]) == 2


def test_inputs_depend_only_on_seed():
    dq = SimpleNamespace(exactla=exactla, posets=posets, quivers=quivers,
                         algebra=algebra, homology=homology, derived=derived)
    a = [j.label for j in jobs.sweep(dq, 5).jobs]
    b = [j.label for j in jobs.sweep(dq, 5).jobs]
    c = [j.label for j in jobs.sweep(dq, 6).jobs]
    assert a == b != c
    assert len(a) == 150
    assert len(jobs.tables(dq, 5).jobs) == 6 + 7 * (8 + 9 + 10)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(jobs.WORKLOADS)
