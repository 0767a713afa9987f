"""The names the benchmark in perfbench/ reads off the package resolve.

The benchmark wraps library functions by name, reads the recorded kernel
backend and calls the layers from its jobs.  Its own tests are outside the
tier-1 test paths, so these checks make a deletion in src/ that would break
a benchmark run fail here.  The perfbench files are only read: they are
imported without writing bytecode next to them."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import dequiv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    """perfbench/<name>.py as a module, imported without bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    # Tracer.install looks each target up in its holder's __dict__
    spans = load("spans", monkeypatch)
    assert spans.TARGETS
    for name, modname, attr, _, _ in spans.TARGETS:
        holder, field = spans._resolve(importlib.import_module(modname), attr)
        assert field in holder.__dict__, name


def test_the_kernel_backend_is_recorded():
    # perfbench/run.py writes it into every run's record
    assert isinstance(dequiv.KERNEL_BACKEND, str)


def test_every_layer_name_the_jobs_call_resolves(monkeypatch):
    jobs = load("jobs", monkeypatch)
    tree = ast.parse(Path(jobs.__file__).read_text())
    used = {(node.value.attr, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "dq"}
    assert used
    for layer, name in sorted(used):
        assert hasattr(importlib.import_module("dequiv." + layer), name), (layer, name)
