"""Per-layer tracing of dequiv, installed from outside the package.

`Tracer.install()` replaces each function in TARGETS with a wrapper that
records a span (name, start, end, parent span, job id) plus the work the
call was handed.  A module-level function is replaced in its defining
module and in every loaded dequiv module that bound it by a
`from ... import`, so calls made through `derived` or `cli` are seen too; a
method is replaced on its class.  `uninstall()` puts the originals back, so
untraced passes run unmodified code.

Spans stay in memory until the run writes them out.  A span's self time is
its duration minus the durations of its direct children (one thread, so
children never overlap); a function's total time counts only its outermost
spans, so a call nested in a call of the same function is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# -- content keys: distinct inputs are counted by value, never by id ----------


def algebra_key(a):
    p = a.presentation
    return (p.quiver, p.relations, p.field.name)


def _matrix_key(m):
    return (m.nrows, m.ncols, m.entries)


def _rep_key(m):
    return (m.dims, tuple((name, _matrix_key(mat)) for name, mat in m.maps))


def module_key(m, cap=None):
    return (algebra_key(m.algebra), _rep_key(m), cap)


def complex_key(x, cap=None):
    return (algebra_key(x.algebra),
            tuple((d, _rep_key(t)) for d, t in sorted(x.terms.items())),
            tuple((d, tuple(_matrix_key(b) for b in mm.blocks))
                  for d, mm in sorted(x.diffs.items())),
            cap)


def _cells(m):
    return m.nrows * m.ncols


def _mults(a, b):
    return a.nrows * a.ncols * b.ncols


# (span name, module, attribute or Class.method, work, content key); work is
# (counter suffix, count from the arguments, count from the result)
TARGETS = [
    ("exactla.rref", "dequiv.exactla", "ExactMatrix.rref", ("cells", _cells, None), None),
    ("exactla.matmul", "dequiv.exactla", "ExactMatrix.__matmul__", ("mults", _mults, None), None),
    ("exactla.solve", "dequiv.exactla", "ExactMatrix.solve", None, None),
    ("exactla.det", "dequiv.exactla", "ExactMatrix.det", None, None),
    ("exactla.char_poly", "dequiv.exactla", "char_poly", None, None),
    ("exactla.smith_normal_form", "dequiv.exactla", "smith_normal_form", None, None),
    ("posets.enumerate_posets", "dequiv.posets", "enumerate_posets", None, None),
    ("posets.canonical_key", "dequiv.posets", "canonical_key", None, None),
    ("posets.order_complex", "dequiv.posets", "order_complex", None, None),
    ("quivers.paths", "dequiv.quivers", "Quiver.paths", None, None),
    ("algebra.build_algebra", "dequiv.algebra", "build_algebra", None, None),
    ("algebra.projective_rep", "dequiv.algebra", "projective_rep", None, None),
    ("algebra.kernel_of", "dequiv.algebra", "kernel_of", None, None),
    ("algebra.hom_from_generators", "dequiv.algebra", "hom_from_generators", None, None),
    ("homology.minimal_resolution", "dequiv.homology", "minimal_resolution", None, module_key),
    ("homology.global_dimension", "dequiv.homology", "global_dimension", None, None),
    ("homology.certificate", "dequiv.homology", "certificate", None, None),
    ("homology.coxeter_polynomial", "dequiv.homology", "coxeter_polynomial", None, None),
    ("homology.hochschild_bar", "dequiv.homology", "hochschild_bar", None, None),
    ("homology.nerve_cohomology", "dequiv.homology", "nerve_cohomology", None, None),
    ("derived.proj_replacement", "dequiv.derived", "proj_replacement", None, complex_key),
    ("derived.functor_F", "dequiv.derived", "functor_F", None, None),
    ("derived.cone", "dequiv.derived", "cone", None, None),
    ("derived.search", "dequiv.derived", "search_matching_posets", ("hits", None, len), None),
]

# per traced function, the suffixes it reports
REPORTED = [
    ("exactla.rref", "calls cells self_s"),
    ("exactla.matmul", "calls mults self_s"),
    ("exactla.solve", "calls self_s"),
    ("exactla.det", "calls self_s"),
    ("exactla.char_poly", "calls self_s"),
    ("exactla.smith_normal_form", "calls self_s"),
    ("posets.enumerate_posets", "calls self_s"),
    ("posets.canonical_key", "calls self_s"),
    ("posets.order_complex", "self_s"),
    ("quivers.paths", "calls self_s"),
    ("algebra.build_algebra", "calls self_s"),
    ("algebra.projective_rep", "calls self_s"),
    ("algebra.kernel_of", "calls self_s"),
    ("algebra.hom_from_generators", "calls self_s"),
    ("homology.minimal_resolution", "calls distinct useful_ratio total_s"),
    ("homology.global_dimension", "calls total_s"),
    ("homology.certificate", "calls total_s"),
    ("homology.hochschild_bar", "calls total_s"),
    ("homology.coxeter_polynomial", "total_s"),
    ("homology.nerve_cohomology", "total_s"),
    ("derived.proj_replacement", "calls distinct useful_ratio self_s"),
    ("derived.functor_F", "calls self_s"),
    ("derived.cone", "calls self_s"),
    ("derived.search", "candidates hits"),
    ("trace", "overhead_frac spans")]
UNITS = {"self_s": "s", "total_s": "s", "useful_ratio": "ratio", "overhead_frac": "ratio"}

# reported per-layer metrics: (name, unit, better)
PER_LAYER = [("%s.%s" % (fn, sfx), UNITS.get(sfx, "count"),
              "higher" if sfx in ("useful_ratio", "hits") else "lower")
             for fn, suffixes in REPORTED for sfx in suffixes.split()]


def _resolve(module, attr):
    if "." in attr:
        cls, meth = attr.split(".")
        return getattr(module, cls), meth
    return module, attr


class Tracer:
    """Span recorder for one process; install around traced passes only."""

    def __init__(self):
        self.job = None
        self.spans = []  # (name, start, end, parent index, job id, outermost)
        self.work = Counter()
        self.keys = defaultdict(set)
        self._stack = []
        self._depth = Counter()
        self._saved = []  # (holder, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "dequiv" or n.startswith("dequiv."))]
        for name, modname, attr, work, key in TARGETS:
            holder, field = _resolve(sys.modules[modname], attr)
            original = holder.__dict__[field]
            wrapper = self._wrap(name, original, work, key)
            self._set(holder, field, original, wrapper)
            if holder is sys.modules[modname]:
                for mod in loaded:
                    for alias, value in list(vars(mod).items()):
                        if value is original and not (mod is holder and alias == field):
                            self._set(mod, alias, original, wrapper)

    def _set(self, holder, attr, original, wrapper):
        self._saved.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved = []

    def _wrap(self, name, fn, work, key):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter
        counter, count_args, count_result = work or (None, None, None)
        counter = "%s.%s" % (name, counter)
        work_total, key_sets = self.work, self.keys

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_args is not None:
                work_total[counter] += count_args(*args, **kwargs)
            if key is not None:
                key_sets[name].add(key(*args, **kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = depth[name] == 0
            depth[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, outer)
            if count_result is not None:
                work_total[counter] += count_result(out)
            return out

        return traced

    # -- results --------------------------------------------------------------

    def reset(self):
        """Drop recorded spans and counts (between passes)."""
        del self.spans[:]
        self.work.clear()
        self.keys.clear()

    def summary(self) -> dict:
        """Per-function calls, self and total time, work counts and distinct
        inputs over the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, job, outer in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = Counter(), Counter(), Counter()
        candidates = 0
        for i, (name, start, end, parent, job, outer) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if outer:
                total_s[name] += end - start
            if name == "homology.certificate" and parent >= 0 and spans[parent][0] == "derived.search":
                candidates += 1
        out = {"trace.spans": len(spans), "derived.search.candidates": candidates}
        for name, _, _, work, key in TARGETS:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
            out[name + ".total_s"] = total_s[name]
            if work is not None:
                out["%s.%s" % (name, work[0])] = self.work["%s.%s" % (name, work[0])]
            if key is not None:
                distinct = len(self.keys[name])
                out[name + ".distinct"] = distinct
                # no calls means nothing was repeated: report the ratio as 1
                out[name + ".useful_ratio"] = distinct / calls[name] if calls[name] else 1.0
        return out
