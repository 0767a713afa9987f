"""The benchmark's three workloads as seeded lists of checked jobs.

A job is one call into dequiv followed by a check of its answer against a
known result that does not come from the code under test: a theorem of the
paper, an OEIS count, or a number the benchmark derives from its own
inputs.  A job raises `WrongAnswer` on a mismatch; the runner counts that,
and any other exception, as a failed job and never retries it.

Jobs reach dequiv through the module objects in `dq` at call time, so a
tracer that has rebound those modules' attributes sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List

# OEIS A000112 (posets on n unlabelled elements) and A000608 (connected ones)
POSETS = {7: 2045}
CONNECTED_POSETS = {1: 1, 2: 1, 3: 3, 4: 10, 5: 44, 6: 238, 7: 1650}

SWEEP_TRIPLES = [(p1, p2, p3) for p1 in range(2, 6) for p2 in range(p1, 6)
                 for p3 in range(p2, 6)]
SWEEP_REMARKS = [(1, 3, 3), (1, 3, 4), (2, 3, 3), (2, 3, 4), (3, 2, 2), (3, 2, 3), (3, 3, 3)]
SWEEP_HH_ARMS = (4, 5, 6)
# random posets per size: for each listed count of strict order pairs, 10
# posets with exactly that many (a job's cost grows with the pairs, so fixing
# their mix keeps the seed from moving the latency percentiles)
SWEEP_POSET_PAIRS = {5: (5, 6, 7, 8), 6: (6, 7, 8, 9), 7: (7, 8, 9, 10)}
SWEEP_POSETS_PER_PAIRS = 10

TABLE_TRIPLES = [(3, 3, 3), (3, 3, 4), (3, 4, 4)]
TABLE_WINDOW = (-3, 3)

NO_POSET_PS = (1, 2, 3, 4, 5)


class WrongAnswer(AssertionError):
    pass


def expect(ok: bool, what: str):
    if not ok:
        raise WrongAnswer(what)


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[dict], None]  # takes the pass context, raises on a wrong answer


@dataclass(frozen=True)
class Workload:
    jobs: List[Job]
    candidates: int  # candidate posets certified per pass (search only)


# -- sweep ---------------------------------------------------------------------

def strict_pairs(n: int, edges) -> int:
    """Strict order pairs of the closure of edges i -> j (i < j) on range(n)."""
    reach = [set() for _ in range(n)]
    for i in reversed(range(n)):
        for a, j in edges:
            if a == i:
                reach[i] |= {j} | reach[j]
    return sum(len(r) for r in reach)


def random_poset_covers(rng: random.Random, n: int, pairs: int):
    """Labels and cover input of a random poset on n elements with exactly
    `pairs` strict order pairs: random comparable pairs on shuffled labels,
    redrawn until their closure has that many."""
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = sorted(rng.sample(candidates, rng.randint(1, pairs)))
        if strict_pairs(n, edges) == pairs:
            labels = ["e%d" % i for i in range(n)]
            rng.shuffle(labels)
            return labels, [(labels[i], labels[j]) for i, j in edges]


def components(labels, covers) -> int:
    parent = {x: x for x in labels}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in covers:
        parent[root(x)] = root(y)
    return len({root(x) for x in labels})


def _verify_weights(dq, w):
    def run(ctx):
        r = dq.derived.verify_weights(*w)
        expect(r["verdict"] == "pass", "verify_weights%s verdict %s" % (w, r["verdict"]))
        det = r["certificates"]["canonical"]["det_cartan"]
        expect(det == 1, "canonical det_cartan %s for %s" % (det, w))
    return Job("verify_weights%s" % (w,), run)


def _remark(dq, fam):
    def run(ctx):
        r = dq.derived.verify_remark_family(*fam)
        expect(r["verdict"] == "pass" and r["mismatches"] == [],
               "remark family %s has mismatches" % (fam,))
        expect(any(o["status"] == "match" for o in r["orientations"]),
               "remark family %s checked no orientation" % (fam,))
    return Job("verify_remark_family%s" % (fam,), run)


def _hh_canonical(dq, t):
    def run(ctx):
        a = dq.algebra.build_algebra(dq.quivers.canonical_presentation([2] * t))
        hh = dq.homology.hochschild_bar(a, 2)
        # HH^0 = k, HH^1 = 0 and dim HH^2 = t - 3 for the canonical (2^t) algebra
        expect(hh == [1, 0, t - 3], "HH of canonical (2^%d) is %s" % (t, hh))
    return Job("hochschild_bar(2^%d)" % t, run)


def _bar_vs_nerve(dq, k, labels, covers):
    poset = dq.posets.poset_from_covers(labels, covers)
    comps = components(labels, covers)

    def run(ctx):
        bar = dq.homology.hochschild_of_poset(poset, 2)
        nerve = dq.homology.nerve_cohomology(poset, 2)
        expect(bar == nerve, "poset %d: bar %s != nerve %s" % (k, bar, nerve))
        expect(bar[0] == comps, "poset %d: HH^0 %d != %d components" % (k, bar[0], comps))
    return Job("bar_vs_nerve#%d(n=%d,pairs=%d)" % (k, len(labels), len(poset.relation) - len(labels)), run)


def sweep(dq, seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = [_verify_weights(dq, w) for w in SWEEP_TRIPLES]
    jobs += [_remark(dq, fam) for fam in SWEEP_REMARKS]
    jobs += [_hh_canonical(dq, t) for t in SWEEP_HH_ARMS]
    k = 0
    for n, counts in SWEEP_POSET_PAIRS.items():
        for pairs in counts:
            for _ in range(SWEEP_POSETS_PER_PAIRS):
                jobs.append(_bar_vs_nerve(dq, k, *random_poset_covers(rng, n, pairs)))
                k += 1
    rng.shuffle(jobs)
    return Workload(jobs, 0)


# -- tables --------------------------------------------------------------------

def _beilinson(dq, w):
    def run(ctx):
        left, right, equal, unimod = dq.derived.beilinson_table_check(w, window=TABLE_WINDOW)
        expect(equal, "Ext tables differ for %s" % (w,))
        expect(unimod, "class matrix not unimodular for %s" % (w,))
        ctx[("left", w)] = left.entries
    return Job("beilinson_table_check%s" % (w,), run)


def _images(dq, w, labels):
    def run(ctx):
        images = dict(dq.derived.f_images_of_simples(w))
        expect(sorted(images) == sorted(labels), "F-image labels for %s" % (w,))
        # every simple goes to a degree-0 stalk except the top one, a degree-1 stalk
        degrees = {x: (1 if x == "w" else 0) for x in labels}
        expect(all(images[x].degree == degrees[x] for x in labels),
               "F-image degrees for %s" % (w,))
        ctx[("images", w)] = images
    return Job("f_images_of_simples%s" % (w,), run)


def _entry(dq, w, x, y, i):
    def run(ctx):
        images = ctx[("images", w)]
        shift = dq.derived.derived_hom_dims(images[x], images[y], i, method="shift")
        res = dq.derived.derived_hom_dims(images[x], images[y], i, method="resolution")
        poset_side = ctx[("left", w)][(x, y, i)]
        expect(shift == res == poset_side,
               "%s Hom(F%s, F%s[%d]): shift %d, resolution %d, poset Ext %d"
               % (w, x, y, i, shift, res, poset_side))
    return Job("derived_hom%s(%s,%s,%d)" % (w, x, y, i), run)


def tables(dq, seed: int) -> Workload:
    rng = random.Random(seed)
    triples = list(TABLE_TRIPLES)
    rng.shuffle(triples)
    jobs, entries = [], []
    for w in triples:
        labels = dq.posets.build_Xp(*w).elements
        jobs.append(_beilinson(dq, w))
        jobs.append(_images(dq, w, labels))
        # one entry per (x, i), with a random y: the sample's cost does not
        # hinge on how often the seed draws the expensive sources
        for x in labels:
            for i in range(TABLE_WINDOW[0], TABLE_WINDOW[1] + 1):
                entries.append(_entry(dq, w, x, rng.choice(labels), i))
    rng.shuffle(entries)
    return Workload(jobs + entries, 0)


# -- search --------------------------------------------------------------------

def is_x222(poset) -> bool:
    """X_(2,2,2): a bottom, a top and three pairwise incomparable middles."""
    elems = poset.elements
    if len(elems) != 5:
        return False
    below = {x: sum((y, x) in poset.relation for y in elems) for x in elems}
    return sorted(below.values()) == [1, 2, 2, 2, 5]


def _no_poset(dq, p):
    def run(ctx):
        r = dq.derived.no_poset_search(p)
        expect(r["matches"] == [] and r["verdict"] == "pass", "no_poset_search(%d) matched" % p)
        expect(r["candidates"] == CONNECTED_POSETS[p + 1],
               "%d connected %d-posets, expected %d" % (r["candidates"], p + 1, CONNECTED_POSETS[p + 1]))
    return Job("no_poset_search(%d)" % p, run)


def _lambda_search(dq):
    def run(ctx):
        pres = dq.quivers.canonical_presentation([2, 2, 2, 2], lambdas=[1, 2])
        target = dq.homology.certificate(dq.algebra.build_algebra(pres))
        hits = dq.derived.search_matching_posets(target, 6)
        expect(len(hits) == 1, "(2,2,2,2) against 6-posets: %d hits" % len(hits))
    return Job("search(2,2,2,2;lambda=2 vs n=6)", run)


def _inversion(dq):
    def run(ctx):
        target = dq.homology.certificate(
            dq.algebra.build_algebra(dq.quivers.canonical_presentation([2, 2, 2])))
        expect(target.simple_count == 5, "canonical (2,2,2) has %d simples" % target.simple_count)
        hits = dq.derived.search_matching_posets(target, 5)
        expect(any(is_x222(h) for h in hits), "inversion did not find X_(2,2,2)")
    return Job("search(2,2,2 vs n=5)", run)


def _enumerate(dq):
    def run(ctx):
        n = len(dq.posets.enumerate_posets(7))
        expect(n == POSETS[7], "%d posets on 7 elements, expected %d" % (n, POSETS[7]))
    return Job("enumerate_posets(7)", run)


def search(dq, seed: int) -> Workload:
    jobs = [_no_poset(dq, p) for p in NO_POSET_PS]
    jobs += [_lambda_search(dq), _inversion(dq), _enumerate(dq)]
    random.Random(seed).shuffle(jobs)
    candidates = (sum(CONNECTED_POSETS[p + 1] for p in NO_POSET_PS)
                  + CONNECTED_POSETS[6] + CONNECTED_POSETS[5])
    return Workload(jobs, candidates)


WORKLOADS = {"sweep": sweep, "tables": tables, "search": search}
