"""Bounded complexes of representations, shift and cone, the cone functor
from complexes of modules over the incidence algebras of the weight-triple
posets to complexes over the canonical algebras,
derived Hom tables, the Beilinson-style table check, verification
pipelines and the exhaustive no-poset search."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .exactla import ExactMatrix
from .posets import (CycleError, Poset, build_Xp, build_remark_poset,
                     enumerate_posets, remark_free_edges, zeta_rows)
from .quivers import (Presentation, Quiver, Arrow, canonical_presentation,
                      a1p_presentation, incidence_presentation,
                      is_gentle, t2_poset, unique_path_property)
from .algebra import (BoundQuiverAlgebra, ModuleMap, Representation,
                      build_algebra, direct_sum_rep, incidence_algebra, kernel_of,
                      make_rep, module_map, simple_module, zero_rep)
from .homology import (InvariantCertificate, ProjectiveResolution, certificate,
                       global_dimension, hom_cohomology, matches_certificate,
                       minimal_resolution, poset_ext_dims, projective_cover)


class DerivedError(ValueError):
    pass


# ===========================================================================
# complexes of representations
# ===========================================================================

@dataclass
class ComplexOfReps:
    """Bounded complex of representations of one algebra."""

    algebra: BoundQuiverAlgebra
    terms: Dict[int, Representation]
    diffs: Dict[int, ModuleMap]

    @staticmethod
    def make(algebra, terms: Dict[int, Representation],
             diffs: Dict[int, ModuleMap], check: bool = True) -> "ComplexOfReps":
        terms = {d: t for d, t in terms.items() if not t.is_zero()}
        diffs = {d: m for d, m in diffs.items() if not m.is_zero()}
        c = ComplexOfReps(algebra, terms, diffs)
        if check:
            c.check()
        return c

    def term(self, d: int) -> Representation:
        return self.terms.get(d) or zero_rep(self.algebra)

    def diff(self, d: int) -> ModuleMap:
        m = self.diffs.get(d)
        if m is None:
            from .algebra import zero_map
            m = zero_map(self.term(d), self.term(d + 1))
        return m

    @property
    def support(self):
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def check(self):
        for d, m in self.diffs.items():
            if m.source.dims != self.term(d).dims or m.target.dims != self.term(d + 1).dims:
                raise DerivedError("differential at %d has wrong endpoints" % d)
            if not m.check():
                raise DerivedError("differential at %d is not a module map" % d)
        for d in list(self.diffs):
            comp = self.diff(d + 1).compose(self.diff(d))
            if not comp.is_zero():
                raise DerivedError("d o d != 0 at degree %d" % d)

    def cohomology_dims(self) -> Dict[int, int]:
        out = {}
        for d in set(self.support) | {d + 1 for d in self.diffs}:
            r_out = sum(b.rank() for b in self.diff(d).blocks)
            r_in = sum(b.rank() for b in self.diff(d - 1).blocks)
            h = self.term(d).total_dim - r_out - r_in
            if h:
                out[d] = h
        return out


@dataclass
class RepChainMap:
    source: ComplexOfReps
    target: ComplexOfReps
    comps: Dict[int, ModuleMap]

    def comp(self, d: int) -> ModuleMap:
        m = self.comps.get(d)
        if m is None:
            from .algebra import zero_map
            m = zero_map(self.source.term(d), self.target.term(d))
        return m

    def check(self):
        for d in set(self.source.support) | set(self.target.support):
            lhs = self.target.diff(d).compose(self.comp(d))
            rhs = self.comp(d + 1).compose(self.source.diff(d))
            for b1, b2 in zip(lhs.blocks, rhs.blocks):
                if not (b1 - b2).is_zero():
                    raise DerivedError("not a chain map of complexes at degree %d" % d)


def stalk_complex_of(m: Representation, degree: int = 0) -> ComplexOfReps:
    return ComplexOfReps.make(m.algebra, {degree: m}, {})


@dataclass(frozen=True)
class StalkComplex:
    """A complex concentrated in a single degree.

    The minimal resolution and the projective replacement are built the
    first time derived Hom needs them and kept on this object, so a table
    of Hom entries out of one stalk resolves its module once."""

    module: Representation
    degree: int

    def to_complex(self) -> ComplexOfReps:
        return stalk_complex_of(self.module, self.degree)

    @cached_property
    def resolution(self) -> ProjectiveResolution:
        return minimal_resolution(self.module)

    @cached_property
    def replacement(self):
        """(Q, dQ, eps) as returned by proj_replacement."""
        return proj_replacement(self.to_complex())


def shift(k: ComplexOfReps, n: int) -> ComplexOfReps:
    """K[n]^i = K^{i+n}, differential scaled by (-1)^n."""
    terms = {d - n: t for d, t in k.terms.items()}
    diffs = {}
    for d, m in k.diffs.items():
        diffs[d - n] = m if n % 2 == 0 else -m
    return ComplexOfReps.make(k.algebra, terms, diffs)


def _sum_map(algebra, sources, targets, blocks: Dict[Tuple[int, int], ModuleMap],
             check: bool = True) -> ModuleMap:
    """Module map between direct sums given by a sparse block dict."""
    src = direct_sum_rep(sources)
    tgt = direct_sum_rep(targets)
    vb = {}
    for v in algebra.vertex_order:
        vb[v] = ExactMatrix.from_blocks(
            {(i, j): mm.block(v) for (i, j), mm in blocks.items()},
            [t.dim(v) for t in targets], [s.dim(v) for s in sources], algebra.field)
    return module_map(src, tgt, vb, check=check)


def cone(fmap: RepChainMap) -> ComplexOfReps:
    """Mapping cone: degree i is K^{i+1} (+) L^i, differential
    [[-d_K, 0], [f, d_L]]."""
    fmap.check()
    k, l = fmap.source, fmap.target
    alg = k.algebra
    degs = set(d - 1 for d in k.support) | set(l.support)
    terms = {}
    diffs = {}
    for d in degs:
        terms[d] = direct_sum_rep([k.term(d + 1), l.term(d)])
    for d in degs:
        if d + 1 not in degs:
            continue
        blocks = {}
        dk = k.diff(d + 1)
        if not dk.is_zero():
            blocks[(0, 0)] = -dk
        fd = fmap.comp(d + 1)
        if not fd.is_zero():
            blocks[(1, 0)] = fd
        dl = l.diff(d)
        if not dl.is_zero():
            blocks[(1, 1)] = dl
        diffs[d] = _sum_map(alg, [k.term(d + 1), l.term(d)],
                            [k.term(d + 2), l.term(d + 1)], blocks, check=False)
    return ComplexOfReps.make(alg, terms, diffs)


def as_stalk(c: ComplexOfReps) -> StalkComplex:
    """Recognize a complex concentrated in one degree (no differentials)."""
    sup = c.support
    if not sup:
        raise DerivedError("zero complex has no stalk degree")
    if len(sup) > 1 or c.diffs:
        raise DerivedError("complex is not a stalk: support %s" % sup)
    return StalkComplex(c.terms[sup[0]], sup[0])


# ===========================================================================
# the cone functor (family with all weights >= 3)
# ===========================================================================

def _family1_edges(p1, p2, p3):
    end = {1: "1,%d" % (p1 - 1), 2: "2,%d" % (p2 - 1), 3: "3,%d" % (p3 - 1)}
    pre = {1: "1,%d" % (p1 - 2), 2: "2,%d" % (p2 - 2), 3: "3,%d" % (p3 - 2)}
    cross = {1: (pre[1], end[3]), 2: (pre[2], end[1]), 3: (pre[3], end[2])}
    return end, pre, cross


def functor_F(c: ComplexOfReps, weights: Tuple[int, int, int]) -> ComplexOfReps:
    """The cone construction sending a complex of modules over the
    incidence algebra of the weight-triple poset (all weights >= 3) to a
    complex over the canonical algebra of the same weights.

    The complex at a poset element x has the space c.term(d).dim(x) in
    degree d and the differential c.diff(d).block(x); a cover x -> y acts
    by the Hasse arrow "x->y". End-of-arm objects become shifted cones over
    the top object; the two printed sign patterns appear in the maps out of
    the next-to-last arm objects; the maps into the total cone are the
    canonical embeddings."""
    p1, p2, p3 = weights
    if not 3 <= p1 <= p2 <= p3:
        raise DerivedError("the cone functor is implemented for weights with p1 >= 3")
    xp = build_Xp(p1, p2, p3)
    poset = c.algebra.poset
    if poset is None or poset.elements != xp.elements or poset.up_masks != xp.up_masks:
        raise DerivedError("complex is not over the incidence algebra of the weight-triple poset")
    c.check()
    for d in c.support:
        if not c.term(d).check_relations():
            raise DerivedError("term in degree %d breaks the commutativity relations" % d)
    end, pre, cross = _family1_edges(p1, p2, p3)
    f = c.algebra.field
    zero = zero_rep(c.algebra)

    def term(d):
        return c.terms.get(d, zero)

    def cover(x, y, d):
        """The cover map x -> y on the degree-d spaces."""
        return term(d).map_of("%s->%s" % (x, y))

    alg = build_algebra(canonical_presentation([p1, p2, p3], field=f))

    # block layout per canonical vertex: list of (poset element, offset)
    # offset 1 marks the shifted top component (degree i draws K^{i-1})
    partner = {1: 3, 2: 1, 3: 2}
    layout: Dict[str, List[Tuple[str, int]]] = {"0": [("0", 0)], "w": []}
    for i in (1, 2, 3):
        p_i = (p1, p2, p3)[i - 1]
        for j in range(1, p_i - 1):
            layout["%d,%d" % (i, j)] = [("%d,%d" % (i, j), 0)]
        layout[end[i]] = [(end[i], 0), (end[partner[i]], 0), ("w", 1)]
    layout["w"] = [(end[1], 0), (end[2], 0), (end[3], 0), ("w", 1)]

    degs = set(c.support) | {d + 1 for d in c.support}

    def part_dim(lab, off, d):
        return term(d - off).dim(lab)

    def vdiff(v, d):
        """Differential of the vertex complex at degree d."""
        parts = layout[v]
        rows = [part_dim(lab, off, d + 1) for lab, off in parts]
        cols = [part_dim(lab, off, d) for lab, off in parts]
        blocks = {}
        for idx, (lab, off) in enumerate(parts):
            if d - off in c.diffs:
                m = c.diffs[d - off].block(lab)
                if not m.is_zero():
                    blocks[(idx, idx)] = -m if off else m
        # cross terms -y: an end-of-arm block at degree d -> the shifted top
        if len(parts) > 1:
            for idx, (lab, _) in enumerate(parts[:-1]):
                m = cover(lab, "w", d)
                if not m.is_zero():
                    blocks[(len(parts) - 1, idx)] = -m
        return ExactMatrix.from_blocks(blocks, rows, cols, f)

    def arrow_blocks(arrow: Arrow, d: int) -> Dict[Tuple[int, int], ExactMatrix]:
        """The arrow's matrix at degree d, as blocks of the two layouts."""
        src_parts, tgt_parts = layout[arrow.source], layout[arrow.target]
        i = int(arrow.name[1])
        j = int(arrow.name.split("_")[1])
        p_i = (p1, p2, p3)[i - 1]
        if j <= p_i - 2:
            # plain arm covers, into the single component
            return {(0, 0): cover(arrow.source, arrow.target, d)}
        if j == p_i - 1:
            # the printed column vector into the shifted cone: the arm map
            # with signs +, -, + and the cross map with signs -, +, -
            arm = cover(pre[i], end[i], d)
            cr = cover(*cross[i], d)
            return {(0, 0): arm if i != 2 else -arm,
                    (1, 0): cr if i == 2 else -cr}
        # canonical embedding of the arm cone into the total cone
        return {(tgt_parts.index(part), sidx): ExactMatrix.identity(part_dim(*part, d), f)
                for sidx, part in enumerate(src_parts)}

    # assemble representations per degree
    terms: Dict[int, Representation] = {}
    for d in sorted(degs):
        dims = {v: sum(part_dim(lab, off, d) for lab, off in layout[v])
                for v in alg.vertex_order}
        maps = {}
        for a in alg.quiver.arrows:
            rows = [part_dim(lab, off, d) for lab, off in layout[a.target]]
            cols = [part_dim(lab, off, d) for lab, off in layout[a.source]]
            blocks = {k: m for k, m in arrow_blocks(a, d).items() if not m.is_zero()}
            maps[a.name] = ExactMatrix.from_blocks(blocks, rows, cols, f)
        terms[d] = make_rep(alg, dims, maps, check=True)

    diffs: Dict[int, ModuleMap] = {}
    for d in sorted(degs):
        blocks = {v: vdiff(v, d) for v in alg.vertex_order}
        if all(b.is_zero() for b in blocks.values()):
            continue
        tgt = terms.get(d + 1) or zero_rep(alg)
        diffs[d] = module_map(terms[d], tgt, blocks, check=True)

    return ComplexOfReps.make(alg, terms, diffs)


def f_images_of_simples(weights: Tuple[int, int, int]):
    """Images of the poset simples under the cone functor, as stalks.

    Supported for weight triples with p1 >= 3, where the construction is
    complete; other families raise."""
    p1, p2, p3 = weights
    if not 3 <= p1 <= p2 <= p3:
        raise DerivedError("closed-form images only available for p1 >= 3")
    ax = incidence_algebra(build_Xp(p1, p2, p3))
    return [(x, as_stalk(functor_F(stalk_complex_of(simple_module(ax, x)), weights)))
            for x in ax.poset.elements]


# ===========================================================================
# derived Hom
# ===========================================================================

def derived_hom_dims(x: StalkComplex, y: StalkComplex, i: int,
                     method: str = "shift") -> int:
    """dim Hom_{D^b}(X, Y[i]) for stalk complexes over one algebra, as
    H^i Hom(Q, Y) with Q the minimal resolution of X's module placed below
    X's degree ("shift") or the certified projective replacement of X
    ("resolution")."""
    if method == "shift":
        q, dq = x.resolution.as_complex(x.degree)
    elif method == "resolution":
        q, dq, _ = x.replacement
    else:
        raise DerivedError("unknown method %r" % method)
    return hom_cohomology(q, dq, {y.degree: y.module}, {}, [i])[0]


def proj_replacement(x: ComplexOfReps, cap: Optional[int] = None):
    """A surjective quasi-isomorphism from a bounded complex of projectives.

    Built degree by degree from the top via pullbacks; the quasi-iso is
    certified by checking that its cone is acyclic.  Returns (Q, dQ, eps)
    keyed by degree with dQ[j] : Q^j -> Q^{j+1} and eps[j] : Q^j -> X^j."""
    alg = x.algebra
    from .algebra import zero_map
    if x.is_zero():
        return {}, {}, {}
    sup = x.support
    b = sup[-1]
    if cap is None:
        cap = (b - sup[0]) + alg.dimension + 3
    q: Dict[int, object] = {}
    dq: Dict[int, ModuleMap] = {}
    eps: Dict[int, ModuleMap] = {}
    p_b, cover = projective_cover(x.term(b))
    q[b] = p_b
    eps[b] = cover
    j = b
    for _ in range(cap):
        j -= 1
        q_next = q[j + 1].rep
        q_after = q[j + 2].rep if (j + 2) in q else zero_rep(alg)
        xt, xt1 = x.term(j), x.term(j + 1)
        blocks = {}
        dxj = x.diff(j)
        if not dxj.is_zero():
            blocks[(0, 0)] = dxj
        e1 = eps[j + 1]
        if not e1.is_zero():
            blocks[(0, 1)] = -e1
        if (j + 1) in dq and not dq[j + 1].is_zero():
            blocks[(1, 1)] = dq[j + 1]
        big = _sum_map(alg, [xt, q_next], [xt1, q_after], blocks, check=False)
        v, incl = kernel_of(big)
        if v.is_zero() and xt.is_zero():
            break
        p_j, cover = projective_cover(v)
        tot = incl.compose(cover)  # Q^j -> X^j (+) Q^{j+1}
        # split off the two components of the inclusion into the direct sum
        eps[j] = _component_map(tot, [xt, q_next], 0)
        dq[j] = _component_map(tot, [xt, q_next], 1)
        q[j] = p_j
        if v.is_zero():
            break
    else:
        raise DerivedError("projective replacement cap exceeded")
    # quasi-isomorphism certificate: the cone of eps must be acyclic
    qc = ComplexOfReps.make(alg, {d: p.rep for d, p in q.items()},
                            {d: m for d, m in dq.items()}, check=True)
    emap = RepChainMap(qc, x, dict(eps))
    if cone(emap).cohomology_dims():
        raise DerivedError("projective replacement is not a quasi-isomorphism")
    return q, dq, eps


def _component_map(mm: ModuleMap, targets: Sequence[Representation], idx: int) -> ModuleMap:
    """Project a map into a direct sum onto one summand."""
    alg = targets[0].algebra
    f = alg.field
    blocks = {}
    for v in alg.vertex_order:
        off = sum(t.dim(v) for t in targets[:idx])
        d = targets[idx].dim(v)
        m = mm.block(v)
        blocks[v] = ExactMatrix(f, d, m.ncols, m.entries[off:off + d])
    return module_map(mm.source, targets[idx], blocks, check=False)


# ===========================================================================
# Beilinson-style table check and verification pipelines
# ===========================================================================

@dataclass
class ExtTable:
    """(source element, target element, shift) -> dimension."""

    labels: tuple
    window: Tuple[int, int]
    entries: Dict[Tuple[str, str, int], int]

    def to_json(self):
        return {
            "labels": list(self.labels),
            "window": list(self.window),
            "entries": {"%s|%s|%d" % k: v for k, v in sorted(self.entries.items()) if v},
        }


def beilinson_table_check(weights: Tuple[int, int, int],
                          window: Tuple[int, int] = (-3, 3)):
    """Compare simple Ext tables over the poset with derived Hom tables of
    the cone-functor images over the canonical algebra; also test the
    necessary K-theoretic condition for generation (unimodular class matrix).

    The poset side is read off interval cohomology (`poset_ext_dims`), so
    the two tables come from independent computations."""
    ax = incidence_algebra(build_Xp(*weights))
    g = global_dimension(ax)
    if window[0] > -g or window[1] < g:
        raise DerivedError("window must contain [-gldim, gldim] = [%d, %d]" % (-g, g))
    labels = tuple(ax.vertex_order)
    shifts = range(window[0], window[1] + 1)
    left, right = ExtTable(labels, window, {}), ExtTable(labels, window, {})
    for x in labels:
        for y in labels:
            exts = poset_ext_dims(ax.poset, x, y, window[1], ax.field)
            left.entries.update(((x, y, i), exts[i] if i >= 0 else 0) for i in shifts)
    # the right entry (x, y, i) is Hom(F S_x, F S_y[i]), one Hom complex per pair
    images = dict(f_images_of_simples(weights))
    alg = images[next(iter(images))].module.algebra
    for x in labels:
        q, dq = images[x].resolution.as_complex(images[x].degree)
        for y in labels:
            dims = hom_cohomology(q, dq, {images[y].degree: images[y].module}, {}, shifts)
            right.entries.update(((x, y, i), d) for i, d in zip(shifts, dims))

    equal = all(left.entries[k] == right.entries[k] for k in left.entries)

    # signed dimension-vector classes of the images in the canonical order
    rows = []
    for sx in ax.vertex_order:
        st = images[sx]
        sign = 1 if st.degree % 2 == 0 else -1
        rows.append([sign * st.module.dim(v) for v in alg.vertex_order])
    det = int(ExactMatrix.from_rows(rows).det())
    return left, right, equal, det in (1, -1)


def verify_weights(p1: int, p2: int, p3: int, with_beilinson: bool = False) -> dict:
    """Certificate comparison (optionally plus the table check) between the
    canonical algebra and the incidence algebra of its poset."""
    ac = build_algebra(canonical_presentation([p1, p2, p3]))
    ax = incidence_algebra(build_Xp(p1, p2, p3))
    cc, cx = certificate(ac), certificate(ax)
    fields = ["simples", "det_cartan", "coxeter", "snf_antisym"]
    jc, jx = cc.to_json(), cx.to_json()
    equal_fields = [f for f in fields if jc[f] == jx[f]]
    report = {
        "weights": [p1, p2, p3],
        "certificates": {"canonical": jc, "poset": jx},
        "equal_fields": equal_fields,
        "verdict": "pass" if len(equal_fields) == len(fields) else "fail",
    }
    if with_beilinson:
        if p1 >= 3:
            left, right, equal, unimod = beilinson_table_check((p1, p2, p3), (-3, 3))
            report["beilinson"] = {"window": [-3, 3], "equal": equal,
                                   "k0_unimodular": unimod}
            if not (equal and unimod):
                report["verdict"] = "fail"
        else:
            report["beilinson"] = {"window": [-3, 3], "equal": None,
                                   "k0_unimodular": None,
                                   "note": "cone-functor images unavailable for p1 = 2"}
    return report


def d_tilde_presentation(p: int) -> Presentation:
    """Path algebra of the tree with a length-(p-1) spine and a fork of two
    leaves at each end (extended Dynkin D-type with p+3 vertices); all
    arrows point away from the left fork."""
    if p < 2:
        raise DerivedError("requires p >= 2")
    spine = ["c%d" % i for i in range(1, p)]
    verts = ["a1", "a2"] + spine + ["b1", "b2"]
    arrows = [Arrow("a1_in", "a1", spine[0]), Arrow("a2_in", "a2", spine[0])]
    for i in range(len(spine) - 1):
        arrows.append(Arrow("s%d" % i, spine[i], spine[i + 1]))
    arrows.append(Arrow("b1_out", spine[-1], "b1"))
    arrows.append(Arrow("b2_out", spine[-1], "b2"))
    return Presentation(Quiver(tuple(verts), tuple(arrows)), ())


def verify_22p(p: int) -> dict:
    """(2,2,p) poset certificate against the D-type tree path algebra."""
    cx = certificate(incidence_algebra(build_Xp(2, 2, p)))
    cd = certificate(build_algebra(d_tilde_presentation(p)))
    cc = certificate(build_algebra(canonical_presentation([2, 2, p])))
    ok = cx.same_invariants(cd) and cx.same_invariants(cc)
    return {"p": p, "verdict": "pass" if ok else "fail",
            "poset": cx.to_json(), "d_type": cd.to_json(), "canonical": cc.to_json()}


def verify_remark_family(family: int, p2: int, p3: int) -> dict:
    """All acyclic orientations of a remark family against the (2,p2,p3)
    canonical certificate.  Mismatches are reported, not suppressed."""
    target = certificate(build_algebra(canonical_presentation([2, p2, p3])))
    free = remark_free_edges(family, p2, p3)
    results = []
    mismatches = []
    for mask in range(1 << len(free)):
        orientation = [(mask >> k) & 1 for k in range(len(free))]
        try:
            poset = build_remark_poset(family, p2, p3, orientation)
        except CycleError:
            results.append({"orientation": orientation, "status": "cyclic"})
            continue
        cert = certificate(incidence_algebra(poset))
        ok = cert.same_invariants(target)
        results.append({"orientation": orientation,
                        "status": "match" if ok else "MISMATCH"})
        if not ok:
            mismatches.append({"orientation": orientation, "cert": cert.to_json()})
    return {"family": family, "p2": p2, "p3": p3,
            "orientations": results, "mismatches": mismatches,
            "target": target.to_json(),
            "verdict": "pass" if not mismatches else "fail"}


def verify_t2(p1: int, p2: int) -> dict:
    poset = t2_poset(p1, p2)
    pres = incidence_presentation(poset)
    a = incidence_algebra(poset)
    ok_shape = (poset.n == p1 + p2) and not pres.relations
    ca = certificate(a)
    cc = certificate(build_algebra(canonical_presentation([p1, p2])))
    ok = ok_shape and ca.same_invariants(cc) and ca.gldim <= 1
    return {"weights": [p1, p2], "poset_elements": poset.n,
            "relations": len(pres.relations), "gldim": ca.gldim,
            "verdict": "pass" if ok else "fail",
            "poset_cert": ca.to_json(), "canonical_cert": cc.to_json()}


def search_matching_posets(target: InvariantCertificate, n: int,
                           connected_only: bool = True) -> List[Poset]:
    """All (connected) posets on n elements whose incidence-algebra
    certificate matches the target's invariants."""
    return _matching(target, enumerate_posets(n, connected_only=connected_only))


def _matching(target: InvariantCertificate, candidates: Sequence[Poset]) -> List[Poset]:
    """The candidates whose incidence algebra matches the target's
    invariants, read off their zeta matrices; no algebra is built."""
    return [p for p in candidates if matches_certificate(zeta_rows(p), target)]


def no_poset_search(p: int) -> dict:
    """Exhaustive certificate search for the two-parallel-paths quiver
    algebra among connected posets on p+1 elements, with the gentle/gldim
    analysis of any hits."""
    if not 2 <= p + 1 <= 8:
        raise DerivedError("no-poset search over posets on p + 1 = %d elements; "
                           "supported sizes are 2 to 8" % (p + 1))
    pres = a1p_presentation(p)
    target = certificate(build_algebra(pres))
    candidates = enumerate_posets(p + 1, connected_only=True)
    matches = _matching(target, candidates)
    analysis = []
    for poset in matches:
        ipres = incidence_presentation(poset)
        a = incidence_algebra(poset)
        g = global_dimension(a)
        analysis.append({
            "poset": poset.to_json(),
            "gldim": g,
            "unique_path_hasse": unique_path_property(ipres.quiver),
            "gentle": is_gentle(ipres),
        })
    return {"p": p, "target": target.to_json(),
            "candidates": len(candidates),
            "matches": [m.to_json() for m in matches],
            "analysis": analysis,
            "verdict": "pass" if not matches else "fail"}
