"""Chain maps and the mapping cone of the bounded complexes of `algebra`,
the certified projective replacement, the cone functor from complexes of
modules over the incidence algebras of the weight-triple posets to
complexes over the canonical algebras, derived Hom tables, the
Beilinson-style table check, verification pipelines and the exhaustive
no-poset search."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .exactla import ExactMatrix
from .posets import (CycleError, Poset, _xp_arms, build_Xp, build_remark_poset,
                     enumerate_posets, remark_free_edges, zeta_rows)
from .quivers import (Presentation, Quiver, Arrow, canonical_presentation,
                      a1p_presentation, incidence_presentation,
                      is_gentle, t2_poset, unique_path_property)
from .algebra import (BoundQuiverAlgebra, ComplexOfReps, DerivedError, ModuleMap,
                      Representation, build_algebra, direct_sum_rep, incidence_algebra,
                      kernel_of, make_rep, module_map, simple_module, stalk_complex_of)
from .homology import (INVARIANTS, InvariantCertificate, certificate, global_dimension,
                       hom_cohomology, matches_certificate, minimal_resolution,
                       poset_certificate, poset_ext_dims, poset_global_dimension,
                       projective_cover)


# ===========================================================================
# complexes of representations (the type itself lives in `algebra`)
# ===========================================================================

@dataclass
class RepChainMap:
    """A family of module maps comps[d] : source^d -> target^d, a missing
    one zero.  It is checked as a chain map through its cone (`cone`)."""

    source: ComplexOfReps
    target: ComplexOfReps
    comps: Dict[int, ModuleMap]


@dataclass(frozen=True)
class StalkComplex:
    """A complex concentrated in a single degree.

    The complex, the minimal resolution of the module (as a complex of
    projectives ending in the stalk's degree) and the projective
    replacement are built the first time derived Hom needs them and kept
    on this object, so a table of Hom entries out of one stalk resolves its
    module once."""

    module: Representation
    degree: int

    @cached_property
    def complex(self) -> ComplexOfReps:
        return stalk_complex_of(self.module, self.degree)

    @cached_property
    def resolution(self) -> ComplexOfReps:
        res = minimal_resolution(self.module)
        return ComplexOfReps(res.algebra,
                             {self.degree + d: p for d, p in res.terms.items()},
                             {self.degree + d: m for d, m in res.diffs.items()})

    @cached_property
    def replacement(self) -> Tuple[ComplexOfReps, Dict[int, ModuleMap]]:
        """(Q, eps) as returned by proj_replacement."""
        return proj_replacement(self.complex)


def _cone_diff(fmap: RepChainMap, d: int, src: Representation,
               tgt: Representation) -> ModuleMap:
    """The differential C^d -> C^{d+1} of the mapping cone of f : K -> L,
    C^d = K^{d+1} (+) L^d, as the block matrix [[-d_K, 0], [f, d_L]] read
    off K.diffs, f.comps and L.diffs; a missing map is a zero block.  src
    and tgt are the two direct sums, built by the caller.  The map is not
    checked: the complex it becomes a differential of checks it.  A vertex
    where src or tgt is zero gets its zero block from module_map."""
    k, l = fmap.source, fmap.target
    blocks = {}
    if d + 1 in k.diffs:
        blocks[(0, 0)] = -k.diffs[d + 1]
    if d + 1 in fmap.comps:
        blocks[(1, 0)] = fmap.comps[d + 1]
    if d in l.diffs:
        blocks[(1, 1)] = l.diffs[d]
    sources, targets = (k.term(d + 1), l.term(d)), (k.term(d + 2), l.term(d + 1))
    alg = src.algebra
    vb = {}
    for i, v in enumerate(alg.vertex_order):
        if src.dims[i] and tgt.dims[i]:
            vb[v] = ExactMatrix.from_blocks(
                {ij: m.blocks[i] for ij, m in blocks.items()},
                [t.dims[i] for t in targets], [s.dims[i] for s in sources], alg.field)
    return module_map(src, tgt, vb)


def cone(fmap: RepChainMap) -> ComplexOfReps:
    """Mapping cone: degree i is K^{i+1} (+) L^i, differential
    [[-d_K, 0], [f, d_L]].  ComplexOfReps.make checks it: each differential
    is a module map, so each component of f is one, and the square of the
    differential has the block d_L f - f d_K, so d o d = 0 holds exactly
    when f is a chain map."""
    k, l = fmap.source, fmap.target
    for d, m in fmap.comps.items():
        if m.source.dims != k.term(d).dims or m.target.dims != l.term(d).dims:
            raise DerivedError("component at %d has wrong endpoints" % d)
    degs = set(d - 1 for d in k.support) | set(l.support)
    terms = {d: direct_sum_rep([k.term(d + 1), l.term(d)]) for d in degs}
    diffs = {d: _cone_diff(fmap, d, terms[d], terms[d + 1]) for d in degs if d + 1 in degs}
    return ComplexOfReps.make(k.algebra, terms, diffs)


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

def functor_F(c: ComplexOfReps, weights: Tuple[int, int, int]) -> ComplexOfReps:
    """The cone construction sending a complex of modules over the
    incidence algebra of the weight-triple poset (all weights >= 3) to a
    complex over the canonical algebra of the same weights.

    The complex at a poset element x has the space c.term(d).dim(x) in
    degree d and the differential c.diffs[d].block(x); a cover x -> y acts
    by the Hasse arrow "x->y". End-of-arm objects become shifted cones over
    the top object; the two printed sign patterns appear in the maps out of
    the next-to-last arm objects; the maps into the total cone are the
    canonical embeddings.  Every sign is an entry of the table that
    `_cone_functor` assembles."""
    p1, p2, p3 = weights
    if not 3 <= p1 <= p2 <= p3:
        raise DerivedError("the cone functor is implemented for weights with p1 >= 3")
    alg = build_algebra(canonical_presentation([p1, p2, p3], field=c.algebra.field))
    return _cone_functor(c, weights, build_Xp(p1, p2, p3), alg)


def _cone_functor(c: ComplexOfReps, weights: Tuple[int, int, int], xp: Poset,
                  alg: BoundQuiverAlgebra) -> ComplexOfReps:
    """functor_F(c, weights) for checked weights, landing in `alg`, the
    canonical algebra of the weights over c's field; c must be a complex
    over the incidence algebra of `xp`, the caller's X_p of the weights."""
    poset = c.algebra.poset
    if poset is None or poset.elements != xp.elements or poset.up_masks != xp.up_masks:
        raise DerivedError("complex is not over the incidence algebra of the weight-triple poset")
    c.check()
    for d in c.support:
        if not c.term(d).check_relations():
            raise DerivedError("term in degree %d breaks the commutativity relations" % d)
    arms, end, pre, cross = _xp_arms(*weights)

    # The table.  parts[v] lists the parts (poset element, shift) of the
    # canonical vertex v; degree d draws a part of shift 1 from c's degree
    # d - 1.  Each arrow and vertex differential is an item (name, source,
    # target, entries), an entry (target part, source part, sign, map) whose
    # map (x, y) is c's cover x -> y, and None the identity on an arrow and
    # c's own differential at a vertex.
    parts = {"0": [("0", 0)], "w": [(end[1], 0), (end[2], 0), (end[3], 0), ("w", 1)]}
    arrows = []
    for i, p_i in enumerate(weights, start=1):
        arm = ["0"] + arms[i][:-1]
        for j, (x, y) in enumerate(zip(arm, arm[1:]), start=1):
            parts[y] = [(y, 0)]
            arrows.append(("x%d_%d" % (i, j), x, y, [(0, 0, 1, (x, y))]))
        parts[end[i]] = [(end[i], 0), (cross[i][1], 0), ("w", 1)]
        # the printed column into the shifted cone: the arm map with signs
        # +, -, + and the cross map with signs -, +, -
        sign = -1 if i == 2 else 1
        arrows.append(("x%d_%d" % (i, p_i - 1), pre[i], end[i],
                       [(0, 0, sign, (pre[i], end[i])), (1, 0, -sign, cross[i])]))
        # the canonical embedding of the arm cone into the total cone
        embed = [(parts["w"].index(part), k, 1, None) for k, part in enumerate(parts[end[i]])]
        arrows.append(("x%d_%d" % (i, p_i), end[i], "w", embed))
    # at a vertex, c's differential on each part, negated on the shifted one,
    # and the cross terms -y from each other part into the shifted top
    vertices = [(v, v, v, [(k, k, -1 if off else 1, None) for k, (_, off) in enumerate(ps)]
                 + [(len(ps) - 1, k, -1, (lab, "w")) for k, (lab, _) in enumerate(ps[:-1])])
                for v, ps in parts.items()]

    degs = sorted(set(c.support) | {d + 1 for d in c.support})
    # the dimension of each part and their sum, per degree and vertex, each read once
    part_dims = {d: {v: [c.term(d - off).dim(lab) for lab, off in ps]
                     for v, ps in parts.items()} for d in degs}
    vertex_dims = {d: {v: sum(ps) for v, ps in pd.items()} for d, pd in part_dims.items()}

    def assemble(d, e, items):
        """The block matrices of the items from degree d to degree d + e (e =
        0 on an arrow, 1 for a differential).  No block with an empty side or
        a zero map is built, and an item with no block is left out for
        make_rep and module_map to fill in with zero."""
        out = {}
        for name, src, tgt, entries in items:
            rows, cols = part_dims[d + e][tgt], part_dims[d][src]
            blocks = {}
            for t, s, sign, cov in entries:
                if not (rows[t] and cols[s]):
                    continue
                lab, off = parts[src][s]
                if cov is not None:
                    m = c.term(d - off).map_of("%s->%s" % cov)
                elif not e:
                    m = ExactMatrix.identity(cols[s], alg.field)
                elif d - off in c.diffs:
                    m = c.diffs[d - off].block(lab)
                else:
                    continue
                if not m.is_zero():
                    blocks[(t, s)] = -m if sign < 0 else m
            if blocks:
                out[name] = ExactMatrix.from_blocks(blocks, rows, cols, alg.field)
        return out

    terms = {d: make_rep(alg, vertex_dims[d], assemble(d, 0, arrows), check=True) for d in degs}
    # a degree whose blocks are all zero (the top one, and any below a gap in
    # the support) gets no differential; ComplexOfReps.make checks the others
    diffs = {d: assemble(d, 1, vertices) for d in degs if d + 1 in terms}
    return ComplexOfReps.make(alg, terms, {d: module_map(terms[d], terms[d + 1], blocks)
                                           for d, blocks in diffs.items() if blocks})


def f_images_of_simples(weights: Tuple[int, int, int]):
    """Images of the poset simples under the cone functor, as stalks.

    Supported for weight triples with p1 >= 3, where the construction is
    complete; other families raise."""
    p1, p2, p3 = weights
    if not 3 <= p1 <= p2 <= p3:
        raise DerivedError("closed-form images only available for p1 >= 3")
    xp = build_Xp(p1, p2, p3)
    ax = incidence_algebra(xp)
    alg = build_algebra(canonical_presentation([p1, p2, p3], field=ax.field))
    return [(x, as_stalk(_cone_functor(stalk_complex_of(simple_module(ax, x)), weights, xp, alg)))
            for x in xp.elements]


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
        q = x.resolution
    elif method == "resolution":
        q = x.replacement[0]
    else:
        raise DerivedError("unknown method %r" % method)
    return hom_cohomology(q, y.complex, [i])[0]


def proj_replacement(x: ComplexOfReps):
    """A quasi-isomorphism eps : Q -> X from a bounded complex of projectives.

    Built from X's top degree b down: Q^b is the projective cover of X^b,
    and below it Q^j is the projective cover of the kernel of the mapping
    cone's differential C^j -> C^{j+1}, where C^j = Q^{j+1} (+) X^j and the
    differential is [[-d_Q, 0], [eps, d_X]]; the two components of the
    cover give d_Q and eps in degree j.  The build stops at the first
    vanishing kernel at or below X's lowest degree, and refuses after
    (b - lo) + dim A + 3 steps.  A map is a quasi-isomorphism
    exactly when its cone is acyclic, so the cone built on the way is the
    certificate: it is checked once as a complex of module maps, and for
    zero cohomology.  Returns (Q, eps) with eps[j] : Q^j -> X^j."""
    alg = x.algebra
    if x.is_zero():
        return ComplexOfReps(alg, {}, {}), {}
    lo, b = x.support[0], x.support[-1]
    cap = (b - lo) + alg.dimension + 3
    p_b, cover = projective_cover(x.term(b))
    # Q, like X, is zero above b, and its zero term there is X's own
    q = ComplexOfReps(alg, {b + 1: x.term(b + 1), b: p_b}, {})
    eps = RepChainMap(q, x, {b: cover})
    cone_terms = {b: x.term(b)}
    cone_diffs: Dict[int, ModuleMap] = {}
    for j in range(b - 1, b - 1 - cap, -1):
        src = [q.terms[j + 1], x.term(j)]
        cone_terms[j] = direct_sum_rep(src)
        # the target is the sum built one step before (X^b itself at j = b - 1)
        d = cone_diffs[j] = _cone_diff(eps, j, cone_terms[j], cone_terms[j + 1])
        v, incl = kernel_of(d)
        if v.is_zero() and j <= lo:
            break
        q.terms[j], cover = projective_cover(v)
        tot = incl.compose(cover)  # Q^j -> C^j
        q.diffs[j] = _component_map(tot, src, 0)
        eps.comps[j] = -_component_map(tot, src, 1)
    else:
        raise DerivedError("projective replacement cap %d exceeded" % cap)
    cone_complex = ComplexOfReps.make(alg, cone_terms, cone_diffs)
    if cone_complex.cohomology_dims():
        raise DerivedError("projective replacement is not a quasi-isomorphism")
    # Q's maps are blocks of the checked cone
    return ComplexOfReps(alg, {d: p for d, p in q.terms.items() if not p.is_zero()},
                         {d: m for d, m in q.diffs.items() if not m.is_zero()}), eps.comps


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
    return module_map(mm.source, targets[idx], blocks)


# ===========================================================================
# Beilinson-style table check and verification pipelines
# ===========================================================================

@dataclass
class ExtTable:
    """(source element, target element, shift) -> dimension."""

    entries: Dict[Tuple[str, str, int], int]


def beilinson_table_check(weights: Tuple[int, int, int],
                          window: Tuple[int, int] = (-3, 3)):
    """Compare simple Ext tables over the poset with derived Hom tables of
    the cone-functor images over the canonical algebra; also test the
    necessary K-theoretic condition for generation (unimodular class matrix).

    The poset side is read off interval cohomology (`poset_ext_dims`), so
    the two tables come from independent computations."""
    xp = build_Xp(*weights)
    g = poset_global_dimension(xp)
    if window[0] > -g or window[1] < g:
        raise DerivedError("window must contain [-gldim, gldim] = [%d, %d]" % (-g, g))
    labels = xp.elements
    shifts = range(window[0], window[1] + 1)
    left, right = ExtTable({}), ExtTable({})
    for x in labels:
        for y in labels:
            exts = poset_ext_dims(xp, x, y, window[1])
            left.entries.update(((x, y, i), exts[i] if i >= 0 else 0) for i in shifts)
    # the right entry (x, y, i) is Hom(F S_x, F S_y[i]), one Hom complex per pair
    images = dict(f_images_of_simples(weights))
    alg = images[next(iter(images))].module.algebra
    for x in labels:
        for y in labels:
            dims = hom_cohomology(images[x].resolution, images[y].complex, shifts)
            right.entries.update(((x, y, i), d) for i, d in zip(shifts, dims))

    equal = all(left.entries[k] == right.entries[k] for k in left.entries)

    # signed dimension-vector classes of the images in the canonical order
    rows = []
    for sx in labels:
        st = images[sx]
        sign = 1 if st.degree % 2 == 0 else -1
        rows.append([sign * st.module.dim(v) for v in alg.vertex_order])
    det = int(ExactMatrix.from_rows(rows).det())
    return left, right, equal, det in (1, -1)


def verify_weights(p1: int, p2: int, p3: int, with_beilinson: bool = False) -> dict:
    """Certificate comparison (optionally plus the table check) between the
    canonical algebra and the incidence algebra of its poset, which is
    certified from the poset."""
    cc = certificate(build_algebra(canonical_presentation([p1, p2, p3])))
    cx = poset_certificate(build_Xp(p1, p2, p3))
    jc, jx = cc.to_json(), cx.to_json()
    equal_fields = [i.key for i in INVARIANTS if jc[i.key] == jx[i.key]]
    report = {
        "weights": [p1, p2, p3],
        "certificates": {"canonical": jc, "poset": jx},
        "equal_fields": equal_fields,
        "verdict": "pass" if len(equal_fields) == len(INVARIANTS) else "fail",
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
    cx = poset_certificate(build_Xp(2, 2, p))
    cd = certificate(build_algebra(d_tilde_presentation(p)))
    cc = certificate(build_algebra(canonical_presentation([2, 2, p])))
    ok = cx.same_invariants(cd) and cx.same_invariants(cc)
    return {"p": p, "verdict": "pass" if ok else "fail",
            "poset": cx.to_json(), "d_type": cd.to_json(), "canonical": cc.to_json()}


def verify_remark_family(family: int, p2: int, p3: int) -> dict:
    """All acyclic orientations of a remark family against the (2,p2,p3)
    canonical certificate.  Mismatches are reported, not suppressed.

    Each orientation is compared on its zeta matrix, cheapest field first
    (`matches_certificate`), so no algebra is built and no gldim computed;
    only a mismatch, whose report prints it, gets a full certificate."""
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
        ok = matches_certificate(zeta_rows(poset), target)
        results.append({"orientation": orientation,
                        "status": "match" if ok else "MISMATCH"})
        if not ok:
            mismatches.append({"orientation": orientation,
                               "cert": poset_certificate(poset).to_json()})
    return {"family": family, "p2": p2, "p3": p3,
            "orientations": results, "mismatches": mismatches,
            "target": target.to_json(),
            "verdict": "pass" if not mismatches else "fail"}


def verify_t2(p1: int, p2: int) -> dict:
    poset = t2_poset(p1, p2)
    pres = incidence_presentation(poset)
    ok_shape = (poset.n == p1 + p2) and not pres.relations
    ca = poset_certificate(poset)
    cc = certificate(build_algebra(canonical_presentation([p1, p2])))
    ok = ok_shape and ca.same_invariants(cc) and ca.gldim <= 1
    return {"weights": [p1, p2], "poset_elements": poset.n,
            "relations": len(pres.relations), "gldim": ca.gldim,
            "verdict": "pass" if ok else "fail",
            "poset_cert": ca.to_json(), "canonical_cert": cc.to_json()}


def search_matching_posets(target: InvariantCertificate, n: int) -> List[Poset]:
    """All connected posets on n elements whose incidence-algebra
    certificate matches the target's invariants."""
    return _matching(target, enumerate_posets(n, connected_only=True))


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
        analysis.append({
            "poset": poset.to_json(),
            "gldim": poset_global_dimension(poset),
            "unique_path_hasse": unique_path_property(ipres.quiver),
            "gentle": is_gentle(ipres),
        })
    return {"p": p, "target": target.to_json(),
            "candidates": len(candidates),
            "matches": [m.to_json() for m in matches],
            "analysis": analysis,
            "verdict": "pass" if not matches else "fail"}
