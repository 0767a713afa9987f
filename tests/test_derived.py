import random

import pytest

from dequiv.exactla import ExactMatrix
from dequiv.posets import build_Xp, diamond
from dequiv.quivers import canonical_presentation, hasse_quiver
from dequiv.algebra import (build_algebra, identity_map, incidence_algebra,
                            make_rep, simple_module)
from dequiv import derived, homology
from dequiv.homology import ext_dims, minimal_resolution
from dequiv.derived import (DerivedError, DiagramOfComplexes, RepChainMap,
                            StalkComplex, VectChainMap, VectComplex, as_stalk,
                            beilinson_table_check, cone, derived_hom_dims,
                            f_images_of_simples, functor_F, no_poset_search,
                            shift, stalk_complex_of,
                            stalk_vect, verify_22p, verify_remark_family,
                            verify_t2, verify_weights)


def two_term(mat_rows, lo=0):
    """Complex [V -> W] in degrees lo, lo+1 with the given differential."""
    m = ExactMatrix.from_rows(mat_rows)
    return VectComplex.make({lo: m.ncols, lo + 1: m.nrows}, {lo: m})


def test_vect_complex_validates_d_squared():
    d0 = ExactMatrix.from_rows([[1]])
    with pytest.raises(DerivedError):
        VectComplex.make({0: 1, 1: 1, 2: 1}, {0: d0, 1: d0})


def test_vect_cohomology():
    c = two_term([[1]])
    assert c.cohomology() == {}
    c2 = two_term([[0]])
    assert c2.cohomology() == {0: 1, 1: 1}


def test_chain_map_validation():
    c = two_term([[1]])
    with pytest.raises(DerivedError):
        # d_target o f != f o d_source = 0
        VectChainMap.make(stalk_vect(0), c, {0: ExactMatrix.from_rows([[1]])})


def test_shift_convention():
    a = incidence_algebra(diamond())
    s = stalk_complex_of(simple_module(a, "0"), 0)
    assert shift(s, 1).support == [-1]
    assert shift(s, -2).support == [2]
    assert as_stalk(shift(s, 1)).degree == -1


def test_cone_of_identity_is_acyclic():
    a = incidence_algebra(diamond())
    s = simple_module(a, "0")
    f = RepChainMap(stalk_complex_of(s), stalk_complex_of(s), {0: identity_map(s)})
    assert cone(f).cohomology_dims() == {}


def test_cone_of_zero_map_splits():
    a = incidence_algebra(diamond())
    s = stalk_complex_of(simple_module(a, "0"))
    t = stalk_complex_of(simple_module(a, "1"))
    from dequiv.algebra import zero_map
    f = RepChainMap(s, t, {})
    c = cone(f)
    assert c.cohomology_dims() == {-1: 1, 0: 1}


def test_noncommutative_diagram_rejected():
    xp = build_Xp(3, 3, 3)
    k = stalk_vect(0)
    complexes = {x: k for x in xp.elements}
    maps = {}
    for cov in xp.covers():
        maps[cov] = VectChainMap.make(k, k, {0: ExactMatrix.from_rows([[1]])})
    # break one square
    cov0 = xp.covers()[0]
    maps[cov0] = VectChainMap.make(k, k, {0: ExactMatrix.from_rows([[2]])})
    diag = DiagramOfComplexes.make(xp, complexes, maps)
    assert not diag.is_commutative()
    with pytest.raises(DerivedError):
        functor_F(diag, (3, 3, 3))


@pytest.mark.parametrize("weights", [(3, 3, 3), (3, 3, 4), (3, 4, 4)])
def test_functor_f_on_constant_diagrams(weights):
    """Constant commutative diagrams with identity maps: the output must
    exist, validate, and satisfy the canonical relation (checked inside)."""
    rng = random.Random(sum(weights))
    xp = build_Xp(*weights)
    d = ExactMatrix.from_rows([[0, rng.randint(-2, 2)], [0, 0]])
    k = VectComplex.make({0: 2, 1: 2}, {0: d})
    ident = ExactMatrix.identity(2)
    complexes = {x: k for x in xp.elements}
    maps = {cov: VectChainMap.make(k, k, {0: ident, 1: ident})
            for cov in xp.covers()}
    diag = DiagramOfComplexes.make(xp, complexes, maps)
    assert diag.is_commutative()
    out = functor_F(diag, weights)
    assert not out.is_zero()


def test_f_images_of_simples_shapes():
    p1, p2, p3 = 3, 3, 3
    alg = build_algebra(canonical_presentation([p1, p2, p3]))
    one = ExactMatrix.from_rows([[1]])
    expected = {
        "1,2": (0, make_rep(alg, {"1,2": 1, "2,2": 1, "w": 1},
                            {"x1_3": one, "x2_3": one})),
        "2,2": (0, make_rep(alg, {"2,2": 1, "3,2": 1, "w": 1},
                            {"x2_3": one, "x3_3": one})),
        "3,2": (0, make_rep(alg, {"1,2": 1, "3,2": 1, "w": 1},
                            {"x1_3": one, "x3_3": one})),
        "w": (1, make_rep(alg, {"1,2": 1, "2,2": 1, "3,2": 1, "w": 1},
                          {"x1_3": one, "x2_3": one, "x3_3": one})),
    }
    for x, st in f_images_of_simples((p1, p2, p3)):
        if x in expected:
            deg, rep = expected[x]
            assert st.degree == deg
            assert st.module.dims == rep.dims
            for a in alg.quiver.arrows:
                assert (st.module.map_of(a.name) - rep.map_of(a.name)).is_zero()
        else:
            # interior and bottom simples map to the matching simple stalk
            assert st.degree == 0
            assert st.module.total_dim == 1
            assert st.module.dim(x) == 1


def test_f_images_unsupported_family():
    with pytest.raises(DerivedError):
        f_images_of_simples((2, 3, 3))


def test_derived_hom_shift_vs_resolution():
    a = incidence_algebra(diamond())
    s0 = StalkComplex(simple_module(a, "0"), 0)
    s1 = StalkComplex(simple_module(a, "1"), 1)
    for i in range(-2, 4):
        assert derived_hom_dims(s0, s1, i) == \
            derived_hom_dims(s0, s1, i, method="resolution")
    # Hom(M<0>, N<1>[i]) = Ext^{i-1}(M, N)
    exts = ext_dims(simple_module(a, "0"), simple_module(a, "1"), 3)
    for i in range(1, 4):
        assert derived_hom_dims(s0, s1, i) == exts[i - 1]


def test_derived_hom_semisimple():
    from dequiv.posets import antichain
    a = incidence_algebra(antichain(2))
    sx = StalkComplex(simple_module(a, "a0"), 0)
    sy = StalkComplex(simple_module(a, "a1"), 0)
    assert derived_hom_dims(sx, sx, 0) == 1
    assert derived_hom_dims(sx, sy, 0) == 0


def test_beilinson_left_table_euler_identity():
    # row-by-row Euler identity ties the left table to the Cartan matrix
    left, right, equal, unimod = beilinson_table_check((3, 3, 3))
    assert equal and unimod
    ax = incidence_algebra(build_Xp(3, 3, 3))
    cinv = ax.cartan_matrix().inverse()
    order = list(ax.vertex_order)
    for xi, x in enumerate(order):
        for yi, y in enumerate(order):
            alt = sum((-1) ** i * left.entries[(x, y, i)] for i in range(0, 4))
            assert cinv.entries[xi][yi] == alt


def count_calls(monkeypatch, module, name, *also):
    """Wrap module.name (and the same name in the modules in `also`) with a
    call counter; returns the list the calls are appended to."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (module,) + also:
        monkeypatch.setattr(mod, name, counted)
    return calls


def resolved_algebras(calls):
    """The algebras of the modules passed to a counted minimal_resolution."""
    return [args[0].algebra for args in calls]


def test_beilinson_resolves_each_module_once(monkeypatch):
    resolutions = count_calls(monkeypatch, homology, "minimal_resolution", derived)
    replacements = count_calls(monkeypatch, derived, "proj_replacement")
    complexes = count_calls(monkeypatch, homology, "hom_cohomology", derived)
    left, right, equal, unimod = beilinson_table_check((3, 3, 3))
    assert equal and unimod
    # the 8 cone-functor images, each resolved once; the poset side comes
    # from interval cohomology and resolves nothing
    assert len(resolutions) == 8
    assert all(a.poset is None for a in resolved_algebras(resolutions))
    assert replacements == []
    # one Hom complex per (x, y) pair of the 8 x 8 right table, for all shifts
    assert len(complexes) == 64


def test_stalk_keeps_its_resolution_and_replacement(monkeypatch):
    resolutions = count_calls(monkeypatch, homology, "minimal_resolution", derived)
    replacements = count_calls(monkeypatch, derived, "proj_replacement")
    a = incidence_algebra(diamond())
    x = StalkComplex(simple_module(a, "0"), 0)
    y = StalkComplex(simple_module(a, "1"), 1)
    for i in range(-3, 4):
        derived_hom_dims(x, y, i, method="shift")
        derived_hom_dims(x, y, i, method="resolution")
    assert len(resolutions) == 1
    assert len(replacements) == 1


def resolution_gldim(a):
    return max(minimal_resolution(simple_module(a, v)).length for v in a.vertex_order)


def test_report_resolves_no_poset_simples(monkeypatch):
    resolutions = count_calls(monkeypatch, homology, "minimal_resolution", derived)
    r = verify_weights(3, 3, 3)
    assert r["verdict"] == "pass"
    # the top of the canonical algebra, resolved once; the poset gldim comes
    # from its intervals
    assert len(resolutions) == 1
    resolutions.clear()
    r = verify_weights(3, 3, 3, True)
    assert r["verdict"] == "pass"
    # the canonical top and the 8 cone-functor images of the table check
    assert len(resolutions) == 9
    assert all(a.poset is None for a in resolved_algebras(resolutions))
    monkeypatch.undo()
    assert r["certificates"]["poset"]["gldim"] == \
        resolution_gldim(incidence_algebra(build_Xp(3, 3, 3)))


def test_remark_family_resolves_only_the_target(monkeypatch):
    resolutions = count_calls(monkeypatch, homology, "minimal_resolution", derived)
    r = verify_remark_family(1, 3, 4)
    assert r["verdict"] == "pass"
    # the top of the canonical (2,3,4) target, resolved once; each
    # orientation's gldim comes from its intervals
    assert len(resolutions) == 1
    assert all(a.poset is None for a in resolved_algebras(resolutions))


def test_global_dimension_solves_once_per_kernel_vertex(monkeypatch):
    # canonical (3,3,3): gldim 2, so its top's resolution takes 3 kernels,
    # and each solves once at each of the 7 vertices with incoming arrows
    a = build_algebra(canonical_presentation([3, 3, 3]))
    kernels = count_calls(monkeypatch, homology, "kernel_of")
    solves = count_calls(monkeypatch, ExactMatrix, "solve")
    assert homology.global_dimension(a) == 2
    into = [v for v in a.vertex_order if a.quiver.arrows_into(v)]
    assert len(into) == 7
    assert len(kernels) == 3
    assert len(solves) == 21


def canonical_target(weights):
    return homology.certificate(build_algebra(canonical_presentation(weights)))


def test_search_compares_in_cost_order(monkeypatch):
    target = canonical_target([2, 2, 2, 2])
    gldims = count_calls(monkeypatch, homology, "global_dimension", derived)
    coxeters = count_calls(monkeypatch, homology, "cartan_coxeter_polynomial")
    algebras = count_calls(monkeypatch, derived, "incidence_algebra")
    hits = derived.search_matching_posets(target, 6)
    assert len(hits) == 1  # lambda = 2: the octahedron poset 2+2+2
    # of the 238 connected 6-element posets, 15 agree with the target up to
    # the Smith form and reach the Coxeter polynomial; none needs its gldim,
    # and candidates are compared on their zeta matrices, with no algebra
    assert gldims == []
    assert len(coxeters) == 15
    assert algebras == []


def test_2223_search_hits_share_hochschild():
    # canonical (2,2,2,3) matches twelve 7-element posets, all with the
    # canonical algebra's HH^0..2 = [1, 0, 1]: the certificates agree, which
    # does not make the algebras derived equivalent
    hits = derived.search_matching_posets(canonical_target([2, 2, 2, 3]), 7)
    assert len(hits) == 12
    for p in hits:
        assert homology.hochschild_of_poset(p, 2) == [1, 0, 1]


def test_22222_search_hit_count():
    # canonical (2,2,2,2,2) with the default lambdas 1, 2, 3 matches exactly
    # three connected 7-element posets, beside (2,2,2,2) -> 1 and
    # (2,2,2,3) -> 12
    hits = derived.search_matching_posets(canonical_target([2, 2, 2, 2, 2]), 7)
    assert len(hits) == 3


def test_reused_stalk_matches_fresh_stalk():
    images = dict(f_images_of_simples((3, 3, 3)))
    pairs = [("0", "w"), ("w", "0"), ("1,2", "2,1"), ("3,1", "3,1")]
    for method in ("shift", "resolution"):
        for sx, sy in pairs:
            x, y = images[sx], images[sy]
            for i in range(-3, 4):
                fresh = StalkComplex(x.module, x.degree)
                assert derived_hom_dims(x, y, i, method) == \
                    derived_hom_dims(fresh, y, i, method)


def test_beilinson_gldim_is_global_dimension():
    # a window narrower than [-gldim, gldim] is refused, naming the gldim used
    for w in ((3, 3, 3), (3, 3, 4), (3, 4, 4)):
        g = resolution_gldim(incidence_algebra(build_Xp(*w)))
        with pytest.raises(DerivedError, match=r"= \[%d, %d\]" % (-g, g)):
            beilinson_table_check(w, window=(0, 0))


def test_hasse_paths_match_recursive_walk():
    # is_commutative reads its cover chains off the Hasse quiver's paths
    xp = build_Xp(3, 3, 4)
    q = hasse_quiver(xp)
    succ = {}
    for a, b in xp.covers():
        succ.setdefault(a, []).append(b)

    def reference(u, v):
        out = []

        def walk(cur, acc):
            if cur == v and acc:
                out.append(acc)
            for w in succ.get(cur, []):
                walk(w, acc + [(cur, w)])

        walk(u, [])
        return out

    for u in xp.elements:
        for v in xp.elements:
            if xp.lt(u, v):
                chains = [[(q.arrow(name).source, q.arrow(name).target)
                           for name in path] for path in q.paths(u, v)]
                assert chains == reference(u, v)


def test_verify_pipelines():
    assert verify_weights(2, 2, 2)["verdict"] == "pass"
    assert verify_t2(2, 3)["verdict"] == "pass"
    assert verify_22p(2)["verdict"] == "pass"
    r = verify_remark_family(3, 2, 2)
    assert r["verdict"] == "pass"


def test_no_poset_search_small():
    r = no_poset_search(2)
    assert r["verdict"] == "pass"
    assert r["matches"] == []
    with pytest.raises(DerivedError, match="p \\+ 1 = 9 elements; supported sizes are 2 to 8"):
        no_poset_search(8)
