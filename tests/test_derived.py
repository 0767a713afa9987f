import random
import sys

import pytest

from dequiv.exactla import ExactMatrix, PrimeField
from dequiv.posets import antichain, build_Xp, build_remark_poset, chain, diamond
from dequiv.quivers import canonical_presentation, hasse_quiver
from dequiv.algebra import (AlgebraError, build_algebra, hom_from_generators,
                            incidence_algebra, make_rep, module_map,
                            projective_module, projective_rep, simple_module)
from dequiv import algebra, derived, exactla, homology
from dequiv.homology import hom_cohomology, minimal_resolution
from dequiv.derived import (ComplexOfReps, DerivedError, RepChainMap,
                            StalkComplex, as_stalk, beilinson_table_check,
                            cone, derived_hom_dims, f_images_of_simples,
                            functor_F, no_poset_search, proj_replacement,
                            stalk_complex_of, verify_22p,
                            verify_remark_family, verify_t2, verify_weights)

def identity_map(m):
    """The identity module map of m."""
    return module_map(m, m, {v: ExactMatrix.identity(m.dim(v), m.algebra.field)
                             for v in m.algebra.vertex_order})


# the one-vertex algebra k: its modules are vector spaces
POINT = incidence_algebra(antichain(1))


def space(n):
    return make_rep(POINT, {"a0": n}, {})


def linear_map(m):
    return module_map(space(m.ncols), space(m.nrows), {"a0": m})


def two_term(mat_rows, lo=0):
    """Complex [V -> W] in degrees lo, lo+1 with the given differential."""
    m = ExactMatrix.from_rows(mat_rows)
    return ComplexOfReps.make(POINT, {lo: space(m.ncols), lo + 1: space(m.nrows)},
                              {lo: linear_map(m)})


def test_vect_complex_validates_d_squared():
    d0 = linear_map(ExactMatrix.from_rows([[1]]))
    with pytest.raises(DerivedError):
        ComplexOfReps.make(POINT, {0: space(1), 1: space(1), 2: space(1)}, {0: d0, 1: d0})


def test_vect_cohomology():
    c = two_term([[1]])
    assert c.cohomology_dims() == {}
    c2 = two_term([[0]])
    assert c2.cohomology_dims() == {0: 1, 1: 1}


def test_chain_map_validation():
    c = two_term([[1]])
    with pytest.raises(DerivedError, match="d o d"):
        # d_target o f != f o d_source = 0, the block of the cone's d o d
        cone(RepChainMap(stalk_complex_of(space(1)), c,
                         {0: linear_map(ExactMatrix.from_rows([[1]]))}))


def test_cone_of_identity_is_acyclic():
    a = incidence_algebra(diamond())
    s = simple_module(a, "0")
    f = RepChainMap(stalk_complex_of(s), stalk_complex_of(s), {0: identity_map(s)})
    assert cone(f).cohomology_dims() == {}


def test_cone_of_zero_map_splits():
    a = incidence_algebra(diamond())
    s = stalk_complex_of(simple_module(a, "0"))
    t = stalk_complex_of(simple_module(a, "1"))
    f = RepChainMap(s, t, {})
    c = cone(f)
    assert c.cohomology_dims() == {-1: 1, 0: 1}


def test_noncommutative_diagram_rejected():
    ax = incidence_algebra(build_Xp(3, 3, 3))
    one = {x: 1 for x in ax.vertex_order}
    maps = {a.name: ExactMatrix.from_rows([[1]]) for a in ax.quiver.arrows}
    # break one square
    maps["%s->%s" % ax.poset.covers()[0]] = ExactMatrix.from_rows([[2]])
    with pytest.raises(AlgebraError):
        make_rep(ax, one, maps, check=True)
    term = make_rep(ax, one, maps, check=False)
    assert not term.check_relations()
    with pytest.raises(DerivedError):
        functor_F(stalk_complex_of(term), (3, 3, 3))


def test_functor_f_refuses_another_algebra():
    with pytest.raises(DerivedError, match="weight-triple poset"):
        functor_F(stalk_complex_of(simple_module(incidence_algebra(build_Xp(3, 3, 4)), "0")),
                  (3, 3, 3))
    with pytest.raises(DerivedError, match="weight-triple poset"):
        functor_F(stalk_complex_of(space(1)), (3, 3, 3))


def test_functor_f_refuses_a_complex_with_nonzero_square():
    ax = incidence_algebra(build_Xp(3, 3, 3))
    s = simple_module(ax, "0")
    ident = identity_map(s)
    # the plain constructor skips the checks of ComplexOfReps.make
    c = ComplexOfReps(ax, {0: s, 1: s, 2: s}, {0: ident, 1: ident})
    with pytest.raises(DerivedError, match="d o d"):
        functor_F(c, (3, 3, 3))


def constant_diagram(weights):
    """A constant complex on the weight-triple poset: 2-dimensional spaces,
    identity cover maps and a seeded nilpotent differential."""
    rng = random.Random(sum(weights))
    ax = incidence_algebra(build_Xp(*weights))
    d = ExactMatrix.from_rows([[0, rng.randint(-2, 2)], [0, 0]])
    ident = ExactMatrix.identity(2)
    k = make_rep(ax, {x: 2 for x in ax.vertex_order},
                 {a.name: ident for a in ax.quiver.arrows})
    return ComplexOfReps.make(ax, {0: k, 1: k},
                              {0: module_map(k, k, {x: d for x in ax.vertex_order})})


@pytest.mark.parametrize("weights", [(3, 3, 3), (3, 3, 4), (3, 4, 4)])
def test_functor_f_on_constant_diagrams(weights):
    """Constant complexes with identity cover maps: the output must exist,
    validate, and satisfy the canonical relation (checked inside)."""
    c = constant_diagram(weights)
    assert all(c.term(i).check_relations() for i in c.support)
    out = functor_F(c, weights)
    assert not out.is_zero()


def test_functor_f_over_a_prime_field():
    # the construction works over the field of its input: over GF(3) each
    # simple maps to a stalk of the same degree and dimensions as over Q
    w = (3, 3, 3)
    ax = incidence_algebra(build_Xp(*w), PrimeField(3))
    for x, st in f_images_of_simples(w):
        img = as_stalk(functor_F(stalk_complex_of(simple_module(ax, x)), w))
        assert img.module.algebra.field is ax.field
        assert (img.degree, img.module.dims) == (st.degree, st.module.dims)


def test_functor_f_is_fully_faithful_on_projectives():
    # Hom(F P_x, F P_y[i]) = Hom(P_x, P_y[i]): k when i = 0 and y <= x, else 0
    w = (3, 3, 3)
    ax = incidence_algebra(build_Xp(*w))
    images = {x: functor_F(stalk_complex_of(projective_module(ax, x)), w)
              for x in ax.vertex_order}
    shifts = range(-3, 4)
    for x in ax.vertex_order:
        q, _ = proj_replacement(images[x])
        for y in ax.vertex_order:
            dims = hom_cohomology(q, images[y], shifts)
            expected = [int(i == 0 and ax.poset.leq(y, x)) for i in shifts]
            assert dims == expected, (x, y)


# -- the projective replacement and the cone it certifies --------------------

def f_images(weights):
    """F of the stalks of the simples and of the indecomposable projectives
    of the weight-triple poset's incidence algebra."""
    ax = incidence_algebra(build_Xp(*weights))
    return [functor_F(stalk_complex_of(make(ax, x)), weights)
            for make in (simple_module, projective_module) for x in ax.vertex_order]


def test_replacement_passes_the_cone_of_its_chain_map():
    # the old certificate as the oracle: eps is a chain map Q -> X whose
    # cone, built apart from the replacement, is acyclic
    images = [x for w in ((3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4)) for x in f_images(w)]
    assert len(images) == 76
    for x in images:
        q, eps = proj_replacement(x)
        assert all(isinstance(t, algebra.ProjectiveRep) for t in q.terms.values())
        assert cone(RepChainMap(q, x, eps)).cohomology_dims() == {}


@pytest.mark.parametrize("poset", [chain(2), diamond()], ids=["chain2", "diamond"])
def test_replacement_spans_a_gap(poset):
    # M in degree 0 and N in degree 2, nothing in degree 1: the replacement
    # must reach below the gap, so Hom(Q, S_y[i]) = Ext^i(M, S_y) (+) Ext^{i+2}(N, S_y)
    a = incidence_algebra(poset)
    simples = [simple_module(a, v) for v in a.vertex_order]
    shifts = range(-3, 4)
    checks = 0
    for make in (simple_module, projective_module):
        mods = [make(a, v) for v in a.vertex_order]
        for m in mods:
            for n in mods:
                q, _ = proj_replacement(ComplexOfReps.make(a, {0: m, 2: n}, {}))
                for s in simples:
                    em = hom_cohomology(minimal_resolution(m), stalk_complex_of(s), range(6))
                    en = hom_cohomology(minimal_resolution(n), stalk_complex_of(s), range(6))
                    expected = [(em[i] if i >= 0 else 0) + (en[i + 2] if i >= -2 else 0)
                                for i in shifts]
                    assert hom_cohomology(q, stalk_complex_of(s), shifts) == expected
                    checks += 1
    assert checks == 2 * len(simples) ** 3


def test_certificate_catches_a_cover_short_of_a_generator(monkeypatch):
    def short_cover(m):
        gens = homology._top_generators(m)[:-1]
        p = projective_rep(m.algebra, [v for v, _ in gens])
        return p, hom_from_generators(p, m, [vec for _, vec in gens])

    x = stalk_complex_of(simple_module(incidence_algebra(diamond()), "0"))
    monkeypatch.setattr(derived, "projective_cover", short_cover)
    with pytest.raises(DerivedError, match="not a quasi-isomorphism"):
        proj_replacement(x)


def test_certificate_catches_a_sign_flip_in_eps(monkeypatch):
    # F(P_0) is P -> P' in degrees 0, 1; negating eps in degree 0 leaves a
    # map that no longer commutes with the differentials
    w = (3, 3, 3)
    x = functor_F(stalk_complex_of(projective_module(incidence_algebra(build_Xp(*w)), "0")), w)
    assert x.support == [0, 1] and list(x.diffs) == [0]
    component = derived._component_map
    flipped = []

    def flip_first_eps(mm, targets, idx):
        out = component(mm, targets, idx)
        if idx == 1 and not flipped:
            flipped.append(out)
            return -out
        return out

    monkeypatch.setattr(derived, "_component_map", flip_first_eps)
    with pytest.raises(DerivedError, match="d o d"):
        proj_replacement(x)
    assert len(flipped) == 1


def test_replacement_cap_names_its_value(monkeypatch):
    # a kernel that never vanishes runs the build into its cap,
    # (b - lo) + dim A + 3 = 0 + 3 + 3 steps for a stalk over k(. -> .)
    a = incidence_algebra(chain(2))
    assert a.dimension == 3
    monkeypatch.setattr(derived, "kernel_of", lambda d: (d.source, identity_map(d.source)))
    with pytest.raises(DerivedError, match=r"^projective replacement cap 6 exceeded$"):
        proj_replacement(stalk_complex_of(simple_module(a, "c0")))


def test_replacement_builds_one_zero_term(monkeypatch):
    # the zero term outside X's support is built once per complex, not once
    # per lookup
    w = (3, 3, 3)
    x = functor_F(stalk_complex_of(simple_module(incidence_algebra(build_Xp(*w)), "w")), w)
    zeros = count_calls(monkeypatch, algebra, "zero_rep")
    proj_replacement(x)
    assert len(zeros) == 1


# the two cone builders before `_cone_diff`, as the oracle: the chain-map
# check, the shared block assembler, the cone and the replacement, each
# building its differentials in its own loop

def oracle_comp(fmap, d):
    m = fmap.comps.get(d)
    return module_map(fmap.source.term(d), fmap.target.term(d), {}) if m is None else m


def oracle_diff(c, d):
    m = c.diffs.get(d)
    return module_map(c.term(d), c.term(d + 1), {}) if m is None else m


def oracle_check_chain_map(fmap):
    for d in set(fmap.source.support) | set(fmap.target.support):
        lhs = oracle_diff(fmap.target, d).compose(oracle_comp(fmap, d))
        rhs = oracle_comp(fmap, d + 1).compose(oracle_diff(fmap.source, d))
        for b1, b2 in zip(lhs.blocks, rhs.blocks):
            if not (b1 - b2).is_zero():
                raise DerivedError("not a chain map of complexes at degree %d" % d)


def oracle_sum_map(src, tgt, sources, targets, blocks):
    alg = src.algebra
    vb = {}
    for k, v in enumerate(alg.vertex_order):
        if src.dims[k] and tgt.dims[k]:
            vb[v] = ExactMatrix.from_blocks(
                {ij: mm.blocks[k] for ij, mm in blocks.items()},
                [t.dims[k] for t in targets], [s.dims[k] for s in sources], alg.field)
    return module_map(src, tgt, vb)


def oracle_cone(fmap):
    oracle_check_chain_map(fmap)
    k, l = fmap.source, fmap.target
    degs = set(d - 1 for d in k.support) | set(l.support)
    terms = {d: algebra.direct_sum_rep([k.term(d + 1), l.term(d)]) for d in degs}
    diffs = {}
    for d in degs:
        if d + 1 not in degs:
            continue
        blocks = {}
        dk = oracle_diff(k, d + 1)
        if not dk.is_zero():
            blocks[(0, 0)] = -dk
        fd = oracle_comp(fmap, d + 1)
        if not fd.is_zero():
            blocks[(1, 0)] = fd
        dl = oracle_diff(l, d)
        if not dl.is_zero():
            blocks[(1, 1)] = dl
        diffs[d] = oracle_sum_map(terms[d], terms[d + 1], [k.term(d + 1), l.term(d)],
                                  [k.term(d + 2), l.term(d + 1)], blocks)
    return ComplexOfReps.make(k.algebra, terms, diffs)


def oracle_proj_replacement(x):
    alg = x.algebra
    if x.is_zero():
        return ComplexOfReps(alg, {}, {}), {}
    lo, b = x.support[0], x.support[-1]
    cap = (b - lo) + alg.dimension + 3
    zero = x.term(b + 1)
    p_b, cover = homology.projective_cover(x.term(b))
    q, dq, eps = {b: p_b}, {}, {b: cover}
    cone_terms, cone_diffs = {b: x.term(b)}, {}
    for j in range(b - 1, b - 1 - cap, -1):
        src = [q[j + 1], x.term(j)]
        cone_terms[j] = algebra.direct_sum_rep(src)
        blocks = {(1, 0): eps[j + 1]}
        if j + 1 in dq:
            blocks[(0, 0)] = -dq[j + 1]
        if j in x.diffs:
            blocks[(1, 1)] = x.diffs[j]
        d = oracle_sum_map(cone_terms[j], cone_terms[j + 1], src,
                           [q.get(j + 2, zero), x.term(j + 1)], blocks)
        cone_diffs[j] = d
        v, incl = algebra.kernel_of(d)
        if v.is_zero() and j <= lo:
            break
        q[j], cover = homology.projective_cover(v)
        tot = incl.compose(cover)
        dq[j] = derived._component_map(tot, src, 0)
        eps[j] = -derived._component_map(tot, src, 1)
    else:
        raise DerivedError("projective replacement cap %d exceeded" % cap)
    assert ComplexOfReps.make(alg, cone_terms, cone_diffs).cohomology_dims() == {}
    return ComplexOfReps(alg, {d: p for d, p in q.items() if not p.is_zero()},
                         {d: m for d, m in dq.items() if not m.is_zero()}), eps


def gap_complexes():
    """M in degree 0 and N in degree 2 over k(. -> .) and the diamond, M
    and N running over the simples and over the indecomposable projectives."""
    out = []
    for poset in (chain(2), diamond()):
        a = incidence_algebra(poset)
        for make in (simple_module, projective_module):
            mods = [make(a, v) for v in a.vertex_order]
            out += [ComplexOfReps.make(a, {0: m, 2: n}, {}) for m in mods for n in mods]
    return out


def assert_replacement_matches_the_oracle(x):
    """The same Q and eps as the oracle, and the same cone of eps."""
    q, eps = proj_replacement(x)
    oq, oeps = oracle_proj_replacement(x)
    assert_same_complex(q, oq)
    assert eps == oeps
    f = RepChainMap(q, x, eps)
    assert_same_complex(cone(f), oracle_cone(f))


def test_replacement_and_cone_match_the_oracle_on_the_f_images():
    images = [x for w in ((3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4)) for x in f_images(w)]
    assert len(images) == 76
    for x in images:
        assert_replacement_matches_the_oracle(x)


def test_replacement_and_cone_match_the_oracle_across_a_gap():
    complexes = gap_complexes()
    assert len(complexes) == 2 * (2 ** 2 + 4 ** 2)
    for x in complexes:
        assert_replacement_matches_the_oracle(x)


def test_cone_matches_the_oracle_on_identity_and_zero_maps():
    a = incidence_algebra(diamond())
    s0, s1 = simple_module(a, "0"), simple_module(a, "1")
    for f in (RepChainMap(stalk_complex_of(s0), stalk_complex_of(s0), {0: identity_map(s0)}),
              RepChainMap(stalk_complex_of(s0), stalk_complex_of(s1), {})):
        assert_same_complex(cone(f), oracle_cone(f))


def test_cone_refuses_a_component_that_is_not_a_module_map():
    # between stalks every family of vertex maps commutes with the (zero)
    # differentials; doubling the identity of P_0 at the vertex 1 alone
    # breaks the arrows a -> 1 and b -> 1
    a = incidence_algebra(diamond())
    p = projective_module(a, "0")
    blocks = {v: ExactMatrix.identity(p.dim(v)) for v in a.vertex_order}
    blocks["1"] = blocks["1"].scale(2)
    f = RepChainMap(stalk_complex_of(p), stalk_complex_of(p), {0: module_map(p, p, blocks)})
    assert not f.comps[0].check()
    oracle_check_chain_map(f)  # a chain map of vertex-graded spaces
    with pytest.raises(DerivedError, match="not a module map"):
        cone(f)


def test_cone_refuses_a_component_with_wrong_endpoints():
    # the identity of P_0 fits S_0 -> S_0 at the vertex 0, the only vertex
    # where the cone of two stalks of S_0 has a block to build
    a = incidence_algebra(diamond())
    s, p = stalk_complex_of(simple_module(a, "0")), projective_module(a, "0")
    with pytest.raises(DerivedError, match="component at 0 has wrong endpoints"):
        cone(RepChainMap(s, s, {0: identity_map(p)}))


def test_complex_refuses_a_differential_between_the_wrong_terms():
    with pytest.raises(DerivedError, match=r"^differential at 0 has wrong endpoints$"):
        ComplexOfReps.make(POINT, {0: space(1), 1: space(2)},
                           {0: linear_map(ExactMatrix.from_rows([[1]]))})


def test_as_stalk_refuses_the_zero_complex_and_two_degrees():
    with pytest.raises(DerivedError, match=r"^zero complex has no stalk degree$"):
        as_stalk(ComplexOfReps.make(POINT, {}, {}))
    # the zero differential is dropped, leaving two terms and no differential
    with pytest.raises(DerivedError, match=r"^complex is not a stalk: support \[0, 1\]$"):
        as_stalk(two_term([[0]]))


def test_derived_hom_dims_refuses_an_unknown_method():
    s = StalkComplex(space(1), 0)
    with pytest.raises(DerivedError, match=r"^unknown method 'bogus'$"):
        derived_hom_dims(s, s, 0, method="bogus")


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


def test_f_images_of_simples_share_one_algebra(monkeypatch):
    w = (3, 3, 3)
    builds = count_calls(monkeypatch, derived, "build_algebra")
    images = f_images_of_simples(w)
    # the canonical algebra, once per call; the poset's incidence algebra is
    # built through incidence_algebra
    assert len(builds) == 1
    assert len({id(st.module.algebra) for _, st in images}) == 1
    monkeypatch.undo()
    # each image is F of its simple's stalk, built on its own
    ax = incidence_algebra(build_Xp(*w))
    for x, st in images:
        own = as_stalk(functor_F(stalk_complex_of(simple_module(ax, x)), w))
        assert (st.degree, st.module.dims) == (own.degree, own.module.dims)
        assert [(name, m.entries) for name, m in st.module.maps] == \
            [(name, m.entries) for name, m in own.module.maps]


def oracle_cone_functor(c, weights, alg):
    """Reference for the cone functor: every layout part's dimension looked
    up at each use, and a block, arrow matrix and vertex differential built
    for every part, arrow and vertex, empty or not."""
    p1, p2, p3 = weights
    _, end, pre, cross = derived._xp_arms(p1, p2, p3)
    f = c.algebra.field

    def cover(x, y, d):
        return c.term(d).map_of("%s->%s" % (x, y))

    partner = {1: 3, 2: 1, 3: 2}
    layout = {"0": [("0", 0)], "w": []}
    for i in (1, 2, 3):
        p_i = (p1, p2, p3)[i - 1]
        for j in range(1, p_i - 1):
            layout["%d,%d" % (i, j)] = [("%d,%d" % (i, j), 0)]
        layout[end[i]] = [(end[i], 0), (end[partner[i]], 0), ("w", 1)]
    layout["w"] = [(end[1], 0), (end[2], 0), (end[3], 0), ("w", 1)]
    degs = set(c.support) | {d + 1 for d in c.support}

    def part_dim(lab, off, d):
        return c.term(d - off).dim(lab)

    def vdiff(v, d):
        parts = layout[v]
        rows = [part_dim(lab, off, d + 1) for lab, off in parts]
        cols = [part_dim(lab, off, d) for lab, off in parts]
        blocks = {}
        for idx, (lab, off) in enumerate(parts):
            if d - off in c.diffs:
                m = c.diffs[d - off].block(lab)
                if not m.is_zero():
                    blocks[(idx, idx)] = -m if off else m
        if len(parts) > 1:
            for idx, (lab, _) in enumerate(parts[:-1]):
                m = cover(lab, "w", d)
                if not m.is_zero():
                    blocks[(len(parts) - 1, idx)] = -m
        return ExactMatrix.from_blocks(blocks, rows, cols, f)

    def arrow_blocks(arrow, d):
        src_parts, tgt_parts = layout[arrow.source], layout[arrow.target]
        i = int(arrow.name[1])
        j = int(arrow.name.split("_")[1])
        p_i = (p1, p2, p3)[i - 1]
        if j <= p_i - 2:
            return {(0, 0): cover(arrow.source, arrow.target, d)}
        if j == p_i - 1:
            arm = cover(pre[i], end[i], d)
            cr = cover(*cross[i], d)
            return {(0, 0): arm if i != 2 else -arm,
                    (1, 0): cr if i == 2 else -cr}
        return {(tgt_parts.index(part), sidx): ExactMatrix.identity(part_dim(*part, d), f)
                for sidx, part in enumerate(src_parts)}

    terms = {}
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
    diffs = {}
    for d in sorted(degs):
        blocks = {v: vdiff(v, d) for v in alg.vertex_order}
        if not all(b.is_zero() for b in blocks.values()):
            diffs[d] = module_map(terms[d], terms[d + 1], blocks)
    return ComplexOfReps.make(alg, terms, diffs)


def assert_same_complex(got, want):
    """Equal terms (dimensions and arrow-map entries) and differentials
    (every vertex block), degree by degree."""
    assert sorted(got.terms) == sorted(want.terms)
    assert sorted(got.diffs) == sorted(want.diffs)
    for d, t in want.terms.items():
        assert got.terms[d].dims == t.dims
        assert [(n, m.entries) for n, m in got.terms[d].maps] == \
            [(n, m.entries) for n, m in t.maps]
    for d, m in want.diffs.items():
        assert [b.entries for b in got.diffs[d].blocks] == [b.entries for b in m.blocks]


@pytest.mark.parametrize("field", [None, PrimeField(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("weights", [(3, 3, 3), (3, 3, 4), (3, 4, 4)], ids=str)
def test_cone_functor_matches_the_every_block_oracle(weights, field):
    # the stalks of every simple and indecomposable projective, and (over Q)
    # the constant diagram: the same terms, arrow maps and differentials as
    # when every part, arrow and vertex is assembled
    ax = (incidence_algebra(build_Xp(*weights)) if field is None
          else incidence_algebra(build_Xp(*weights), field))
    alg = build_algebra(canonical_presentation(list(weights), field=ax.field))
    inputs = [stalk_complex_of(make(ax, x))
              for make in (simple_module, projective_module) for x in ax.vertex_order]
    if field is None:
        inputs.append(constant_diagram(weights))
    for c in inputs:
        assert_same_complex(derived._cone_functor(c, weights, build_Xp(*weights), alg),
                            oracle_cone_functor(c, weights, alg))


def test_cone_functor_builds_no_block_for_a_zero_space(monkeypatch):
    # the 8 images of one-dimensional simples: a block matrix only for an
    # arrow or vertex differential with two nonzero sides (272 when every
    # arrow and vertex of every degree was assembled)
    blocks = count_calls(monkeypatch, ExactMatrix, "from_blocks")
    f_images_of_simples((3, 3, 3))
    assert len(blocks) <= 9


def oracle_check_relations(m):
    """Reference for `Representation.check_relations`: every relation is
    evaluated, also where its source or target space is 0."""
    alg = m.algebra
    for rel, (src, tgt) in zip(alg.presentation.relations, alg.relation_endpoints):
        acc = ExactMatrix.zero(m.dim(tgt), m.dim(src), alg.field)
        for coeff, path in rel.terms:
            acc = acc + m.act_path(src, path).scale(coeff)
        if not acc.is_zero():
            return False
    return True


def test_relation_check_matches_the_unskipped_check(monkeypatch):
    # every module functor_F checks for (3,3,3): the input terms (stalks of
    # simples and indecomposable projectives) and the terms it builds
    checked = []
    original = algebra.Representation.check_relations

    def recorded(self):
        checked.append(self)
        return original(self)

    monkeypatch.setattr(algebra.Representation, "check_relations", recorded)
    f_images((3, 3, 3))
    monkeypatch.undo()
    # the same modules with every arrow map doubled on one arm: the
    # relations that pass through it break wherever both ends are nonzero
    broken = [make_rep(m.algebra, {v: m.dim(v) for v in m.algebra.vertex_order},
                       {name: mat.scale(2) if name[:2] in ("x1", "1,") else mat
                        for name, mat in m.maps}, check=False) for m in checked]
    verdicts = [(m.check_relations(), oracle_check_relations(m)) for m in checked + broken]
    assert all(fast == slow for fast, slow in verdicts)
    # 16 stalk inputs and the 2 terms each image has
    assert len(checked) == 16 + 32
    assert sum(not fast for fast, _ in verdicts) > 0


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
    exts = hom_cohomology(minimal_resolution(simple_module(a, "0")),
                          stalk_complex_of(simple_module(a, "1")), range(4))
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


def test_beilinson_eliminates_no_empty_shape(monkeypatch):
    # a block with no rows or no columns (a zero space of a module) is
    # never eliminated
    shapes = []
    original = exactla._eliminate

    def recorded(field, entries, ncols):
        shapes.append((len(entries), ncols))
        return original(field, entries, ncols)

    def multiplied(a, b):
        # the function taking the product, past any generator expression
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        products.append((a.nrows, a.ncols, b.ncols, frame.f_code.co_name))
        return matmul(a, b)

    products = []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(exactla, "_eliminate", recorded)
    monkeypatch.setattr(ExactMatrix, "__matmul__", multiplied)
    left, right, equal, unimod = beilinson_table_check((3, 3, 3))
    assert equal and unimod
    assert shapes and all(nrows and ncols for nrows, ncols in shapes)
    # nor is a product of an empty shape taken, in composing module maps
    # or in carrying generators along paths
    callers = {caller for *_, caller in products}
    assert {"compose", "image"} <= callers
    assert products and all(n and k and m for n, k, m, _ in products)


def test_stalk_resolution_ends_in_the_stalk_degree():
    # the diamond's S_0 has projective dimension 2: in degree 1 its
    # resolution takes degrees 1, 0, -1
    m = simple_module(incidence_algebra(diamond()), "0")
    res = minimal_resolution(m)
    shifted = StalkComplex(m, 1).resolution
    assert sorted(res.terms) == [-2, -1, 0] and sorted(shifted.terms) == [-1, 0, 1]
    assert sorted(shifted.diffs) == [-1, 0]
    assert all(shifted.terms[d + 1] == p for d, p in res.terms.items())
    assert all(shifted.diffs[d + 1] == m for d, m in res.diffs.items())


def test_stalk_keeps_its_resolution_and_replacement(monkeypatch):
    resolutions = count_calls(monkeypatch, homology, "minimal_resolution", derived)
    replacements = count_calls(monkeypatch, derived, "proj_replacement")
    cones = count_calls(monkeypatch, derived, "cone")
    a = incidence_algebra(diamond())
    x = StalkComplex(simple_module(a, "0"), 0)
    y = StalkComplex(simple_module(a, "1"), 1)
    for i in range(-3, 4):
        derived_hom_dims(x, y, i, method="shift")
        derived_hom_dims(x, y, i, method="resolution")
    assert len(resolutions) == 1
    assert len(replacements) == 1
    # the replacement is certified on the cone it builds, not a second one
    assert cones == []


def test_cone_terms_are_built_once(monkeypatch):
    sums = count_calls(monkeypatch, derived, "direct_sum_rep")
    cone_diffs = count_calls(monkeypatch, derived, "_cone_diff")
    images = dict(f_images_of_simples((3, 3, 3)))
    assert sums == []
    proj_replacement(images["w"].complex)
    # one sum C^j = Q^{j+1} (+) X^j per cone step, j = 0 and -1 here; the
    # step below takes it as its target
    assert len(cone_diffs) == 2
    assert len(sums) == len(cone_diffs)
    sums.clear()
    cone_diffs.clear()
    a = incidence_algebra(diamond())
    s = simple_module(a, "0")
    c = cone(RepChainMap(stalk_complex_of(s), stalk_complex_of(s), {0: identity_map(s)}))
    # the two terms S (+) 0 in degree -1 and 0 (+) S in degree 0, one
    # differential between them
    assert len(sums) == 2 and len(cone_diffs) == 1
    assert c.cohomology_dims() == {}


def resolution_gldim(a):
    return max(len(minimal_resolution(simple_module(a, v)).terms) - 1 for v in a.vertex_order)


def test_report_resolves_no_poset_simples(monkeypatch):
    resolutions = count_calls(monkeypatch, homology, "minimal_resolution", derived)
    r = verify_weights(3, 3, 3)
    assert r["verdict"] == "pass"
    # rad A of the canonical algebra, resolved once; the poset gldim comes
    # from its intervals
    assert len(resolutions) == 1
    resolutions.clear()
    r = verify_weights(3, 3, 3, True)
    assert r["verdict"] == "pass"
    # the canonical rad A and the 8 cone-functor images of the table check
    assert len(resolutions) == 9
    assert all(a.poset is None for a in resolved_algebras(resolutions))
    monkeypatch.undo()
    assert r["certificates"]["poset"]["gldim"] == \
        resolution_gldim(incidence_algebra(build_Xp(3, 3, 3)))


def test_remark_family_resolves_only_the_target(monkeypatch):
    resolutions = count_calls(monkeypatch, homology, "minimal_resolution", derived)
    algebras = count_calls(monkeypatch, algebra, "incidence_algebra", derived, homology)
    r = verify_remark_family(1, 3, 4)
    assert r["verdict"] == "pass"
    # rad A of the canonical (2,3,4) target, resolved once; each
    # orientation is compared on its zeta matrix, with no algebra and no gldim
    assert len(resolutions) == 1
    assert all(a.poset is None for a in resolved_algebras(resolutions))
    assert algebras == []


def test_remark_mismatches_carry_the_incidence_algebra_certificate(monkeypatch):
    # against the canonical (2,2,2) algebra, which has 5 simples, every
    # acyclic orientation of the 8-element family (1,3,4) mismatches
    monkeypatch.setattr(derived, "canonical_presentation",
                        lambda weights: canonical_presentation([2, 2, 2]))
    r = verify_remark_family(1, 3, 4)
    monkeypatch.undo()
    acyclic = [o for o in r["orientations"] if o["status"] != "cyclic"]
    assert acyclic and all(o["status"] == "MISMATCH" for o in acyclic)
    assert r["verdict"] == "fail"
    assert [m["orientation"] for m in r["mismatches"]] == [o["orientation"] for o in acyclic]
    for m in r["mismatches"]:
        poset = build_remark_poset(1, 3, 4, m["orientation"])
        assert m["cert"] == homology.certificate(incidence_algebra(poset)).to_json()


def test_global_dimension_reads_kernel_maps_without_solving(monkeypatch):
    # canonical (3,3,3): gldim 2, so rad A, the first syzygy of the top, has
    # projective dimension 1; its resolution takes 2 kernels, whose arrow
    # maps are read off their bases with no solve
    a = build_algebra(canonical_presentation([3, 3, 3]))
    kernels = count_calls(monkeypatch, homology, "kernel_of")
    solves = count_calls(monkeypatch, ExactMatrix, "solve")
    assert homology.global_dimension(a) == 2
    assert len(kernels) == 2
    assert solves == []


def test_global_dimension_resolves_rad_a_once(monkeypatch):
    # no simple is built: rad A is read off the regular module, one basis
    # label less per vertex, and resolved once
    a = build_algebra(canonical_presentation([3, 3, 3]))
    simples = count_calls(monkeypatch, homology, "simple_module", algebra)
    resolutions = count_calls(monkeypatch, homology, "minimal_resolution")
    assert homology.global_dimension(a) == 2
    assert simples == []
    assert len(resolutions) == 1
    assert resolutions[0][0].total_dim == a.dimension - len(a.vertex_order)


def canonical_target(weights):
    return homology.certificate(build_algebra(canonical_presentation(weights)))


def test_search_compares_in_cost_order(monkeypatch):
    target = canonical_target([2, 2, 2, 2])
    gldims = count_calls(monkeypatch, homology, "global_dimension", derived)
    smith_forms = count_calls(monkeypatch, homology, "smith_normal_form")
    coxeters = count_calls(monkeypatch, homology, "char_poly")
    algebras = count_calls(monkeypatch, derived, "incidence_algebra")
    hits = derived.search_matching_posets(target, 6)
    assert len(hits) == 1  # lambda = 2: the octahedron poset 2+2+2
    # of the 238 connected 6-element posets, 15 have as many odd invariant
    # factors of C - C^T as the target (its GF(2) rank) and get a Smith
    # form, and those 15 agree with the target up to the Smith form and
    # reach the Coxeter polynomial; none needs its gldim, and candidates
    # are compared on their zeta matrices, with no algebra
    assert gldims == []
    assert len(smith_forms) == 15
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
    # incidence_presentation reads its commutativity relations off the
    # Hasse quiver's paths
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
    r = verify_weights(2, 2, 2)
    assert r["verdict"] == "pass"
    # every compared invariant agrees, listed in the table's cost order
    assert r["equal_fields"] == [i.key for i in homology.INVARIANTS]
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
