import random
from functools import reduce

import pytest

from dequiv.exactla import QQ, ExactMatrix, PrimeField
from dequiv.posets import antichain, chain, diamond, enumerate_posets
from dequiv.quivers import canonical_presentation, kronecker_presentation
from dequiv.algebra import (AlgebraError, ModuleMap, ProjectiveRep, Representation,
                            build_algebra, direct_sum_rep, incidence_algebra, kernel_of,
                            make_rep, module_map, projective_module, projective_rep,
                            radical_rep, simple_module, stalk_complex_of, zero_rep)
from dequiv.algebra import hom_from_generators
from dequiv.homology import hom_cohomology, minimal_resolution


def check_associativity(a):
    """Associativity of the structure constants of a on composable triples
    of basis paths: the oracle for the path-class basis and reduce_path."""
    f = a.field
    triples = []
    for (u, v), bs1 in a._basis.items():
        for (v2, w), bs2 in a._basis.items():
            if v2 != v:
                continue
            for (w2, z), bs3 in a._basis.items():
                if w2 != w:
                    continue
                for p in bs1:
                    for q in bs2:
                        for r in bs3:
                            triples.append((u, v, w, z, p, q, r))
    for u, v, w, z, p, q, r in triples:
        left = {}
        for s, c in a.reduce_path(u, w, p + q).items():
            for t2, c2 in a.reduce_path(u, z, s + r).items():
                left[t2] = f.add(left.get(t2, f.zero), f.mul(c, c2))
        right = {}
        for s, c in a.reduce_path(v, z, q + r).items():
            for t2, c2 in a.reduce_path(u, z, p + s).items():
                right[t2] = f.add(right.get(t2, f.zero), f.mul(c, c2))
        keys = set(left) | set(right)
        for k in keys:
            if not f.is_zero(f.sub(left.get(k, f.zero), right.get(k, f.zero))):
                return False
    return True


def oracle_ideal_vectors(a, u, v):
    """Spanning vectors of the relation ideal inside the (u, v) path space,
    each relation's multiples looked up for this block alone: the oracle
    for the one pass over the relations of _compute_basis."""
    f = a.field
    q = a.quiver
    pidx = {p: i for i, p in enumerate(q.paths(u, v))}
    vecs = []
    for rel, (rs, rt) in zip(a.presentation.relations, a.relation_endpoints):
        for left in q.paths(u, rs):
            for right in q.paths(rt, v):
                vec = [f.zero] * len(pidx)
                for coeff, path in rel.terms:
                    full = left + path + right
                    vec[pidx[full]] = f.add(vec[pidx[full]], coeff)
                vecs.append(vec)
    return vecs


def oracle_basis(a):
    """(basis, pivot classes) of every block, each block reduced from its
    own oracle_ideal_vectors."""
    f = a.field
    basis, pivot_class = {}, {}
    for u in a.vertex_order:
        for v in a.vertex_order:
            paths = a.quiver.paths(u, v)
            if not paths:
                continue
            vecs = oracle_ideal_vectors(a, u, v)
            pivots, rows = [], ()
            if vecs:
                _, pivots, rr = ExactMatrix.from_rows(vecs, f).rref()
                rows = rr.entries
            pivset = set(pivots)
            free = [(j, p) for j, p in enumerate(paths) if j not in pivset]
            basis[(u, v)] = [p for _, p in free]
            pivot_class[(u, v)] = {
                paths[pc]: {p: f.neg(row[j]) for j, p in free if not f.is_zero(row[j])}
                for pc, row in zip(pivots, rows)}
    return basis, pivot_class


def oracle_reduce_path(a, u, v, path):
    """The class of a path as the row reduction of its unit vector against
    the rref of the block's ideal vectors: each pivot's coefficient times
    its row is subtracted, pivot by pivot, and the nonzero coordinates
    left are read off in path order.  The oracle for reduce_path."""
    f = a.field
    paths = a.quiver.paths(u, v)
    vecs = oracle_ideal_vectors(a, u, v)
    _, pivots, rr = ExactMatrix.from_rows(vecs, f).rref() if vecs else (0, [], None)
    vec = [f.zero] * len(paths)
    vec[paths.index(path)] = f.one
    for i, piv in enumerate(pivots):
        c = vec[piv]
        if not f.is_zero(c):
            row = rr.entries[i]
            for j in range(len(vec)):
                vec[j] = f.sub(vec[j], f.mul(c, row[j]))
    return {p: c for p, c in zip(paths, vec) if not f.is_zero(c)}


def reduction_algebras(field):
    yield build_algebra(canonical_presentation([2, 2, 2, 2], [1, 2], field))
    yield build_algebra(canonical_presentation([3, 3, 3], field=field))
    yield build_algebra(canonical_presentation([2, 3, 5], field=field))
    for n in range(1, 6):
        for p in enumerate_posets(n):
            yield incidence_algebra(p, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_reduce_path_reads_the_basis_rref(field):
    # a pivot path's class is minus the rest of its rref row, kept when the
    # basis is computed; every path of every block reduces as the loop does
    algebras = 0
    for a in reduction_algebras(field):
        algebras += 1
        for u, v in a._basis:
            for path in a.quiver.paths(u, v):
                got = a.reduce_path(u, v, path)
                want = oracle_reduce_path(a, u, v, path)
                assert got == want and list(got) == list(want)
    assert algebras == 3 + (1 + 2 + 5 + 16 + 63)  # posets on n <= 5, OEIS A000112


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_basis_from_one_pass_over_the_relations_matches_the_per_block_oracle(field):
    # the same basis paths and pivot classes, in the same block order, as
    # when every block looks up every relation's multiples again
    for a in reduction_algebras(field):
        basis, pivot_class = oracle_basis(a)
        assert list(a._basis.items()) == list(basis.items())
        assert a._pivot_class == pivot_class
        assert all(list(a._pivot_class[k][p]) == list(c)
                   for k, cls in pivot_class.items() for p, c in cls.items())


def test_reduce_path_refuses_a_path_of_another_block_and_returns_fresh_dicts():
    a = build_algebra(canonical_presentation([2, 2, 2]))
    (u, v), (w, z) = [blk for blk in a._basis if blk[0] != blk[1]][:2]
    other = next(p for p in a.quiver.paths(w, z) if p not in a.quiver.paths(u, v))
    with pytest.raises(KeyError):
        a.reduce_path(u, v, other)
    with pytest.raises(KeyError):  # a block with no path
        a.reduce_path(a.vertex_order[-1], a.vertex_order[0], ())
    for u, v in a._basis:
        for path in a.quiver.paths(u, v):
            first = a.reduce_path(u, v, path)
            assert first  # no path of this algebra is zero
            first.clear()
            assert a.reduce_path(u, v, path) == oracle_reduce_path(a, u, v, path)


def hom_dim(m, n):
    """dim Hom_A(M, N), read as Ext^0 off the minimal resolution of M."""
    return hom_cohomology(minimal_resolution(m), stalk_complex_of(n), range(1))[0]


def test_canonical_algebra_dimension_and_associativity():
    a = build_algebra(canonical_presentation([2, 2, 2]))
    assert a.dimension == 13
    assert check_associativity(a)


def test_incidence_algebra_dimension_is_order_pair_count():
    p = diamond()
    a = incidence_algebra(p)
    assert a.dimension == len(p.relation)  # 9 order pairs
    assert check_associativity(a)


def test_diamond_cartan_matrix():
    a = incidence_algebra(diamond())
    # vertex order is topological: 0, a, b, 1
    assert a.cartan_matrix().to_int_rows() == [
        [1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]


def test_antichain_is_semisimple():
    a = incidence_algebra(antichain(3))
    assert a.dimension == 3
    assert a.cartan_matrix().to_int_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_projective_dimensions_vectors():
    a = incidence_algebra(diamond())
    p0 = projective_module(a, "0")
    assert [p0.dim(v) for v in a.vertex_order] == [1, 1, 1, 1]
    p1 = projective_module(a, "1")
    assert p1.total_dim == 1


def test_yoneda_hom_dims():
    a = incidence_algebra(diamond())
    m = projective_module(a, "0")
    for v in a.vertex_order:
        assert hom_dim(projective_module(a, v), m) == m.dim(v)


def test_simple_modules_are_bricks():
    a = incidence_algebra(diamond())
    for v in a.vertex_order:
        for w in a.vertex_order:
            expected = 1 if v == w else 0
            assert hom_dim(simple_module(a, v), simple_module(a, w)) == expected


def test_relation_check_rejects_bad_representation():
    a = build_algebra(canonical_presentation([2, 2, 2]))
    one = ExactMatrix.from_rows([[1]])
    good = {name: one for name in ("x1_1", "x1_2", "x2_1", "x2_2", "x3_1", "x3_2")}
    dims = {v: 1 for v in a.vertex_order}
    with pytest.raises(AlgebraError):
        make_rep(a, dims, good)  # arm composites 1 - 1 + 1 != 0
    good["x3_1"] = ExactMatrix.from_rows([[0]])
    m = make_rep(a, dims, good)  # 0 - 1 + 1 = 0
    assert m.check_relations()


def test_kernel_of_projective_cover():
    a = incidence_algebra(diamond())
    p = projective_rep(a, ["0"])
    s = simple_module(a, "0")
    cover = hom_from_generators(p, s, [ExactMatrix.from_rows([[1]])])
    ker, incl = kernel_of(cover)
    assert ker.total_dim == p.total_dim - 1
    assert incl.check()
    assert cover.compose(incl).is_zero()


def test_kernel_of_refuses_a_kernel_that_is_not_arrow_stable():
    # blocks (0, [1]) from P(c0) to S(c1) do not commute with the arrow
    # c0 -> c1: the kernel at c0 is all of P(c0), whose arrow image is not in
    # the kernel at c1
    a = incidence_algebra(chain(2))
    p, s = projective_module(a, "c0"), simple_module(a, "c1")
    mm = module_map(p, s, {"c1": ExactMatrix.from_rows([[1]])})
    assert not mm.check()
    with pytest.raises(AlgebraError, match="kernel not arrow-stable"):
        kernel_of(mm)


def test_module_map_shape_validation():
    a = incidence_algebra(chain(2))
    s = simple_module(a, "c0")
    with pytest.raises(AlgebraError):
        module_map(s, s, {"c0": ExactMatrix.from_rows([[1, 0]])})


def test_make_rep_refuses_a_map_of_the_wrong_shape():
    a = incidence_algebra(chain(2))
    with pytest.raises(AlgebraError, match=r"^map for arrow c0->c1 has wrong shape$"):
        make_rep(a, {"c0": 1, "c1": 1}, {"c0->c1": ExactMatrix.from_rows([[1, 0]])})


def test_kronecker_structure():
    a = build_algebra(kronecker_presentation())
    assert a.dimension == 4
    assert a.cartan_matrix().to_int_rows() == [[1, 2], [0, 1]]


def test_zero_rep():
    a = incidence_algebra(chain(2))
    assert zero_rep(a).is_zero()


# -- slotted value classes, arrow maps by index, module-map checks ------------

def oracle_module_map_check(mm):
    """Every arrow's square evaluated, zero spaces included: the oracle for
    ModuleMap.check."""
    alg = mm.source.algebra
    for a in alg.quiver.arrows:
        lhs = mm.target.map_of(a.name) @ mm.block(a.source)
        rhs = mm.block(a.target) @ mm.source.map_of(a.name)
        if not (lhs - rhs).is_zero():
            return False
    return True


def failing_arrows(mm):
    """The arrows whose square does not commute, each evaluated alone."""
    return [a for a in mm.source.algebra.quiver.arrows
            if not (mm.target.map_of(a.name) @ mm.block(a.source)
                    - mm.block(a.target) @ mm.source.map_of(a.name)).is_zero()]


def oracle_map_of(rep, arrow_name):
    """The linear scan of rep.maps: the oracle for Representation.map_of."""
    for name, m in rep.maps:
        if name == arrow_name:
            return m
    raise KeyError(arrow_name)


def random_matrix(rng, nrows, ncols, f):
    """A nrows x ncols matrix of small integers, about a third of them 0."""
    return ExactMatrix.from_rows([[rng.choice((-1, 0, 0, 1, 2)) for _ in range(ncols)]
                                  for _ in range(nrows)], f) if nrows else \
        ExactMatrix.zero(0, ncols, f)


def module_pool(a):
    """Modules of a with zero-dimensional vertices: indecomposable projectives,
    simples, a sum of two projectives, rad A and the zero module."""
    v = a.vertex_order
    return ([projective_rep(a, [x]) for x in v] + [simple_module(a, x) for x in v]
            + [projective_rep(a, [v[1], v[-1]]), radical_rep(a), zero_rep(a)])


def map_algebras():
    return [build_algebra(canonical_presentation([3, 3, 4])), incidence_algebra(diamond())]


@pytest.mark.parametrize("a", map_algebras(), ids=["canonical334", "diamond"])
def test_module_map_check_matches_the_every_arrow_loop(a):
    """Random module maps, commuting (from generators) or not (random or
    perturbed blocks), between modules with zero spaces: the check skips
    zero-space arrows and answers as the loop over every arrow does."""
    rng = random.Random(21)
    f = a.field
    pool = module_pool(a)
    projectives = [m for m in pool if isinstance(m, ProjectiveRep)]
    verdicts, skipped = [], 0
    for _ in range(150):
        target = rng.choice(pool)
        kind = rng.randrange(3)
        if kind == 0:
            source = rng.choice(pool)
            mm = module_map(source, target, {
                v: random_matrix(rng, target.dim(v), source.dim(v), f)
                for v in a.vertex_order})
        else:
            source = rng.choice(projectives)
            mm = hom_from_generators(source, target, [
                random_matrix(rng, target.dim(v), 1, f) for v in source.blocks])
            if kind == 2:
                w = rng.choice(a.vertex_order)
                mm = mm + module_map(source, target, {
                    w: random_matrix(rng, target.dim(w), source.dim(w), f)})
        skipped += any(not source.dim(x.source) or not target.dim(x.target)
                       for x in a.quiver.arrows)
        expected = oracle_module_map_check(mm)
        assert mm.check() == expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts
    assert skipped > 100


def oracle_hom_from_generators(p, n, gen_images):
    """Reference for hom_from_generators: every basis label's generator
    carried along its whole path, arrow by arrow, at every vertex."""
    f = p.algebra.field
    return module_map(p, n, {
        w: ExactMatrix.from_cols(
            [reduce(lambda v, name: n.map_of(name) @ v, path, gen_images[j]).col(0)
             for j, path in p.labels_at(w)], n.dim(w), f)
        for w in p.algebra.vertex_order})


@pytest.mark.parametrize("a", map_algebras(), ids=["canonical334", "diamond"])
def test_hom_from_generators_matches_the_whole_path_oracle(a):
    # seeded random generator images, from sums of projectives with
    # repeated summands into modules with zero spaces
    rng = random.Random(24)
    f = a.field
    pool = module_pool(a)
    v = a.vertex_order
    sources = [projective_rep(a, [x]) for x in v] + [
        projective_rep(a, [v[0], v[0], v[-1]]), projective_rep(a, list(v)),
        projective_rep(a, [v[1], v[-2], v[1]])]
    for _ in range(120):
        source, target = rng.choice(sources), rng.choice(pool)
        gens = [random_matrix(rng, target.dim(x), 1, f) for x in source.blocks]
        mm = hom_from_generators(source, target, gens)
        assert mm.blocks == oracle_hom_from_generators(source, target, gens).blocks
        assert mm.check()


def test_hom_from_generators_refuses_an_image_of_the_wrong_shape():
    a = incidence_algebra(diamond())
    p = projective_rep(a, ["0"])
    s = simple_module(a, "1")  # zero at the generator's vertex
    with pytest.raises(AlgebraError, match="image of generator 0 is 1x1"):
        hom_from_generators(p, s, [ExactMatrix.from_rows([[1]])])


def test_compose_takes_no_empty_product_and_refuses_blocks_that_do_not_compose():
    a = incidence_algebra(diamond())
    p, s = projective_rep(a, ["0"]), simple_module(a, "0")
    cover = hom_from_generators(p, s, [ExactMatrix.from_rows([[1]])])
    back = module_map(s, p, {})
    assert back.compose(cover).blocks == module_map(p, p, {}).blocks
    assert cover.compose(back).blocks == module_map(s, s, {}).blocks
    # a middle block that does not match raises, also at a zero outer space
    bad = ModuleMap(p, s, tuple(ExactMatrix.zero(0, 2) for _ in a.vertex_order))
    with pytest.raises(ValueError, match="shape mismatch"):
        bad.compose(cover)


def test_module_map_check_rejects_one_failing_arrow_between_nonzero_spaces():
    # the identity at 1,1 and zero elsewhere on P(1,1) fails only on
    # x1_2: 1,1 -> 1,2, where P(1,1) is one-dimensional at both ends
    a = build_algebra(canonical_presentation([3, 3, 4]))
    p = projective_module(a, "1,1")
    mm = module_map(p, p, {"1,1": ExactMatrix.identity(1)})
    bad = failing_arrows(mm)
    assert [x.name for x in bad] == ["x1_2"]
    assert p.dim(bad[0].source) and p.dim(bad[0].target)
    assert not oracle_module_map_check(mm)
    assert not mm.check()


@pytest.mark.parametrize("a", map_algebras(), ids=["canonical334", "diamond"])
def test_representations_store_maps_in_arrow_order(a):
    f = a.field
    order = [x.name for x in a.quiver.arrows]
    p = projective_rep(a, a.vertex_order)
    # make_rep is handed the maps in reverse arrow order
    made = make_rep(a, dict(zip(a.vertex_order, p.dims)),
                    {x: p.map_of(x) for x in reversed(order)})
    top = a.vertex_order[0]
    p_top = projective_rep(a, [top])
    cover = hom_from_generators(p_top, simple_module(a, top), [ExactMatrix.from_rows([[1]], f)])
    ker, _ = kernel_of(cover)
    reps = [made, p, p_top, radical_rep(a),
            direct_sum_rep([p, radical_rep(a)]), ker]
    for rep in reps:
        assert [name for name, _ in rep.maps] == order
        for name in order:
            assert rep.map_of(name) == oracle_map_of(rep, name)
        with pytest.raises(KeyError):
            rep.map_of("no such arrow")
        with pytest.raises(KeyError):
            oracle_map_of(rep, "no such arrow")
    swapped = Representation(a, p.dims, p.maps[1:2] + p.maps[:1] + p.maps[2:])
    with pytest.raises(AlgebraError, match="arrow order"):
        swapped.map_of(order[0])
    with pytest.raises(AlgebraError, match="arrow order"):
        swapped.map_of(order[1])


def test_value_classes_are_slotted_and_compare_by_value():
    # a frozen dataclass sets each field through object.__setattr__; the
    # slotted classes build faster and keep no per-instance __dict__
    a = incidence_algebra(diamond())
    p = projective_rep(a, a.vertex_order)
    s = simple_module(a, "0")
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    for obj in (m, p, s, module_map(p, s, {})):
        assert not hasattr(obj, "__dict__")
    assert m == ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert m != ExactMatrix.from_rows([[1, 2], [3, 5]])
    assert p == projective_rep(a, a.vertex_order)
    assert module_map(p, s, {}) == module_map(p, s, {})
