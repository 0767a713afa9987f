import pytest

from dequiv.exactla import QQ, ExactMatrix, PrimeField
from dequiv.posets import antichain, chain, diamond, enumerate_posets
from dequiv.quivers import canonical_presentation, kronecker_presentation
from dequiv.algebra import (AlgebraError, build_algebra, incidence_algebra,
                            kernel_of, make_rep, module_map, projective_module,
                            projective_rep, simple_module, zero_rep)
from dequiv.algebra import hom_from_generators
from dequiv.homology import minimal_resolution


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


def oracle_reduce_path(a, u, v, path):
    """The class of a path as the row reduction of its unit vector against
    the rref of the block's ideal vectors: each pivot's coefficient times
    its row is subtracted, pivot by pivot, and the nonzero coordinates
    left are read off in path order.  The oracle for reduce_path."""
    f = a.field
    paths = a.quiver.paths(u, v)
    vecs = a._ideal_vectors(u, v)
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
    return minimal_resolution(m).ext_dims(n, 0)[0]


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


def test_kronecker_structure():
    a = build_algebra(kronecker_presentation())
    assert a.dimension == 4
    assert a.cartan_matrix().to_int_rows() == [[1, 2], [0, 1]]


def test_zero_rep():
    a = incidence_algebra(chain(2))
    assert zero_rep(a).is_zero()
