import pytest

from dequiv.exactla import QQ, ExactMatrix
from dequiv.posets import antichain, chain, diamond
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
