import pytest

from dequiv.exactla import char_poly
from dequiv.posets import (antichain, chain, diamond, enumerate_posets,
                           poset_from_covers)
from dequiv.quivers import (a1p_presentation, canonical_presentation,
                            kronecker_presentation)
from dequiv.algebra import build_algebra, incidence_algebra, simple_module
from dequiv.homology import (ResourceRefusal, _inverse_unitriangular,
                             certificate, coxeter_matrix, coxeter_polynomial,
                             euler_form_check, ext_dims, global_dimension,
                             hochschild_bar, hochschild_of_poset,
                             matches_certificate, minimal_resolution,
                             mitchell_equivalence_check, nerve_cohomology,
                             projective_dimension, simple_resolutions)
from dequiv.algebra import projective_rep, zero_rep


def sphere_poset():
    """Order complex is a simplicial 2-sphere (suspension of a square)."""
    return poset_from_covers(
        ["a1", "a2", "b1", "b2", "c1", "c2"],
        [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"),
         ("b1", "c1"), ("b1", "c2"), ("b2", "c1"), ("b2", "c2")])


def test_diamond_resolution_and_ext():
    a = incidence_algebra(diamond())
    s0 = simple_module(a, "0")
    res = minimal_resolution(s0)
    assert res.length == 2
    assert projective_dimension(s0) == 2
    assert ext_dims(s0, simple_module(a, "a"), 2) == [0, 1, 0]
    assert ext_dims(s0, simple_module(a, "1"), 2) == [0, 0, 1]
    assert ext_dims(s0, s0, 2) == [1, 0, 0]


def test_ext_truncation_consistency():
    # Ext^i must not depend on the requested window size
    a = incidence_algebra(diamond())
    s0 = simple_module(a, "0")
    for other in ("0", "a", "b", "1"):
        t = simple_module(a, other)
        full = ext_dims(s0, t, 3)
        for k in range(3):
            assert ext_dims(s0, t, k) == full[: k + 1]


def test_resolution_ext_dims_matches_ext_dims():
    # Ext read off an existing resolution equals ext_dims, which resolves afresh
    for a in (incidence_algebra(diamond()),
              build_algebra(canonical_presentation([2, 3, 3]))):
        mods = [simple_module(a, v) for v in a.vertex_order]
        mods += [projective_rep(a, [v]).rep for v in a.vertex_order]
        mods.append(zero_rep(a))
        for m in mods:
            res = minimal_resolution(m)
            for n in mods:
                for k in (0, 2, 4):
                    assert res.ext_dims(n, k) == ext_dims(m, n, k)


def test_simple_resolutions_give_global_dimension():
    for p in (diamond(), chain(3), antichain(3), sphere_poset()):
        a = incidence_algebra(p)
        res = simple_resolutions(a)
        assert list(res) == list(a.vertex_order)
        assert max(r.length for r in res.values()) == global_dimension(a)


def test_global_dimensions():
    assert global_dimension(incidence_algebra(diamond())) == 2
    assert global_dimension(incidence_algebra(chain(3))) == 1
    assert global_dimension(incidence_algebra(antichain(3))) == 0


def test_kronecker_certificate():
    cert = certificate(build_algebra(kronecker_presentation()))
    assert cert.simple_count == 2
    assert cert.cartan_det == 1
    assert cert.coxeter.coeffs == (1, -2, 1)  # (x - 1)^2
    assert cert.snf_antisym == (2, 2)
    assert cert.gldim == 1


def test_antichain_coxeter_is_x_plus_one_power():
    cert = certificate(incidence_algebra(antichain(3)))
    assert cert.coxeter.coeffs == (1, 3, 3, 1)
    assert cert.gldim == 0
    assert cert.snf_antisym == ()


def test_coxeter_convention_invariance():
    for a in (incidence_algebra(diamond()),
              build_algebra(canonical_presentation([2, 2, 2])),
              build_algebra(kronecker_presentation())):
        c = a.cartan_matrix()
        alt = (c.inverse() @ c.transpose()).scale(-1)
        assert char_poly(alt).coeffs == coxeter_polynomial(a).coeffs


def test_euler_form_identity():
    for a in (incidence_algebra(diamond()),
              incidence_algebra(chain(4)),
              build_algebra(canonical_presentation([2, 2, 2])),
              build_algebra(canonical_presentation([2, 3, 4]))):
        assert euler_form_check(a)


def test_resolution_minimality_assertion():
    a = build_algebra(canonical_presentation([2, 3, 4]))
    for v in a.vertex_order:
        minimal_resolution(simple_module(a, v))  # raises if non-minimal


def test_nerve_cohomology_examples():
    assert nerve_cohomology(diamond(), 2) == [1, 0, 0]
    assert nerve_cohomology(chain(3), 2) == [1, 0, 0]
    assert nerve_cohomology(antichain(2), 1) == [2, 0]
    assert nerve_cohomology(sphere_poset(), 2) == [1, 0, 1]


def test_bar_agrees_with_nerve_on_small_connected_posets():
    for p in enumerate_posets(4, connected_only=True):
        assert hochschild_of_poset(p, 2) == nerve_cohomology(p, 2)


def test_bar_on_sphere_model_sees_hh2():
    assert hochschild_of_poset(sphere_poset(), 2) == [1, 0, 1]


def test_hochschild_size_budget_refusal():
    a = build_algebra(canonical_presentation([2, 2, 2]))
    with pytest.raises(ResourceRefusal):
        hochschild_bar(a, 3, size_budget=5)


def test_mitchell_small_sweep():
    for p in enumerate_posets(4):
        assert mitchell_equivalence_check(p)


def test_coxeter_matrix_of_kronecker():
    phi = coxeter_matrix(build_algebra(kronecker_presentation()))
    assert phi.to_int_rows() == [[-1, -2], [2, 3]]


CANONICAL_TRIPLES = [(p1, p2, p3) for p1 in range(2, 6) for p2 in range(p1, 6)
                     for p3 in range(p2, 6)]


def test_integer_coxeter_matrix_matches_fraction_inverse():
    algebras = [incidence_algebra(p) for n in range(1, 6)
                for p in enumerate_posets(n, connected_only=True)]
    algebras += [build_algebra(canonical_presentation(w)) for w in CANONICAL_TRIPLES]
    assert len(algebras) == 59 + 20
    for a in algebras:
        c = a.cartan_matrix()
        assert coxeter_matrix(a) == (c.transpose().inverse() @ c).scale(-1)


def test_integer_inverse_refuses_non_unitriangular():
    assert _inverse_unitriangular([[1, 2], [0, 1]]) == [[1, -2], [0, 1]]
    for c in ([[2]], [[1, 0], [1, 1]]):
        with pytest.raises(ValueError, match="unitriangular"):
            _inverse_unitriangular(c)


def search_targets():
    """Certificates the searches compare candidate posets against."""
    pres = [a1p_presentation(p) for p in range(1, 6)]
    pres += [canonical_presentation(w) for w in ([2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 3])]
    return [certificate(build_algebra(q)) for q in pres]


def test_matches_certificate_agrees_with_full_comparison():
    targets = search_targets()
    hits = 0
    for n in range(1, 7):
        for p in enumerate_posets(n, connected_only=True):
            a = incidence_algebra(p)
            cert = certificate(a)
            for t in targets:
                same = cert.same_invariants(t)
                assert matches_certificate(a, t) == same
                hits += same
    # 8 five-element posets (X_(2,2,2) among them) match the canonical
    # (2,2,2) algebra and one six-element poset matches (2,2,2,2)
    assert hits == 9


def test_certificate_key_ignores_gldim():
    a = build_algebra(kronecker_presentation())
    cert = certificate(a)
    resolutions = simple_resolutions(a)
    assert certificate(a, resolutions) == cert
    assert cert.key() == (2, 1, (1, -2, 1), (2, 2))
