import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from dequiv import algebra, exactla, homology
from dequiv.exactla import QQ, ExactMatrix, PrimeField, char_poly
from dequiv.posets import (CycleError, _down_masks, _members, antichain, build_Xp,
                           build_remark_poset, chain, diamond, enumerate_posets,
                           order_complex, poset_from_covers, remark_free_edges,
                           zeta_rows)
from dequiv.quivers import (Arrow, Presentation, Quiver, a1p_presentation,
                            bgp_reflect, canonical_presentation,
                            kronecker_presentation)
from dequiv.algebra import (build_algebra, incidence_algebra, make_rep, simple_module,
                            stalk_complex_of)
from dequiv.homology import (ResourceRefusal, _coxeter_rows, _inverse_unitriangular,
                             cartan_coxeter_polynomial, cartan_det,
                             cartan_snf_antisym,
                             certificate, coxeter_polynomial,
                             euler_form_check, global_dimension,
                             hochschild_bar, hochschild_of_poset,
                             hom_cohomology, matches_certificate,
                             minimal_resolution, mitchell_equivalence_check,
                             nerve_cohomology, poset_certificate,
                             poset_ext_dims, poset_global_dimension)
from dequiv.algebra import hom_from_generators, projective_rep


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
    assert len(res.terms) - 1 == 2
    assert hom_cohomology(res, stalk_complex_of(simple_module(a, "a")), range(3)) == [0, 1, 0]
    assert hom_cohomology(res, stalk_complex_of(simple_module(a, "1")), range(3)) == [0, 0, 1]
    assert hom_cohomology(res, stalk_complex_of(s0), range(3)) == [1, 0, 0]


def test_non_minimal_differential_is_refused():
    # the identity P_1 -> P_1 sends the generator to the generator, outside
    # the radical
    a = incidence_algebra(chain(2))
    p = projective_rep(a, ["c1"])
    ident = algebra.module_map(p, p, {v: ExactMatrix.identity(p.dim(v), a.field)
                                      for v in a.vertex_order})
    handmade = algebra.ComplexOfReps(a, {-1: p, 0: p}, {-1: ident})
    with pytest.raises(homology.ResolutionError, match="non-minimal differential at step 1"):
        homology._assert_minimal(handmade)


def test_minimal_resolution_refuses_to_pass_its_cap(monkeypatch):
    # a kernel_of that hands back the syzygy it was given, with its identity
    # as the inclusion, never reaches zero; chain(2) has dimension 3
    def same_syzygy(cover):
        m = cover.target
        return m, algebra.module_map(m, m, {v: ExactMatrix.identity(m.dim(v), m.algebra.field)
                                            for v in m.algebra.vertex_order})

    monkeypatch.setattr(homology, "kernel_of", same_syzygy)
    a = incidence_algebra(chain(2))
    with pytest.raises(homology.ResolutionError, match=r"^resolution cap 3 exceeded$"):
        minimal_resolution(simple_module(a, "c0"))


def test_projective_cover_refuses_a_cover_that_is_not_onto(monkeypatch):
    # S_c0 + S_c1 has one top generator at each vertex; dropping the last
    # leaves nothing that maps onto c1
    top = homology._top_generators
    monkeypatch.setattr(homology, "_top_generators", lambda m: top(m)[:-1])
    a = incidence_algebra(chain(2))
    m = algebra.direct_sum_rep([simple_module(a, "c0"), simple_module(a, "c1")])
    with pytest.raises(homology.ResolutionError, match=r"^projective cover not surjective at c1$"):
        homology.projective_cover(m)


def test_ext_truncation_consistency():
    # Ext^i must not depend on the requested window size
    a = incidence_algebra(diamond())
    res = minimal_resolution(simple_module(a, "0"))
    for other in ("0", "a", "b", "1"):
        t = stalk_complex_of(simple_module(a, other))
        full = hom_cohomology(res, t, range(4))
        for k in range(3):
            assert hom_cohomology(res, t, range(k + 1)) == full[: k + 1]


def resolution_gldim(a):
    """The largest length of a minimal resolution of a simple: the oracle
    for the interval-cohomology global dimension of incidence algebras."""
    return max(len(minimal_resolution(simple_module(a, v)).terms) - 1 for v in a.vertex_order)


def test_simple_resolutions_give_global_dimension():
    for p in (diamond(), chain(3), antichain(3), sphere_poset()):
        a = incidence_algebra(p)
        assert resolution_gldim(a) == global_dimension(a)


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
        assert char_poly(alt.to_int_rows()).coeffs == coxeter_polynomial(a).coeffs


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


def test_hochschild_size_budget_refusal(monkeypatch):
    monkeypatch.setattr(homology, "BAR_SIZE_BUDGET", 5)
    a = build_algebra(canonical_presentation([2, 2, 2]))
    with pytest.raises(ResourceRefusal) as exc:
        hochschild_bar(a, 3)
    assert str(exc.value) == "bar cochain space in degree 1 has 10 cochains, over the budget of 5"


def test_hochschild_bar_refusal_names_the_degree():
    a = build_algebra(canonical_presentation([2, 2, 2]))
    with pytest.raises(ResourceRefusal) as exc:
        hochschild_bar(a, 4)
    assert str(exc.value) == "hochschild_bar supports max_deg <= 3, got 4"


def test_mitchell_small_sweep():
    for p in enumerate_posets(4):
        assert mitchell_equivalence_check(p)


def test_coxeter_matrix_of_kronecker():
    phi = homology._coxeter_rows(
        build_algebra(kronecker_presentation()).cartan_matrix().to_int_rows())
    assert phi == [[-1, -2], [2, 3]]


CANONICAL_TRIPLES = [(p1, p2, p3) for p1 in range(2, 6) for p2 in range(p1, 6)
                     for p3 in range(p2, 6)]


def test_integer_coxeter_matrix_matches_fraction_inverse():
    algebras = [incidence_algebra(p) for n in range(1, 6)
                for p in enumerate_posets(n, connected_only=True)]
    algebras += [build_algebra(canonical_presentation(w)) for w in CANONICAL_TRIPLES]
    assert len(algebras) == 59 + 20
    for a in algebras:
        c = a.cartan_matrix()
        phi = ExactMatrix.from_rows(homology._coxeter_rows(c.to_int_rows()))
        assert phi == (c.transpose().inverse() @ c).scale(-1)


def test_integer_inverse_refuses_non_unitriangular():
    assert _inverse_unitriangular([[1, 2], [0, 1]]) == [[1, -2], [0, 1]]
    for c in ([[2]], [[1, 0], [1, 1]]):
        with pytest.raises(ValueError, match="unitriangular"):
            _inverse_unitriangular(c)


def search_algebras():
    """The algebras whose certificates the searches compare candidate
    posets against."""
    pres = [a1p_presentation(p) for p in range(1, 6)]
    pres += [canonical_presentation(w) for w in ([2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 3])]
    return [build_algebra(q) for q in pres]


def search_targets():
    """Certificates the searches compare candidate posets against."""
    return [certificate(a) for a in search_algebras()]


def test_matches_certificate_agrees_with_full_comparison():
    # the search route (zeta rows, no algebra) against the full certificate
    # of the incidence algebra
    targets = search_targets()
    hits = 0
    for n in range(1, 7):
        for p in enumerate_posets(n, connected_only=True):
            cert = certificate(incidence_algebra(p))
            zeta = zeta_rows(p)
            for t in targets:
                same = cert.same_invariants(t)
                assert matches_certificate(zeta, t) == same
                hits += same
    # 8 five-element posets (X_(2,2,2) among them) match the canonical
    # (2,2,2) algebra and one six-element poset matches (2,2,2,2)
    assert hits == 9


def test_antisym_rank_mod2_counts_odd_invariant_factors():
    # exact, not a sample: U (C - C^T) V = D with U, V unimodular holds mod 2
    # with U, V invertible, so the GF(2) rank is the number of odd factors
    rows = [zeta_rows(p) for n in range(1, 7) for p in enumerate_posets(n)]
    assert len(rows) == 405
    rows += [a.cartan_matrix().to_int_rows() for a in search_algebras()]
    for c in rows:
        odd = sum(d % 2 for d in cartan_snf_antisym(c))
        assert homology.cartan_antisym_rank_mod2(c) == odd


def test_mod2_gate_rejects_a_changed_factor_without_a_smith_form(monkeypatch):
    # X_(2,2,2) matches the canonical (2,2,2) algebra; a target with one
    # invariant factor 1 made 2 has one odd factor less, so the candidate is
    # refused before any Smith form is computed
    target = certificate(build_algebra(canonical_presentation([2, 2, 2])))
    zeta = zeta_rows(build_Xp(2, 2, 2))
    assert matches_certificate(zeta, target)
    factors = list(target.snf_antisym)
    factors[factors.index(1)] = 2
    changed = dataclasses.replace(target, snf_antisym=tuple(factors))
    smith_forms = []
    smith_normal_form = homology.smith_normal_form

    def counted(rows):
        smith_forms.append(rows)
        return smith_normal_form(rows)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    assert not matches_certificate(zeta, changed)
    assert smith_forms == []


def test_zeta_invariants_equal_certificate_fields():
    count = 0
    for n in range(1, 7):
        for p in enumerate_posets(n):
            zeta = zeta_rows(p)
            cert = certificate(incidence_algebra(p))
            assert cartan_det(zeta) == cert.cartan_det
            assert cartan_snf_antisym(zeta) == cert.snf_antisym
            assert cartan_coxeter_polynomial(zeta) == cert.coxeter
            count += 1
    assert count == 405


def test_zeta_rows_are_the_cartan_matrix_in_a_linear_extension():
    def zeta_in(p, order):
        return [[int(p.leq(x, y)) for y in order] for x in order]

    for p in [diamond(), build_Xp(2, 3, 3)] + enumerate_posets(5):
        # the Cartan matrix of the incidence algebra is the zeta matrix in
        # the algebra's vertex order
        a = incidence_algebra(p)
        assert a.cartan_matrix().to_int_rows() == zeta_in(p, a.vertex_order)
        extension = sorted(p.elements, key=lambda x: -sum(p.leq(x, y) for y in p.elements))
        assert zeta_rows(p) == zeta_in(p, extension)
        assert cartan_det(zeta_rows(p)) == 1
    with pytest.raises(ValueError, match="unitriangular"):
        cartan_det([[1, 0], [1, 1]])


def test_certificate_key_ignores_gldim():
    a = build_algebra(kronecker_presentation())
    cert = certificate(a)
    assert cert.key() == (2, 1, (1, -2, 1), (2, 2))


# -- the Hom-complex builder against the per-coordinate oracle ---------------

def hom_complex(res, n, max_i):
    """Hom(P_*, N) in generator coordinates, one coordinate at a time: each
    unit generator image becomes a full module map, is composed with the
    differential and read back at the generators.  res is the resolution
    with P_i in degree -i.  Returns (dims, mats) with
    mats[i] : Hom(P_i, N) -> Hom(P_{i+1}, N).  The oracle for hom_cohomology."""
    if not res.terms:
        return [], []
    f = n.algebra.field

    def unit(d, r):
        return ExactMatrix.from_cols([[f.one if k == r else f.zero for k in range(d)]], d, f)

    ps = [res.terms[-i] for i in range(min(len(res.terms), max_i + 2))]
    dims = [sum(n.dim(v) for v in p.blocks) for p in ps]
    mats = []
    for i in range(1, len(ps)):
        p_hi, d, p_lo = ps[i], res.diffs[-i], ps[i - 1]
        cols = []
        for j, v in enumerate(p_lo.blocks):
            for c in range(n.dim(v)):
                gen_images = [ExactMatrix.zero(n.dim(w), 1, f) for w in p_lo.blocks]
                gen_images[j] = unit(n.dim(v), c)
                comp = hom_from_generators(p_lo, n, gen_images).compose(d)
                col = []
                for j2, v2 in enumerate(p_hi.blocks):
                    gen = unit(p_hi.dim(v2), p_hi.labels_at(v2).index((j2, ())))
                    col.extend((comp.block(v2) @ gen).col(0))
                cols.append(col)
        mats.append(ExactMatrix.from_cols(cols, dims[i], f))
    return dims, mats


def oracle_ext_dims(res, n, max_i):
    dims, mats = hom_complex(res, n, max_i)
    out = []
    for i in range(max_i + 1):
        if i >= len(dims):
            out.append(0)
            continue
        rank_in = mats[i - 1].rank() if 1 <= i <= len(mats) else 0
        rank_out = mats[i].rank() if i < len(mats) else 0
        out.append(dims[i] - rank_out - rank_in)
    return out


def top_quotient(a):
    """P(0) of a canonical algebra divided by the sum of the basis paths
    0 -> w.  Its syzygy is generated by that sum, so the second step of its
    resolution sends a generator to two paths out of one summand."""
    p0 = projective_rep(a, ["0"])
    assert len(a.basis("0", "w")) == 2
    quot = ExactMatrix.from_rows([[1, -1]], a.field)
    maps = {name: quot @ m if a.quiver.arrow(name).target == "w" else m
            for name, m in p0.maps}
    dims = {v: p0.dim(v) for v in a.vertex_order}
    dims["w"] = 1
    return make_rep(a, dims, maps)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
def test_hom_cohomology_matches_per_coordinate_oracle(field):
    posets = [incidence_algebra(p, field) for size in range(1, 5)
              for p in enumerate_posets(size, connected_only=True)]
    canonical = [build_algebra(canonical_presentation(w, field=field))
                 for w in ([2, 2, 2], [2, 3, 3])]
    pairs = 0
    for a in posets + canonical:
        mods = [simple_module(a, v) for v in a.vertex_order]
        mods += [projective_rep(a, [v]) for v in a.vertex_order]
        if a in canonical:
            mods.append(top_quotient(a))
        for m in mods:
            res = minimal_resolution(m)
            for n in mods:
                assert hom_cohomology(res, stalk_complex_of(n), range(4)) == \
                    oracle_ext_dims(res, n, 3)
                pairs += 1
    assert pairs == 4 + 16 + 3 * 36 + 10 * 64 + 11 ** 2 + 15 ** 2


def test_hom_cohomology_into_a_complex():
    # H^n Hom(P_M, P_N) with P_N the resolution of N as a complex is
    # Ext^n(M, N): the d_Y part of the differential must be right
    for a in (incidence_algebra(diamond()),
              build_algebra(canonical_presentation([2, 3, 3]))):
        simples = {v: simple_module(a, v) for v in a.vertex_order}
        res = {v: minimal_resolution(s) for v, s in simples.items()}
        for x in a.vertex_order:
            q = res[x]
            for y in a.vertex_order:
                assert hom_cohomology(q, res[y], range(-1, 4)) == \
                    [0] + hom_cohomology(q, stalk_complex_of(simples[y]), range(4))


# -- Ext between poset simples from interval cohomology ----------------------

@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
def test_poset_ext_dims_match_resolutions(field):
    pairs = 0
    for n in range(1, 6):
        for p in enumerate_posets(n):
            a = incidence_algebra(p, field)
            simples = {v: simple_module(a, v) for v in a.vertex_order}
            for x in a.vertex_order:
                res = minimal_resolution(simples[x])
                for y in a.vertex_order:
                    assert poset_ext_dims(p, x, y, 4, field) == \
                        hom_cohomology(res, stalk_complex_of(simples[y]), range(5)), (p, x, y)
                    pairs += 1
    assert pairs == 1885


def remark_posets():
    """Every acyclic orientation of the remark families of the theorem sweep."""
    out = []
    for family, p2, p3 in ((1, 3, 3), (1, 3, 4), (2, 3, 3), (2, 3, 4),
                           (3, 2, 2), (3, 2, 3), (3, 3, 3)):
        free = remark_free_edges(family, p2, p3)
        for mask in range(1 << len(free)):
            try:
                out.append(build_remark_poset(
                    family, p2, p3, [(mask >> k) & 1 for k in range(len(free))]))
            except CycleError:
                pass
    return out


def test_poset_global_dimension_matches_resolutions():
    posets = [build_Xp(*w) for w in CANONICAL_TRIPLES] + remark_posets()
    assert len(posets) == 20 + 29
    for p in posets:
        assert poset_global_dimension(p) == resolution_gldim(incidence_algebra(p))


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
def test_poset_certificate_equals_the_incidence_algebra_certificate(field):
    posets = [p for n in range(1, 6) for p in enumerate_posets(n)]
    posets += [build_Xp(*w) for w in CANONICAL_TRIPLES] + remark_posets()
    assert len(posets) == 87 + 20 + 29
    for p in posets:
        assert poset_certificate(p, field).to_json() == \
            certificate(incidence_algebra(p, field)).to_json(), p.to_json()


def oracle_coxeter_rows(c):
    """Phi = -C^{-T} C one entry at a time, by index."""
    inv = _inverse_unitriangular(c)
    n = len(c)
    return [[-sum(inv[k][i] * c[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_coxeter_rows_match_the_index_loop():
    rows = [zeta_rows(p) for n in range(1, 7) for p in enumerate_posets(n)]
    assert len(rows) == 405
    rows += [a.cartan_matrix().to_int_rows() for a in search_algebras()]
    for w in CANONICAL_TRIPLES:
        rows += [build_algebra(canonical_presentation(w)).cartan_matrix().to_int_rows(),
                 zeta_rows(build_Xp(*w))]
    for c in rows:
        assert _coxeter_rows(c) == oracle_coxeter_rows(c)


def test_coxeter_polynomial_builds_no_inverse(monkeypatch):
    # Phi is solved from C^T Phi = -C row by row; the shape check still
    # refuses a matrix that is not unitriangular, with the same message
    calls = []
    real = homology._inverse_unitriangular

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(homology, "_inverse_unitriangular", counted)
    for w in CANONICAL_TRIPLES:
        cartan_coxeter_polynomial(zeta_rows(build_Xp(*w)))
    assert calls == []
    for c in ([[2]], [[1, 0], [1, 1]], [[1, 1]]):
        with pytest.raises(ValueError) as exc:
            cartan_coxeter_polynomial(c)
        assert str(exc.value) == "Cartan matrix is not unitriangular in the vertex order"


def count_order_complexes(monkeypatch):
    """Record the elements of every order complex `homology` builds."""
    real = homology.order_complex
    built = []

    def order_complex(q, elements=None):
        elements = list(q.elements if elements is None else elements)
        built.append(elements)
        return real(q, elements)

    monkeypatch.setattr(homology, "order_complex", order_complex)
    return built


@pytest.mark.parametrize("p, largest_core", [(chain(20), 1), (build_Xp(3, 3, 20), 6)],
                         ids=["chain20", "X_3_3_20"])
def test_long_intervals_shrink_to_their_cores(monkeypatch, p, largest_core):
    # an open interval of a chain is a chain and shrinks to a point; (0, w)
    # of X_p is three arms tied by cross covers and shrinks to a circle of
    # six elements, the two ends of each arm.  No order complex of a long
    # interval (2^18 chains in chain(20)) is built, and gldim still agrees
    # with the simples' resolutions
    built = count_order_complexes(monkeypatch)
    assert poset_global_dimension(p) == resolution_gldim(incidence_algebra(p))
    assert max(len(e) for e in built) == largest_core


def boolean_lattice(n):
    """The subsets of {1..n} under inclusion, named by their members ("b13")."""
    subsets = [frozenset(k + 1 for k in range(n) if m >> k & 1) for m in range(1 << n)]
    name = lambda s: "b" + "".join(map(str, sorted(s)))
    return poset_from_covers([name(s) for s in subsets],
                             [(name(s), name(s | {x})) for s in subsets
                              for x in range(1, n + 1) if x not in s])


def rp2_with_bottom_and_top(rp2):
    covers = [("bottom", x) for x in rp2.elements if len(x) == 1]
    covers += [(x, "top") for x in rp2.elements if len(x) == 3]
    return poset_from_covers(rp2.elements + ("bottom", "top"), rp2.covers() + tuple(covers))


def oracle_nerve_cohomology(p, max_deg, field=QQ):
    """nerve_cohomology on the whole order complex, with no core taken."""
    reduced = homology._reduced_cohomology(order_complex(p), max_deg, field)[1:]
    return [h + (1 if d == 0 and p.n else 0) for d, h in enumerate(reduced)]


def oracle_poset_global_dimension(p, field=QQ):
    """poset_global_dimension with the Ext of every open interval computed,
    none skipped."""
    down = _down_masks(p.up_masks)
    g = 0
    for i, m in enumerate(p.up_masks):
        for j in _members(m & ~(1 << i)):
            exts = homology._interval_ext_dims(p, down, i, j, p.n, field)
            g = max(g, max((n for n, d in enumerate(exts) if d), default=0))
    return g


SMALL_POSETS = [p for n in range(1, 7) for p in enumerate_posets(n)]


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["Q", "GF2"])
def test_nerve_on_the_core_matches_the_whole_order_complex(rp2, field):
    assert len(SMALL_POSETS) == 405
    for p in SMALL_POSETS + [rp2, boolean_lattice(4)]:
        assert nerve_cohomology(p, 4, field) == oracle_nerve_cohomology(p, 4, field), \
            p.to_json()


@pytest.mark.parametrize("field, rp2_gldim", [(QQ, 3), (PrimeField(2), 4)], ids=["Q", "GF2"])
def test_gldim_skip_matches_every_interval(rp2, field, rp2_gldim):
    posets = SMALL_POSETS + [build_Xp(p1, p2, p3) for p3 in range(2, 9)
                             for p2 in range(2, p3 + 1) for p1 in range(2, p2 + 1)]
    assert len(posets) == 405 + 84
    for p in posets:
        assert poset_global_dimension(p, field) == oracle_poset_global_dimension(p, field), \
            p.to_json()
    p = rp2_with_bottom_and_top(rp2)
    assert poset_global_dimension(p, field) == oracle_poset_global_dimension(p, field) == rp2_gldim


def test_nerve_of_a_lattice_is_one_point(monkeypatch):
    # B_5 has a bottom, so every other element is a beat point in turn and
    # the core is one element: one complex of one vertex, where the whole
    # order complex has 2,163 chains
    built = count_order_complexes(monkeypatch)
    assert nerve_cohomology(boolean_lattice(5), 3) == [1, 0, 0, 0]
    assert [len(e) for e in built] == [1]


def test_gldim_builds_complexes_only_for_intervals_that_can_raise_it(monkeypatch):
    # X_(3,3,3) has 19 pairs x < y.  A pair is skipped when |core| + 1 <= g,
    # the largest degree found so far: every empty core after the first
    # cover gives g = 1, and every two-point core after the six-element
    # circle of (0, w) gives g = 3.  5 of the 19 complexes are built
    built = count_order_complexes(monkeypatch)
    assert poset_global_dimension(build_Xp(3, 3, 3)) == 3
    assert [len(e) for e in built] == [0, 2, 2, 2, 6]


def test_interval_cohomology_is_taken_over_the_field(rp2):
    # with a bottom and a top adjoined, the order complex of the projective
    # plane is the open interval (bottom, top), so Ext^n(S_bottom, S_top) is
    # H~^{n-2}(RP^2): k in degrees 3 and 4 over GF(2), zero over Q
    gf2 = PrimeField(2)
    p = rp2_with_bottom_and_top(rp2)
    assert poset_ext_dims(p, "bottom", "top", 5, gf2) == [0, 0, 0, 1, 1, 0]
    assert poset_ext_dims(p, "bottom", "top", 5, QQ) == [0] * 6
    assert nerve_cohomology(rp2, 3, gf2) == [1, 1, 1, 0]
    assert nerve_cohomology(rp2, 3) == [1, 0, 0, 0]
    a = incidence_algebra(p, gf2)
    res = minimal_resolution(simple_module(a, "bottom"))
    assert hom_cohomology(res, stalk_complex_of(simple_module(a, "top")), range(6)) == \
        [0, 0, 0, 1, 1, 0]
    # links of vertices and boundaries of triangles are circles: gldim 3
    # over Q, and the whole plane adds a fourth degree over GF(2)
    assert poset_global_dimension(p, gf2) == 4 == len(res.terms) - 1
    assert poset_global_dimension(p) == 3
    # the poset's certificate reads its gldim over its field
    assert poset_certificate(p, gf2).to_json() == certificate(a).to_json()
    assert (poset_certificate(p, gf2).gldim, poset_certificate(p).gldim) == (4, 3)


@st.composite
def random_posets(draw, max_n=7):
    """A poset on up to max_n shuffled labels, from random comparable pairs."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    labels = draw(st.permutations([str(i) for i in range(n)]))
    return poset_from_covers(labels, [(labels[i], labels[j]) for i, j in edges])


@settings(max_examples=25, deadline=None)
@given(random_posets())
def test_philip_hall_euler_characteristic(p):
    # sum_i (-1)^i dim Ext^i(S_x, S_y) is the reduced Euler characteristic
    # of the interval, which by Philip Hall's theorem is the Moebius
    # function mu(x, y) = (C^{-1})_{x,y}
    a = incidence_algebra(p)
    cinv = _inverse_unitriangular(a.cartan_matrix().to_int_rows())
    for i, x in enumerate(a.vertex_order):
        for j, y in enumerate(a.vertex_order):
            exts = poset_ext_dims(p, x, y, p.n)
            assert sum((-1) ** k * d for k, d in enumerate(exts)) == cinv[i][j]


@settings(max_examples=10, deadline=None)
@given(random_posets())
def test_nerve_equals_bar_on_random_posets(p):
    # Gerstenhaber-Schack: HH of the incidence algebra is the cohomology of
    # the nerve, here up to degree 2 on posets with up to 7 elements
    assert nerve_cohomology(p, 2) == hochschild_of_poset(p, 2)


# -- the bar walk against the quadratic assembly it replaced -----------------

def oracle_hochschild_bar(a, max_deg):
    """Reference for `hochschild_bar`, with no index: every source cochain
    is compared with every composable (n+1)-tuple, and the product
    r_i r_{i+1} is recomputed for each source.  Returns the HH dimensions
    and the coboundary matrices."""
    f = a.field
    rad = [(u, v, p) for (u, v), paths in a._basis.items() for p in paths if p]

    def composable_tuples(n):
        if n == 0:
            return [()]
        out = [(r,) for r in rad]
        for _ in range(n - 1):
            out = [tup + (r,) for tup in out for r in rad if tup[-1][1] == r[0]]
        return out

    def cochain_space(n):
        if n == 0:
            return [((), (v, v), bp) for v in a.vertex_order for bp in a.basis(v, v)]
        return [(tup, (tup[0][0], tup[-1][1]), bp) for tup in composable_tuples(n)
                for bp in a.basis(tup[0][0], tup[-1][1])]

    def lmul(r, blk, elem):
        if r[1] != blk[0]:
            return {}
        out = {}
        for p, c in elem.items():
            for bp, c2 in a.reduce_path(r[0], blk[1], r[2] + p).items():
                out[bp] = f.add(out.get(bp, f.zero), f.mul(c, c2))
        return out

    def rmul(blk, elem, r):
        if blk[1] != r[0]:
            return {}
        out = {}
        for p, c in elem.items():
            for bp, c2 in a.reduce_path(blk[0], r[1], p + r[2]).items():
                out[bp] = f.add(out.get(bp, f.zero), f.mul(c, c2))
        return out

    spaces = [cochain_space(n) for n in range(max_deg + 2)]
    mats = []
    for n in range(max_deg + 1):
        src, tgt = spaces[n], spaces[n + 1]
        tgt_idx = {(tup, bp): i for i, (tup, blk, bp) in enumerate(tgt)}
        bigs = composable_tuples(n + 1)
        cols = []
        for tup, blk, bp in src:
            col = [f.zero] * len(tgt)

            def add_at(big, elem, sign):
                for bp2, c in elem.items():
                    key = (big, bp2)
                    if key in tgt_idx and not f.is_zero(c):
                        col[tgt_idx[key]] = f.add(
                            col[tgt_idx[key]], f.mul(f.from_int(sign), c))

            for big in bigs:
                if big[1:] == tup:
                    add_at(big, lmul(big[0], blk, {bp: f.one}), 1)
                for i in range(1, n + 1):
                    r_i, r_j = big[i - 1], big[i]
                    for bp_mid, c_mid in rmul((r_i[0], r_i[1]), {r_i[2]: f.one}, r_j).items():
                        mid = (r_i[0], r_j[1], bp_mid)
                        if big[: i - 1] + (mid,) + big[i + 1:] == tup:
                            add_at(big, {bp: c_mid}, (-1) ** i)
                if big[:-1] == tup:
                    add_at(big, rmul(blk, {bp: f.one}, big[-1]), (-1) ** (n + 1))
            cols.append(col)
        mats.append(ExactMatrix.from_cols(cols, len(tgt), f))
    ranks = [m.rank() for m in mats]
    dims = [len(spaces[n]) - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(max_deg + 1)]
    return dims, mats


def assert_bar_matches_oracle(a, max_deg):
    """hochschild_bar(a) has the oracle's HH dimensions, and it ranks the
    oracle's coboundary matrices, entry for entry, to the same ranks, each
    once: max_deg + 1 rank calls in all."""
    ranked = {}
    calls = []
    rank = ExactMatrix.rank

    def recorded(m):
        calls.append(m)
        ranked[m.nrows, m.ncols, m.entries] = out = rank(m)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactMatrix, "rank", recorded)
        dims = hochschild_bar(a, max_deg)
    assert len(calls) == max_deg + 1
    o_dims, o_mats = oracle_hochschild_bar(a, max_deg)
    assert dims == o_dims
    for m in o_mats:
        assert ranked[m.nrows, m.ncols, m.entries] == m.rank()


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
@settings(max_examples=25, deadline=None)
@given(p=random_posets(max_n=6))
def test_bar_walk_matches_oracle_on_random_posets(field, p):
    assert_bar_matches_oracle(incidence_algebra(p, field), 2)


@pytest.mark.parametrize("weights, lambdas", [([2] * 4, [1, 2]), ([2] * 5, None)])
def test_bar_walk_matches_oracle_on_canonical(weights, lambdas):
    assert_bar_matches_oracle(build_algebra(canonical_presentation(weights, lambdas)), 2)


def sweep_posets(seed=1):
    """The 120 random posets of a `sweep` pass: 10 each with 5..8 strict
    order pairs on 5 elements, 6..9 on 6 and 7..10 on 7, each drawn as
    random comparable pairs on shuffled labels until its closure has the
    wanted count."""
    rng = random.Random(seed)
    out = []
    for n, counts in {5: (5, 6, 7, 8), 6: (6, 7, 8, 9), 7: (7, 8, 9, 10)}.items():
        candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for pairs in counts:
            for _ in range(10):
                while True:
                    edges = sorted(rng.sample(candidates, rng.randint(1, pairs)))
                    above = [0] * n  # strict up-sets of the closure, as bitmasks
                    for i, j in reversed(edges):
                        above[i] |= 1 << j | above[j]
                    if sum(bin(m).count("1") for m in above) == pairs:
                        break
                labels = ["e%d" % i for i in range(n)]
                rng.shuffle(labels)
                out.append(poset_from_covers(labels, [(labels[i], labels[j]) for i, j in edges]))
    return out


def test_bar_walk_reduces_each_product_once(monkeypatch):
    # the walk multiplies r_i r_{i+1} once per tuple, not once per source
    # cochain: on the posets of a sweep pass it reduces about half as many
    # paths as the quadratic assembly
    algebras = [incidence_algebra(p) for p in sweep_posets()]
    assert len(algebras) == 120
    calls = []
    reduce_path = algebra.BoundQuiverAlgebra.reduce_path

    def counted(self, *args):
        calls.append(args)
        return reduce_path(self, *args)

    monkeypatch.setattr(algebra.BoundQuiverAlgebra, "reduce_path", counted)
    walk = [hochschild_bar(a, 2) for a in algebras]
    walk_calls = len(calls)
    assert walk == [oracle_hochschild_bar(a, 2)[0] for a in algebras]
    assert (walk_calls, len(calls) - walk_calls) == (3145, 6198)


def test_constructed_maps_commute(monkeypatch):
    # hom_from_generators and kernel_of build their maps without the
    # commutation check; every map they build for a resolution must pass it
    import dequiv.homology as homology
    built = []
    for name in ("hom_from_generators", "kernel_of"):
        def recorded(*args, _original=getattr(algebra, name)):
            out = _original(*args)
            built.append(out[1] if isinstance(out, tuple) else out)
            return out
        monkeypatch.setattr(homology, name, recorded)
    algebras = [incidence_algebra(p) for n in range(1, 5)
                for p in enumerate_posets(n, connected_only=True)]
    algebras += [build_algebra(canonical_presentation(w))
                 for w in ([2, 2, 2], [2, 3, 3], [3, 3, 3])]
    differentials = []
    for a in algebras:
        for v in a.vertex_order:
            # the cover P_0 -> S_v and the differentials P_i -> P_{i-1}
            s = simple_module(a, v)
            differentials.append(homology.projective_cover(s)[1])
            differentials += minimal_resolution(s).diffs.values()
    assert len(built) > len(differentials) > 100
    assert all(m.check() for m in built + differentials)


def test_constructed_modules_satisfy_relations():
    # simple_module and projective_rep build their modules without the
    # relation check; every one of them must pass it
    algebras = [incidence_algebra(p) for n in range(1, 5)
                for p in enumerate_posets(n, connected_only=True)]
    algebras += [build_algebra(canonical_presentation(w))
                 for w in ([2, 2, 2], [2, 3, 3], [3, 3, 3])]
    modules = []
    for a in algebras:
        modules += [simple_module(a, v) for v in a.vertex_order]
        modules += [projective_rep(a, [v]) for v in a.vertex_order]
        modules.append(projective_rep(a, a.vertex_order))
    # the diamond and the three canonical algebras have relations; 72
    # simples, 72 indecomposable projectives and one sum of all projectives
    # per algebra
    assert sum(bool(a.presentation.relations) for a in algebras) == 4
    assert len(modules) == 2 * 72 + 18
    assert all(m.check_relations() for m in modules)


# -- one resolution of the top against the per-simple route ------------------

def oracle_top_generators(m):
    """Reference for `_top_generators`: at each vertex, every unit vector is
    tried in turn and kept while it raises the rank of the radical columns,
    one elimination per unit."""
    f = m.algebra.field
    gens = []
    for v in m.algebra.vertex_order:
        d = m.dim(v)
        cols = [c for a in m.algebra.quiver.arrows_into(v)
                for c in m.map_of(a.name).transpose().entries]
        cur = ExactMatrix.from_cols(cols, d, f)
        rank = cur.rank()
        for i in range(d):
            unit = ExactMatrix.from_cols([[f.one if r == i else f.zero for r in range(d)]], d, f)
            if cur.hstack(unit).rank() > rank:
                cur, rank = cur.hstack(unit), rank + 1
                gens.append((v, unit))
    return gens


def oracle_kernel_of(mm):
    """Reference for `kernel_of`: one solve per arrow."""
    alg = mm.source.algebra
    kbases = {v: mm.block(v).kernel() for v in alg.vertex_order}
    maps = {}
    for a in alg.quiver.arrows:
        sol = kbases[a.target].solve(mm.source.map_of(a.name) @ kbases[a.source])
        assert sol is not None
        maps[a.name] = sol
    ker = make_rep(alg, {v: kbases[v].ncols for v in alg.vertex_order}, maps, check=False)
    return ker, algebra.module_map(ker, mm.source, kbases)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_kernel_of_matches_the_oracle_on_random_maps(field):
    # random generator images into the regular module give kernel bases with
    # several nonzero entries per column, where the covers of a resolution
    # mostly give coordinate subspaces
    rng = random.Random(7)
    dense = 0
    for w, lam in (([2, 2, 3], None), ([3, 3, 3], None), ([2, 2, 2, 2], [1, 2])):
        a = build_algebra(canonical_presentation(w, lam, field))
        reg = projective_rep(a, a.vertex_order)
        for _ in range(5):
            blocks = [rng.choice(a.vertex_order) for _ in range(3)]
            gens = [ExactMatrix.from_rows([[rng.randint(-2, 2)] for _ in range(reg.dim(v))], field)
                    for v in blocks]
            mm = hom_from_generators(projective_rep(a, blocks), reg, gens)
            ker = algebra.kernel_of(mm)
            assert ker == oracle_kernel_of(mm)
            dense += sum(sum(not field.is_zero(x) for x in col) > 1
                         for k in ker[1].blocks for col in zip(*k.entries))
    assert dense > 0


def test_kernel_of_skips_empty_blocks_and_vacuous_arrows(monkeypatch):
    # the covers down the minimal resolutions of the simples of canonical
    # (3,3,3): every kernel, arrow product and stability check that kernel_of
    # still makes has a nonempty shape, and the kernels equal the oracle's
    a = build_algebra(canonical_presentation([3, 3, 3]))
    covers = []
    for v in a.vertex_order:
        m = simple_module(a, v)
        while not m.is_zero():
            covers.append(homology.projective_cover(m)[1])
            m = algebra.kernel_of(covers[-1])[0]
    shapes = []
    matmul, eliminate = ExactMatrix.__matmul__, exactla._eliminate

    def counted_matmul(x, y):
        shapes.append(x.nrows * x.ncols * y.ncols)
        return matmul(x, y)

    def counted_eliminate(field, entries, ncols):
        shapes.append(len(entries) * ncols)
        return eliminate(field, entries, ncols)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(exactla, "_eliminate", counted_eliminate)
    kernels = [algebra.kernel_of(cover) for cover in covers]
    assert shapes and all(shapes)
    monkeypatch.undo()
    assert kernels == [oracle_kernel_of(cover) for cover in covers]


def oracle_resolution_length(m):
    """The length of the minimal resolution of m built from the oracles,
    checking at every step that `_top_generators` and `kernel_of` return
    exactly the oracles' generators, kernel and inclusion."""
    length = -1
    while not m.is_zero():
        assert length < m.algebra.dimension
        gens = oracle_top_generators(m)
        assert homology._top_generators(m) == gens
        p = projective_rep(m.algebra, [v for v, _ in gens])
        cover = hom_from_generators(p, m, [x for _, x in gens])
        ker = oracle_kernel_of(cover)
        assert algebra.kernel_of(cover) == ker
        m, length = ker[0], length + 1
    return length


def assert_top_matches_simples(a):
    """One resolution of the top gives the per-simple global dimension, and
    both are built from the oracles' generators and kernels."""
    top = algebra.direct_sum_rep([simple_module(a, v) for v in a.vertex_order])
    per_simple = max(oracle_resolution_length(simple_module(a, v)) for v in a.vertex_order)
    assert global_dimension(a) == oracle_resolution_length(top) == per_simple


SWEEP_TRIPLES = [(p1, p2, p3) for p1 in range(2, 6) for p2 in range(p1, 6)
                 for p3 in range(p2, 6)]
# the canonical (2, p2, p3) targets of the remark families of a sweep pass
REMARK_TARGETS = {(2, p2, p3) for _, p2, p3 in
                  [(1, 3, 3), (1, 3, 4), (2, 3, 3), (2, 3, 4), (3, 2, 2), (3, 2, 3), (3, 3, 3)]}


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_top_resolution_on_sweep_triples(field):
    assert len(SWEEP_TRIPLES) == 20 and REMARK_TARGETS <= set(SWEEP_TRIPLES)
    for w in SWEEP_TRIPLES:
        assert_top_matches_simples(build_algebra(canonical_presentation(w, field=field)))


@pytest.mark.parametrize("weights, lambdas, field", [
    ([2] * 4, [1, 2], QQ), ([2] * 4, [1, 2], PrimeField(3)),
    ([2] * 5, None, QQ), ([2] * 5, None, PrimeField(5))], ids=str)
def test_top_resolution_on_canonical(weights, lambdas, field):
    a = build_algebra(canonical_presentation(weights, lambdas, field))
    assert global_dimension(a) == 2
    assert_top_matches_simples(a)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_top_resolution_on_a1p(field):
    for p in range(1, 6):
        a = build_algebra(a1p_presentation(p, field))
        assert global_dimension(a) == 1
        assert_top_matches_simples(a)


def radical_by_kernel(a):
    """rad A as the kernel of the projective cover of the top."""
    top = algebra.direct_sum_rep([simple_module(a, v) for v in a.vertex_order])
    return algebra.kernel_of(homology.projective_cover(top)[1])[0]


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_radical_is_the_kernel_onto_the_top(field):
    # rad A read off the regular module is a subrepresentation of it, of
    # the dimensions of the kernel of the top's projective cover, and a
    # quotient A / rad A of dimension 1 at each vertex
    algebras = [build_algebra(canonical_presentation(w, field=field)) for w in SWEEP_TRIPLES]
    algebras += [build_algebra(a1p_presentation(p, field)) for p in range(1, 6)]
    algebras.append(build_algebra(canonical_presentation([2] * 4, [1, 2], field)))
    for a in algebras:
        rad, reg = algebra.radical_rep(a), projective_rep(a, a.vertex_order)
        assert rad.check_relations()
        assert rad.dims == radical_by_kernel(a).dims
        assert [r - d for r, d in zip(reg.dims, rad.dims)] == [1] * len(a.vertex_order)
        incl = {v: ExactMatrix.from_cols(
            [[a.field.one if k == i else a.field.zero for k in range(reg.dim(v))]
             for i, (_, path) in enumerate(reg.labels_at(v)) if path], reg.dim(v), a.field)
            for v in a.vertex_order}
        assert algebra.module_map(rad, reg, incl).check()  # commutes with the arrows


@pytest.mark.parametrize("pres, gldim", [
    # semisimple k x k x k: rad A = 0, and nothing is resolved
    (Presentation(Quiver(("a", "b", "c"), ()), (), QQ), 0),
    # the path algebra of 1 -> 2: rad A is the projective P_2
    (Presentation(Quiver(("1", "2"), (Arrow("x", "1", "2"),)), (), QQ), 1),
    (a1p_presentation(3), 1)], ids=["no-arrows", "A2", "A1-3"])
def test_global_dimension_resolves_rad_a(pres, gldim, monkeypatch):
    a = build_algebra(pres)
    resolved = []

    def recorded(m, _original=homology.minimal_resolution):
        resolved.append(m)
        return _original(m)

    monkeypatch.setattr(homology, "minimal_resolution", recorded)
    assert global_dimension(a) == gldim
    # rad A has one basis label less per vertex than A
    assert [m.total_dim for m in resolved] == \
        ([a.dimension - len(a.vertex_order)] if gldim else [])


@st.composite
def reflected_quivers(draw):
    """The path algebra of a random acyclic quiver (parallel arrows allowed)
    and its reflection at one of its sources or sinks, over one field."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
    labels = draw(st.permutations([str(i) for i in range(n)]))
    q = Quiver(tuple(labels), tuple(Arrow("a%d" % k, labels[i], labels[j])
                                    for k, (i, j) in enumerate(edges)))
    ends = [v for v in q.vertices if q.is_source(v) or q.is_sink(v)]
    field = draw(st.sampled_from([QQ, PrimeField(3)]))
    return (build_algebra(Presentation(q, (), field)),
            build_algebra(Presentation(bgp_reflect(q, draw(st.sampled_from(ends))), (), field)))


@settings(max_examples=20, deadline=None)
@given(reflected_quivers())
def test_top_resolution_on_bgp_reflections(pair):
    assert_top_matches_simples(pair[1])


@settings(max_examples=20, deadline=None)
@given(reflected_quivers())
def test_bgp_reflection_keeps_the_certificate(pair):
    # reflecting at a source or sink is a derived equivalence (APR tilting),
    # so the compared invariants agree
    a, b = pair
    assert certificate(a).same_invariants(certificate(b))


@settings(max_examples=10, deadline=None)
@given(random_posets())
def test_euler_form_on_random_posets(p):
    # resolves each simple of the incidence algebra and compares the Euler
    # form of its Ext with the interval side's C^{-1}
    assert euler_form_check(incidence_algebra(p))
