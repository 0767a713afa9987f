import pytest

from dequiv.posets import chain, diamond, enumerate_posets
from dequiv.quivers import (Arrow, NotPosetQuiverError, Presentation, Quiver,
                            QuiverError, Relation, a1p_presentation, bgp_reflect,
                            canonical_presentation, hasse_quiver,
                            incidence_presentation, is_gentle,
                            kronecker_presentation, quiver_as_poset, t2_poset,
                            unique_path_property)


def test_acyclicity_enforced():
    with pytest.raises(QuiverError):
        Quiver(("a", "b"), (Arrow("f", "a", "b"), Arrow("g", "b", "a")))


def test_relation_endpoints_refuse_bad_paths():
    q = Quiver(("a", "b", "c", "d"),
               (Arrow("x", "a", "b"), Arrow("y", "b", "c"), Arrow("z", "c", "d")))
    assert Relation(((1, ("x", "y")),)).endpoints(q) == ("a", "c")
    with pytest.raises(QuiverError, match=r"path \('y', 'x'\) not composable at c"):
        Relation(((1, ("y", "x")),)).endpoints(q)
    with pytest.raises(QuiverError, match="relation terms are not parallel"):
        Relation(((1, ("x", "y")), (1, ("y", "z")))).endpoints(q)


def test_canonical_presentation_shapes():
    two = canonical_presentation([2, 3])
    assert len(two.relations) == 0
    assert len(two.quiver.vertices) == 5  # 0, one + two arm interiors, w
    three = canonical_presentation([2, 2, 2])
    assert len(three.relations) == 1
    assert len(three.quiver.vertices) == 5
    four = canonical_presentation([2, 2, 2, 2])
    assert len(four.relations) == 2


def test_weight_one_arms_are_dropped():
    # only weights >= 2 count; dropping 1s can reduce to the t = 2 case
    pres = canonical_presentation([1, 3, 3])
    assert len(pres.relations) == 0
    assert set(pres.quiver.vertices) == set(canonical_presentation([3, 3]).quiver.vertices)


def test_lambda_count_is_checked_for_every_t():
    # t = 2 has no lambda: one given is refused, not dropped, also after
    # the weight-one arms are dropped
    for weights in ([2, 3], [1, 2, 3]):
        with pytest.raises(QuiverError, match="need 0 lambda parameters for 2 weights"):
            canonical_presentation(weights, [7])
    assert canonical_presentation([2, 3], []).relations == ()
    with pytest.raises(QuiverError, match="need 1 lambda parameters for 3 weights"):
        canonical_presentation([2, 2, 2], [2, 3])


def test_kronecker_and_a1p():
    kr = kronecker_presentation()
    assert len(kr.quiver.vertices) == 2 and len(kr.quiver.arrows) == 2
    pr = a1p_presentation(3)
    # two parallel paths 0 -> w of lengths 1 and 3
    assert len(pr.quiver.paths("0", "w")) == 2
    assert sorted(len(p) for p in pr.quiver.paths("0", "w")) == [1, 3]
    assert not pr.relations


def test_bgp_reflection_involution():
    q = hasse_quiver(chain(3))
    sink = "c2"
    r = bgp_reflect(q, sink)
    assert {(a.source, a.target) for a in r.arrows} == {("c0", "c1"), ("c2", "c1")}
    back = bgp_reflect(r, sink)
    assert {(a.source, a.target) for a in back.arrows} == \
        {(a.source, a.target) for a in q.arrows}


def test_bgp_rejects_interior_vertex():
    q = hasse_quiver(chain(3))
    with pytest.raises(QuiverError):
        bgp_reflect(q, "c1")


def test_unique_path_property():
    assert unique_path_property(hasse_quiver(chain(4)))
    assert not unique_path_property(hasse_quiver(diamond()))


def test_gentle_predicate():
    assert is_gentle(a1p_presentation(2))
    assert not is_gentle(canonical_presentation([2, 2, 2]))  # non-monomial relation


def test_quiver_as_poset_round_trip():
    p = chain(4)
    assert quiver_as_poset(hasse_quiver(p)) == p
    # multiple paths would silently lose commutativity relations: rejected
    with pytest.raises(NotPosetQuiverError):
        quiver_as_poset(hasse_quiver(diamond()))
    with pytest.raises(NotPosetQuiverError):
        quiver_as_poset(kronecker_presentation().quiver)


def test_incidence_presentation_of_diamond():
    pres = incidence_presentation(diamond())
    # one commutativity relation between the two paths through the square
    assert len(pres.relations) == 1
    assert {(a.source, a.target) for a in pres.quiver.arrows} == set(diamond().covers())


def test_t2_poset_is_relation_free():
    for p1, p2 in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        poset = t2_poset(p1, p2)
        assert poset.n == p1 + p2
        pres = incidence_presentation(poset)
        assert not pres.relations
        assert unique_path_property(pres.quiver)


@pytest.mark.parametrize("p1, p2", [(1, 3), (3, 1)])
def test_t2_poset_refuses_a_weight_below_two(p1, p2):
    with pytest.raises(QuiverError, match=r"^t2_poset requires p1, p2 >= 2$"):
        t2_poset(p1, p2)


def test_presentation_json_round_trip():
    pres = canonical_presentation([2, 2, 3])
    again = Presentation.from_json(pres.to_json())
    assert again.quiver == pres.quiver
    assert len(again.relations) == len(pres.relations)


def recursive_paths(q, u, v):
    """The walk Quiver.paths replaced, in depth-first pre-order: a linear
    arrow scan at every step and one walk per (u, v) pair."""
    out = [()] if u == v else []

    def walk(cur, acc):
        for a in q.arrows:
            if a.source == cur:
                nxt = acc + (a.name,)
                if a.target == v:
                    out.append(nxt)
                walk(a.target, nxt)

    walk(u, ())
    return out


def test_paths_and_arrow_index_match_linear_scans():
    quivers = [hasse_quiver(p) for n in range(1, 6) for p in enumerate_posets(n)]
    quivers += [canonical_presentation(w).quiver
                for w in ([2, 3, 4], [3, 3, 3], [2, 2, 2, 2])]
    quivers.append(kronecker_presentation().quiver)
    pairs = 0
    for q in quivers:
        for v in q.vertices:
            assert q.arrows_from(v) == tuple(a for a in q.arrows if a.source == v)
            assert q.arrows_into(v) == tuple(a for a in q.arrows if a.target == v)
        for a in q.arrows:
            assert q.arrow(a.name) is a
        for u in q.vertices:
            for v in q.vertices:
                expected = sorted(recursive_paths(q, u, v), key=lambda p: (len(p), p))
                got = q.paths(u, v)
                assert isinstance(got, tuple)  # immutable: callers cannot change the table
                assert list(got) == expected
                pairs += 1
    assert pairs == 2053
