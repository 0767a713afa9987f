import itertools
import random
import re
from typing import Dict, Iterable, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from dequiv import homology, posets
from dequiv.posets import (CycleError, Poset, PosetError, _members, antichain,
                           are_isomorphic, build_Xp, build_remark_poset,
                           canonical_key, chain, diamond, enumerate_posets,
                           order_complex, poset_from_covers, remark_free_edges)
from dequiv.quivers import canonical_presentation


def poset_product(p: Poset, q: Poset) -> Poset:
    """Componentwise order on label pairs '(a,b)'; the pair (i, j) of
    indices has index i * q.n + j."""
    elems = tuple("(%s,%s)" % (a, b) for a in p.elements for b in q.elements)
    up = []
    for m in p.up_masks:
        for mq in q.up_masks:
            mask = 0
            for k in _members(m):
                mask |= mq << k * q.n
            up.append(mask)
    return Poset(elems, tuple(up))


def naive_count(n):
    """Independent oracle: every poset on {0..n-1} has a linear extension,
    so relations can be taken inside {(i,j): i < j}; count canonical keys
    of the transitively closed subsets."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = set()
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if (bits >> k) & 1}
        if not all((a, c) in rel for (a, b) in rel for (b2, c) in rel if b2 == b):
            continue
        covers = [(str(a), str(b)) for a, b in rel
                  if not any((a, c) in rel and (c, b) in rel for c in range(n))]
        p = poset_from_covers([str(i) for i in range(n)], covers)
        keys.add(canonical_key(p))
    return len(keys)


def test_enumeration_counts():
    # OEIS A000112
    assert [len(enumerate_posets(n)) for n in range(1, 8)] == [1, 2, 5, 16, 63, 318, 2045]


def test_enumeration_size_is_capped():
    for n in (0, 9):
        with pytest.raises(PosetError, match="1 <= n <= 8, got %d" % n):
            enumerate_posets(n)


def labelling_from_masks(up: Sequence[int]) -> Tuple[int, List[int]]:
    """Reference for `_canonical_labelling`: the labelling that takes the
    up-set masks alone and rebuilds the down-sets, strict pairs and
    neighbour lists from them on every call, copied unchanged but for the
    module of `_arrangements`, its docstring included:

    The least strict-relation bitmask of the poset with up-set masks up
    (as in `Poset.up_masks`) over the orderings allowed by its refined
    colouring, and an ordering of element indices reaching it.

    Colours start as the ranks of (number of elements below, number above)
    and are refined by re-ranking the signatures (colour, sorted colours
    below, sorted colours above) until no class splits or every class is
    a single element; the ranks depend only on the order, so colours are
    invariant.  Orderings list the colour cells in colour order, each cell
    arranged in every way that can change the bitmask: twins (elements
    with the same strict down-set and the same strict up-set, hence
    incomparable and of one colour) are swapped by an automorphism, so
    only the sequence of twin classes in a cell is varied.  An ordering
    sends the element at position a to the row a, so x < y sets bit
    pos(x) * n + pos(y).  Isomorphic posets reach the same least bitmask,
    and equal bitmasks give an isomorphism.

    Three cases need less work and give the same result.  Twins have the
    same neighbours, so a round cannot split a cell that is one twin
    class: refinement stops once every cell is one, and the twin classes
    are only found when the first colouring is not discrete.  When every
    class is a single element, the position of an element is its colour.
    When every cell is one twin class, the one ordering lists the cells in
    colour order, each cell's members in index order.
    """
    n = len(up)
    above: List[List[int]] = [[] for _ in range(n)]
    below: List[List[int]] = [[] for _ in range(n)]
    down = [0] * n
    pairs = []
    for i, m in enumerate(up):
        m ^= 1 << i
        ups = above[i]
        while m:
            low = m & -m
            j = low.bit_length() - 1
            ups.append(j)
            below[j].append(i)
            down[j] |= 1 << i
            pairs.append((i, j))
            m ^= low
    sigs = [(len(below[i]), len(above[i])) for i in range(n)]
    rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
    colour = [rank[s] for s in sigs]
    count = len(rank)
    if count < n:
        # twin classes in the order of their lowest member
        twins: Dict[tuple, List[int]] = {}
        for i in range(n):
            twins.setdefault((down[i], up[i] ^ 1 << i), []).append(i)
        while count < len(twins):
            sigs = [(colour[i], tuple(sorted([colour[j] for j in below[i]])),
                     tuple(sorted([colour[j] for j in above[i]]))) for i in range(n)]
            split = set(sigs)
            if len(split) == count:
                break
            rank = {s: r for r, s in enumerate(sorted(split))}
            colour = [rank[s] for s in sigs]
            count = len(rank)
    if count == n:
        order = [0] * n
        for i, c in enumerate(colour):
            order[c] = i
        return sum(1 << (colour[i] * n + colour[j]) for i, j in pairs), order
    cells: List[List[List[int]]] = [[] for _ in range(count)]
    for members in twins.values():
        cells[colour[members[0]]].append(members)
    if count == len(twins):
        orderings: Iterable[List[int]] = [[i for (members,) in cells for i in members]]
    else:
        orderings = ([i for part in parts for i in part]
                     for parts in itertools.product(*(posets._arrangements(c) for c in cells)))
    best, best_order = -1, None
    pos = [0] * n
    for order in orderings:
        for a, i in enumerate(order):
            pos[i] = a
        bits = 0
        for i, j in pairs:
            bits |= 1 << (pos[i] * n + pos[j])
        if best_order is None or bits < best:
            best, best_order = bits, order
    return best, best_order


def labelling(up):
    """`_canonical_labelling` of the poset with up-set masks up, its
    relation read off the masks by `_relation`."""
    return posets._canonical_labelling(up, *posets._relation(up))


def oracle_labelling(up):
    """Reference for `_canonical_labelling`'s bitmask, with no shortcut:
    colours start equal, and every permutation of every colour cell is
    tried, twins included."""
    n = len(up)
    above = [[j for j in range(n) if j != i and m >> j & 1] for i, m in enumerate(up)]
    below = [[j for j in range(n) if i in above[j]] for i in range(n)]
    colour = [0] * n
    count = 1
    while True:
        sigs = [(colour[i], tuple(sorted(colour[j] for j in below[i])),
                 tuple(sorted(colour[j] for j in above[i]))) for i in range(n)]
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        colour = [rank[s] for s in sigs]
        if len(rank) == count:
            break
        count = len(rank)
    cells = [[i for i in range(n) if colour[i] == c] for c in range(count)]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        pos = {i: a for a, i in enumerate(i for part in parts for i in part)}
        bits = sum(1 << (pos[i] * n + pos[j]) for i in range(n) for j in above[i])
        if best is None or bits < best:
            best = bits
    return best


def full_refinement_labelling(up):
    """Reference for `_canonical_labelling`'s bitmask and ordering: the
    same colouring, refined until no class splits whatever the twins, and
    the same orderings tried in the same order, through `_arrangements`
    for every cell that is not discrete."""
    n = len(up)
    above = [list(_members(m & ~(1 << i))) for i, m in enumerate(up)]
    below = [[] for _ in range(n)]
    for i, ups in enumerate(above):
        for j in ups:
            below[j].append(i)
    sigs = [(len(below[i]), len(above[i])) for i in range(n)]
    rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
    colour = [rank[s] for s in sigs]
    count = len(rank)
    while 1 < count < n:
        sigs = [(colour[i], tuple(sorted(colour[j] for j in below[i])),
                 tuple(sorted(colour[j] for j in above[i]))) for i in range(n)]
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        colour = [rank[s] for s in sigs]
        if len(rank) == count:
            break
        count = len(rank)
    if count == n:
        order = [0] * n
        for i, c in enumerate(colour):
            order[c] = i
        orderings = [order]
    else:
        twins = {}
        for i in range(n):
            twins.setdefault((colour[i], tuple(below[i]), tuple(above[i])), []).append(i)
        cells = [[] for _ in range(count)]
        for (c, _, _), members in twins.items():
            cells[c].append(members)
        orderings = ([i for part in parts for i in part]
                     for parts in itertools.product(*(posets._arrangements(c) for c in cells)))
    best, best_order = -1, None
    for order in orderings:
        bits = relation_bits(up, order)
        if best_order is None or bits < best:
            best, best_order = bits, order
    return best, best_order


def relation_bits(up, order):
    """The strict-relation bitmask of up-set masks up under `order`."""
    n = len(up)
    pos = {i: a for a, i in enumerate(order)}
    return sum(1 << (pos[i] * n + pos[j])
               for i in range(n) for j in range(n) if i != j and up[i] >> j & 1)


def count_orderings(monkeypatch):
    """Wrap the labelling and its cell arrangements; returns a list with
    the number of orderings each labelling call tries (the product of the
    arrangement counts of its cells)."""
    tried = []
    labelling_of, arrangements = posets._canonical_labelling, posets._arrangements

    def counting_labelling(*relation):
        tried.append(1)
        return labelling_of(*relation)

    def counting_arrangements(classes):
        out = arrangements(classes)
        tried[-1] *= len(out)
        return out

    monkeypatch.setattr(posets, "_canonical_labelling", counting_labelling)
    monkeypatch.setattr(posets, "_arrangements", counting_arrangements)
    return tried


def count_builds(monkeypatch):
    """Wrap the Poset constructor; returns a list with the size of each
    Poset built."""
    built = []
    init = Poset.__init__

    def counting_init(self, *args):
        built.append(len(args[0]))
        init(self, *args)

    monkeypatch.setattr(Poset, "__init__", counting_init)
    return built


def test_enumeration_canonicalises_only_unpruned_candidates(monkeypatch):
    """Work pin: candidates whose new maximal element does not have a
    largest down-set (730 labellings without that cut), or whose ideal
    holds some members of a twin class of the parent but not the
    lowest-index ones (582 without that cut), are dropped before they are
    canonicalised, and a Poset is built only for each class of the
    returned level (318), not for the classes of the smaller levels (405
    on levels 1..6) nor per candidate.  Twins are kept in order, so the
    441 labellings try 640 orderings."""
    tried = count_orderings(monkeypatch)
    built = count_builds(monkeypatch)
    assert len(enumerate_posets(6)) == 318
    assert len(tried) == 441
    assert sum(tried) == 640
    assert built == [6] * 318


def test_connected_enumeration_canonicalises_only_connected_candidates(monkeypatch):
    """Work pin: with connected_only, the last level drops the candidates
    whose ideal misses a component of the parent before canonicalising
    them, so enumerate_posets(6, connected_only=True) makes 352
    labellings (441 without that cut) and builds a Poset only for the 238
    connected classes (318 when the disconnected ones were filtered
    after)."""
    tried = count_orderings(monkeypatch)
    built = count_builds(monkeypatch)
    assert len(enumerate_posets(6, connected_only=True)) == 238
    assert len(tried) == 352
    assert built == [6] * 238


def test_labelling_equals_oracle_on_enumeration_candidates(monkeypatch):
    """On every candidate that enumerate_posets(7) canonicalises (all
    levels n <= 7, 2,774 candidates), the relation handed to the labelling
    is the one `_relation` reads off the candidate's up-set masks, the
    bitmask equals the oracle's, the returned ordering reproduces it, and
    (bitmask, ordering) equals that of the labelling from masks alone and
    of the one that refines to the end and arranges every cell."""
    calls = []
    labelling_of = posets._canonical_labelling

    def recording_labelling(*relation):
        result = labelling_of(*relation)
        calls.append((relation, result))
        return result

    monkeypatch.setattr(posets, "_canonical_labelling", recording_labelling)
    enumerate_posets(7)
    assert len(calls) == 2774
    for (up, down, pairs, sizes), (bits, order) in calls:
        want_down, want_pairs, want_sizes = posets._relation(up)
        assert (down, sorted(pairs), sizes) == (want_down, want_pairs, want_sizes)
        assert sorted(order) == list(range(len(up)))
        assert bits == oracle_labelling(up) == relation_bits(up, order)
        assert (bits, order) == labelling_from_masks(up) == full_refinement_labelling(up)


def shuffled(p: Poset, rng) -> List[int]:
    """The up-set masks of p with its elements in a random order: element
    i of p becomes element perm[i]."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    up = [0] * p.n
    for i, m in enumerate(p.up_masks):
        up[perm[i]] = sum(1 << perm[j] for j in _members(m))
    return up


def test_labelling_equals_reference_on_shuffled_posets():
    """Every poset with n <= 6 (405), its elements in three seeded random
    orders each, so that twin classes are not runs of consecutive indices:
    the bitmask and the ordering equal those of the labelling from masks
    alone and of the one that refines to the end and arranges every
    cell."""
    rng = random.Random(6)
    count = 0
    for n in range(1, 7):
        for p in enumerate_posets(n):
            for _ in range(3):
                up = shuffled(p, rng)
                assert labelling(up) == labelling_from_masks(up) == full_refinement_labelling(up)
            count += 1
    assert count == 405


def is_connected(p: Poset) -> bool:
    """Whether the comparability graph of p is connected, by a search from
    the first element."""
    up = p.up_masks
    if not up:
        return True
    near = [m | d for m, d in zip(up, posets._down_masks(up))]
    seen = frontier = 1
    while frontier:
        reach = 0
        for i in _members(frontier):
            reach |= near[i]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(up)) - 1


def oracle_enumeration(n, connected_only=False):
    """Reference for `enumerate_posets` with only the largest-down-set cut:
    every other order ideal of each parent is canonicalised, twins and
    all, and the disconnected posets are filtered out at the end."""
    level = [(1,)]
    for size in range(2, n + 1):
        new_bit = 1 << (size - 1)
        seen = {}
        for up in level:
            down = posets._down_masks(up)
            down_size = [d.bit_count() for d in down]
            maximal = [i for i, m in enumerate(up) if m == 1 << i]
            for ideal in posets._order_ideals(down):
                new_down = ideal.bit_count() + 1
                if any(down_size[i] > new_down for i in maximal if not ideal >> i & 1):
                    continue
                masks = tuple(m | new_bit if ideal >> i & 1 else m
                              for i, m in enumerate(up)) + (new_bit,)
                seen.setdefault(labelling_from_masks(masks)[0], masks)
        level = [masks for _, masks in sorted(seen.items())]
    elements = tuple(str(i) for i in range(n))
    found = [Poset(elements, up) for up in level]
    if connected_only:
        found = [p for p in found if is_connected(p)]
    return found


@pytest.mark.parametrize("connected_only", [False, True], ids=["all", "connected"])
def test_enumeration_equals_oracle(connected_only):
    """The skipped candidates change nothing: for n <= 7 the listing equals
    the oracle's, with the same labels, up-set masks and order."""
    for n in range(1, 8):
        assert enumerate_posets(n, connected_only) == oracle_enumeration(n, connected_only)


def test_connected_enumeration_lists_only_connected_posets():
    """Every poset listed with connected_only is connected, and there are as
    many as the connected posets of the full listing."""
    for n in range(1, 8):
        connected = enumerate_posets(n, connected_only=True)
        assert all(is_connected(p) for p in connected)
        assert len(connected) == sum(map(is_connected, enumerate_posets(n)))


def bottom_top_around(k):
    """A bottom and a top around k pairwise incomparable middles."""
    middles = ["m%d" % i for i in range(k)]
    return poset_from_covers(["bot"] + middles + ["top"],
                             [("bot", m) for m in middles] + [(m, "top") for m in middles])


@pytest.mark.parametrize("p", [antichain(12), bottom_top_around(10)], ids=["antichain12", "bottom_top_10"])
def test_wide_posets_try_one_ordering(monkeypatch, p):
    """Twins are never permuted among themselves: an antichain of 12 (12!
    orderings without twin collapse) and a bottom and a top around 10
    middles (10!) each try a single ordering per labelling."""
    name = {x: "v%d" % i for i, x in enumerate(reversed(p.elements))}
    q = Poset.from_relation(tuple(sorted(name.values())),
                            frozenset((name[x], name[y]) for x, y in p.relation))
    tried = count_orderings(monkeypatch)
    assert canonical_key(p) == canonical_key(q)
    assert_replays(p, q, are_isomorphic(p, q))
    assert tried == [1, 1, 1, 1]


def chain_with_one_over_its_bottom(k):
    """A k-chain and one more element above its bottom only: the bottom
    has k elements above it, and the new element one below it."""
    p = chain(k)
    return poset_from_covers(p.elements + ("x",), p.covers() + (("c0", "x"),))


@pytest.mark.parametrize("p", [chain(20), bottom_top_around(15), chain_with_one_over_its_bottom(17)],
                         ids=["chain20", "bottom_top_15", "chain17_plus_one"])
def test_labelling_of_wide_posets_equals_the_masks_only_labelling(p):
    """Posets of 18 to 20 elements, where the number of elements above or
    below an element reaches 16 or more, in their own order and in three
    seeded random orders: the bitmask and ordering equal those of the
    labelling from masks alone.  On the last, (below, above) = (0, 18) for
    the bottom and (1, 0) for the new element, so the colours must rank the
    counts as pairs, not as a key packed into four bits a count."""
    rng = random.Random(17)
    for up in [list(p.up_masks)] + [shuffled(p, rng) for _ in range(3)]:
        assert labelling(up) == labelling_from_masks(up)


def test_covers_against_relation_scan():
    """Covers read off the up-set masks equal the pairs x < y with no z
    strictly between, on all posets n <= 6 in both element orders."""
    posets_6 = [p for n in range(1, 7) for p in enumerate_posets(n)]
    for p in posets_6 + [Poset.from_relation(p.elements[::-1], p.relation) for p in posets_6]:
        scan = sorted((x, y) for x, y in p.relation
                      if x != y and not any(p.lt(x, z) and p.lt(z, y) for z in p.elements))
        assert p.covers() == tuple(scan)


def test_order_ideals_against_subset_scan():
    """Order ideals listed from the down-set masks equal the down-closed
    subsets found by testing all 2^n subsets, also when the element order
    is reversed and so is no linear extension."""
    posets_5 = [p for n in range(1, 6) for p in enumerate_posets(n)]
    for p in posets_5 + [Poset.from_relation(p.elements[::-1], p.relation) for p in posets_5]:
        n = p.n
        down = [[j for j in range(n) if p.leq(p.elements[j], x)] for x in p.elements]
        scan = [mask for mask in range(1 << n)
                if all(mask >> j & 1 for i in range(n) if mask >> i & 1 for j in down[i])]
        assert posets._order_ideals(posets._down_masks(p.up_masks)) == scan


def test_connected_counts():
    counts = [len(enumerate_posets(n, connected_only=True)) for n in range(1, 6)]
    assert counts == [1, 1, 3, 10, 44]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_against_naive_oracle(n):
    assert len(enumerate_posets(n)) == naive_count(n)


def labelled_posets(n):
    """Every partial order on the labels '0'..'n-1', by plain set logic:
    subsets of the off-diagonal pairs that are antisymmetric and
    transitive, with the diagonal added."""
    labels = [str(i) for i in range(n)]
    pairs = [(x, y) for x in labels for y in labels if x != y]
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        if any((y, x) in rel for x, y in rel):
            continue
        if any((x, z) not in rel and x != z for x, y in rel for y2, z in rel if y2 == y):
            continue
        out.append(Poset.from_relation(tuple(labels), frozenset(rel | {(x, x) for x in labels})))
    return out


def relabellings(p):
    """The relations of p under every bijection of its labels."""
    out = set()
    for perm in itertools.permutations(p.elements):
        f = dict(zip(p.elements, perm))
        out.add(frozenset((f[x], f[y]) for x, y in p.relation))
    return out


def assert_replays(p, q, wit):
    assert wit is not None
    assert sorted(wit) == sorted(p.elements) and sorted(wit.values()) == sorted(q.elements)
    for x in p.elements:
        for y in p.elements:
            assert p.leq(x, y) == q.leq(wit[x], wit[y])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_key_against_brute_force_isomorphism(n):
    """Keys agree exactly when some bijection of the n! is an order
    isomorphism; are_isomorphic agrees as well on n <= 3."""
    ps = labelled_posets(n)
    assert len(ps) == [1, 3, 19, 219][n - 1]  # labelled posets, OEIS A001035
    keys = [canonical_key(p) for p in ps]
    for p, kp in zip(ps, keys):
        images = relabellings(p)
        for q, kq in zip(ps, keys):
            assert (kp == kq) == (q.relation in images)
            if n <= 3:
                wit = are_isomorphic(p, q)
                if q.relation in images:
                    assert_replays(p, q, wit)
                else:
                    assert wit is None


@settings(max_examples=5, deadline=None)
@given(st.permutations(range(6)))
def test_relabelled_connected_6_posets_keep_their_key(perm):
    for p in enumerate_posets(6, connected_only=True):
        name = {x: "v%d" % perm[i] for i, x in enumerate(p.elements)}
        q = Poset.from_relation(tuple(sorted(name.values())),
                                frozenset((name[x], name[y]) for x, y in p.relation))
        assert canonical_key(q) == canonical_key(p)
        assert_replays(p, q, are_isomorphic(p, q))


def test_validation_accepts_exactly_the_partial_orders():
    """Every relation on three labels: accepted iff reflexive, antisymmetric
    and transitive; each rejection names a witness of the axiom it cites."""
    labels = ("a", "b", "c")
    pairs = [(x, y) for x in labels for y in labels]
    accepted = 0
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        reflexive = all((x, x) in rel for x in labels)
        antisymmetric = not any(x != y and (y, x) in rel for x, y in rel)
        transitive = all((x, z) in rel for x, y in rel for y2, z in rel if y2 == y)
        try:
            Poset.from_relation(labels, frozenset(rel))
        except PosetError as err:
            assert not (reflexive and antisymmetric and transitive)
            msg = str(err)
            m = re.fullmatch(r"relation not reflexive at (\w)", msg)
            if m:
                assert (m[1], m[1]) not in rel
                continue
            m = re.fullmatch(r"relation not antisymmetric on \((\w), (\w)\)", msg)
            if m:
                assert m[1] != m[2] and {(m[1], m[2]), (m[2], m[1])} <= rel
                continue
            m = re.fullmatch(r"relation not transitive on \((\w), (\w), (\w)\)", msg)
            assert m, msg
            assert {(m[1], m[2]), (m[2], m[3])} <= rel and (m[1], m[3]) not in rel
        else:
            assert reflexive and antisymmetric and transitive
            accepted += 1
    assert accepted == 19
    with pytest.raises(PosetError, match=r"relation pair \(a, d\) off the element set"):
        Poset.from_relation(labels, frozenset({(x, x) for x in labels} | {("a", "d")}))


def test_enumeration_is_irredundant():
    ps = enumerate_posets(4)
    keys = {canonical_key(p) for p in ps}
    assert len(keys) == len(ps)


def test_hasse_round_trip():
    for p in enumerate_posets(4):
        assert poset_from_covers(p.elements, p.covers()) == p


def test_cycle_reported():
    with pytest.raises(CycleError) as err:
        poset_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert set(err.value.cycle) == {"a", "b", "c"}


def test_isomorphism_witness_is_replayable():
    p = diamond()
    q = poset_from_covers(["w", "x", "y", "z"],
                          [("z", "x"), ("z", "y"), ("x", "w"), ("y", "w")])
    wit = are_isomorphic(p, q)
    assert wit is not None
    for a, b in p.relation:
        assert (wit[a], wit[b]) in q.relation
    assert are_isomorphic(chain(3), antichain(3)) is None


def test_isomorphism_replay_refuses_a_bad_witness_under_O(run_optimized):
    # a canonical labelling that reaches the right bits through a wrong
    # ordering gives a witness that is not an isomorphism; the replay check
    # is a raise, not an assert
    done = run_optimized(
        "from dequiv import posets\n"
        "labelling = posets._canonical_labelling\n"
        "calls = []\n"
        "def reversed_second(*relation):\n"
        "    bits, order = labelling(*relation)\n"
        "    calls.append(relation)\n"
        "    return bits, order[::-1] if len(calls) == 2 else order\n"
        "posets._canonical_labelling = reversed_second\n"
        "posets.are_isomorphic(posets.chain(2, 'c'), posets.chain(2, 'd'))\n")
    assert "RuntimeError: isomorphism witness fails on the pair (c0, c1)" in done.stderr


def test_product_of_chains_is_diamond():
    prod = poset_product(chain(2), chain(2))
    assert are_isomorphic(prod, diamond()) is not None


def test_x333_is_cube():
    cube = poset_product(poset_product(chain(2, "a"), chain(2, "b")), chain(2, "c"))
    assert are_isomorphic(build_Xp(3, 3, 3), cube) is not None


def test_xp_element_counts():
    # |X_p| = p1 + p2 + p3 - 1, matching the canonical vertex count
    for w in [(2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 5)]:
        assert build_Xp(*w).n == sum(w) - 1


def test_xp_has_unique_bottom_and_top():
    p = build_Xp(2, 3, 4)
    bottoms = [x for x in p.elements if all((x, y) in p.relation for y in p.elements)]
    tops = [x for x in p.elements if all((y, x) in p.relation for y in p.elements)]
    assert bottoms == ["0"] and tops == ["w"]


def oracle_build_Xp(p1, p2, p3):
    """Reference X_p: one cover template for each way of having weights
    equal to 2, every cover of the Hasse diagram listed."""
    arms = {i: ["%d,%d" % (i, j) for j in range(1, p)] for i, p in ((1, p1), (2, p2), (3, p3))}
    elems = ["0"] + arms[1] + arms[2] + arms[3] + ["w"]
    covers = [(a, b) for i in (1, 2, 3) for a, b in zip(arms[i], arms[i][1:])]
    if p1 > 2:
        for i in (1, 2, 3):
            covers += [("0", arms[i][0]), (arms[i][-1], "w")]
        covers.append(("1,%d" % (p1 - 2), "3,%d" % (p3 - 1)))
        covers.append(("2,%d" % (p2 - 2), "1,%d" % (p1 - 1)))
        covers.append(("3,%d" % (p3 - 2), "2,%d" % (p2 - 1)))
    elif p2 > 2:
        # arm 1 hangs off the end of arm 2
        covers += [("0", arms[2][0]), ("0", arms[3][0])]
        covers.append(("2,%d" % (p2 - 2), "1,1"))
        covers.append(("3,%d" % (p3 - 2), "2,%d" % (p2 - 1)))
        covers += [(arms[i][-1], "w") for i in (1, 2, 3)]
    elif p3 > 2:
        covers += [("0", "1,1"), ("0", arms[3][0]), ("3,%d" % (p3 - 2), "2,1")]
        covers += [(arms[i][-1], "w") for i in (1, 2, 3)]
    else:
        for i in (1, 2, 3):
            covers += [("0", "%d,1" % i), ("%d,1" % i, "w")]
    return poset_from_covers(elems, covers)


def weight_triples(top):
    return [(p1, p2, p3) for p1 in range(2, top + 1) for p2 in range(p1, top + 1)
            for p3 in range(p2, top + 1)]


def test_xp_matches_the_four_template_oracle():
    triples = weight_triples(8)
    assert len(triples) == 84
    for w in triples:
        got, want = build_Xp(*w), oracle_build_Xp(*w)
        assert (got.elements, got.up_masks) == (want.elements, want.up_masks), w


def test_xp_is_the_canonical_quiver_plus_three_cross_covers():
    # the cone functor names its parts by canonical vertices: X_p has the
    # canonical vertices in their order, and its covers are the canonical
    # arrows plus the cross covers ('1,p1-2', '3,p3-1'), ('2,p2-2', '1,p1-1'),
    # ('3,p3-2', '2,p2-1'); where p1 = 2 some of these are implied by others
    triples = weight_triples(7)
    assert len(triples) == 56
    for p1, p2, p3 in triples:
        xp = build_Xp(p1, p2, p3)
        quiver = canonical_presentation([p1, p2, p3]).quiver
        assert xp.elements == quiver.vertices
        pre = {i: "%d,%d" % (i, p - 2) if p > 2 else "0" for i, p in ((1, p1), (2, p2), (3, p3))}
        cross = {(pre[1], "3,%d" % (p3 - 1)), (pre[2], "1,%d" % (p1 - 1)),
                 (pre[3], "2,%d" % (p2 - 1))}
        template = {(a.source, a.target) for a in quiver.arrows} | cross
        covers = set(xp.covers())
        if p1 >= 3:
            assert covers == template, (p1, p2, p3)
        else:
            assert covers <= template, (p1, p2, p3)


@pytest.mark.parametrize("weights", [(3, 2, 4), (1, 3, 3)], ids=str)
def test_xp_refuses_unordered_or_small_weights(weights):
    with pytest.raises(PosetError, match=r"^weights must satisfy 2 <= p1 <= p2 <= p3, got "
                                         r"\(%d,%d,%d\)$" % weights):
        build_Xp(*weights)


def test_order_complex_of_diamond():
    faces = order_complex(diamond())
    assert len(faces[0]) == 4   # vertices
    assert len(faces[1]) == 5   # edges: 4 covers + bottom-to-top
    assert len(faces[2]) == 2   # triangles through a and b


def test_poset_validation_rejects_partial_relation():
    with pytest.raises(Exception):
        Poset.from_relation(("a", "b"), frozenset({("a", "b")}))  # missing reflexivity


def assert_passes_the_axiom_checks(p):
    """p, built without the axiom checks, passes them with the same masks."""
    assert Poset.from_relation(p.elements, p.relation).up_masks == p.up_masks


def test_unchecked_constructions_are_partial_orders():
    """Enumeration, X_p, the remark families and products trust their masks
    without the checks of `Poset.from_relation`; every poset they build
    passes those checks, and a product has the componentwise order."""
    built = [p for n in range(1, 8) for p in enumerate_posets(n)]
    assert len(built) == 1 + 2 + 5 + 16 + 63 + 318 + 2045
    sweep = [(p1, p2, p3) for p1 in range(2, 6) for p2 in range(p1, 6) for p3 in range(p2, 6)]
    assert len(sweep) == 20
    built += [build_Xp(*w) for w in sweep]
    orientations = 0
    for family, p2, p3 in ((1, 3, 3), (1, 3, 4), (2, 3, 3), (2, 3, 4),
                           (3, 2, 2), (3, 2, 3), (3, 3, 3)):
        free = remark_free_edges(family, p2, p3)
        for mask in range(1 << len(free)):
            try:
                built.append(build_remark_poset(
                    family, p2, p3, [mask >> k & 1 for k in range(len(free))]))
                orientations += 1
            except CycleError:
                pass
    assert orientations == 29
    factors = [(chain(2), chain(2)),
               (poset_product(chain(2, "a"), chain(2, "b")), chain(2, "c")),
               (diamond(), antichain(2)), (build_Xp(2, 2, 3), chain(3)),
               (antichain(0), chain(2))]
    for p, q in factors:
        prod = poset_product(p, q)
        assert prod.relation == {("(%s,%s)" % (a, b), "(%s,%s)" % (c, d))
                                 for a in p.elements for b in q.elements
                                 for c in p.elements for d in q.elements
                                 if p.leq(a, c) and q.leq(b, d)}
        built.append(prod)
    for p in built:
        assert_passes_the_axiom_checks(p)


@st.composite
def random_covers(draw, max_n=7):
    """Shuffled labels and random cover pairs on them: forward pairs in
    label order (acyclic) or any pairs (often cyclic)."""
    n = draw(st.integers(1, max_n))
    labels = draw(st.permutations(["v%d" % i for i in range(n)]))
    forward = draw(st.booleans())
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(n)
             if (i < j if forward else i != j)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    return labels, covers


@settings(max_examples=50, deadline=None)
@given(random_covers())
def test_covers_give_their_closure_or_a_cycle(data):
    """The depth-first search of `poset_from_covers` gives the
    reflexive-transitive closure of the covers, which passes the axiom
    checks, or names a cycle of covers when there is one."""
    labels, covers = data
    closure = {(x, x) for x in labels} | set(covers)
    while True:
        longer = {(x, z) for x, y in closure for y2, z in closure if y == y2}
        if longer <= closure:
            break
        closure |= longer
    if any((y, x) in closure for x, y in covers):
        with pytest.raises(CycleError) as err:
            poset_from_covers(labels, covers)
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1] and set(zip(cycle, cycle[1:])) <= set(covers)
    else:
        p = poset_from_covers(labels, covers)
        assert p.relation == closure
        assert_passes_the_axiom_checks(p)


def test_orders_from_outside_are_refused_with_the_same_texts():
    """Every way an order comes in (pairs, covers, JSON) refuses a bad one
    with a message naming the problem."""
    def refusal(build, *args):
        with pytest.raises(PosetError) as err:
            build(*args)
        return str(err.value)

    loop = {(x, x) for x in "ab"}
    assert refusal(Poset.from_relation, ("a", "a"), loop) == "duplicate element labels"
    assert refusal(poset_from_covers, ["a", "a"], []) == "duplicate element labels"
    assert refusal(Poset.from_json, {"elements": ["a", "a"], "covers": []}) \
        == "duplicate element labels"
    assert refusal(Poset.from_relation, ("a", "b"), loop | {("a", "c")}) \
        == "relation pair (a, c) off the element set"
    assert refusal(poset_from_covers, ["a", "b"], [("a", "c")]) == "cover (a, c) off the element set"
    assert refusal(Poset.from_relation, ("a", "b"), {("a", "a")}) == "relation not reflexive at b"
    assert refusal(Poset.from_relation, ("a", "b"), loop | {("a", "b"), ("b", "a")}) \
        == "relation not antisymmetric on (a, b)"
    assert refusal(Poset.from_relation, ("a", "b", "c"),
                   {(x, x) for x in "abc"} | {("a", "b"), ("b", "c")}) \
        == "relation not transitive on (a, b, c)"
    assert refusal(poset_from_covers, ["a", "b"], [("b", "b")]) \
        == "cover relation contains a cycle: b < b"
    assert refusal(Poset.from_json, {"elements": ["a", "b", "c"],
                                     "covers": [["a", "b"], ["b", "c"], ["c", "b"]]}) \
        == "cover relation contains a cycle: b < c < b"


def pairwise_order_complex(p, elements=None):
    """Reference for `order_complex`: each chain is extended by testing
    `lt` against every element, in name order."""
    elems = sorted(p.elements if elements is None else elements)
    by_dim = [[(x,) for x in elems]]
    while by_dim[-1]:
        nxt = [ch + (x,) for ch in by_dim[-1] for x in elems if p.lt(ch[-1], x)]
        if not nxt:
            break
        by_dim.append(nxt)
    return tuple(tuple(fs) for fs in by_dim)


def test_order_complex_matches_the_pairwise_walk(monkeypatch):
    cases = [(p, None) for n in range(1, 7) for p in enumerate_posets(n, connected_only=False)]
    assert len(cases) == 1 + 2 + 5 + 16 + 63 + 318
    # two posets whose element order is not their name order
    cases += [(diamond(), None), (poset_from_covers(["c", "b", "a"], [("c", "b"), ("b", "a")]), None)]
    # the interval cores whose order complexes give the gldim of X_p for the
    # weight triples 2 <= p1 <= p2 <= p3 <= 5
    original = homology.order_complex

    def recording(p, elements=None):
        cases.append((p, elements))
        return original(p, elements)

    monkeypatch.setattr(homology, "order_complex", recording)
    triples = [(p1, p2, p3) for p1 in range(2, 6) for p2 in range(p1, 6) for p3 in range(p2, 6)]
    assert len(triples) == 20
    for w in triples:
        homology.poset_global_dimension(build_Xp(*w))
    monkeypatch.undo()
    assert len(cases) > 407
    lts = []
    original_lt = Poset.lt

    def counting_lt(self, x, y):
        lts.append((x, y))
        return original_lt(self, x, y)

    monkeypatch.setattr(Poset, "lt", counting_lt)
    complexes = [order_complex(p, elements) for p, elements in cases]
    assert lts == []
    monkeypatch.undo()
    assert complexes == [pairwise_order_complex(p, elements) for p, elements in cases]
