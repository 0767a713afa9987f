"""Finite posets: construction, Hasse diagrams, isomorphism, enumeration
up to isomorphism, the weight-triple poset families, and order
complexes."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class PosetError(ValueError):
    pass


class CycleError(PosetError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cover relation contains a cycle: %s" % " < ".join(self.cycle))


def _members(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Poset:
    """Finite poset, its order stored once as up-set bitmasks: up_masks[i]
    has bit j set when elements[i] <= elements[j].  The constructor trusts
    its masks, as every construction in this module may; an order from
    outside comes in through `from_relation`, `poset_from_covers` or
    `from_json`, which check the partial-order axioms."""

    elements: tuple
    up_masks: tuple

    @staticmethod
    def from_relation(elements: Sequence[str], relation: Iterable[Tuple[str, str]]) -> "Poset":
        """The poset whose order is the set of pairs (x, y), x <= y, once the
        labels are checked distinct and the relation a partial order."""
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise PosetError("duplicate element labels")
        index = {x: i for i, x in enumerate(elems)}
        up = [0] * len(elems)
        for x, y in relation:
            if x not in index or y not in index:
                raise PosetError("relation pair (%s, %s) off the element set" % (x, y))
            up[index[x]] |= 1 << index[y]
        for i, x in enumerate(elems):
            if not up[i] >> i & 1:
                raise PosetError("relation not reflexive at %s" % x)
        for i, x in enumerate(elems):
            for j in _members(up[i] & ~(1 << i)):
                if up[j] >> i & 1:
                    raise PosetError("relation not antisymmetric on (%s, %s)" % (x, elems[j]))
        for i, x in enumerate(elems):
            for j in _members(up[i]):
                missing = up[j] & ~up[i]
                if missing:
                    z = elems[(missing & -missing).bit_length() - 1]
                    raise PosetError("relation not transitive on (%s, %s, %s)" % (x, elems[j], z))
        return Poset(elems, tuple(up))

    # -- queries -----------------------------------------------------------

    @cached_property
    def _index(self) -> Dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @property
    def relation(self) -> frozenset:
        """The pairs (x, y) with x <= y, built from the masks on each call."""
        elems = self.elements
        return frozenset((x, elems[j]) for x, m in zip(elems, self.up_masks)
                         for j in _members(m))

    def leq(self, x, y) -> bool:
        index = self._index
        return self.up_masks[index[x]] >> index[y] & 1 == 1

    def lt(self, x, y) -> bool:
        index = self._index
        return x != y and self.up_masks[index[x]] >> index[y] & 1 == 1

    @property
    def n(self) -> int:
        return len(self.elements)

    def order_pairs(self) -> int:
        return sum(m.bit_count() for m in self.up_masks)

    def covers(self) -> Tuple[Tuple[str, str], ...]:
        """Cover pairs (x, y) with x covered by y: the transitive reduction.
        The upper covers of x are the minimal elements of its strict up-set,
        those above no other element of it."""
        up, elems = self.up_masks, self.elements
        out = []
        for i, m in enumerate(up):
            strict = m & ~(1 << i)
            higher = 0
            for j in _members(strict):
                higher |= up[j] & ~(1 << j)
            out.extend((elems[i], elems[j]) for j in _members(strict & ~higher))
        return tuple(sorted(out))

    # -- io ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "covers": [list(c) for c in self.covers()]}

    @staticmethod
    def from_json(data: dict) -> "Poset":
        """Poset from {"elements": [...], "covers": [[x, y], ...]}, every
        label a string.  A missing key, a value of the wrong JSON type or a
        cover that is not a pair of labels raises PosetError naming it."""
        elements = json_labels(data, "elements", "poset", PosetError)
        covers = []
        for c in json_key(data, "covers", "poset", list, PosetError):
            if not (isinstance(c, list) and len(c) == 2 and all(isinstance(x, str) for x in c)):
                raise PosetError("cover %s is not a pair [lower, upper] of labels" % json.dumps(c))
            covers.append(tuple(c))
        return poset_from_covers(elements, covers)

    @staticmethod
    def load(path) -> "Poset":
        with open(path) as fh:
            return Poset.from_json(json.load(fh))


def json_key(obj, key, where, kind, error):
    """obj[key] of an object read from JSON, of type kind (list, str, or
    object for any); else error naming where, the key and the value."""
    if not isinstance(obj, dict) or key not in obj:
        raise error("%s is missing key %r" % (where, key))
    value = obj[key]
    if not isinstance(value, kind):
        raise error("%s key %r is %s, not a %s"
                    % (where, key, json.dumps(value), "list" if kind is list else "string"))
    return value


def json_labels(obj, key, where, error) -> tuple:
    """obj[key], which must be a JSON list of strings, as a tuple; anything
    else raises error naming where, the key and the value."""
    values = json_key(obj, key, where, list, error)
    for x in values:
        if not isinstance(x, str):
            raise error("%s key %r holds %s, not a string" % (where, key, json.dumps(x)))
    return tuple(values)


def poset_from_covers(elements: Sequence[str], covers: Iterable[Tuple[str, str]]) -> Poset:
    """Build a poset as the reflexive-transitive closure of cover pairs.

    One depth-first search rejects a directed cycle among the covers with
    the offending cycle, and sets each element's up-set mask when its
    visit finishes, from those of its upper covers.
    """
    elements = tuple(elements)
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise PosetError("duplicate element labels")
    succ: Dict[str, List[str]] = {x: [] for x in elements}
    for x, y in covers:
        if x not in index or y not in index:
            raise PosetError("cover (%s, %s) off the element set" % (x, y))
        if x == y:
            raise CycleError([x, x])
        succ[x].append(y)
    up: Dict[str, int] = {}  # set when a visit finishes
    stack_path: List[str] = []

    def visit(v):
        stack_path.append(v)
        mask = 1 << index[v]
        for w in succ[v]:
            if w in stack_path:
                raise CycleError(stack_path[stack_path.index(w):] + [w])
            if w not in up:
                visit(w)
            mask |= up[w]
        stack_path.pop()
        up[v] = mask

    for v in elements:
        if v not in up:
            visit(v)
    return Poset(elements, tuple(up[x] for x in elements))


def chain(n: int, prefix: str = "c") -> Poset:
    elems = ["%s%d" % (prefix, i) for i in range(n)]
    return poset_from_covers(elems, [(elems[i], elems[i + 1]) for i in range(n - 1)])


def antichain(n: int, prefix: str = "a") -> Poset:
    elems = ["%s%d" % (prefix, i) for i in range(n)]
    return poset_from_covers(elems, [])


def diamond() -> Poset:
    return poset_from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def zeta_rows(p: Poset) -> List[List[int]]:
    """The zeta matrix of p as integer rows, 1 at (x, y) when x <= y, with
    the elements in a linear extension (largest up-set first), so that it
    is upper unitriangular.  It is the Cartan matrix of the incidence
    algebra of p, up to the order of the vertices."""
    up = p.up_masks
    order = sorted(range(p.n), key=lambda i: -up[i].bit_count())
    return [[up[i] >> j & 1 for j in order] for i in order]


# -- isomorphism ------------------------------------------------------------

def _arrangements(classes: Sequence[Sequence[int]]) -> List[List[int]]:
    """The orderings of the union of `classes` up to the order inside each
    class: one per distinct sequence of class labels, each class's members
    placed in their given order.  Lists the label sequences from the sorted
    one upwards by the next-permutation step, so a class of k members costs
    no k! factor."""
    if len(classes) == 1:
        return [list(classes[0])]
    labels = [k for k, c in enumerate(classes) for _ in c]
    last = len(labels) - 1
    out = []
    while True:
        taken = [iter(c) for c in classes]
        out.append([next(taken[k]) for k in labels])
        a = last - 1
        while a >= 0 and labels[a] >= labels[a + 1]:
            a -= 1
        if a < 0:
            return out
        b = last
        while labels[b] <= labels[a]:
            b -= 1
        labels[a], labels[b] = labels[b], labels[a]
        labels[a + 1:] = labels[:a:-1]


def _canonical_labelling(up: Sequence[int], down: Sequence[int],
                         pairs: Sequence[Tuple[int, int]],
                         sizes: Sequence[Tuple[int, int]]) -> Tuple[int, List[int]]:
    """The least strict-relation bitmask of a poset over the orderings
    allowed by its refined colouring, and an ordering of element indices
    reaching it.  The poset is given by its up-set masks up (as in
    `Poset.up_masks`) and, as `_relation` reads them off up, its down-set
    masks, its strict pairs (i, j), element i below element j, and
    sizes[i], the numbers of elements strictly below and strictly above i.

    Colours start as the ranks of sizes and are refined by re-ranking the
    signatures (colour, sorted colours below, sorted colours above) until
    no class splits or every class is a single element; the ranks depend
    only on the order, so colours are invariant.  Orderings list the colour
    cells in colour order, each cell arranged in every way that can change
    the bitmask: twins (elements with the same strict down-set and the same
    strict up-set, hence incomparable and of one colour) are swapped by an
    automorphism, so only the sequence of twin classes in a cell is varied.
    An ordering sends the element at position a to the row a, so x < y
    sets bit pos(x) * n + pos(y).  Isomorphic posets reach the same least
    bitmask, and equal bitmasks give an isomorphism.

    Three cases need less work and give the same result.  Twins have the
    same neighbours, so a round cannot split a cell that is one twin
    class: refinement stops once every cell is one, and the twin classes
    are only found when the first colouring is not discrete; the lists of
    elements above and below each element are only built for a round.
    When every class is a single element, the position of an element is
    its colour.  When every cell is one twin class, the one ordering lists
    the cells in colour order, each cell's members in index order.
    """
    n = len(up)
    rank = {s: r for r, s in enumerate(sorted(set(sizes)))}
    colour = [rank[s] for s in sizes]
    count = len(rank)
    if count < n:
        # twin classes in the order of their lowest member
        twins: Dict[tuple, List[int]] = {}
        for i in range(n):
            twins.setdefault((down[i] ^ 1 << i, up[i] ^ 1 << i), []).append(i)
        if count < len(twins):
            above: List[List[int]] = [[] for _ in range(n)]
            below: List[List[int]] = [[] for _ in range(n)]
            for i, j in pairs:
                above[i].append(j)
                below[j].append(i)
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
                     for parts in itertools.product(*(_arrangements(c) for c in cells)))
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


def _relation(up: Sequence[int]) -> tuple:
    """What `_canonical_labelling` reads of the poset with up-set masks up
    besides up: the down-set masks, the strict pairs (i, j), element i below
    element j, and the numbers of elements strictly below and strictly above
    each element."""
    down = _down_masks(up)
    pairs = [(i, j) for i, m in enumerate(up) for j in _members(m ^ 1 << i)]
    sizes = [(d.bit_count() - 1, u.bit_count() - 1) for d, u in zip(down, up)]
    return down, pairs, sizes


def are_isomorphic(p: Poset, q: Poset) -> Optional[dict]:
    """An order-isomorphism p -> q as a dict, or None.

    Both canonical orderings are composed; the witness is verified by
    replay before being returned.
    """
    if p.n != q.n or p.order_pairs() != q.order_pairs():
        return None
    bits_p, order_p = _canonical_labelling(p.up_masks, *_relation(p.up_masks))
    bits_q, order_q = _canonical_labelling(q.up_masks, *_relation(q.up_masks))
    if bits_p != bits_q:
        return None
    assign = {p.elements[i]: q.elements[j] for i, j in zip(order_p, order_q)}
    # replay check
    for x in p.elements:
        for y in p.elements:
            if p.leq(x, y) != q.leq(assign[x], assign[y]):
                raise RuntimeError("isomorphism witness fails on the pair (%s, %s)" % (x, y))
    return assign


def canonical_key(p: Poset):
    """A canonical form (n, bits): hashable, equal iff posets are isomorphic."""
    return (p.n, _canonical_labelling(p.up_masks, *_relation(p.up_masks))[0])


# -- enumeration ------------------------------------------------------------

def _down_masks(up: Sequence[int]) -> List[int]:
    """The down-set masks of the poset with up-set masks up."""
    down = [0] * len(up)
    for i, m in enumerate(up):
        for j in _members(m):
            down[j] |= 1 << i
    return down


def _order_ideals(down: Sequence[int]) -> List[int]:
    """All down-closed subsets of the poset with down-set masks down, as
    bitmasks over element indices, in increasing mask order.

    The elements are taken in a linear extension (smallest down-set
    first); each ideal of those taken so far that holds everything strictly
    below the next element gives one more ideal with that element added."""
    ideals = [0]
    for i in sorted(range(len(down)), key=lambda i: down[i].bit_count()):
        below = down[i] & ~(1 << i)
        ideals += [m | 1 << i for m in ideals if m & below == below]
    ideals.sort()
    return ideals


def _components(up: Sequence[int], down: Sequence[int]) -> List[int]:
    """The connected components of the poset with up-set masks up and
    down-set masks down, as masks, in the order of their lowest element."""
    comps = []
    left = (1 << len(up)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for i in _members(frontier):
                reach |= up[i] | down[i]
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def enumerate_posets(n: int, connected_only: bool = False) -> List[Poset]:
    """All posets on n elements up to isomorphism (labels '0'..'n-1').

    Built by adding a new maximal element over every order ideal of each
    smaller poset, deduplicated by canonical form.  Each level is kept as
    the up-set masks of the first candidate of each class, sorted by
    canonical key, and a `Poset` is built only for the classes of the last
    level.  The relation that the labelling reads (`_relation`) is read off
    each parent once; a candidate's is the parent's with the new element
    added: its down-set is the ideal and itself, it lies above each member
    of the ideal, and each of those has one more element above it.  Three
    kinds of candidate are dropped before they are canonicalised, none of
    which changes the listing:

    - another maximal element has a strictly larger down-set than the new
      one: every poset still arises by adding a maximal element of largest
      down-set to the rest;
    - the ideal holds some members of a twin class (elements of the parent
      with the same strict down-set and strict up-set) but not the
      lowest-index ones: swapping twins is an automorphism of the parent,
      so the candidates of ideals that differ only by such swaps are
      isomorphic, and the kept one, whose members in each twin class are
      the lowest-index ones, has the smallest mask of them and is the
      first one the ideal order reaches.  These ideals are the order ideals
      of the parent with each twin class made a chain by index;
    - with connected_only, on the last level, the ideal misses a component
      of the parent, so the candidate is disconnected and would not be
      listed.
    """
    if not 1 <= n <= 8:
        raise PosetError("enumeration supported for 1 <= n <= 8, got %d" % n)
    level = [(1,)]
    for size in range(2, n + 1):
        new_bit = 1 << (size - 1)
        last_connected = connected_only and size == n
        seen = {}
        for up in level:
            down, pairs, sizes = _relation(up)
            # the down-sets with each twin class made a chain by index
            chained, lower = [], {}
            for i, (u, d) in enumerate(zip(up, down)):
                twin = (u ^ 1 << i, d ^ 1 << i)
                prefix = lower.get(twin, 0)
                chained.append(d | prefix)
                lower[twin] = prefix | 1 << i
            # big[k]: the maximal elements with more than k elements below
            big = [0] * (size + 1)
            for i, m in enumerate(up):
                if m == 1 << i:
                    for k in range(down[i].bit_count()):
                        big[k] |= m
            comps = _components(up, down) if last_connected else ()
            for ideal in _order_ideals(chained):
                if big[ideal.bit_count() + 1] & ~ideal:
                    continue
                if last_connected and not all(ideal & c for c in comps):
                    continue
                # the parent's relation, extended by the new element over ideal
                masks, grown = list(up), list(sizes)
                below = list(_members(ideal))
                for i in below:
                    masks[i] |= new_bit
                    d, u = grown[i]
                    grown[i] = (d, u + 1)
                masks.append(new_bit)
                grown.append((len(below), 0))
                masks = tuple(masks)
                bits = _canonical_labelling(masks, down + [ideal | new_bit],
                                            pairs + [(i, size - 1) for i in below], grown)[0]
                seen.setdefault(bits, masks)
        level = [masks for _, masks in sorted(seen.items())]
    elements = tuple(str(i) for i in range(n))
    return [Poset(elements, up) for up in level]


# -- the weight-triple families ---------------------------------------------

def _xp_arms(p1: int, p2: int, p3: int):
    """The arms of X_p for a weight triple 2 <= p1 <= p2 <= p3, as dicts
    keyed by i = 1, 2, 3: arm i is 'i,1', ..., 'i,p_i-1'; its end e_i is
    'i,p_i-1' and its pre-end f_i is 'i,p_i-2', or '0' when p_i = 2; the
    cross cover of arm i is (f_i, e_i') with i' = 3, 1, 2 for i = 1, 2, 3.
    Returns (arms, ends, pre-ends, cross covers)."""
    if not (2 <= p1 <= p2 <= p3):
        raise PosetError("weights must satisfy 2 <= p1 <= p2 <= p3, got (%d,%d,%d)" % (p1, p2, p3))
    arms = {i: ["%d,%d" % (i, j) for j in range(1, p)] for i, p in ((1, p1), (2, p2), (3, p3))}
    end = {i: arm[-1] for i, arm in arms.items()}
    pre = {i: arm[-2] if len(arm) > 1 else "0" for i, arm in arms.items()}
    cross = {i: (pre[i], end[j]) for i, j in ((1, 3), (2, 1), (3, 2))}
    return arms, end, pre, cross


def build_Xp(p1: int, p2: int, p3: int) -> Poset:
    """The poset attached to a weight triple 2 <= p1 <= p2 <= p3.

    Elements are '0', 'i,j' and 'w'; there are p1+p2+p3-1 of them.  The
    covers are the chains '0' < 'i,1' < ... < 'i,p_i-1' < 'w' and the
    three cross covers of `_xp_arms`.  Where a weight is 2 some of them are
    implied by the others and are not covers of the closure.
    """
    arms, _, _, cross = _xp_arms(p1, p2, p3)
    covers = list(cross.values())
    for arm in arms.values():
        path = ["0"] + arm + ["w"]
        covers += zip(path, path[1:])
    return poset_from_covers(["0"] + arms[1] + arms[2] + arms[3] + ["w"], covers)


def remark_free_edges(family: int, p2: int, p3: int):
    """The undirected edges of a remark-family diagram, in a fixed order."""
    _check_remark_weights(family, p2, p3)
    if family == 1:
        edges = [("L%d" % i, "L%d" % (i + 1)) for i in range(1, p2 - 2)]
        edges += [("R%d" % i, "R%d" % (i + 1)) for i in range(1, p3 - 2)]
        edges += [("MC", "B")]
    elif family == 2:
        edges = [("A1", "A2"), ("U%d" % (p2 - 2), "UT"), ("D%d" % (p3 - 2), "DT")]
    else:
        edges = [("L%d" % i, "L%d" % (i + 1)) for i in range(1, p2 - 1)]
        edges += [("R%d" % i, "R%d" % (i + 1)) for i in range(1, p3 - 1)]
    return edges


def _check_remark_weights(family, p2, p3):
    if family not in (1, 2, 3):
        raise PosetError("remark family must be 1, 2 or 3")
    lo = 3 if family in (1, 2) else 2
    if p2 < lo or p3 < lo:
        raise PosetError("family %d requires p2, p3 >= %d" % (family, lo))


def build_remark_poset(family: int, p2: int, p3: int, orientation: Sequence[int]) -> Poset:
    """One of the three families of posets derived equivalent to the
    (2, p2, p3) canonical algebra, with a chosen orientation of the
    undirected edges (0: left-to-right as listed, 1: reversed)."""
    free = remark_free_edges(family, p2, p3)
    if len(orientation) != len(free):
        raise PosetError("orientation must assign all %d free edges" % len(free))
    if family == 1:
        elems = (["L%d" % i for i in range(1, p2 - 1)] + ["R%d" % i for i in range(1, p3 - 1)]
                 + ["T", "ML", "MC", "MR", "B"])
        covers = [("L%d" % (p2 - 2), "T"), ("L%d" % (p2 - 2), "ML"),
                  ("R%d" % (p3 - 2), "T"), ("R%d" % (p3 - 2), "MR"),
                  ("T", "MC"), ("ML", "MC"), ("MR", "MC")]
    elif family == 2:
        elems = (["A1", "A2"] + ["U%d" % i for i in range(1, p2 - 1)] + ["UT"]
                 + ["D%d" % i for i in range(1, p3 - 1)] + ["DT", "M"])
        covers = [("A2", "U1"), ("A2", "D1"),
                  ("U%d" % (p2 - 2), "M"), ("D%d" % (p3 - 2), "M")]
        covers += [("U%d" % i, "U%d" % (i + 1)) for i in range(1, p2 - 2)]
        covers += [("D%d" % i, "D%d" % (i + 1)) for i in range(1, p3 - 2)]
    else:
        elems = (["T", "C", "B"] + ["L%d" % i for i in range(1, p2)]
                 + ["R%d" % i for i in range(1, p3)])
        covers = [("T", "L%d" % (p2 - 1)), ("T", "C"), ("T", "R%d" % (p3 - 1)),
                  ("L%d" % (p2 - 1), "B"), ("C", "B"), ("R%d" % (p3 - 1), "B")]
    for (a, b), o in zip(free, orientation):
        covers.append((a, b) if o == 0 else (b, a))
    return poset_from_covers(elems, covers)


# -- order complex ----------------------------------------------------------

def order_complex(p: Poset, elements: Optional[Iterable[str]] = None) -> tuple:
    """Faces of the order complex of the poset, or of its subposet on
    `elements`: entry d lists the strict (d+1)-chains, closed under
    subchains by construction.  Chains list their elements upward, and each
    dimension lists its chains in name order: the successors of each
    element are read once off its up-set mask, sorted by name."""
    elems = sorted(p.elements if elements is None else elements)
    index = p._index
    within = {index[x]: x for x in elems}
    succ = {x: sorted(within[j] for j in _members(p.up_masks[index[x]] & ~(1 << index[x]))
                      if j in within)
            for x in elems}
    by_dim: List[List[tuple]] = [[(x,) for x in elems]]
    while True:
        nxt = [ch + (x,) for ch in by_dim[-1] for x in succ[ch[-1]]]
        if not nxt:
            break
        by_dim.append(nxt)
    return tuple(tuple(fs) for fs in by_dim)
