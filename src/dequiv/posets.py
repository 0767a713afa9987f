"""Finite posets: construction, Hasse diagrams, products, isomorphism,
enumeration up to isomorphism, the weight-triple poset families, and
order complexes."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class PosetError(ValueError):
    pass


class CycleError(PosetError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cover relation contains a cycle: %s" % " < ".join(self.cycle))


@dataclass(frozen=True)
class Poset:
    """Finite poset; the full order relation (reflexive-transitive closure)
    is stored as a frozenset of (x, y) pairs with x <= y."""

    elements: tuple
    relation: frozenset

    def __post_init__(self):
        elems = self.elements
        if len(set(elems)) != len(elems):
            raise PosetError("duplicate element labels")
        es = set(elems)
        for x, y in self.relation:
            if x not in es or y not in es:
                raise PosetError("relation pair (%s, %s) off the element set" % (x, y))
        for x in elems:
            if (x, x) not in self.relation:
                raise PosetError("relation not reflexive at %s" % x)
        for x, y in self.relation:
            if x != y and (y, x) in self.relation:
                raise PosetError("relation not antisymmetric on (%s, %s)" % (x, y))
        for x, y in self.relation:
            for z in elems:
                if (y, z) in self.relation and (x, z) not in self.relation:
                    raise PosetError("relation not transitive on (%s, %s, %s)" % (x, y, z))

    # -- queries -----------------------------------------------------------

    def leq(self, x, y) -> bool:
        return (x, y) in self.relation

    def lt(self, x, y) -> bool:
        return x != y and (x, y) in self.relation

    @property
    def n(self) -> int:
        return len(self.elements)

    def order_pairs(self) -> int:
        return len(self.relation)

    def down_set(self, x):
        return [y for y in self.elements if self.leq(y, x)]

    def up_set(self, x):
        return [y for y in self.elements if self.leq(x, y)]

    def covers(self) -> Tuple[Tuple[str, str], ...]:
        """Cover pairs (x, y) with x covered by y: the transitive reduction."""
        out = []
        for x, y in self.relation:
            if x == y:
                continue
            if any(self.lt(x, z) and self.lt(z, y) for z in self.elements):
                continue
            out.append((x, y))
        return tuple(sorted(out))

    def is_connected(self) -> bool:
        if not self.elements:
            return True
        adj: Dict[str, set] = {x: set() for x in self.elements}
        for x, y in self.relation:
            if x != y:
                adj[x].add(y)
                adj[y].add(x)
        seen = {self.elements[0]}
        stack = [self.elements[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.elements)

    # -- io ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "covers": [list(c) for c in self.covers()]}

    @staticmethod
    def from_json(data: dict) -> "Poset":
        """Poset from {"elements": [...], "covers": [[x, y], ...]}.  A missing
        key or a cover that is not a pair raises PosetError naming it."""
        for key in ("elements", "covers"):
            if not isinstance(data, dict) or key not in data:
                raise PosetError("poset is missing key %r" % key)
        covers = []
        for c in data["covers"]:
            if not isinstance(c, (list, tuple)) or len(c) != 2:
                raise PosetError("cover %s is not a pair [lower, upper]" % json.dumps(c))
            covers.append(tuple(c))
        return poset_from_covers(data["elements"], covers)

    @staticmethod
    def load(path) -> "Poset":
        with open(path) as fh:
            return Poset.from_json(json.load(fh))


def poset_from_covers(elements: Sequence[str], covers: Iterable[Tuple[str, str]]) -> Poset:
    """Build a poset as the reflexive-transitive closure of cover pairs.

    A directed cycle among the covers is rejected with the offending cycle.
    """
    elements = tuple(elements)
    es = set(elements)
    if len(es) != len(elements):
        raise PosetError("duplicate element labels")
    covers = list(covers)
    for x, y in covers:
        if x not in es or y not in es:
            raise PosetError("cover (%s, %s) off the element set" % (x, y))
        if x == y:
            raise CycleError([x, x])
    succ: Dict[str, List[str]] = {x: [] for x in elements}
    for x, y in covers:
        succ[x].append(y)
    # cycle detection with explicit cycle extraction
    color = {x: 0 for x in elements}
    stack_path: List[str] = []

    def visit(v):
        color[v] = 1
        stack_path.append(v)
        for w in succ[v]:
            if color[w] == 1:
                i = stack_path.index(w)
                raise CycleError(stack_path[i:] + [w])
            if color[w] == 0:
                visit(w)
        stack_path.pop()
        color[v] = 2

    for v in elements:
        if color[v] == 0:
            visit(v)
    rel = set((x, x) for x in elements)
    # closure by DFS reachability
    for x in elements:
        seen = set()
        stack = list(succ[x])
        while stack:
            y = stack.pop()
            if y in seen:
                continue
            seen.add(y)
            stack.extend(succ[y])
        for y in seen:
            rel.add((x, y))
    return Poset(elements, frozenset(rel))


def hasse(p: Poset) -> Tuple[Tuple[str, str], ...]:
    """Transitive reduction of the order, as sorted cover pairs."""
    return p.covers()


def poset_product(p: Poset, q: Poset) -> Poset:
    """Componentwise order on label pairs '(a,b)'."""
    elems = tuple("(%s,%s)" % (a, b) for a in p.elements for b in q.elements)
    rel = set()
    for a in p.elements:
        for b in q.elements:
            for c in p.elements:
                for d in q.elements:
                    if p.leq(a, c) and q.leq(b, d):
                        rel.add(("(%s,%s)" % (a, b), "(%s,%s)" % (c, d)))
    return Poset(elems, frozenset(rel))


def chain(n: int, prefix: str = "c") -> Poset:
    elems = ["%s%d" % (prefix, i) for i in range(n)]
    return poset_from_covers(elems, [(elems[i], elems[i + 1]) for i in range(n - 1)])


def antichain(n: int, prefix: str = "a") -> Poset:
    elems = ["%s%d" % (prefix, i) for i in range(n)]
    return poset_from_covers(elems, [])


def diamond() -> Poset:
    return poset_from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


# -- isomorphism ------------------------------------------------------------

def _profiles(p: Poset):
    """Iterated neighbourhood-refinement invariant per element."""
    prof = {x: (len(p.down_set(x)), len(p.up_set(x))) for x in p.elements}
    for _ in range(p.n):
        nxt = {}
        for x in p.elements:
            below = sorted(prof[y] for y in p.elements if p.lt(y, x))
            above = sorted(prof[y] for y in p.elements if p.lt(x, y))
            nxt[x] = (prof[x], tuple(below), tuple(above))
        if len(set(nxt.values())) == len(set(prof.values())):
            prof = nxt
            break
        prof = nxt
    return prof


def are_isomorphic(p: Poset, q: Poset) -> Optional[dict]:
    """An order-isomorphism p -> q as a dict, or None.

    The witness is verified by replay before being returned.
    """
    if p.n != q.n or p.order_pairs() != q.order_pairs():
        return None
    pp, pq = _profiles(p), _profiles(q)
    if sorted(pp.values()) != sorted(pq.values()):
        return None
    bucket: Dict[object, List[str]] = {}
    for y in q.elements:
        bucket.setdefault(pq[y], []).append(y)
    order = sorted(p.elements, key=lambda x: (len(bucket.get(pp[x], [])), str(x)))

    assign: Dict[str, str] = {}
    used = set()

    def extend(i):
        if i == len(order):
            return True
        x = order[i]
        for y in bucket.get(pp[x], []):
            if y in used:
                continue
            ok = True
            for x2, y2 in assign.items():
                if p.leq(x, x2) != q.leq(y, y2) or p.leq(x2, x) != q.leq(y2, y):
                    ok = False
                    break
            if ok:
                assign[x] = y
                used.add(y)
                if extend(i + 1):
                    return True
                del assign[x]
                used.remove(y)
        return False

    if not extend(0):
        return None
    # replay check
    for x in p.elements:
        for y in p.elements:
            assert p.leq(x, y) == q.leq(assign[x], assign[y])
    return dict(assign)


def canonical_key(p: Poset):
    """A canonical form: hashable, equal iff posets are isomorphic."""
    prof = _profiles(p)
    keys = sorted(set(prof.values()), key=repr)
    keyidx = {k: i for i, k in enumerate(keys)}
    cells: List[List[str]] = [[] for _ in keys]
    for x in p.elements:
        cells[keyidx[prof[x]]].append(x)
    best = None
    idx_of = {}
    for perm_parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = [x for part in perm_parts for x in part]
        for i, x in enumerate(order):
            idx_of[x] = i
        bits = 0
        for x, y in p.relation:
            if x != y:
                bits |= 1 << (idx_of[x] * p.n + idx_of[y])
        if best is None or bits < best:
            best = bits
    return (p.n, tuple(keyidx[prof[x]] for x in sorted(p.elements, key=lambda e: keyidx[prof[e]])), best)


# -- enumeration ------------------------------------------------------------

def _order_ideals(p: Poset):
    """All down-closed subsets, as frozensets."""
    out = []
    elems = list(p.elements)
    for mask in range(1 << len(elems)):
        s = {elems[i] for i in range(len(elems)) if mask >> i & 1}
        if all(set(p.down_set(x)) <= s for x in s):
            out.append(frozenset(s))
    return out


def enumerate_posets(n: int, connected_only: bool = False) -> List[Poset]:
    """All posets on n elements up to isomorphism (labels '0'..'n-1').

    Built by adding a new maximal element over every order ideal of each
    smaller poset, deduplicated by canonical form.
    """
    if not 1 <= n <= 7:
        raise PosetError("enumeration supported for 1 <= n <= 7, got %d" % n)
    level = [poset_from_covers(["0"], [])]
    for size in range(2, n + 1):
        new_label = str(size - 1)
        seen = {}
        for p in level:
            for ideal in _order_ideals(p):
                elems = p.elements + (new_label,)
                rel = set(p.relation)
                rel.add((new_label, new_label))
                for x in ideal:
                    rel.add((x, new_label))
                cand = Poset(elems, frozenset(rel))
                key = canonical_key(cand)
                if key not in seen:
                    seen[key] = cand
        level = [seen[k] for k in sorted(seen, key=repr)]
    if connected_only:
        level = [p for p in level if p.is_connected()]
    return level


# -- the weight-triple families ---------------------------------------------

def _arm_labels(i: int, length: int):
    return ["%d,%d" % (i, j) for j in range(1, length + 1)]


def build_Xp(p1: int, p2: int, p3: int) -> Poset:
    """The poset attached to a weight triple 2 <= p1 <= p2 <= p3.

    Elements are '0', 'i,j' and 'w'; there are p1+p2+p3-1 of them.  The
    cover template depends on which weights equal 2.
    """
    if not (2 <= p1 <= p2 <= p3):
        raise PosetError("weights must satisfy 2 <= p1 <= p2 <= p3, got (%d,%d,%d)" % (p1, p2, p3))
    arms = {i: _arm_labels(i, p) for i, p in ((1, p1 - 1), (2, p2 - 1), (3, p3 - 1))}
    elems = ["0"] + arms[1] + arms[2] + arms[3] + ["w"]
    covers = []
    for i in (1, 2, 3):
        for a, b in zip(arms[i], arms[i][1:]):
            covers.append((a, b))
    if p1 > 2:
        # all three arms full; cross covers tie consecutive arms together
        for i in (1, 2, 3):
            covers.append(("0", arms[i][0]))
            covers.append((arms[i][-1], "w"))
        covers.append(("1,%d" % (p1 - 2), "3,%d" % (p3 - 1)))
        covers.append(("2,%d" % (p2 - 2), "1,%d" % (p1 - 1)))
        covers.append(("3,%d" % (p3 - 2), "2,%d" % (p2 - 1)))
    elif p2 > 2:
        # p1 = 2 < p2 <= p3: arm 1 hangs off the end of arm 2
        covers.append(("0", arms[2][0]))
        covers.append(("0", arms[3][0]))
        covers.append(("2,%d" % (p2 - 2), "1,1"))
        covers.append(("3,%d" % (p3 - 2), "2,%d" % (p2 - 1)))
        for i in (1, 2, 3):
            covers.append((arms[i][-1], "w"))
    elif p3 > 2:
        # p1 = p2 = 2 < p3
        covers.append(("0", "1,1"))
        covers.append(("0", arms[3][0]))
        covers.append(("3,%d" % (p3 - 2), "2,1"))
        for i in (1, 2, 3):
            covers.append((arms[i][-1], "w"))
    else:
        for i in (1, 2, 3):
            covers.append(("0", "%d,1" % i))
            covers.append(("%d,1" % i, "w"))
    return poset_from_covers(elems, covers)


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

@dataclass(frozen=True)
class OrderComplex:
    """Faces of the order complex: faces[d] lists the strict (d+1)-chains."""

    faces: tuple  # tuple over dimensions of tuples of chains

    @property
    def dims(self):
        return tuple(len(fs) for fs in self.faces)


def order_complex(p: Poset, elements: Optional[Iterable[str]] = None) -> OrderComplex:
    """Strict chains of the poset, or of its subposet on `elements`, closed
    under subchains by construction."""
    elems = sorted(p.elements if elements is None else elements)
    by_dim: List[List[tuple]] = [[(x,) for x in elems]]
    while by_dim[-1]:
        nxt = []
        for ch in by_dim[-1]:
            for x in elems:
                if p.lt(ch[-1], x):
                    nxt.append(ch + (x,))
        if not nxt:
            break
        by_dim.append(nxt)
    return OrderComplex(tuple(tuple(fs) for fs in by_dim))
