"""Quivers, paths and relation sets; canonical-algebra and incidence-algebra
presentations; BGP reflections; the gentle predicate and path uniqueness."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from .exactla import QQ
from .posets import Poset, json_key, json_labels, poset_from_covers


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic quiver; parallel arrows allowed, oriented cycles not."""

    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise QuiverError("duplicate vertex labels: %r" % _repeated(self.vertices))
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names: %r" % _repeated(names))
        for a in self.arrows:
            for v in (a.source, a.target):
                if v not in vs:
                    raise QuiverError("arrow %s has endpoint off the vertex set: %r"
                                      % (a.name, v))
        self.topological_order  # raises on an oriented cycle

    @cached_property
    def _index(self):
        """Arrows by name, and the arrows out of and into each vertex in
        arrow order; built once."""
        return ({a.name: a for a in self.arrows},
                {v: tuple(a for a in self.arrows if a.source == v) for v in self.vertices},
                {v: tuple(a for a in self.arrows if a.target == v) for v in self.vertices})

    def arrow(self, name: str) -> Arrow:
        return self._index[0][name]

    def arrows_from(self, v):
        return self._index[1].get(v, ())

    def arrows_into(self, v):
        return self._index[2].get(v, ())

    def is_source(self, v) -> bool:
        return not self.arrows_into(v)

    def is_sink(self, v) -> bool:
        return not self.arrows_from(v)

    @cached_property
    def topological_order(self) -> Tuple[str, ...]:
        """The vertices, each after every vertex with an arrow into it,
        ready vertices taken by name; built once."""
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        ready = sorted(v for v in self.vertices if indeg[v] == 0)
        out = []
        while ready:
            v = ready.pop(0)
            out.append(v)
            for a in self.arrows_from(v):
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    ready.append(a.target)
            ready.sort()
        if len(out) != len(self.vertices):
            raise QuiverError("quiver has an oriented cycle")
        return tuple(out)

    @cached_property
    def _path_table(self) -> Dict[str, Dict[str, Tuple[Tuple[str, ...], ...]]]:
        """Every path out of each vertex, by target, sorted by length then
        arrow names; built once, from the sinks back: a path out of u is ()
        or an arrow out of u followed by a path out of the arrow's target."""
        table = {}
        for u in reversed(self.topological_order):
            by_target = {u: [()]}
            for a in self.arrows_from(u):
                for v, ps in table[a.target].items():
                    by_target.setdefault(v, []).extend((a.name,) + p for p in ps)
            table[u] = {v: tuple(sorted(ps, key=lambda p: (len(p), p)))
                        for v, ps in by_target.items()}
        return table

    def paths(self, u, v) -> Tuple[Tuple[str, ...], ...]:
        """All directed paths u -> v as arrow-name tuples (the empty tuple is
        the trivial path, at u == v only), sorted by length then arrow
        names."""
        return self._path_table[u].get(v, ())

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"id": a.name, "from": a.source, "to": a.target} for a in self.arrows],
        }


@dataclass(frozen=True)
class Relation:
    """Linear combination of parallel paths, all with a common source/target."""

    terms: tuple  # ((coeff, arrow-name tuple), ...)

    def endpoints(self, q: Quiver):
        """The common (source, target) of the terms' paths; a path that is
        not composable or terms that are not parallel raise QuiverError."""
        ends = set()
        for _, path in self.terms:
            arrows = [q.arrow(name) for name in path]
            for a, b in zip(arrows, arrows[1:]):
                if a.target != b.source:
                    raise QuiverError("path %s not composable at %s" % (path, a.target))
            ends.add((arrows[0].source, arrows[-1].target))
        if len(ends) != 1:
            raise QuiverError("relation terms are not parallel")
        return ends.pop()


@dataclass(frozen=True)
class Presentation:
    quiver: Quiver
    relations: tuple
    field: object = QQ

    def __post_init__(self):
        for rel in self.relations:
            for _, path in rel.terms:
                if len(path) < 2:
                    raise QuiverError(
                        "relation %s is not admissible: its term %s has %d arrow(s), "
                        "and every path in a relation needs at least 2"
                        % (_relation_text(rel, self.field), _path_text(path), len(path)))
            rel.endpoints(self.quiver)
            paths = [p for _, p in rel.terms]
            if len(set(paths)) != len(paths):
                raise QuiverError("relation repeats a path: %s in %s" % (
                    _path_text(_repeated(paths)), _relation_text(rel, self.field)))
            if not any(not self.field.is_zero(c) for c, _ in rel.terms):
                raise QuiverError("relation with all-zero coefficients: %s"
                                  % _relation_text(rel, self.field))

    def to_json(self) -> dict:
        data = self.quiver.to_json()
        data["relations"] = [{"terms": [{"coeff": self.field.to_str(c), "path": list(p)}
                                        for c, p in rel.terms]} for rel in self.relations]
        return data

    @staticmethod
    def from_json(data: dict, field=QQ) -> "Presentation":
        """Presentation from quiver JSON, every vertex label, arrow id and
        endpoint and path entry a string.  A missing key, a value of the wrong
        JSON type, an unknown arrow, a term with an empty path, a coefficient
        that is neither a string nor an integer or is outside the field, or a
        relation with no terms raises QuiverError."""
        vertices = json_labels(data, "vertices", "quiver", QuiverError)
        arrows = []
        for a in json_key(data, "arrows", "quiver", list, QuiverError):
            where = "arrow %s" % json.dumps(a)
            arrows.append(Arrow(*(json_key(a, k, where, str, QuiverError)
                                  for k in ("id", "from", "to"))))
        q = Quiver(vertices, tuple(arrows))
        rels = []
        names = {a.name for a in q.arrows}
        for rel in (json_key(data, "relations", "quiver", list, QuiverError)
                    if "relations" in data else ()):
            terms = []
            for t in json_key(rel, "terms", "relation %s" % json.dumps(rel), list, QuiverError):
                where = "relation term %s" % json.dumps(t)
                path = json_labels(t, "path", where, QuiverError)
                unknown = [name for name in path if name not in names]
                if unknown:
                    raise QuiverError("%s uses unknown arrow %r" % (where, unknown[0]))
                if not path:
                    raise QuiverError("%s is not admissible: its path has 0 arrows, and "
                                      "every path in a relation needs at least 2" % where)
                coeff = json_key(t, "coeff", where, object, QuiverError)
                try:
                    # a string, as to_json writes it, or an integer; no float
                    # or boolean is read as a field element
                    if isinstance(coeff, bool) or not isinstance(coeff, (str, int)):
                        raise TypeError(coeff)
                    terms.append((field.from_str(coeff), path))
                except (ValueError, TypeError, ZeroDivisionError):
                    raise QuiverError("%s has coefficient %s, which is not an element of %r"
                                      % (where, json.dumps(coeff), field)) from None
            if not terms:
                raise QuiverError("relation %s has no terms" % json.dumps(rel))
            rels.append(Relation(tuple(terms)))
        return Presentation(q, tuple(rels), field)

    @staticmethod
    def load(path, field=QQ) -> "Presentation":
        with open(path) as fh:
            return Presentation.from_json(json.load(fh), field)


def _repeated(xs: Sequence):
    """The first item of xs equal to an earlier one."""
    return next(x for i, x in enumerate(xs) if x in xs[:i])


def _path_text(path: tuple) -> str:
    return ".".join(path) or "()"


def _relation_text(rel: Relation, field) -> str:
    return " + ".join("%s*%s" % (field.to_str(c), _path_text(p)) for c, p in rel.terms)


# -- canonical algebras ------------------------------------------------------

def _canonical_quiver(weights: Sequence[int]) -> Quiver:
    verts = ["0"]
    arrows = []
    for i, p in enumerate(weights, start=1):
        prev = "0"
        for j in range(1, p):
            v = "%d,%d" % (i, j)
            verts.append(v)
            arrows.append(Arrow("x%d_%d" % (i, j), prev, v))
            prev = v
        arrows.append(Arrow("x%d_%d" % (i, p), prev, "w"))
    verts.append("w")
    return Quiver(tuple(verts), tuple(arrows))


def canonical_presentation(weights: Sequence[int], lambdas: Optional[Sequence] = None,
                           field=QQ) -> Presentation:
    """The canonical algebra kQ/I of the given weight type.

    Weights equal to 1 are dropped when three or more weights are present;
    fewer than two surviving weights are padded back with 1s, so the types
    (p) and () produce the two-arm path algebras with no relations.  The t
    surviving weights take t - 2 pairwise distinct nonzero lambdas (1, 2, ...
    by default); any other number is refused, for t = 2 too.
    """
    ws = [int(p) for p in weights]
    if any(p < 1 for p in ws):
        raise QuiverError("weights must be positive")
    if len(ws) >= 3:
        ws = [p for p in ws if p >= 2]
    while len(ws) < 2:
        ws.append(1)
    t = len(ws)
    lam = [field.from_int(x) if isinstance(x, int) else x for x in (lambdas or [])]
    if t >= 3 and lambdas is None:
        lam = [field.from_int(i - 1) for i in range(2, t)]  # 1, 2, ... by default
        if any(field.is_zero(x) for x in lam):
            raise QuiverError(
                "no default lambdas for t = %d weights over GF(%d): they must be "
                "t - 2 = %d distinct nonzero elements and GF(%d) has only %d"
                % (t, field.p, t - 2, field.p, field.p - 1))
    if len(lam) != t - 2:
        raise QuiverError("need %d lambda parameters for %d weights" % (t - 2, t))
    if any(field.is_zero(x) for x in lam):
        raise QuiverError("lambda parameters must be nonzero")
    if len({field.to_str(x) for x in lam}) != len(lam):
        raise QuiverError("lambda parameters must be pairwise distinct")
    q = _canonical_quiver(ws)
    arm_path = {i: tuple("x%d_%d" % (i, j) for j in range(1, p + 1))
                for i, p in enumerate(ws, start=1)}
    rels = []
    for i in range(3, t + 1):
        rels.append(Relation((
            (field.one, arm_path[i]),
            (field.neg(field.one), arm_path[2]),
            (lam[i - 3], arm_path[1]),
        )))
    return Presentation(q, tuple(rels), field)


def kronecker_presentation(field=QQ) -> Presentation:
    return canonical_presentation([1, 1], field=field)


def a1p_presentation(p: int, field=QQ) -> Presentation:
    """Path algebra of the two-parallel-paths quiver with arms of length p and 1."""
    if p < 1:
        raise QuiverError("p must be >= 1")
    return canonical_presentation([p, 1], field=field)


# -- incidence algebras ------------------------------------------------------

def hasse_quiver(p: Poset) -> Quiver:
    """The Hasse diagram of p as a quiver, one arrow "x->y" per cover."""
    return Quiver(tuple(p.elements),
                  tuple(Arrow("%s->%s" % (x, y), x, y) for x, y in p.covers()))


def incidence_presentation(p: Poset, field=QQ) -> Presentation:
    """Presentation of the incidence algebra on the Hasse quiver.

    For each vertex pair with several parallel Hasse paths, the differences
    against the first path (ordered by length then arrow names) generate the
    commutativity ideal.  The dimension check (order pairs = algebra
    dimension) is run by the algebra builder downstream.
    """
    q = hasse_quiver(p)
    rels = []
    for u in p.elements:
        for v in p.elements:
            paths = q.paths(u, v)
            for other in paths[1:]:
                rels.append(Relation((
                    (field.one, paths[0]),
                    (field.neg(field.one), other),
                )))
    return Presentation(q, tuple(rels), field)


# -- BGP reflection and quiver predicates -----------------------------------

def bgp_reflect(q: Quiver, v: str) -> Quiver:
    """Reverse all arrows at a source or sink vertex."""
    if v not in q.vertices:
        raise QuiverError("unknown vertex %s" % v)
    if not (q.is_source(v) or q.is_sink(v)):
        raise QuiverError("vertex %s is neither a source nor a sink" % v)
    arrows = tuple(Arrow(a.name, a.target, a.source) if v in (a.source, a.target) else a
                   for a in q.arrows)
    return Quiver(q.vertices, arrows)


def unique_path_property(q: Quiver) -> bool:
    """True iff every ordered vertex pair is joined by at most one path."""
    for u in q.vertices:
        for v in q.vertices:
            if u != v and len(q.paths(u, v)) > 1:
                return False
    return True


def is_gentle(pres: Presentation) -> bool:
    """The gentle predicate on a presentation.

    Requires: at most two arrows in and out of every vertex; all relations
    monomial of length two; for each arrow at most one admissible and one
    forbidden (in-relation) composition on either side.
    """
    q = pres.quiver
    for v in q.vertices:
        if len(q.arrows_into(v)) > 2 or len(q.arrows_from(v)) > 2:
            return False
    forbidden = set()
    for rel in pres.relations:
        if len(rel.terms) != 1:
            return False
        _, path = rel.terms[0]
        if len(path) != 2:
            return False
        forbidden.add(path)
    for b in q.arrows:
        pre = q.arrows_into(b.source)
        pre_rel = [a for a in pre if (a.name, b.name) in forbidden]
        pre_free = [a for a in pre if (a.name, b.name) not in forbidden]
        if len(pre_rel) > 1 or len(pre_free) > 1:
            return False
        post = q.arrows_from(b.target)
        post_rel = [c for c in post if (b.name, c.name) in forbidden]
        post_free = [c for c in post if (b.name, c.name) not in forbidden]
        if len(post_rel) > 1 or len(post_free) > 1:
            return False
    return True


class NotPosetQuiverError(QuiverError):
    pass


def quiver_as_poset(q: Quiver) -> Poset:
    """The path-order poset of a quiver, when the quiver is a Hasse diagram.

    Fails when two vertices are joined by more than one path, or when some
    arrow is implied by a longer path (not a cover)."""
    if not unique_path_property(q):
        raise NotPosetQuiverError("two vertices are connected by more than one path")
    for a in q.arrows:
        long_paths = [p for p in q.paths(a.source, a.target) if len(p) > 1]
        if long_paths:
            raise NotPosetQuiverError("arrow %s duplicates a longer path" % a.name)
    return poset_from_covers(q.vertices, [(a.source, a.target) for a in q.arrows])


def t2_poset(p1: int, p2: int) -> Poset:
    """Reflect the two-weight canonical quiver at its sink and read the
    resulting unique-path quiver as a poset (p1 + p2 elements)."""
    if p1 < 2 or p2 < 2:
        raise QuiverError("t2_poset requires p1, p2 >= 2")
    pres = canonical_presentation([p1, p2])
    return quiver_as_poset(bgp_reflect(pres.quiver, "w"))
