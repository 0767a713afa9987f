"""Concrete finite-dimensional algebras from presentations: path-class
bases, structure constants, Cartan matrices, simples and projectives,
module maps and bounded complexes of representations."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .exactla import ExactMatrix, QQ
from .posets import Poset
from .quivers import Presentation, incidence_presentation


class AlgebraError(ValueError):
    pass


class DerivedError(ValueError):
    pass


class BoundQuiverAlgebra:
    """kQ/I with an explicit basis of path classes per vertex pair.

    For each (u, v) the span of {left*g*right : g a relation} inside the
    path space u -> v is row-reduced; the non-pivot paths (ordered by
    length, then arrow names) represent the basis of the quotient block.
    A pivot row has 1 at its pivot and 0 at every other pivot, so the class
    of a pivot path is minus the rest of its row, a combination of basis
    paths; that class is kept, and `reduce_path` reads it off.
    """

    def __init__(self, pres: Presentation):
        self.presentation = pres
        self.quiver = pres.quiver
        self.field = pres.field
        # the poset of an incidence algebra (set by incidence_algebra)
        self.poset: Optional[Poset] = None
        self.vertex_order = pres.quiver.topological_order
        # (source, target) of each relation, in presentation order
        self.relation_endpoints = tuple(rel.endpoints(self.quiver)
                                        for rel in pres.relations)
        self._vidx = {v: i for i, v in enumerate(self.vertex_order)}
        # the index of each arrow in quiver.arrows, the order of a
        # representation's maps
        self._aidx = {a.name: i for i, a in enumerate(self.quiver.arrows)}
        # the class of each pivot path, {basis_path: coeff}, per block
        self._pivot_class: Dict[Tuple[str, str], Dict[tuple, Dict[tuple, object]]] = {}
        self._basis: Dict[Tuple[str, str], List[tuple]] = {}
        self._compute_basis()
        self.dimension = sum(len(b) for b in self._basis.values())

    # -- basis -------------------------------------------------------------

    def _ideal_vectors(self, blocks):
        """Spanning vectors of the relation ideal inside each path space, by
        block, from one pass over the relations: for each relation, each
        left path into its source times each right path out of its target.
        Inside a block the vectors come relation by relation, then by left
        path, then by right path.  blocks maps (u, v) to its paths."""
        f, q, order = self.field, self.quiver, self.vertex_order
        pidx, vecs = {}, {}
        for rel, (rs, rt) in zip(self.presentation.relations, self.relation_endpoints):
            lefts = [(u, left) for u in order for left in q.paths(u, rs)]
            rights = [(v, right) for v in order for right in q.paths(rt, v)]
            for u, left in lefts:
                for v, right in rights:
                    idx = pidx.get((u, v))
                    if idx is None:
                        idx = pidx[(u, v)] = {p: i for i, p in enumerate(blocks[(u, v)])}
                        vecs[(u, v)] = []
                    vec = [f.zero] * len(idx)
                    for coeff, path in rel.terms:
                        i = idx[left + path + right]
                        vec[i] = f.add(vec[i], coeff)
                    vecs[(u, v)].append(vec)
        return vecs

    def _compute_basis(self):
        """The blocks in vertex_order x vertex_order order; a block with no
        path is skipped."""
        f, q = self.field, self.quiver
        blocks = {}
        for u, v in product(self.vertex_order, repeat=2):
            paths = q.paths(u, v)
            if paths:
                blocks[(u, v)] = paths
        ideal = self._ideal_vectors(blocks)
        for key, paths in blocks.items():
            vecs = ideal.get(key)
            pivots, rows = [], ()
            if vecs:
                _, pivots, rr = ExactMatrix.from_rows(vecs, f).rref()
                rows = rr.entries  # the rows past the rank are zero; zip drops them
            pivset = set(pivots)
            basis = [(j, p) for j, p in enumerate(paths) if j not in pivset]
            self._basis[key] = [p for _, p in basis]
            self._pivot_class[key] = {
                paths[pc]: {p: f.neg(row[j]) for j, p in basis if not f.is_zero(row[j])}
                for pc, row in zip(pivots, rows)}

    def basis(self, u, v):
        """Basis path representatives of the (u, v) block."""
        return self._basis.get((u, v), [])

    def block_dim(self, u, v) -> int:
        return len(self._basis.get((u, v), []))

    def reduce_path(self, u, v, path) -> Dict[tuple, object]:
        """Express a path's class in the block basis: {basis_path: coeff},
        a fresh dict.  KeyError if the path is not a u -> v path."""
        cls = self._pivot_class[(u, v)].get(path)  # KeyError for a block with no path
        if cls is not None:
            return dict(cls)
        if path not in self.quiver.paths(u, v):
            raise KeyError(path)
        return {path: self.field.one}

    # -- invariants --------------------------------------------------------

    def cartan_matrix(self) -> ExactMatrix:
        """Integer matrix (i, j) -> dim of the (v_i -> v_j) block, in the
        fixed topological vertex order (unitriangular)."""
        n = len(self.vertex_order)
        rows = [[self.block_dim(self.vertex_order[i], self.vertex_order[j])
                 for j in range(n)] for i in range(n)]
        return ExactMatrix.from_rows(rows)


def build_algebra(pres: Presentation) -> BoundQuiverAlgebra:
    return BoundQuiverAlgebra(pres)


def incidence_algebra(p: Poset, field=QQ) -> BoundQuiverAlgebra:
    """Incidence algebra via its Hasse presentation, with the mandatory
    dimension check (algebra dimension = number of order pairs).  The
    algebra keeps p, from which its Ext between simples is read."""
    a = build_algebra(incidence_presentation(p, field))
    if a.dimension != p.order_pairs():
        raise AlgebraError("incidence algebra dimension %d != order pairs %d"
                           % (a.dimension, p.order_pairs()))
    a.poset = p
    return a


# -- representations ---------------------------------------------------------

@dataclass(slots=True)
class Representation:
    """Vertex-graded vector spaces with an exact matrix per arrow."""

    algebra: BoundQuiverAlgebra
    dims: tuple  # dim per vertex, in algebra.vertex_order
    maps: tuple  # ((arrow_name, ExactMatrix), ...) in quiver arrow order

    def dim(self, v) -> int:
        return self.dims[self.algebra._vidx[v]]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def map_of(self, arrow_name) -> ExactMatrix:
        """The matrix of an arrow, read at the arrow's index in the quiver;
        KeyError for a name that is not an arrow."""
        name, m = self.maps[self.algebra._aidx[arrow_name]]
        if name != arrow_name:
            raise AlgebraError("maps not in quiver arrow order: %s where %s belongs"
                               % (name, arrow_name))
        return m

    def act_path(self, source: str, path: tuple) -> ExactMatrix:
        """Composite matrix of a path (identity for the trivial path)."""
        f = self.algebra.field
        m = ExactMatrix.identity(self.dim(source), f)
        for name in path:
            m = self.map_of(name) @ m
        return m

    def check_relations(self) -> bool:
        """Each relation acts by zero.  A relation out of or into a zero
        space holds trivially and is not evaluated."""
        alg = self.algebra
        f = alg.field
        for rel, (src, tgt) in zip(alg.presentation.relations, alg.relation_endpoints):
            if not self.dim(src) or not self.dim(tgt):
                continue
            acc = ExactMatrix.zero(self.dim(tgt), self.dim(src), f)
            for coeff, path in rel.terms:
                acc = acc + self.act_path(src, path).scale(coeff)
            if not acc.is_zero():
                return False
        return True

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)


def make_rep(algebra: BoundQuiverAlgebra, dims: Dict[str, int],
             maps: Dict[str, ExactMatrix], check: bool = True) -> Representation:
    f = algebra.field
    dim_tuple = tuple(dims.get(v, 0) for v in algebra.vertex_order)
    full_maps = []
    for a in algebra.quiver.arrows:
        m = maps.get(a.name)
        if m is None:
            m = ExactMatrix.zero(dims.get(a.target, 0), dims.get(a.source, 0), f)
        if (m.nrows, m.ncols) != (dims.get(a.target, 0), dims.get(a.source, 0)):
            raise AlgebraError("map for arrow %s has wrong shape" % a.name)
        full_maps.append((a.name, m))
    rep = Representation(algebra, dim_tuple, tuple(full_maps))
    if check and not rep.check_relations():
        raise AlgebraError("arrow maps violate the relations")
    return rep


def zero_rep(algebra: BoundQuiverAlgebra) -> Representation:
    return make_rep(algebra, {}, {}, check=False)


def simple_module(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    """The simple at v: every arrow acts by zero, so the relations hold by
    construction and are not checked."""
    return make_rep(algebra, {v: 1}, {}, check=False)


@dataclass(slots=True)
class ProjectiveRep(Representation):
    """A finite direct sum of indecomposable projectives, with bookkeeping.

    blocks[j] is the vertex of the j-th summand; the basis at vertex w is
    indexed by (j, basis path v_j -> w) in block-major order.  The
    generator of summand j is the trivial-path label (j, ()) among
    labels_at(blocks[j])."""

    blocks: tuple
    basis_labels: tuple  # per vertex (in vertex_order): tuple of (j, path)

    def labels_at(self, v) -> tuple:
        return self.basis_labels[self.algebra._vidx[v]]


def projective_rep(algebra: BoundQuiverAlgebra, blocks: Sequence[str]) -> ProjectiveRep:
    """Direct sum of the projectives at the listed vertices."""
    f = algebra.field
    blocks = tuple(blocks)
    labels_by_vertex = []
    for w in algebra.vertex_order:
        labels = []
        for j, v in enumerate(blocks):
            for p in algebra.basis(v, w):
                labels.append((j, p))
        labels_by_vertex.append(tuple(labels))
    maps = []
    for a in algebra.quiver.arrows:
        src_labels = labels_by_vertex[algebra._vidx[a.source]]
        tgt_labels = labels_by_vertex[algebra._vidx[a.target]]
        if not (src_labels and tgt_labels):
            # an empty side: the zero map, with no path reduced
            maps.append((a.name, ExactMatrix.zero(len(tgt_labels), len(src_labels), f)))
            continue
        tgt_index = {lab: i for i, lab in enumerate(tgt_labels)}
        cols = []
        for j, p in src_labels:
            v = blocks[j]
            red = algebra.reduce_path(v, a.target, p + (a.name,))
            col = [f.zero] * len(tgt_labels)
            for bp, c in red.items():
                col[tgt_index[(j, bp)]] = c
            cols.append(col)
        maps.append((a.name, ExactMatrix.from_cols(cols, len(tgt_labels), f)))
    # arrows act by multiplication in the algebra, so the relations hold by
    # construction and are not checked
    return ProjectiveRep(algebra, tuple(len(labels) for labels in labels_by_vertex),
                         tuple(maps), blocks, tuple(labels_by_vertex))


def projective_module(algebra: BoundQuiverAlgebra, v: str) -> ProjectiveRep:
    return projective_rep(algebra, [v])


def radical_rep(algebra: BoundQuiverAlgebra) -> Representation:
    """rad A inside the regular module A = projective_rep(A, vertex_order):
    the span of the basis labels (j, path) with path nontrivial, the kernel
    of the canonical projection A -> A/rad A.  The quiver is acyclic, so no
    arrow carries a path onto a trivial-path label; the span is a
    subrepresentation whose arrow matrices are those of A restricted to its
    rows and columns, and nothing is eliminated or checked."""
    f = algebra.field
    reg = projective_rep(algebra, algebra.vertex_order)
    keep = [[i for i, (_, path) in enumerate(labels) if path] for labels in reg.basis_labels]
    maps = []
    for a, (name, m) in zip(algebra.quiver.arrows, reg.maps):
        rows, cols = keep[algebra._vidx[a.target]], keep[algebra._vidx[a.source]]
        maps.append((name, ExactMatrix(f, len(rows), len(cols),
                                       tuple(tuple(m.entries[r][c] for c in cols)
                                             for r in rows))))
    return Representation(algebra, tuple(map(len, keep)), tuple(maps))


# -- module maps -------------------------------------------------------------

@dataclass(slots=True)
class ModuleMap:
    source: Representation
    target: Representation
    blocks: tuple  # ExactMatrix per vertex in vertex_order

    def block(self, v) -> ExactMatrix:
        return self.blocks[self.source.algebra._vidx[v]]

    def check(self) -> bool:
        """Each arrow commutes with the blocks.  An arrow out of a zero
        source space or into a zero target space compares two empty
        matrices and is not evaluated."""
        alg = self.source.algebra
        vidx, sdims, tdims = alg._vidx, self.source.dims, self.target.dims
        for a in alg.quiver.arrows:
            if not sdims[vidx[a.source]] or not tdims[vidx[a.target]]:
                continue
            lhs = self.target.map_of(a.name) @ self.block(a.source)
            rhs = self.block(a.target) @ self.source.map_of(a.name)
            if not (lhs - rhs).is_zero():
                return False
        return True

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other (other first).  Only blocks with rows and
        columns are multiplied; a block of an empty shape is the zero
        block, and blocks that do not compose still raise."""
        f = self.source.algebra.field
        return ModuleMap(other.source, self.target, tuple(
            b1 @ b2 if b1.ncols != b2.nrows or (b1.nrows and b1.ncols and b2.ncols)
            else ExactMatrix.zero(b1.nrows, b2.ncols, f)
            for b1, b2 in zip(self.blocks, other.blocks)))

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         tuple(b1 + b2 for b1, b2 in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "ModuleMap":
        return ModuleMap(self.source, self.target, tuple(-b for b in self.blocks))


def module_map(source: Representation, target: Representation,
               blocks: Dict[str, ExactMatrix]) -> ModuleMap:
    """The module map with the given blocks (missing ones zero), shape
    checked; whether it commutes with the arrows is `ModuleMap.check`."""
    alg = source.algebra
    f = alg.field
    full = []
    for v in alg.vertex_order:
        m = blocks.get(v)
        if m is None:
            m = ExactMatrix.zero(target.dim(v), source.dim(v), f)
        if (m.nrows, m.ncols) != (target.dim(v), source.dim(v)):
            raise AlgebraError("block at %s has wrong shape" % v)
        full.append(m)
    return ModuleMap(source, target, tuple(full))


def hom_from_generators(p: ProjectiveRep, n: Representation,
                        gen_images: Sequence[ExactMatrix]) -> ModuleMap:
    """The module map P -> N sending the j-th projective generator to the
    given column vector in N at blocks[j]; a basis label (j, path) goes to
    that vector carried along the path, one arrow map at a time, so it
    commutes with the arrows by construction.

    The image of each path prefix is kept for the call, so a generator is
    carried along each prefix once, and a vertex where P or N is zero gets
    its zero block from module_map with nothing carried."""
    alg = p.algebra
    f = alg.field
    for j, v in enumerate(p.blocks):
        g = gen_images[j]
        if (g.nrows, g.ncols) != (n.dim(v), 1):
            raise AlgebraError("image of generator %d is %dx%d, not a column of N at %s"
                               % (j, g.nrows, g.ncols, v))
    images = {}

    def image(j, path):
        """The j-th generator's image carried along path."""
        key = (j, path)
        m = images.get(key)
        if m is None:
            m = images[key] = (n.map_of(path[-1]) @ image(j, path[:-1]) if path
                               else gen_images[j])
        return m

    blocks = {}
    for w, nw, labels in zip(alg.vertex_order, n.dims, p.basis_labels):
        if nw and labels:
            blocks[w] = ExactMatrix.from_cols([image(j, path).col(0) for j, path in labels],
                                              nw, f)
    return module_map(p, n, blocks)


def direct_sum_rep(reps: Sequence[Representation]) -> Representation:
    """Direct sum of representations, summands in the given order.  An
    arrow with an empty side gets its zero map from make_rep."""
    alg = reps[0].algebra
    vidx = alg._vidx
    dims = {v: sum(r.dims[i] for r in reps) for v, i in vidx.items()}
    maps = {}
    for a in alg.quiver.arrows:
        if dims[a.source] and dims[a.target]:
            s, t = vidx[a.source], vidx[a.target]
            maps[a.name] = ExactMatrix.from_blocks(
                {(i, i): r.map_of(a.name) for i, r in enumerate(reps)},
                [r.dims[t] for r in reps], [r.dims[s] for r in reps], alg.field)
    return make_rep(alg, dims, maps, check=False)


def kernel_of(mm: ModuleMap) -> Tuple[Representation, ModuleMap]:
    """Kernel subrepresentation with its inclusion.

    The rows of a kernel basis K_v at its free coordinates form the identity
    (`ExactMatrix.kernel`), so a kernel vector's coordinates are its entries
    there: the kernel's map for an arrow a: u -> v is those rows of
    M_a K_u.  An image outside the kernel at v is refused; otherwise the
    inclusion commutes with the arrows by construction.

    A block with no rows or no columns is not eliminated: its kernel is the
    identity.  An arrow out of a zero kernel or into a zero space of the
    source gets a zero map with no product, since its image is empty, and
    an image in a vertex where the target is zero is in the kernel there
    with no check.  An image in a zero kernel of a nonzero block is still
    checked."""
    alg = mm.source.algebra
    f = alg.field
    kbases, free = {}, {}
    for v in alg.vertex_order:
        block = mm.block(v)
        if block.nrows and block.ncols:
            k = kbases[v] = block.kernel()
            # the free coordinate of each kernel column is its last nonzero entry
            free[v] = [max(r for r, x in enumerate(col) if not f.is_zero(x))
                       for col in zip(*k.entries)]
        else:
            kbases[v] = ExactMatrix.identity(block.ncols, f)
            free[v] = range(block.ncols)
    maps = {}
    for a in alg.quiver.arrows:
        rows, ncols, block = free[a.target], kbases[a.source].ncols, mm.block(a.target)
        if not ncols or not block.ncols:
            maps[a.name] = ExactMatrix.zero(len(rows), ncols, f)
            continue
        img = mm.source.map_of(a.name) @ kbases[a.source]
        if block.nrows and not (block @ img).is_zero():
            raise AlgebraError("kernel not arrow-stable")
        maps[a.name] = ExactMatrix(f, len(rows), ncols, tuple(img.entries[r] for r in rows))
    ker = make_rep(alg, {v: k.ncols for v, k in kbases.items()}, maps, check=False)
    return ker, module_map(ker, mm.source, kbases)


# -- bounded complexes -------------------------------------------------------

@dataclass
class ComplexOfReps:
    """Bounded complex of representations of one algebra: terms[d] in
    degree d and diffs[d] : terms[d] -> terms[d + 1].

    `make` drops zero terms and differentials, then checks that each
    differential is a module map between the terms of its degrees and that
    d o d = 0.  The plain constructor trusts its input, as a complex built
    by construction may (a resolution, or the terms of a certified cone)."""

    algebra: BoundQuiverAlgebra
    terms: Dict[int, Representation]
    diffs: Dict[int, ModuleMap]

    @staticmethod
    def make(algebra, terms: Dict[int, Representation],
             diffs: Dict[int, ModuleMap]) -> "ComplexOfReps":
        c = ComplexOfReps(algebra, {d: t for d, t in terms.items() if not t.is_zero()},
                          {d: m for d, m in diffs.items() if not m.is_zero()})
        c.check()
        return c

    @cached_property
    def _zero(self) -> Representation:
        """The zero term of every degree outside the support, built once."""
        return zero_rep(self.algebra)

    def term(self, d: int) -> Representation:
        return self.terms.get(d) or self._zero

    @property
    def support(self):
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def check(self):
        for d, m in self.diffs.items():
            if m.source.dims != self.term(d).dims or m.target.dims != self.term(d + 1).dims:
                raise DerivedError("differential at %d has wrong endpoints" % d)
            if not m.check():
                raise DerivedError("differential at %d is not a module map" % d)
        for d, m in self.diffs.items():
            if d + 1 in self.diffs and not self.diffs[d + 1].compose(m).is_zero():
                raise DerivedError("d o d != 0 at degree %d" % d)

    def cohomology_dims(self) -> Dict[int, int]:
        """{d: dim H^d} over the degrees where it is nonzero."""
        ranks = {d: sum(b.rank() for b in m.blocks) for d, m in self.diffs.items()}
        out = {}
        for d in self.support:
            h = self.terms[d].total_dim - ranks.get(d, 0) - ranks.get(d - 1, 0)
            if h:
                out[d] = h
        return out


def stalk_complex_of(m: Representation, degree: int = 0) -> ComplexOfReps:
    return ComplexOfReps.make(m.algebra, {degree: m}, {})
