"""Concrete finite-dimensional algebras from presentations: path-class
bases, structure constants, Cartan matrices, simples and projectives,
module maps and Hom spaces."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from .exactla import ExactMatrix, QQ
from .posets import Poset
from .quivers import Presentation, QPath, Quiver, incidence_presentation


class AlgebraError(ValueError):
    pass


class BoundQuiverAlgebra:
    """kQ/I with an explicit basis of path classes per vertex pair.

    For each (u, v) the span of {left*g*right : g a relation} inside the
    path space u -> v is row-reduced; the non-pivot paths (ordered by
    length, then arrow names) represent the basis of the quotient block.
    """

    def __init__(self, pres: Presentation):
        self.presentation = pres
        self.quiver = pres.quiver
        self.field = pres.field
        # the poset of an incidence algebra (set by incidence_algebra)
        self.poset: Optional[Poset] = None
        self.vertex_order = pres.quiver.topological_order()
        # (source, target) of each relation, in presentation order
        self.relation_endpoints = tuple(rel.endpoints(self.quiver)
                                        for rel in pres.relations)
        self._vidx = {v: i for i, v in enumerate(self.vertex_order)}
        self._paths: Dict[Tuple[str, str], List[tuple]] = {}
        self._pidx: Dict[Tuple[str, str], Dict[tuple, int]] = {}
        q = self.quiver
        for u in self.vertex_order:
            for v in self.vertex_order:
                ps = sorted(q.paths(u, v), key=lambda p: (len(p), p))
                if ps:
                    self._paths[(u, v)] = ps
                    self._pidx[(u, v)] = {p: i for i, p in enumerate(ps)}
        self._reduce_rows: Dict[Tuple[str, str], List[tuple]] = {}
        self._pivot_of: Dict[Tuple[str, str], Dict[int, int]] = {}
        self._basis: Dict[Tuple[str, str], List[tuple]] = {}
        self._compute_basis()
        self.dimension = sum(len(b) for b in self._basis.values())

    # -- basis -------------------------------------------------------------

    def _ideal_vectors(self, u, v):
        """Spanning vectors of the relation ideal inside the (u, v) path space."""
        f = self.field
        npaths = len(self._paths[(u, v)])
        pidx = self._pidx[(u, v)]
        vecs = []
        for rel, (rs, rt) in zip(self.presentation.relations, self.relation_endpoints):
            for left in self._paths.get((u, rs), []):
                for right in self._paths.get((rt, v), []):
                    vec = [f.zero] * npaths
                    for coeff, path in rel.terms:
                        full = left + path.arrow_names + right
                        vec[pidx[full]] = f.add(vec[pidx[full]], coeff)
                    vecs.append(vec)
        return vecs

    def _compute_basis(self):
        f = self.field
        for (u, v), paths in self._paths.items():
            vecs = self._ideal_vectors(u, v)
            if vecs:
                m = ExactMatrix.from_rows(vecs, f)
                rank, pivots, rr = m.rref()
                rows = [rr.entries[i] for i in range(rank)]
                self._reduce_rows[(u, v)] = rows
                self._pivot_of[(u, v)] = {p: i for i, p in enumerate(pivots)}
                pivset = set(pivots)
            else:
                self._reduce_rows[(u, v)] = []
                self._pivot_of[(u, v)] = {}
                pivset = set()
            self._basis[(u, v)] = [p for i, p in enumerate(paths) if i not in pivset]

    def paths(self, u, v):
        return self._paths.get((u, v), [])

    def basis(self, u, v):
        """Basis path representatives of the (u, v) block."""
        return self._basis.get((u, v), [])

    def block_dim(self, u, v) -> int:
        return len(self._basis.get((u, v), []))

    def reduce_path(self, u, v, path) -> Dict[tuple, object]:
        """Express a path's class in the block basis: {basis_path: coeff}."""
        f = self.field
        paths = self._paths[(u, v)]
        pidx = self._pidx[(u, v)]
        vec = [f.zero] * len(paths)
        vec[pidx[path]] = f.one
        for piv, rowi in self._pivot_of[(u, v)].items():
            c = vec[piv]
            if not f.is_zero(c):
                row = self._reduce_rows[(u, v)][rowi]
                for j in range(len(vec)):
                    vec[j] = f.sub(vec[j], f.mul(c, row[j]))
        out = {}
        for p, c in zip(paths, vec):
            if not f.is_zero(c):
                out[p] = c
        return out

    # -- invariants --------------------------------------------------------

    def cartan_matrix(self) -> ExactMatrix:
        """Integer matrix (i, j) -> dim of the (v_i -> v_j) block, in the
        fixed topological vertex order (unitriangular)."""
        n = len(self.vertex_order)
        rows = [[self.block_dim(self.vertex_order[i], self.vertex_order[j])
                 for j in range(n)] for i in range(n)]
        return ExactMatrix.from_rows(rows)

    def check_associativity(self, sample: Optional[int] = None) -> bool:
        """Associativity of the structure constants on composable triples."""
        f = self.field
        triples = []
        for (u, v), bs1 in self._basis.items():
            for (v2, w), bs2 in self._basis.items():
                if v2 != v:
                    continue
                for (w2, z), bs3 in self._basis.items():
                    if w2 != w:
                        continue
                    for p in bs1:
                        for q in bs2:
                            for r in bs3:
                                triples.append((u, v, w, z, p, q, r))
        if sample is not None and len(triples) > sample:
            triples = triples[::max(1, len(triples) // sample)][:sample]
        for u, v, w, z, p, q, r in triples:
            left = {}
            for s, c in self.reduce_path(u, w, p + q).items():
                for t2, c2 in self.reduce_path(u, z, s + r).items():
                    left[t2] = f.add(left.get(t2, f.zero), f.mul(c, c2))
            right = {}
            for s, c in self.reduce_path(v, z, q + r).items():
                for t2, c2 in self.reduce_path(u, z, p + s).items():
                    right[t2] = f.add(right.get(t2, f.zero), f.mul(c, c2))
            keys = set(left) | set(right)
            for k in keys:
                if not f.is_zero(f.sub(left.get(k, f.zero), right.get(k, f.zero))):
                    return False
        return True


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

@dataclass(frozen=True)
class Representation:
    """Vertex-graded vector spaces with an exact matrix per arrow."""

    algebra: BoundQuiverAlgebra
    dims: tuple  # dim per vertex, in algebra.vertex_order
    maps: tuple  # ((arrow_name, ExactMatrix), ...) for all arrows

    def dim(self, v) -> int:
        return self.dims[self.algebra._vidx[v]]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def map_of(self, arrow_name) -> ExactMatrix:
        for name, m in self.maps:
            if name == arrow_name:
                return m
        raise KeyError(arrow_name)

    def act_path(self, source: str, path: tuple) -> ExactMatrix:
        """Composite matrix of a path (identity for the trivial path)."""
        f = self.algebra.field
        m = ExactMatrix.identity(self.dim(source), f)
        for name in path:
            m = self.map_of(name) @ m
        return m

    def check_relations(self) -> bool:
        alg = self.algebra
        f = alg.field
        for rel, (src, tgt) in zip(alg.presentation.relations, alg.relation_endpoints):
            acc = ExactMatrix.zero(self.dim(tgt), self.dim(src), f)
            for coeff, path in rel.terms:
                acc = acc + self.act_path(src, path.arrow_names).scale(coeff)
            if not acc.is_zero():
                return False
        return True

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def to_json(self) -> dict:
        f = self.algebra.field
        return {
            "dims": {v: self.dim(v) for v in self.algebra.vertex_order},
            "maps": {name: m.to_str_rows() for name, m in self.maps},
        }


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


@dataclass(frozen=True)
class ProjectiveRep:
    """A finite direct sum of indecomposable projectives, with bookkeeping.

    blocks[j] is the vertex of the j-th summand; the basis of the underlying
    representation at vertex w is indexed by (j, basis path v_j -> w) in
    block-major order.  The generator of summand j is the trivial-path
    label (j, ()) among labels_at(blocks[j])."""

    rep: Representation
    blocks: tuple
    basis_labels: tuple  # per vertex (in vertex_order): tuple of (j, path)

    def labels_at(self, v) -> tuple:
        return self.basis_labels[self.rep.algebra._vidx[v]]


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
    dims = {w: len(labels_by_vertex[i]) for i, w in enumerate(algebra.vertex_order)}
    maps = {}
    for a in algebra.quiver.arrows:
        src_labels = labels_by_vertex[algebra._vidx[a.source]]
        tgt_labels = labels_by_vertex[algebra._vidx[a.target]]
        tgt_index = {lab: i for i, lab in enumerate(tgt_labels)}
        cols = []
        for j, p in src_labels:
            v = blocks[j]
            red = algebra.reduce_path(v, a.target, p + (a.name,))
            col = [f.zero] * len(tgt_labels)
            for bp, c in red.items():
                col[tgt_index[(j, bp)]] = c
            cols.append(col)
        maps[a.name] = ExactMatrix.from_cols(cols, len(tgt_labels), f)
    # arrows act by multiplication in the algebra, so the relations hold by
    # construction and are not checked
    rep = make_rep(algebra, dims, maps, check=False)
    return ProjectiveRep(rep, blocks, tuple(labels_by_vertex))


def projective_module(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    return projective_rep(algebra, [v]).rep


# -- module maps -------------------------------------------------------------

@dataclass(frozen=True)
class ModuleMap:
    source: Representation
    target: Representation
    blocks: tuple  # ExactMatrix per vertex in vertex_order

    def block(self, v) -> ExactMatrix:
        return self.blocks[self.source.algebra._vidx[v]]

    def check(self) -> bool:
        alg = self.source.algebra
        for a in alg.quiver.arrows:
            lhs = self.target.map_of(a.name) @ self.block(a.source)
            rhs = self.block(a.target) @ self.source.map_of(a.name)
            if not (lhs - rhs).is_zero():
                return False
        return True

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other (other first)."""
        assert other.target is self.source or other.target.dims == self.source.dims
        return ModuleMap(other.source, self.target,
                         tuple(b1 @ b2 for b1, b2 in zip(self.blocks, other.blocks)))

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         tuple(b1 + b2 for b1, b2 in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "ModuleMap":
        return ModuleMap(self.source, self.target, tuple(-b for b in self.blocks))

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.source, self.target, tuple(b.scale(c) for b in self.blocks))


def module_map(source: Representation, target: Representation,
               blocks: Dict[str, ExactMatrix], check: bool = True) -> ModuleMap:
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
    mm = ModuleMap(source, target, tuple(full))
    if check and not mm.check():
        raise AlgebraError("blocks do not commute with the arrow actions")
    return mm


def zero_map(source: Representation, target: Representation) -> ModuleMap:
    return module_map(source, target, {}, check=False)


def identity_map(m: Representation) -> ModuleMap:
    f = m.algebra.field
    return ModuleMap(m, m, tuple(ExactMatrix.identity(d, f) for d in m.dims))


def hom_from_generators(p: ProjectiveRep, n: Representation,
                        gen_images: Sequence[ExactMatrix]) -> ModuleMap:
    """The module map P -> N sending the j-th projective generator to the
    given column vector in N at blocks[j]; a basis label (j, path) goes to
    that vector carried along the path, one arrow map at a time.  It
    commutes with the arrows by construction, so the check is skipped."""
    alg = p.rep.algebra
    f = alg.field
    maps = dict(n.maps)
    blocks = {}
    for w in alg.vertex_order:
        cols = [reduce(lambda v, name: maps[name] @ v, path, gen_images[j]).col(0)
                for j, path in p.labels_at(w)]
        blocks[w] = ExactMatrix.from_cols(cols, n.dim(w), f)
    return module_map(p.rep, n, blocks, check=False)


def direct_sum_rep(reps: Sequence[Representation]) -> Representation:
    """Direct sum of representations, summands in the given order."""
    alg = reps[0].algebra
    dims = {v: sum(r.dim(v) for r in reps) for v in alg.vertex_order}
    maps = {}
    for a in alg.quiver.arrows:
        maps[a.name] = ExactMatrix.from_blocks(
            {(i, i): r.map_of(a.name) for i, r in enumerate(reps)},
            [r.dim(a.target) for r in reps], [r.dim(a.source) for r in reps], alg.field)
    return make_rep(alg, dims, maps, check=False)


def direct_sum(reps: Sequence[Representation]) -> Tuple[Representation, List[ModuleMap]]:
    """Direct sum with the inclusion maps of the summands."""
    assert reps
    alg = reps[0].algebra
    total = direct_sum_rep(reps)
    incls = []
    for k, r in enumerate(reps):
        blocks = {v: ExactMatrix.from_blocks(
            {(k, 0): ExactMatrix.identity(r.dim(v), alg.field)},
            [s.dim(v) for s in reps], [r.dim(v)], alg.field) for v in alg.vertex_order}
        incls.append(module_map(r, total, blocks, check=False))
    return total, incls


def kernel_of(mm: ModuleMap) -> Tuple[Representation, ModuleMap]:
    """Kernel subrepresentation with its inclusion.  The arrow maps of the
    kernel are solved for so that the inclusion commutes with them, so the
    inclusion is built without the commutation check."""
    alg = mm.source.algebra
    f = alg.field
    kbases = {}
    for v in alg.vertex_order:
        kbases[v] = mm.block(v).kernel()  # columns span the kernel at v
    dims = {v: kbases[v].ncols for v in alg.vertex_order}
    maps = {}
    for v in alg.vertex_order:
        arrows = alg.quiver.arrows_into(v)
        if not arrows:
            continue
        # one solve per target vertex, the images of its arrows side by side
        imgs = [mm.source.map_of(a.name) @ kbases[a.source] for a in arrows]
        sol = kbases[v].solve(reduce(ExactMatrix.hstack, imgs))
        if sol is None:
            raise AlgebraError("kernel not arrow-stable (inconsistent solve)")
        if len(arrows) == 1:  # the whole solution is the one arrow's map
            maps[arrows[0].name] = sol
            continue
        lo = 0
        for a, img in zip(arrows, imgs):
            maps[a.name] = ExactMatrix(f, sol.nrows, img.ncols,
                                       tuple(r[lo:lo + img.ncols] for r in sol.entries))
            lo += img.ncols
    ker = make_rep(alg, dims, maps, check=False)
    incl = module_map(ker, mm.source, {v: kbases[v] for v in alg.vertex_order}, check=False)
    return ker, incl


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom_A(M, N) by solving the commuting equations."""
    alg = m.algebra
    f = alg.field
    # unknowns: per vertex a dim(N_v) x dim(M_v) matrix, flattened
    offsets = {}
    total = 0
    for v in alg.vertex_order:
        offsets[v] = total
        total += n.dim(v) * m.dim(v)
    rows = []
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        ms, mt = m.map_of(a.name), n.map_of(a.name)
        # equation: N_a X_s - X_t M_a = 0, entry (i, j): i < dim N_t, j < dim M_s
        for i in range(n.dim(t)):
            for j in range(m.dim(s)):
                row = [f.zero] * total
                for k in range(n.dim(s)):
                    row[offsets[s] + k * m.dim(s) + j] = f.add(
                        row[offsets[s] + k * m.dim(s) + j], mt.entries[i][k])
                for k in range(m.dim(t)):
                    row[offsets[t] + i * m.dim(t) + k] = f.sub(
                        row[offsets[t] + i * m.dim(t) + k], ms.entries[k][j])
                rows.append(row)
    if not rows:
        return total
    mat = ExactMatrix.from_rows(rows, f)
    return total - mat.rank()
