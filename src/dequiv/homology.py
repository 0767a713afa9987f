"""Homological machinery: minimal projective resolutions, Ext dimensions,
global dimension, Coxeter polynomials, the derived-invariant certificate,
Hochschild cohomology (relative bar complex), nerve cohomology and Ext
between the simples of an incidence algebra from interval cohomology."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .exactla import QQ, ExactMatrix, IntPolynomial, char_poly, smith_normal_form
from .posets import Poset, _down_masks, _members, order_complex, zeta_rows
from .quivers import hasse_quiver, unique_path_property
from .algebra import (BoundQuiverAlgebra, ComplexOfReps, ModuleMap, ProjectiveRep,
                      Representation, hom_from_generators, incidence_algebra,
                      kernel_of, projective_rep, radical_rep, simple_module,
                      stalk_complex_of)


class ResolutionError(RuntimeError):
    pass


def _top_generators(m: Representation):
    """Vertexwise lifts of a basis of M / rad M: (vertex, column) pairs.

    rad M at v is the sum of the images of the incoming arrow maps.  The
    unit vectors that extend it to M at v are the pivots of
    [rad columns | I] past the radical columns: one elimination per vertex
    picks the same units, in the same order, as adding them one at a time
    while the rank grows."""
    alg = m.algebra
    f = alg.field
    gens = []
    for v in alg.vertex_order:
        d = m.dim(v)
        if d == 0:
            continue
        cols = [c for a in alg.quiver.arrows_into(v)
                for c in m.map_of(a.name).transpose().entries]
        ident = ExactMatrix.identity(d, f)
        pivots = ExactMatrix.from_cols(cols, d, f).hstack(ident).pivot_cols()
        gens += [(v, ExactMatrix.from_cols([ident.col(i - len(cols))], d, f))
                 for i in pivots if i >= len(cols)]
    return gens


def projective_cover(m: Representation) -> Tuple[ProjectiveRep, ModuleMap]:
    """Projective cover P(M) ->> M built on lifted top generators."""
    alg = m.algebra
    gens = _top_generators(m)
    p = projective_rep(alg, [v for v, _ in gens])
    cover = hom_from_generators(p, m, [vec for _, vec in gens])
    for v in alg.vertex_order:
        if cover.block(v).rank() != m.dim(v):
            raise ResolutionError("projective cover not surjective at %s" % v)
    return p, cover


def minimal_resolution(m: Representation) -> ComplexOfReps:
    """The minimal projective resolution ... -> P_1 -> P_0 of M as a
    complex of projectives, P_i in degree -i (no terms when M = 0), failing
    loudly past dim A steps.  The differentials commute with the arrows and
    compose to zero by construction, so the complex is not checked."""
    alg = m.algebra
    terms, diffs = {}, {}  # P_i, and d_i : P_i -> P_{i-1}, in degree -i
    cur, prev_incl = m, None  # the i-th syzygy and its inclusion
    for i in range(alg.dimension + 1):
        if cur.is_zero():
            res = ComplexOfReps(alg, terms, diffs)
            _assert_minimal(res)
            return res
        terms[-i], cover = projective_cover(cur)
        if prev_incl is not None:
            diffs[-i] = prev_incl.compose(cover)
        cur, prev_incl = kernel_of(cover)
    raise ResolutionError("resolution cap %d exceeded" % alg.dimension)


def _assert_minimal(res: ComplexOfReps):
    # differentials between projectives must land in the radical: the
    # coordinate of any generator image along a trivial-path basis label
    # of the target must vanish
    f = res.algebra.field
    for d, diff in res.diffs.items():
        p, p_next = res.terms[d], res.terms[d + 1]
        for j, v in enumerate(p.blocks):
            img = diff.block(v).col(p.labels_at(v).index((j, ())))
            for x, lab in zip(img, p_next.labels_at(v)):
                if lab[1] == () and not f.is_zero(x):
                    raise ResolutionError("non-minimal differential at step %d" % -d)


def hom_cohomology(q: ComplexOfReps, y: ComplexOfReps,
                   degrees: Sequence[int]) -> List[int]:
    """dim H^n Hom(Q, Y) for each n in degrees, in that order.

    Q is a bounded complex of projectives (`ProjectiveRep` terms) and Y a
    bounded complex of representations of the same algebra.  In generator
    coordinates a map out of a sum of projectives is its generator images,
    Hom(P, N) = (+)_g N(blocks[g]), and Hom^n = (+)_j Hom(Q^j, Y^{j+n})
    with D(phi) = d_Y phi - (-1)^n phi d_Q."""
    f = q.algebra.field
    qt, dq, yt, dy = q.terms, q.diffs, y.terms, y.diffs
    if not qt or not yt:
        return [0] * len(degrees)
    acts: Dict[tuple, ExactMatrix] = {}

    def act(k, v, path):
        """Y^k(path) for a path out of v, computed once per call."""
        if (k, v, path) not in acts:
            acts[k, v, path] = yt[k].act_path(v, path)
        return acts[k, v, path]

    # the blocks (j, g) of Hom^n with their dimensions, empty ones skipped,
    # once for each degree a requested H^n reads
    coords = {n: [((j, g), yt[j + n].dim(v)) for j in sorted(qt) if j + n in yt
                  for g, v in enumerate(qt[j].blocks) if yt[j + n].dim(v)]
              for n in {m + e for m in degrees for e in (-1, 0, 1)}}

    def rank(n):
        """Rank of D : Hom^n -> Hom^{n+1}."""
        src, tgt = coords[n], coords[n + 1]
        if not src or not tgt:
            return 0
        col = {c: i for i, (c, _) in enumerate(src)}
        row = {c: i for i, (c, _) in enumerate(tgt)}
        sign = f.from_int(1 if n % 2 else -1)  # -(-1)^n; n may be negative
        blocks = {}
        for (j, g), i in col.items():
            # d_Y phi: each generator image moves along d_Y at its vertex
            if j + n in dy and (j, g) in row:
                blocks[row[j, g], i] = dy[j + n].block(qt[j].blocks[g])
        for j in qt:
            if j - 1 not in dq or j + n not in yt:
                continue
            p, p_lo, d = qt[j], qt[j - 1], dq[j - 1]
            # phi d_Q: generator h of Q^{j-1} maps to d(e_h) = sum c . path e_g,
            # whose image under phi is sum c Y(path) phi(e_g)
            for h, w in enumerate(p_lo.blocks):
                if (j - 1, h) not in row:
                    continue
                image = d.block(w).col(p_lo.labels_at(w).index((h, ())))
                for (g, path), c in zip(p.labels_at(w), image):
                    if f.is_zero(c) or (j, g) not in col:
                        continue
                    term = act(j + n, p.blocks[g], path).scale(f.mul(sign, c))
                    key = (row[j - 1, h], col[j, g])
                    blocks[key] = blocks[key] + term if key in blocks else term
        if not blocks:
            return 0
        return ExactMatrix.from_blocks(blocks, [k for _, k in tgt],
                                       [k for _, k in src], f).rank()

    ranks = {m: rank(m) for m in set(degrees) | {n - 1 for n in degrees}}
    return [sum(k for _, k in coords[n]) - ranks[n] - ranks[n - 1] for n in degrees]


def global_dimension(a: BoundQuiverAlgebra) -> int:
    """The projective dimension of the top A/rad A, the direct sum of the
    simples, which is the largest projective dimension of a simple.

    A -> A/rad A is a projective cover, so the first syzygy of the top is
    rad A, and gldim A = 1 + pd rad A when rad A != 0 and 0 otherwise
    (Auslander-Reiten-Smalo 1995, I and III).  rad A is read off the
    regular module (`radical_rep`) and resolved once.  For an incidence
    algebra the dimension is read off the interval cohomology of its poset
    (`poset_global_dimension`); no module is resolved."""
    if a.poset is not None:
        return poset_global_dimension(a.poset, a.field)
    rad = radical_rep(a)
    return 0 if rad.is_zero() else len(minimal_resolution(rad).terms)


# -- the integer invariants of a Cartan matrix --------------------------------
#
# A Cartan matrix C arrives as integer rows in a topological vertex order,
# where every path goes forward and the only path v -> v is trivial: C is
# upper unitriangular.  For an incidence algebra it is the zeta matrix of the
# poset in a linear extension (`posets.zeta_rows`).  Every invariant below is
# unchanged when rows and columns are permuted together, so any topological
# order gives the same values.

def _check_unitriangular(c: Sequence[Sequence[int]]) -> None:
    n = len(c)
    for i, row in enumerate(c):
        if len(row) != n or row[i] != 1 or any(row[:i]):
            raise ValueError("Cartan matrix is not unitriangular in the vertex order")


def _inverse_unitriangular(c: Sequence[Sequence[int]]) -> List[List[int]]:
    """C^{-1} of an upper unitriangular integer matrix by back-substitution.

    The shape is checked first, so a matrix of any other shape raises
    instead of giving a wrong inverse."""
    _check_unitriangular(c)
    n = len(c)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(c[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return inv


def cartan_det(c: Sequence[Sequence[int]]) -> int:
    """det C: C is checked to be upper unitriangular, so det C is the
    product of its unit diagonal."""
    _check_unitriangular(c)
    return 1


def cartan_snf_antisym(c: Sequence[Sequence[int]]) -> tuple:
    """The Smith form of C - C^T."""
    n = len(c)
    return tuple(smith_normal_form([[c[i][j] - c[j][i] for j in range(n)]
                                    for i in range(n)]))


def cartan_antisym_rank_mod2(c: Sequence[Sequence[int]]) -> int:
    """The rank of C - C^T over GF(2), its rows taken as bitmasks and
    eliminated by XOR.  It equals the number of odd invariant factors in
    the Smith form of C - C^T: U (C - C^T) V = D with U, V unimodular stays
    an equation of invertible matrices mod 2."""
    n = len(c)
    pivots = {}
    for i in range(n):
        row = 0
        for j in range(n):
            if (c[i][j] ^ c[j][i]) & 1:
                row |= 1 << j
        while row:
            top = row.bit_length()
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _coxeter_rows(c: Sequence[Sequence[int]]) -> List[List[int]]:
    """Phi = -C^{-T} C as integer rows, solved from C^T Phi = -C by forward
    substitution: C^T is lower unitriangular, so row i of Phi is
    -C_i - sum_{k<i} c_ki Phi_k, over the k with c_ki != 0.  No inverse is
    built.  The shape is checked first, as for `_inverse_unitriangular`."""
    _check_unitriangular(c)
    phi: List[List[int]] = []
    for i, row in enumerate(c):
        new = [-x for x in row]
        for k in range(i):
            ck = c[k][i]
            if ck:
                new = [x - ck * y for x, y in zip(new, phi[k])]
        phi.append(new)
    return phi


def cartan_coxeter_polynomial(c: Sequence[Sequence[int]]) -> IntPolynomial:
    """The characteristic polynomial of Phi = -C^{-T} C."""
    return char_poly(_coxeter_rows(c))


def coxeter_polynomial(a: BoundQuiverAlgebra) -> IntPolynomial:
    return cartan_coxeter_polynomial(a.cartan_matrix().to_int_rows())


def euler_form_check(a: BoundQuiverAlgebra) -> bool:
    """sum_i (-1)^i dim Ext^i(S_x, S_y) must equal (C^{-1})_{x,y}."""
    cinv = _inverse_unitriangular(a.cartan_matrix().to_int_rows())
    simples = {v: simple_module(a, v) for v in a.vertex_order}
    res = {v: minimal_resolution(s) for v, s in simples.items()}
    degrees = range(max(len(r.terms) for r in res.values()))
    for i, x in enumerate(a.vertex_order):
        for j, y in enumerate(a.vertex_order):
            exts = hom_cohomology(res[x], stalk_complex_of(simples[y]), degrees)
            alt = sum((-1) ** k * d for k, d in enumerate(exts))
            if cinv[i][j] != alt:
                return False
    return True


# -- certificates ------------------------------------------------------------

COXETER_CONVENTION = "phi=-C^{-T}C"


@dataclass(frozen=True)
class InvariantCertificate:
    """Derived-invariant fingerprint.  total_dimension and the gldim value
    are informational only and excluded from invariant comparison.

    Finiteness of gldim is derived invariant too, but it is not compared:
    quivers here have no oriented cycles, so every algebra is directed and
    of finite global dimension."""

    simple_count: int
    total_dimension: int
    cartan_det: int
    coxeter: IntPolynomial
    snf_antisym: tuple
    gldim: int
    vertex_order: tuple

    def key(self):
        return (self.simple_count, self.cartan_det, self.coxeter.coeffs,
                self.snf_antisym)

    def same_invariants(self, other: "InvariantCertificate") -> bool:
        return self.key() == other.key()

    def to_json(self) -> dict:
        return {
            "simples": self.simple_count,
            "total_dimension": self.total_dimension,
            "det_cartan": self.cartan_det,
            "coxeter": list(self.coxeter.coeffs),
            "snf_antisym": list(self.snf_antisym),
            "gldim": self.gldim,
            "convention": COXETER_CONVENTION,
            "vertex_order": list(self.vertex_order),
        }


def _cartan_certificate(c: Sequence[Sequence[int]], total_dimension: int,
                        gldim: int, vertex_order: tuple) -> InvariantCertificate:
    """The certificate of an algebra with Cartan matrix c (integer rows in
    a topological vertex order) and the given informational fields."""
    return InvariantCertificate(
        simple_count=len(c),
        total_dimension=total_dimension,
        cartan_det=cartan_det(c),
        coxeter=cartan_coxeter_polynomial(c),
        snf_antisym=cartan_snf_antisym(c),
        gldim=gldim,
        vertex_order=vertex_order,
    )


def certificate(a: BoundQuiverAlgebra) -> InvariantCertificate:
    """The full certificate of a."""
    return _cartan_certificate(a.cartan_matrix().to_int_rows(), a.dimension,
                               global_dimension(a), a.vertex_order)


def poset_certificate(p: Poset, field=QQ) -> InvariantCertificate:
    """certificate(incidence_algebra(p, field)), read off p; no algebra is
    built.  The Cartan matrix is the zeta matrix (`zeta_rows`), the
    dimension is the number of order pairs, gldim comes from interval
    cohomology, and the vertex order is that of the Hasse quiver, which
    the incidence algebra takes as its own."""
    return _cartan_certificate(zeta_rows(p), p.order_pairs(),
                               poset_global_dimension(p, field),
                               hasse_quiver(p).topological_order)


def matches_certificate(c: Sequence[Sequence[int]], target: InvariantCertificate) -> bool:
    """certificate(a).same_invariants(target) for an algebra a with Cartan
    matrix c (integer rows in a topological vertex order), computing the
    compared fields cheapest first and stopping at the first that differs:
    simple count, det C, the GF(2) rank of C - C^T against the number of
    odd invariant factors of the target's Smith form, the Smith form of
    C - C^T, Coxeter polynomial.  The GF(2) rank is the number of odd
    invariant factors of C - C^T (`cartan_antisym_rank_mod2`), so a
    difference there proves the Smith forms differ; a candidate that
    agrees is still compared on the whole Smith form.  gldim is never
    computed; it is not part of the comparison."""
    if len(c) != target.simple_count:
        return False
    if cartan_det(c) != target.cartan_det:
        return False
    if cartan_antisym_rank_mod2(c) != sum(d & 1 for d in target.snf_antisym):
        return False
    if cartan_snf_antisym(c) != target.snf_antisym:
        return False
    return cartan_coxeter_polynomial(c).coeffs == target.coxeter.coeffs


# -- nerve (simplicial) cohomology and interval cohomology -------------------

def _reduced_cohomology(faces: Sequence[Sequence[tuple]], top: int, field) -> List[int]:
    """dim H~^d over field of the simplicial complex with faces[k] its
    k-simplices, for d = -1..top.  A simplex is a tuple of vertices, and
    deleting one of them gives a tuple listed one dimension lower (the
    chains of `order_complex` are such tuples).

    The augmented cochain complex puts the empty simplex in degree -1, so
    H~^{-1} = k exactly when the complex is empty.  With cells[k] the
    simplices on k vertices, the coboundary cells[k] -> cells[k+1] sends a
    simplex s to the sum of (-1)^j f over the f whose j-th vertex removed
    is s."""
    cells = [((),)] + [tuple(fs) for fs in faces]
    size = [len(cells[k]) if k < len(cells) else 0 for k in range(top + 3)]

    def rank(k):
        """Rank of the coboundary cells[k] -> cells[k+1]."""
        if not size[k] or not size[k + 1]:
            return 0
        index = {s: i for i, s in enumerate(cells[k])}
        rows = []
        for face in cells[k + 1]:
            row = [field.zero] * size[k]
            for j in range(k + 1):
                row[index[face[:j] + face[j + 1:]]] = field.from_int((-1) ** j)
            rows.append(tuple(row))
        return ExactMatrix(field, size[k + 1], size[k], tuple(rows)).rank()

    ranks = [rank(k) for k in range(top + 2)]
    return [size[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(top + 2)]


def _core_cohomology(p: Poset, core: int, top: int, field) -> List[int]:
    """dim H~^d, d = -1..top, of the order complex of p's subposet on the
    elements of the mask core, which `_core` has shrunk."""
    elements = [p.elements[k] for k in _members(core)]
    return _reduced_cohomology(order_complex(p, elements), top, field)


def nerve_cohomology(p: Poset, max_deg: int, field=QQ) -> List[int]:
    """Simplicial cohomology dims of the order complex over field, degrees
    0..max_deg: the reduced cohomology plus k in degree 0 (p nonempty).
    The complex is that of p's core (`_core`), which has the homotopy type
    of p's; a poset with a least or a greatest element has a one-point core."""
    up = p.up_masks
    core = _core(up, _down_masks(up), (1 << p.n) - 1)
    reduced = _core_cohomology(p, core, max_deg, field)[1:]
    return [h + (1 if d == 0 and p.n else 0) for d, h in enumerate(reduced)]


def poset_ext_dims(p: Poset, x: str, y: str, max_i: int, field=QQ) -> List[int]:
    """dim Ext^i(S_x, S_y) over the incidence algebra of p, i = 0..max_i,
    from the order complex of the open interval (x, y).

    Ext^i(S_x, S_y) vanishes unless x <= y; Ext^*(S_x, S_x) = k in degree
    0; and for x < y, Ext^n(S_x, S_y) = H~^{n-2}(Delta(x, y)), with
    H~^{-1} of the empty complex equal to k, so a cover gives Ext^1 = k
    (Cibils, JPAA 56, 1989; Igusa-Zacharia, Comm. Algebra 18, 1990)."""
    if x == y:
        return [1] + [0] * max_i
    if not p.lt(x, y):
        return [0] * (max_i + 1)
    index = p.elements.index
    return _interval_ext_dims(p, _down_masks(p.up_masks), index(x), index(y), max_i, field)


def _interval_ext_dims(p: Poset, down: Sequence[int], i: int, j: int,
                       max_i: int, field) -> List[int]:
    """poset_ext_dims for the elements i < j of p, given by index, with
    down the down-set masks of p."""
    core = _interval_core(p.up_masks, down, i, j)
    return [0] + _core_cohomology(p, core, max_i - 2, field)


def _interval_core(up: Sequence[int], down: Sequence[int], i: int, j: int) -> int:
    """The core of the open interval (i, j), as a mask over element indices."""
    return _core(up, down, up[i] & down[j] & ~(1 << i | 1 << j))


def _core(up: Sequence[int], down: Sequence[int], q: int) -> int:
    """The subset q (a mask over element indices) of the poset with up-set
    masks up and down-set masks down, with beat points removed one at a
    time until none is left.  A beat point is an element such that the
    elements above it, or those below it, in what remains have a least
    (greatest) one.  Removing one keeps the homotopy type of the order
    complex (Stong, Trans. AMS 123, 1966), so its cohomology over every
    field is unchanged; a chain shrinks to a point, so the 2^m - 1 chains
    of an interval of length m are never built."""
    removed = True
    while removed:
        removed = False
        for z in _members(q):
            bit = 1 << z
            above, below = up[z] & q & ~bit, down[z] & q & ~bit
            # a least element of above is one whose up-set holds all of
            # above; a greatest of below, one whose down-set holds all of below
            if (any(above & ~up[m] == 0 for m in _members(above))
                    or any(below & ~down[m] == 0 for m in _members(below))):
                q &= ~bit
                removed = True
    return q


def poset_global_dimension(p: Poset, field=QQ) -> int:
    """Global dimension of the incidence algebra of p: the largest n with
    Ext^n(S_x, S_y) != 0.

    Ext^n(S_x, S_y) = H~^{n-2} of the order complex of the core of (x, y),
    whose dimension is below the core's size, so n <= |core| + 1 over every
    field: a pair whose core has |core| + 1 <= g, the largest degree found
    so far, cannot raise g, and no complex is built for it."""
    up = p.up_masks
    down = _down_masks(up)
    g = 0
    for i, m in enumerate(up):
        for j in _members(m & ~(1 << i)):
            core = _interval_core(up, down, i, j)
            if core.bit_count() + 1 <= g:
                continue
            reduced = _core_cohomology(p, core, p.n - 2, field)
            # reduced[k] is H~^{k-1}, which is Ext^{k+1}
            g = max(g, max((k + 1 for k, d in enumerate(reduced) if d), default=0))
    return g


# -- Hochschild cohomology (relative bar complex) ----------------------------

class ResourceRefusal(RuntimeError):
    pass


# the most cochains hochschild_bar builds in one degree
BAR_SIZE_BUDGET = 20000


def hochschild_bar(a: BoundQuiverAlgebra, max_deg: int) -> List[int]:
    """HH^0..HH^max_deg via the bar complex relative to the vertex span.

    Degree-n cochains are vertex-span-bimodule maps rad^{(x)n} -> A; the
    vertex span is separable, so the relative complex computes absolute
    Hochschild cohomology.  Degrees above 3 are refused up front."""
    if max_deg > 3:
        raise ResourceRefusal("hochschild_bar supports max_deg <= 3, got %d" % max_deg)
    f = a.field
    # radical basis elements (u, v, path), and those out of each vertex
    rad, rad_from = [], {}
    for (u, v), paths in a._basis.items():
        for p in paths:
            if p:
                rad.append((u, v, p))
                rad_from.setdefault(u, []).append((u, v, p))
    # C^n has basis (argument tuple, block, value basis path); n = 0 cochains
    # live on diagonal blocks.  The composable n-tuples are listed once per
    # degree, each (n-1)-tuple extended by the radical elements out of its end.
    tuples = [[()]]
    spaces = [[((), (v, v), bp) for v in a.vertex_order for bp in a.basis(v, v)]]
    for n in range(max_deg + 2):
        if n:
            tuples.append([tup + (r,) for tup in tuples[-1]
                           for r in (rad_from.get(tup[-1][1], ()) if tup else rad)])
            spaces.append([(tup, (tup[0][0], tup[-1][1]), bp) for tup in tuples[n]
                           for bp in a.basis(tup[0][0], tup[-1][1])])
        if len(spaces[n]) > BAR_SIZE_BUDGET:
            raise ResourceRefusal("bar cochain space in degree %d has %d cochains, over the "
                                  "budget of %d" % (n, len(spaces[n]), BAR_SIZE_BUDGET))
    ranks = []  # of each coboundary C^n -> C^{n+1}, ranked once
    for n in range(max_deg + 1):
        src, tgt = spaces[n], spaces[n + 1]
        tgt_idx = {(tup, bp): i for i, (tup, blk, bp) in enumerate(tgt)}
        # the source cochains by argument tuple: (column, block, value path)
        by_args: Dict[tuple, list] = {}
        for k, (tup, blk, bp) in enumerate(src):
            by_args.setdefault(tup, []).append((k, blk, bp))
        cols = [[f.zero] * len(tgt) for _ in src]

        def add_at(k, big, elem, sign):
            col = cols[k]
            for bp2, c in elem.items():
                i = tgt_idx.get((big, bp2))
                if i is not None and not f.is_zero(c):
                    col[i] = f.add(col[i], f.mul(sign, c))

        # each composable (n+1)-tuple once; each bar term reaches only the
        # sources on one argument tuple, so no other source is compared
        last_sign = f.from_int(-1 if n % 2 == 0 else 1)  # (-1)^{n+1}
        for big in tuples[n + 1]:
            # term 0: r_1 * f(r_2..r_{n+1})
            r = big[0]
            for k, blk, bp in by_args.get(big[1:], ()):
                if r[1] == blk[0]:
                    add_at(k, big, a.reduce_path(r[0], blk[1], r[2] + bp), f.one)
            # middle terms: (-1)^i f(..., r_i r_{i+1}, ...), each product once
            for i in range(1, n + 1):
                r_i, r_j = big[i - 1], big[i]
                sign = f.from_int(1 if i % 2 == 0 else -1)
                for bp_mid, c_mid in a.reduce_path(r_i[0], r_j[1], r_i[2] + r_j[2]).items():
                    args = big[:i - 1] + ((r_i[0], r_j[1], bp_mid),) + big[i + 1:]
                    for k, blk, bp in by_args.get(args, ()):
                        add_at(k, big, {bp: c_mid}, sign)
            # last term: (-1)^{n+1} f(r_1..r_n) * r_{n+1}
            r = big[-1]
            for k, blk, bp in by_args.get(big[:-1], ()):
                if blk[1] == r[0]:
                    add_at(k, big, a.reduce_path(blk[0], r[1], bp + r[2]), last_sign)
        ranks.append(ExactMatrix.from_cols(cols, len(tgt), f).rank())
    return [len(spaces[n]) - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(max_deg + 1)]


def hochschild_of_poset(p: Poset, max_deg: int) -> List[int]:
    return hochschild_bar(incidence_algebra(p), max_deg)


def mitchell_equivalence_check(p: Poset) -> bool:
    """gldim <= 1 must coincide with the Hasse unique-path property."""
    a = incidence_algebra(p)
    return (global_dimension(a) <= 1) == unique_path_property(a.quiver)
