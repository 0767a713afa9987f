"""Exact linear algebra over Q and prime fields, plus Z-matrix normal forms.

Everything downstream (path-class bases, Cartan matrices, resolutions,
Hochschild cochains) runs through :class:`ExactMatrix`.  Rank, kernel,
solve, inverse and det all read their results off one fraction-free
Gauss-Jordan elimination on integer rows (:func:`_eliminate`); the field
supplies the few steps where Q and GF(p) differ.

A field element is a plain Python value: over GF(p) an int in [0, p),
over Q an int when it is integral and a Fraction (denominator > 1)
otherwise, so matrices of integers never touch Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, List, Optional, Sequence


def _q(x):
    """A rational in normal form: an int when integral, else the Fraction."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _int(n):
    """n itself if it is an int: a float or Fraction is refused, not coerced."""
    if not isinstance(n, int):
        raise TypeError("from_int takes an int, not %s" % type(n).__name__)
    return n


class RationalField:
    """The field Q.  An integral element is a Python int; any other is a
    Fraction with denominator > 1.  Every operation returns this form, so
    integer input stays on int arithmetic."""

    name = "Q"

    zero = 0
    one = 1

    def from_int(self, n):
        return _int(n)

    def add(self, a, b):
        return _q(a + b)

    def sub(self, a, b):
        return _q(a - b)

    def mul(self, a, b):
        return _q(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        return _q(Fraction(1) / a)

    def is_zero(self, a):
        return a == 0

    def normal(self, x):
        """The element equal to the int or Fraction x, in normal form."""
        return _q(x)

    def to_str(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def from_str(self, s):
        return _q(Fraction(s))

    # steps of _eliminate that differ between the fields

    def integer_rows(self, entries):
        """Each row times the lcm of its denominators, and those multipliers."""
        rows, mults = [], []
        for r in entries:
            m = lcm(*[x.denominator for x in r])
            rows.append([x.numerator for x in r] if m == 1
                        else [x.numerator * (m // x.denominator) for x in r])
            mults.append(m)
        return rows, mults

    def divider(self, d):
        """Divides an integer row by d, which divides every entry."""
        if d == 1:
            return lambda row: row
        return lambda row: [x // d for x in row]

    def quotient(self, d):
        """Maps an integer x to the field element x / d."""
        if d == 1:
            return lambda x: x
        return lambda x: Fraction(x, d) if x % d else x // d

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) with elements represented as ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError("not a prime: %d" % p)
        self.p = p
        self.name = "F%d" % p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return _int(n) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def normal(self, x):
        """The element equal to the int x, in [0, p)."""
        return x % self.p

    def to_str(self, a):
        return str(a % self.p)

    def from_str(self, s):
        return int(s) % self.p

    # steps of _eliminate that differ between the fields

    def integer_rows(self, entries):
        """The entries as ints in [0, p); every row multiplier is 1."""
        p = self.p
        return [[x % p for x in r] for r in entries], [1] * len(entries)

    def divider(self, d):
        """Divides an integer row by d in GF(p), reducing it mod p."""
        p, inv = self.p, self.inv(d)
        return lambda row: [x * inv % p for x in row]

    def quotient(self, d):
        """Maps an integer x to the field element x / d."""
        p, inv = self.p, self.inv(d)
        return lambda x: x * inv % p

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))


QQ = RationalField()


def field_from_spec(spec: str):
    """Parse a field flag: 'q' for the rationals, 'fp:PRIME' for GF(p)."""
    spec = spec.strip().lower()
    if spec in ("q", "qq"):
        return QQ
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError("unknown field spec %r" % spec)


def _same_field(f, g):
    """f, when g is the same field; operands over two fields are refused."""
    if f is not g and f != g:
        raise ValueError("operands over two fields: %r and %r" % (f, g))
    return f


@dataclass(slots=True)
class ExactMatrix:
    """Dense matrix over an exact field, compared by value.

    The entries are a tuple of row tuples, so a matrix's content cannot
    change, and no operation reassigns an attribute; nothing guards
    against it, since a frozen dataclass, which sets each field through
    object.__setattr__, takes four times as long to build.  Instances are
    not hashable: hash `entries` instead."""

    field: object
    nrows: int
    ncols: int
    entries: tuple  # tuple of row tuples

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], field=QQ) -> "ExactMatrix":
        rows = [tuple(field.from_int(x) if isinstance(x, int) else x for x in r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(field, nrows, ncols, tuple(rows))

    @staticmethod
    def from_cols(cols: Sequence[Sequence], nrows: int, field=QQ) -> "ExactMatrix":
        """Matrix with the given columns of field elements; nrows fixes the
        shape when there are no columns."""
        if any(len(c) != nrows for c in cols):
            raise ValueError("columns must have %d entries" % nrows)
        entries = tuple(zip(*cols)) if cols else ((),) * nrows
        return ExactMatrix(field, nrows, len(cols), entries)

    @staticmethod
    def from_blocks(blocks, row_dims: Sequence[int], col_dims: Sequence[int],
                    field=QQ) -> "ExactMatrix":
        """Block matrix from {(i, j): ExactMatrix}; missing blocks are zero.
        Block (i, j) must be row_dims[i] x col_dims[j]."""
        for (i, j), m in blocks.items():
            _same_field(field, m.field)
            if (m.nrows, m.ncols) != (row_dims[i], col_dims[j]):
                raise ValueError("block (%d, %d) is %dx%d, expected %dx%d"
                                 % (i, j, m.nrows, m.ncols, row_dims[i], col_dims[j]))
        zero = field.zero
        rows = tuple(sum((blocks[i, j].entries[r] if (i, j) in blocks else (zero,) * nc
                          for j, nc in enumerate(col_dims)), ())
                     for i, nr in enumerate(row_dims) for r in range(nr))
        return ExactMatrix(field, sum(row_dims), sum(col_dims), rows)

    @staticmethod
    def zero(nrows: int, ncols: int, field=QQ) -> "ExactMatrix":
        """The zero matrix; its rows are one shared tuple, so an empty shape
        builds no row at all."""
        return ExactMatrix(field, nrows, ncols, ((field.zero,) * ncols,) * nrows)

    @staticmethod
    def identity(n: int, field=QQ) -> "ExactMatrix":
        z, o = field.zero, field.one
        return ExactMatrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    # -- basic ops ---------------------------------------------------------

    def col(self, c):
        return tuple(self.entries[r][c] for r in range(self.nrows))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        f = _same_field(self.field, other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch %dx%d + %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        return ExactMatrix(f, self.nrows, self.ncols, tuple(
            tuple(f.add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        f = self.field
        return ExactMatrix(f, self.nrows, self.ncols, tuple(
            tuple(f.neg(a) for a in r) for r in self.entries))

    def scale(self, c) -> "ExactMatrix":
        f = self.field
        if isinstance(c, int):
            c = f.from_int(c)
        return ExactMatrix(f, self.nrows, self.ncols, tuple(
            tuple(f.mul(c, a) for a in r) for r in self.entries))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Each entry is the plain sum of its products, put in normal form
        once; a product with an empty shape is the zero matrix, with no
        product taken."""
        f = _same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %dx%d @ %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        if not (self.nrows and self.ncols and other.ncols):
            return ExactMatrix.zero(self.nrows, other.ncols, f)
        normal = f.normal
        cols = tuple(zip(*other.entries))
        return ExactMatrix(f, self.nrows, other.ncols, tuple(
            tuple(normal(sum(map(mul, row, col))) for col in cols) for row in self.entries))

    def transpose(self) -> "ExactMatrix":
        entries = tuple(zip(*self.entries)) if self.nrows else ((),) * self.ncols
        return ExactMatrix(self.field, self.ncols, self.nrows, entries)

    def is_zero(self) -> bool:
        """Entries are stored in normal form, so a zero entry is falsy."""
        return not any(map(any, self.entries))

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.nrows != other.nrows:
            raise ValueError("shape mismatch: hstack of %dx%d and %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        return ExactMatrix(_same_field(self.field, other.field), self.nrows,
                           self.ncols + other.ncols,
                           tuple(ra + rb for ra, rb in zip(self.entries, other.entries)))

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Return (rank, pivot_cols, rref matrix).  A matrix with no rows or
        no columns is its own rref, with no elimination."""
        if not (self.nrows and self.ncols):
            return 0, [], self
        f = self.field
        pivots, rows, last, _, _ = _eliminate(f, self.entries, self.ncols)
        rank = len(pivots)
        q = f.quotient(last)
        out = tuple(tuple(map(q, r)) for r in rows[:rank])
        out += ((f.zero,) * self.ncols,) * (self.nrows - rank)
        return rank, pivots, ExactMatrix(f, self.nrows, self.ncols, out)

    def pivot_cols(self) -> List[int]:
        """The pivot columns of the elimination; no rref is built, and a
        matrix with no rows or no columns is not eliminated."""
        if not (self.nrows and self.ncols):
            return []
        return _eliminate(self.field, self.entries, self.ncols)[0]

    def rank(self) -> int:
        """The number of pivots of the elimination; no rref is built."""
        return len(self.pivot_cols())

    def kernel(self) -> "ExactMatrix":
        """Matrix whose columns form a basis of the right kernel, from one
        rref.  Column k has 1 at the k-th free (non-pivot) coordinate f_k, 0
        at every other free coordinate, and its other nonzero entries at
        pivots left of f_k: f_k is the column's last nonzero entry, and the
        rows at the free coordinates form the identity."""
        f = self.field
        _, pivots, rr = self.rref()
        pivset = set(pivots)
        cols = []
        for fc in range(self.ncols):
            if fc in pivset:
                continue
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(rr.entries[i][fc])
            cols.append(v)
        return ExactMatrix.from_cols(cols, self.ncols, f)

    def solve(self, b: "ExactMatrix") -> Optional["ExactMatrix"]:
        """A particular solution X of self @ X = b, or None if inconsistent."""
        f = self.field
        rank, pivots, rr = self.hstack(b).rref()
        if pivots and pivots[-1] >= self.ncols:
            return None
        rows = [(f.zero,) * b.ncols] * self.ncols
        for i, pc in enumerate(pivots):
            rows[pc] = rr.entries[i][self.ncols:]
        return ExactMatrix(f, self.ncols, b.ncols, tuple(rows))

    def inverse(self) -> "ExactMatrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        x = self.solve(ExactMatrix.identity(self.nrows, self.field))
        if x is None or not (self @ x - ExactMatrix.identity(self.nrows, self.field)).is_zero():
            raise ValueError("matrix not invertible")
        return x

    def det(self):
        """Exact determinant: the sign of the row swaps times the last pivot
        of the fraction-free elimination, over the product of the row
        multipliers."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        f = self.field
        pivots, _, last, sign, mults = _eliminate(f, self.entries, self.ncols)
        if len(pivots) < self.nrows:
            return f.zero
        return f.quotient(prod(mults))(sign * last)

    # -- conversions -------------------------------------------------------

    def to_int_rows(self):
        for r in self.entries:
            for x in r:
                if x.denominator != 1:
                    raise ValueError("non-integer entry %s" % x)
        return [[x.numerator for x in r] for r in self.entries]


def _eliminate(field, entries, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968).

    field.integer_rows turns the entries into integer rows, each scaled by
    a row multiplier.  With p the new pivot and prev the previous one (1 at
    the start), each step replaces every other row r by
    (p * r - r[col] * pivot row) / prev; over Z the division is exact, over
    GF(p) it is a multiplication by the inverse.  At the end every pivot
    row has the last pivot in its pivot column, so dividing the first rank
    rows by it gives the rref, and the rows past the rank are zero.

    Returns (pivot columns, integer rows, last pivot, sign, row multipliers),
    sign being the parity of the row swaps and row negations: a square
    matrix of full rank has det = sign * last pivot / prod(row multipliers).
    """
    rows, mults = field.integer_rows(entries)
    nrows = len(rows)
    pivots = []
    prev = sign = 1
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        prow = rows[rank]
        p = prow[col]
        if p != prev and field.is_zero(p + prev):
            # negate a pivot row whose pivot is -prev (and the sign of det):
            # then p == prev, and a row with a zero in this column is left as
            # it is instead of being rescaled by -1
            prow = rows[rank] = [field.neg(x) for x in prow]
            p = prow[col]
            sign = -sign
        div = field.divider(prev)
        for r, row in enumerate(rows):
            a = row[col]
            if r != rank and (a or p != prev):
                rows[r] = div([p * x - a * y for x, y in zip(row, prow)])
        pivots.append(col)
        prev = p
        if rank + 1 == nrows:
            break
    return pivots, rows, prev, sign, mults


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending by degree, normalized."""

    coeffs: tuple

    @staticmethod
    def of(coeffs: Iterable[int]) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(int(c) for c in cs))


def char_poly(a: Sequence[Sequence[int]]) -> IntPolynomial:
    """Characteristic polynomial det(xI - A) of a square integer matrix
    given as integer rows.

    Division-free Berkowitz over Z (Berkowitz, IPL 18, 1984).  Bordering the
    leading k x k block B by column c, row r and corner e gives

        p_{k+1}(x) = (x - e) p_k(x) - sum_i x^{k-1-i} sum_{j<=i} q_j r B^{i-j} c

    with q_j the descending coefficients of p_k.
    """
    if any(len(row) != len(a) for row in a):
        raise ValueError("char_poly requires a square matrix")
    q = [1]  # descending coefficients of the leading block's char poly
    for k in range(len(a)):
        # s[t] = r B^t c for the k x k block B bordered by row and column k
        block = [row[:k] for row in a[:k]]
        r = a[k][:k]
        v = [row[k] for row in a[:k]]
        s = []
        for t in range(k):
            if t:
                v = [sum(map(mul, row, v)) for row in block]
            s.append(sum(map(mul, r, v)))
        e = a[k][k]
        nxt = q + [0]
        for d in range(1, k + 2):
            nxt[d] -= e * q[d - 1]
            if d >= 2:
                nxt[d] -= sum(q[j] * s[d - 2 - j] for j in range(d - 1))
        q = nxt
    return IntPolynomial.of(reversed(q))


def _least_entry(rows, r0: int, c0: int, nc: int):
    """The position of the first entry of least nonzero absolute value in
    rows r0.. and columns c0..nc-1, in row-major order, or None when they
    are all zero.  An entry of absolute value 1 is such a first least
    entry, so the scan stops there."""
    piv, least = None, 0
    for i in range(r0, len(rows)):
        row = rows[i]
        for j in range(c0, nc):
            x = row[j]
            if x and (piv is None or abs(x) < least):
                piv, least = (i, j), abs(x)
                if least == 1:
                    return piv
    return piv


def smith_normal_form(m: Sequence[Sequence[int]]):
    """Invariant factors d1 | d2 | ... (positive, rank many) of an integer
    matrix given as integer rows; the rows are not modified."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    diag = []
    r0 = c0 = 0
    while r0 < nr and c0 < nc:
        piv = _least_entry(rows, r0, c0, nc)
        if piv is None:
            break
        while True:
            i, j = piv
            rows[r0], rows[i] = rows[i], rows[r0]
            for k in range(nr):
                rows[k][c0], rows[k][j] = rows[k][j], rows[k][c0]
            p = rows[r0][c0]
            dirty = False
            for i in range(r0 + 1, nr):
                q = rows[i][c0] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r0])]
                if rows[i][c0] != 0:
                    dirty = True
            for j in range(c0 + 1, nc):
                q = rows[r0][j] // p
                if q:
                    for i in range(nr):
                        rows[i][j] -= q * rows[i][c0]
                if rows[r0][j] != 0:
                    dirty = True
            if not dirty:
                break
            # a smaller remainder appeared somewhere in the pivot row/column
            piv = _least_entry(rows, r0, c0, nc)
        diag.append(abs(rows[r0][c0]))
        r0 += 1
        c0 += 1
    # enforce the divisibility chain on the diagonal
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return [d for d in diag if d != 0]
