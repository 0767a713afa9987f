import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dequiv import exactla
from dequiv.exactla import (QQ, ExactMatrix, IntPolynomial, PrimeField, char_poly,
                            field_from_spec, smith_normal_form)

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(101)]


def gauss_jordan(rows, ncols, f):
    """Independent rref oracle: textbook Gauss-Jordan in the field's own
    arithmetic (Fraction or ints mod p), normalising each pivot to 1.
    Returns (rank, pivot columns, rref rows)."""
    rows = [list(r) for r in rows]
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if not f.is_zero(rows[r][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = f.inv(rows[rank][col])
        rows[rank] = [f.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not f.is_zero(rows[r][col]):
                c0 = rows[r][col]
                rows[r] = [f.sub(x, f.mul(c0, y)) for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rank, pivots, rows


def cofactor_det(rows):
    """Independent determinant oracle by Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def test_rank_against_hand_elimination():
    rng = random.Random(7)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        m = ExactMatrix.from_rows(rows)
        assert m.rank() == gauss_jordan(m.entries, nc, QQ)[0]


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
                for _ in range(3)]
        m = ExactMatrix.from_rows(rows)
        assert m.rank() == m.transpose().rank()


def test_kernel_columns_are_annihilated():
    rng = random.Random(13)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        m = ExactMatrix.from_rows(rows)
        k = m.kernel()
        assert k.ncols == 5 - m.rank()
        if k.ncols:
            assert (m @ k).is_zero()


@pytest.mark.parametrize("f", [QQ, PrimeField(3)], ids=repr)
def test_kernel_columns_end_in_their_free_coordinate(f):
    # each kernel column's last nonzero entry is 1, at a row where every
    # other column is 0: a kernel vector's coordinates are its entries there
    rng = random.Random(29)
    for _ in range(60):
        nrows, ncols = rng.randint(0, 4), rng.randint(1, 6)
        m = ExactMatrix.from_rows([[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(ncols)]
                                   for _ in range(nrows)] or [[0] * ncols], f)
        k = m.kernel()
        cols = list(zip(*k.entries))
        assert len(cols) == ncols - m.rank()
        for c, col in enumerate(cols):
            last = max(r for r, x in enumerate(col) if not f.is_zero(x))
            assert col[last] == f.one
            assert all(f.is_zero(other[last]) for d, other in enumerate(cols) if d != c)


def test_solve_and_inverse():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[1], [1]])
    x = m.solve(b)
    assert (m @ x - b).is_zero()
    assert (m @ m.inverse() - ExactMatrix.identity(2)).is_zero()
    singular = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert singular.solve(ExactMatrix.from_rows([[0], [1]])) is None


def test_det_against_cofactor_expansion():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert ExactMatrix.from_rows(rows).det() == cofactor_det(rows)


def faddeev_leverrier(rows):
    """Oracle: det(xI - A) ascending, by Faddeev-LeVerrier over Fraction."""
    n = len(rows)
    a = ExactMatrix.from_rows([[Fraction(x) for x in r] for r in rows])
    ident = ExactMatrix.identity(n)
    coeffs = [Fraction(1)]  # descending
    mk = a
    for k in range(1, n + 1):
        if k > 1:
            mk = a @ (mk + ident.scale(coeffs[-1]))
        coeffs.append(-sum((mk.entries[i][i] for i in range(n)), Fraction(0)) / k)
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in reversed(coeffs))


def test_char_poly_matches_faddeev_leverrier():
    rng = random.Random(41)
    for n in range(1, 9):
        for _ in range(12):
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert char_poly(rows).coeffs == faddeev_leverrier(rows)


def test_char_poly_examples():
    assert char_poly([[1, 0], [0, 1]]).coeffs == (1, -2, 1)
    assert char_poly([[-1, -2], [2, 3]]).coeffs == (1, -2, 1)
    assert char_poly([[-1, -1], [1, 0]]).coeffs == (1, 1, 1)


def test_char_poly_similarity_invariance():
    rng = random.Random(19)
    a = ExactMatrix.from_rows([[2, 1, 0], [0, -1, 3], [1, 1, 1]])
    # conjugate by a random unimodular matrix
    u = ExactMatrix.from_rows([[1, rng.randint(-3, 3), rng.randint(-3, 3)],
                               [0, 1, rng.randint(-3, 3)],
                               [0, 0, 1]])
    conj = u @ a @ u.inverse()
    assert char_poly(a.to_int_rows()).coeffs == char_poly(conj.to_int_rows()).coeffs


def test_smith_normal_form_examples():
    assert smith_normal_form([[0, 2], [-2, 0]]) == [2, 2]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == []


def full_scan_smith_normal_form(m):
    """Reference for `smith_normal_form`: the same reduction, each pivot
    search scanning the whole remaining block for the first entry of least
    nonzero absolute value in row-major order."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0

    def least():
        piv = None
        for i in range(r0, nr):
            for j in range(c0, nc):
                if rows[i][j] != 0 and (piv is None or abs(rows[i][j]) < abs(rows[piv[0]][piv[1]])):
                    piv = (i, j)
        return piv

    diag = []
    r0 = c0 = 0
    while r0 < nr and c0 < nc:
        piv = least()
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
            piv = least()
        diag.append(abs(rows[r0][c0]))
        r0 += 1
        c0 += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a != 0:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return [d for d in diag if d != 0]


def test_smith_normal_form_equals_full_scan():
    # the pivot search stops at the first entry of absolute value 1, the
    # first least entry in row-major order, so every factor is the same;
    # half the matrices have no entry +-1, and some rows and columns are zero
    rng = random.Random(29)
    for k in range(400):
        nr, nc = rng.randint(0, 6), rng.randint(0, 6)
        values = [0, 0, 2, -2, 3, -4, 6, -9] if k % 2 else [0, 0, 1, -1, 2, -3, 4]
        rows = [[rng.choice(values) for _ in range(nc)] for _ in range(nr)]
        for i in range(nr):
            if rng.random() < 0.2:
                rows[i] = [0] * nc
        for j in range(nc):
            if rng.random() < 0.2:
                for row in rows:
                    row[j] = 0
        copy = [list(r) for r in rows]
        assert smith_normal_form(rows) == full_scan_smith_normal_form(rows)
        assert rows == copy


def test_smith_divisibility_and_unimodular_invariance():
    rng = random.Random(23)
    for _ in range(15):
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        m = ExactMatrix.from_rows(rows)
        fac = smith_normal_form(rows)
        assert all(fac[i + 1] % fac[i] == 0 for i in range(len(fac) - 1))
        u = ExactMatrix.from_rows([[1, rng.randint(-2, 2), 0], [0, 1, 0],
                                   [rng.randint(-2, 2), 0, 1]])
        assert smith_normal_form((u @ m).to_int_rows()) == fac
        assert smith_normal_form((m @ u).to_int_rows()) == fac


def test_prime_field_rank_matches_rationals_generically():
    f = field_from_spec("fp:10007")
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    mq = ExactMatrix.from_rows(rows)
    mp = ExactMatrix.from_rows([[f.from_int(x) for x in r] for r in rows], f)
    assert mq.rank() == mp.rank()


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.mul(f.from_int(3), f.inv(f.from_int(3))) == f.one
    assert f.add(f.from_int(6), f.one) == f.zero
    with pytest.raises(ValueError):
        field_from_spec("fp:8")


@pytest.mark.parametrize("f", [QQ, PrimeField(5)], ids=repr)
def test_from_int_refuses_non_integers(f):
    # (-1) ** -1 is the float -1.0: a sign written as a power of -1 with a
    # negative exponent must not reach a field as a float
    assert f.from_int(-(-1) ** 2) == f.neg(f.one)
    for x in (-(-1) ** -1, 1.0, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError, match="from_int takes an int"):
            f.from_int(x)


def test_rationals_hold_integers_as_int():
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.zero) is type(QQ.one) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(3, 2), Fraction(1, 2))) is int
    assert type(QQ.mul(Fraction(2, 3), 3)) is int
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert type(QQ.inv(-1)) is int
    assert [type(QQ.from_str(s)) for s in ("4", "4/2", "1/2")] == [int, int, Fraction]
    assert [QQ.quotient(3)(x) for x in (6, -9, 4)] == [2, -3, Fraction(4, 3)]
    assert QQ.quotient(-2)(3) == Fraction(-3, 2)
    assert [QQ.to_str(x) for x in (3, Fraction(-1, 2))] == ["3", "-1/2"]


def normal_form(entries):
    """Every integral entry an int, every other a Fraction with
    denominator > 1."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for r in entries for x in r)


def ints(m):
    return all(type(x) is int for r in m.entries for x in r)


def test_integral_input_gives_int_entries():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = ExactMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        b = ExactMatrix.from_rows([[rng.randint(-4, 4)] for _ in range(n)])
        assert ints(m @ m) and ints(m.scale(-3)) and ints(m - m.transpose())
        assert type(m.det()) is int
        x = m.solve(b)
        outs = [m.rref()[2], m.kernel()] + ([x] if x is not None else [])
        outs += [m.inverse()] if m.det() else []
        assert all(normal_form(out.entries) for out in outs)
        # unimodular u = lower * upper unitriangular: its inverse, the
        # solution of u x = u c, the rref of [u | u c] and its kernel
        # (-c over the identity) are integral, so all ints
        lo = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)] for i in range(n)]
        up = [[rng.randint(-3, 3) if j > i else int(i == j) for j in range(n)] for i in range(n)]
        u = ExactMatrix.from_rows(lo) @ ExactMatrix.from_rows(up)
        c = ExactMatrix.from_rows([[rng.randint(-4, 4) for _ in range(2)] for _ in range(n)])
        aug = u.hstack(u @ c)
        assert u.det() == 1 and type(u.det()) is int
        assert u.solve(u @ c) == c
        assert ints(u.inverse()) and ints(u.solve(u @ c))
        assert ints(aug.rref()[2]) and ints(aug.kernel())


def test_rank_and_kernel_consistency():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    rank, kernel = m.rank(), m.kernel()
    assert rank == 1
    assert kernel.ncols == 2
    assert (m @ kernel).is_zero()


def test_rank_and_kernel_eliminates_once(monkeypatch):
    calls = []
    original = ExactMatrix.rref

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ExactMatrix, "rref", counted)
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    kernel = m.kernel()
    assert len(calls) == 1
    assert m.kernel() == kernel
    assert len(calls) == 2
    assert kernel.ncols == 3 - m.rank() == 1
    assert (m @ kernel).is_zero()


def test_add_refuses_a_shape_mismatch_under_O(run_optimized):
    # zip would truncate the longer rows; the check is a raise, not an assert
    done = run_optimized(
        "from dequiv.exactla import ExactMatrix\n"
        "ExactMatrix.from_rows([[1, 2]]) - ExactMatrix.from_rows([[1, 2, 3]])\n")
    assert "ValueError: shape mismatch 1x2 + 1x3" in done.stderr


def test_hstack_refuses_a_row_mismatch_under_O(run_optimized):
    done = run_optimized(
        "from dequiv.exactla import ExactMatrix\n"
        "ExactMatrix.from_rows([[1], [2]]).hstack(ExactMatrix.from_rows([[1, 2]]))\n")
    assert "ValueError: shape mismatch: hstack of 2x1 and 1x2" in done.stderr


@pytest.mark.parametrize("f", [QQ, PrimeField(7)], ids=repr)
def test_opposite_sign_pivots_rescale_no_row(monkeypatch, f):
    # a signed permutation matrix: each pivot is +-1 and every other row has
    # a zero in its column.  A pivot of the sign opposite to the previous
    # one has its row negated, so no row is rescaled by -1, and det picks
    # up the sign of each negation.
    n = 6
    perm = [3, 0, 5, 1, 4, 2]
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = (-1) ** (i * (i + 1) // 2)
    m = ExactMatrix(f, n, n, tuple(tuple(f.from_int(x) for x in r) for r in rows))
    updates = []
    divider = f.divider

    def counted(d):
        div = divider(d)
        return lambda row: updates.append(row) or div(row)

    monkeypatch.setattr(f, "divider", counted)
    assert m.det() == f.from_int(cofactor_det(rows))
    assert m.rref() == (n, list(range(n)), ExactMatrix.identity(n, f))
    assert updates == []


# -- the one elimination against the oracles, over Q and GF(p) ---------------

def _entries(f):
    """Mostly-sparse entries; over Q a mix of ints and Fractions with
    denominators 2 to 4, each in the field's normal form."""
    if f is QQ:
        nonzero = st.one_of(st.integers(-6, 6), st.builds(
            lambda n, d: QQ.mul(n, QQ.inv(d)), st.integers(-6, 6), st.integers(2, 4)))
    else:
        nonzero = st.integers(0, f.p - 1)
    return st.one_of(st.just(f.zero), nonzero)


def _matrix(data, f, nrows, ncols):
    rows = data.draw(st.lists(st.lists(_entries(f), min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    return ExactMatrix(f, nrows, ncols, tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rref_and_kernel_match_gauss_jordan(f, data):
    m = _matrix(data, f, data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6)))
    rank, pivots, rr = m.rref()
    o_rank, o_pivots, o_rows = gauss_jordan(m.entries, m.ncols, f)
    assert (rank, pivots) == (o_rank, o_pivots)
    assert rr.entries == tuple(tuple(r) for r in o_rows)
    k = m.kernel()
    assert (k.nrows, k.ncols) == (m.ncols, m.ncols - o_rank)
    assert (m @ k).is_zero()
    assert normal_form(rr.entries) and normal_form(k.entries) and normal_form((m @ k).entries)
    assert gauss_jordan(k.transpose().entries, k.nrows, f)[0] == k.ncols


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_solve_matches_gauss_jordan_consistency(f, data):
    m = _matrix(data, f, data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    nb = data.draw(st.integers(1, 2))
    if data.draw(st.booleans()):
        b = m @ _matrix(data, f, m.ncols, nb)
    else:
        b = _matrix(data, f, m.nrows, nb)
    x = m.solve(b)
    consistent = (gauss_jordan(m.hstack(b).entries, m.ncols + nb, f)[0]
                  == gauss_jordan(m.entries, m.ncols, f)[0])
    if consistent:
        assert (x.nrows, x.ncols) == (m.ncols, nb)
        assert (m @ x - b).is_zero()
        assert normal_form(x.entries)
    else:
        assert x is None


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_det_and_inverse_match_cofactor_expansion(f, data):
    n = data.draw(st.integers(1, 5))
    m = _matrix(data, f, n, n)
    d = cofactor_det(m.entries) if f is QQ else cofactor_det(m.entries) % f.p
    assert m.det() == d and normal_form([[m.det()]])
    if f.is_zero(d):
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert m @ m.inverse() == ExactMatrix.identity(n, f)
        assert normal_form(m.inverse().entries)


# -- the product kernels against the term-by-term loops they replaced --------

def oracle_transpose(m):
    return ExactMatrix(m.field, m.ncols, m.nrows,
                       tuple(tuple(m.entries[r][c] for r in range(m.nrows))
                             for c in range(m.ncols)))


def oracle_matmul(a, b):
    """a @ b one term at a time in the field's own arithmetic, each partial
    sum put in normal form, zero terms skipped."""
    f = a.field
    rows = []
    for ra in a.entries:
        row = []
        for cb in oracle_transpose(b).entries:
            acc = f.zero
            for x, y in zip(ra, cb):
                if not f.is_zero(x) and not f.is_zero(y):
                    acc = f.add(acc, f.mul(x, y))
            row.append(acc)
        rows.append(tuple(row))
    return ExactMatrix(f, a.nrows, b.ncols, tuple(rows))


def oracle_is_zero(m):
    return all(m.field.is_zero(x) for r in m.entries for x in r)


def oracle_char_poly(a):
    """Berkowitz with every dot product summed term by term."""
    q = [1]
    for k in range(len(a)):
        block = [row[:k] for row in a[:k]]
        r = a[k][:k]
        v = [row[k] for row in a[:k]]
        s = []
        for t in range(k):
            if t:
                v = [sum(x * y for x, y in zip(row, v)) for row in block]
            s.append(sum(x * y for x, y in zip(r, v)))
        e = a[k][k]
        nxt = q + [0]
        for d in range(1, k + 2):
            nxt[d] -= e * q[d - 1]
            if d >= 2:
                nxt[d] -= sum(q[j] * s[d - 2 - j] for j in range(d - 1))
        q = nxt
    return tuple(reversed(q))


def in_normal_form(m):
    if m.field is QQ:
        return normal_form(m.entries)
    return all(type(x) is int and 0 <= x < m.field.p for r in m.entries for x in r)


def assert_kernels_match(a, b):
    prod = a @ b
    assert prod == oracle_matmul(a, b) and in_normal_form(prod)
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    for m in (a, b, prod):
        assert m.transpose() == oracle_transpose(m)
        assert m.is_zero() == oracle_is_zero(m)


@pytest.mark.parametrize("f", [QQ, PrimeField(5)], ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_match_the_term_loop(f, data):
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    assert_kernels_match(_matrix(data, f, n, k), _matrix(data, f, k, m))


@pytest.mark.parametrize("f", [QQ, PrimeField(5)], ids=repr)
def test_products_on_empty_and_one_by_one_shapes(f):
    rng = random.Random(47)
    pool = ([0, 1, -2, Fraction(1, 2), Fraction(-5, 3)] if f is QQ else list(range(5)))

    def matrix(nrows, ncols):
        return ExactMatrix(f, nrows, ncols, tuple(tuple(rng.choice(pool) for _ in range(ncols))
                                                  for _ in range(nrows)))
    for n, k in [(0, 3), (3, 0), (0, 0), (1, 1)]:
        for m in (0, 1, 3):
            assert_kernels_match(matrix(n, k), matrix(k, m))
    # a product with an empty inner dimension is zero, not empty
    assert matrix(2, 0) @ matrix(0, 3) == ExactMatrix.zero(2, 3, f)
    assert matrix(0, 3).transpose().entries == ((),) * 3
    for x in pool:
        one = ExactMatrix(f, 1, 1, ((x,),))
        assert (one @ one).entries == ((f.mul(x, x),),)


@pytest.mark.parametrize("f", [QQ, PrimeField(5)], ids=repr)
def test_empty_products_still_check_the_inner_dimension(f):
    # an empty product returns the zero matrix at once, but only after the
    # shape check
    for (n, k), (k2, m) in [((0, 2), (3, 1)), ((2, 3), (2, 0)), ((0, 0), (1, 0)),
                            ((2, 0), (1, 2))]:
        with pytest.raises(ValueError, match="shape mismatch"):
            ExactMatrix.zero(n, k, f) @ ExactMatrix.zero(k2, m, f)
    one = ExactMatrix.identity(2, f)
    assert ExactMatrix.zero(0, 2, f) @ one == ExactMatrix.zero(0, 2, f)
    assert ExactMatrix.zero(2, 0, f).entries == ((), ())
    assert (one @ ExactMatrix.zero(2, 0, f)).entries == ((), ())


@pytest.mark.parametrize("f", [QQ, PrimeField(5)], ids=repr)
def test_empty_shapes_are_not_eliminated(f, monkeypatch):
    def eliminate(*args):
        raise AssertionError("eliminated an empty shape")

    monkeypatch.setattr(exactla, "_eliminate", eliminate)
    for n, k in [(0, 3), (3, 0), (0, 0)]:
        m = ExactMatrix.zero(n, k, f)
        assert m.pivot_cols() == [] and m.rank() == 0
        assert m.rref() == (0, [], m)
        assert m.kernel() == ExactMatrix.identity(k, f)


def test_char_poly_matches_the_term_loop():
    rng = random.Random(43)
    for n in range(9):
        for _ in range(10):
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert char_poly(rows).coeffs == IntPolynomial.of(oracle_char_poly(rows)).coeffs


def test_prime_fields_compare_by_their_prime():
    # field_from_spec builds a new GF(p) on every call; matrices over two
    # such fields with the same entries are equal
    f, g = exactla.field_from_spec("fp:3"), exactla.field_from_spec("fp:3")
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != PrimeField(5) and f != QQ and QQ != f
    assert ExactMatrix.from_rows([[1, 2]], PrimeField(3)) == \
        ExactMatrix.from_rows([[1, 2]], PrimeField(3))
    assert ExactMatrix.from_rows([[1, 2]], PrimeField(3)) != \
        ExactMatrix.from_rows([[1, 2]], PrimeField(5))


@pytest.mark.parametrize("combine", [
    lambda a, b: a @ b.transpose(),
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a.hstack(b),
    lambda a, b: ExactMatrix.from_blocks({(0, 0): a, (0, 1): b}, [1], [2, 2], a.field),
], ids=["matmul", "add", "sub", "hstack", "from_blocks"])
def test_arithmetic_refuses_operands_over_two_fields(combine):
    # matmul is the reproducer [[1, 2]] over GF(3) times [[1], [1]] over Q
    gf3, qq = ExactMatrix.from_rows([[1, 2]], PrimeField(3)), ExactMatrix.from_rows([[1, 1]])
    with pytest.raises(ValueError, match=r"operands over two fields: GF\(3\) and QQ"):
        combine(gf3, qq)
    # two PrimeField(3) objects are one field
    assert combine(gf3, ExactMatrix.from_rows([[1, 1]], PrimeField(3))).field == PrimeField(3)

