import random
from fractions import Fraction

import pytest

from _optimized import run_optimized
from traceforms.errors import SingularFormError
from traceforms.linalg import (
    det_int,
    fp_left_kernel,
    fp_nullspace,
    hnf,
    mat_mul,
    transpose,
    unimodular_inverse,
)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_by_elimination(m) -> Fraction:
    """Reference determinant by Fraction Gaussian elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return result


def test_det_agreement():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_by_elimination(m) == det_int(m)


def test_mat_mul_shape_check_survives_python_O():
    # a 1x2 times a 3x1 used to come back as [[5]] under -O
    proc = run_optimized("""
from traceforms.linalg import mat_mul
try:
    print(mat_mul([[1, 2]], [[1], [2], [3]]))
except ValueError:
    raise SystemExit(0)
raise SystemExit(1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def mat_inverse(m):
    """Reference inverse by Fraction Gauss-Jordan elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularFormError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def test_inverse():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det_int(m) == 0:
            continue
        inv = mat_inverse(m)
        prod = mat_mul(m, inv)
        assert prod == identity(n)


def random_unimodular(rng, n):
    """A product of random elementary moves and sign flips."""
    u = identity(n)
    for _ in range(rng.randint(0, 12)):
        i, j = rng.sample(range(n), 2)
        t = rng.choice([-3, -2, -1, 1, 2, 3])
        for row in u:
            row[i] += t * row[j]
    for i in rng.sample(range(n), rng.randint(0, n)):
        for row in u:
            row[i] = -row[i]
    return u


def test_unimodular_inverse_agrees_with_reference():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 4)
        u = random_unimodular(rng, n)
        inv = unimodular_inverse(u)
        assert inv == mat_inverse(u)
        assert mat_mul(u, inv) == identity(n)
    assert unimodular_inverse([[-1]]) == [[-1]]


@pytest.mark.parametrize("m", [[[2]], [[2, 1], [1, 2]], [[1, 2], [2, 4]],
                               [[3, 0, 0], [0, 1, 0], [0, 0, 1]]])
def test_unimodular_inverse_rejects_other_determinants(m):
    with pytest.raises(ValueError):
        unimodular_inverse(m)


def spans_same_lattice(rows, h):
    """Every row must be an integer combination of the HNF rows."""
    if not h:
        return all(not any(r) for r in rows)
    ncols = len(h[0])
    pivots = []
    for r in h:
        pivots.append(next(c for c in range(ncols) if r[c] != 0))
    for row in rows:
        rem = [Fraction(x) for x in row]
        for r, pc in zip(h, pivots):
            if rem[pc] != 0:
                q = rem[pc] / r[pc]
                if q.denominator != 1:
                    return False
                rem = [x - q * y for x, y in zip(rem, r)]
        if any(rem):
            return False
    return True


def test_hnf_properties():
    rng = random.Random(7)
    for _ in range(300):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-8, 8) for _ in range(ncols)] for _ in range(nrows)]
        h = hnf(rows)
        # echelon with positive pivots, entries above reduced
        last = -1
        for r in h:
            pc = next(c for c in range(ncols) if r[c] != 0)
            assert pc > last
            last = pc
            assert r[pc] > 0
        for i, r in enumerate(h):
            pc = next(c for c in range(ncols) if r[c] != 0)
            for other in h[:i]:
                assert 0 <= other[pc] < r[pc]
        assert spans_same_lattice(rows, h)
        assert hnf(h) == h


def test_hnf_regression_row_loss():
    # rows zeroing out in an early column must still contribute later columns
    rows = [
        [26, 1, 0, 0, 0],
        [26, 0, 1, 0, 0],
        [1, 0, 0, 1, 0],
        [6, 0, 0, 0, 1],
        [31, 0, 0, 0, 0],
        [0, 31, 0, 0, 0],
        [0, 0, 31, 0, 0],
        [0, 0, 0, 31, 0],
        [0, 0, 0, 0, 31],
    ]
    h = hnf(rows)
    assert len(h) == 5
    assert spans_same_lattice(rows, h)
    # index of the lattice in Z^5 must be 31 (rank-4 radical mod 31)
    d = 1
    for i, r in enumerate(h):
        d *= r[i]
    assert d == 31


def test_fp_kernels():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 31])
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
        for v in fp_nullspace(m, p):
            out = [sum(m[i][j] * v[j] for j in range(nc)) % p for i in range(nr)]
            assert all(x == 0 for x in out)
        for t in fp_left_kernel(m, p):
            out = [sum(t[i] * m[i][j] for i in range(nr)) % p for j in range(nc)]
            assert all(x == 0 for x in out)
        # rank-nullity
        rank = nr - len(fp_left_kernel(m, p))
        assert rank == nc - len(fp_nullspace(m, p))
