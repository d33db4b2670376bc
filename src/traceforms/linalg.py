"""Small exact linear algebra over the integers and F_p.

Matrices are lists of row lists.  Everything is pure and allocates fresh
results; sizes here never exceed a few dozen rows, so clarity wins over
asymptotics.
"""

from __future__ import annotations


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    n, k, kb, c = len(a), len(a[0]), len(b), len(b[0])
    if k != kb:
        raise ValueError(f"cannot multiply {n}x{k} by {kb}x{c}")
    out = [[0] * c for _ in range(n)]
    for i in range(n):
        ai = a[i]
        row = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(c):
                    row[j] += x * bt[j]
    return out


def det_int(m) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(m)
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


def unimodular_inverse(m):
    """Exact integer inverse of a matrix with determinant +-1, as det * adj(m).

    Raises ValueError when |det| != 1, where the inverse is not integral.
    """
    n = len(m)
    d = det_int(m)
    if abs(d) != 1:
        raise ValueError(f"matrix has determinant {d}, not +-1")
    if n == 1:
        return [[d]]
    # entry (i, j) of the adjugate is the (j, i) cofactor
    return [
        [
            d * (-1) ** (i + j) * det_int(
                [row[:i] + row[i + 1:] for r, row in enumerate(m) if r != j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Rows are lattice generators.  Returns the reduced list of nonzero rows
    in echelon form with positive pivots and entries above each pivot
    reduced into [0, pivot).
    """
    m = [list(map(int, r)) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    result = []
    for col in range(ncols):
        live = [r for r in m if r[col] != 0]
        rest = [r for r in m if r[col] == 0 and any(r)]
        if not live:
            m = rest
            continue
        # gcd-reduce on this column; rows that zero out keep feeding later columns
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            still = [base]
            for r in live[1:]:
                q = r[col] // base[col]
                for c in range(ncols):
                    r[c] -= q * base[c]
                if r[col] != 0:
                    still.append(r)
                elif any(r):
                    rest.append(r)
            live = still
        pivot_row = live[0]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        # reduce previously fixed rows against the new pivot
        for r in result:
            if r[col] != 0:
                q = r[col] // pivot_row[col]
                for c in range(ncols):
                    r[c] -= q * pivot_row[c]
        result.append(pivot_row)
        m = rest
    return result


def fp_nullspace(a, p: int):
    """Basis of {v : a.v = 0 mod p} as column vectors (returned as lists)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[x % p for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] % p != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-m[i][fc]) % p
        basis.append(v)
    return basis


def fp_left_kernel(a, p: int):
    """Basis of row vectors t with t.a = 0 mod p."""
    return fp_nullspace(transpose(a), p)
