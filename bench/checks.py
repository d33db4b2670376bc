"""The benchmark's own output checks.

Every check is an explicit comparison recorded in a `Checks` tally, never
an `assert`, so `python -O` cannot strip it.  Checks use only integer
arithmetic written here, not the library's own verification code.
"""

from __future__ import annotations


class Checks:
    """Tally of checks attempted and failed, with the names of failures.

    An audit check compares the program with reference data on a property
    it is known to get wrong (the cubic search's completeness).  Audit
    failures count in `failed` but not in `failed_exact`, the failures of
    results the program promises to be exact.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_exact = 0
        self.failures: list[str] = []

    def check(self, ok: bool, name: str, audit: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_exact += not audit
            self.failures.append(name)
        return ok


def det_int(m) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def witness_ok(g1, g2, u) -> bool:
    """U^T G1 U == G2 and |det U| == 1, for matrices given as rows; U's
    entries must be integers."""
    n = len(g1)
    if len(u) != n or any(len(row) != n for row in u):
        return False
    if any(getattr(x, "denominator", None) != 1 for row in u for x in row):
        return False
    for x in range(n):
        for y in range(n):
            value = sum(u[r][x] * g1[r][s] * u[s][y] for r in range(n) for s in range(n))
            if value != g2[x][y]:
                return False
    return abs(det_int(u)) == 1


def completeness(found: dict[int, int], reference: dict[int, int], limit: int):
    """Per-disc field counts of a search against the reference, for every
    disc with |disc| <= limit that either side has.

    Returns (disc, reference count, found count) sorted by disc.
    """
    discs = {d for d in (*found, *reference) if abs(d) <= limit}
    return [(d, reference.get(d, 0), found.get(d, 0)) for d in sorted(discs)]


def check_counts(checks: Checks, found, reference, limit: int, known_missing):
    """Record one check per disc of `completeness`.

    A count short by exactly `known_missing[disc]` (fields the search is
    known to lose) is an audit failure; any other mismatch, missing or
    extra, is an exact failure.  Returns the completeness rows.
    """
    rows = completeness(found, reference, limit)
    for disc, want, got in rows:
        known = known_missing.get(disc, 0)
        checks.check(want == got, f"field-count@{disc}:reference={want},search={got}",
                     audit=known > 0 and got == want - known)
    return rows
