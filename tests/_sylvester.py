"""Reference resultants for the tests: the Sylvester matrix and its
Bareiss determinant, and Res_x(f(x), g(t - s*x)) by evaluation at nm + 1
integer points and Newton interpolation over the rationals.  The package
builds the latter from power sums instead (`polys.resultant_in_t`)."""

from fractions import Fraction

from traceforms.linalg import det_int
from traceforms.polys import padd, pdeg, pmul, pnormalize, pscale, psub


def sylvester_matrix(f, g):
    m, n = pdeg(f), pdeg(g)
    size = m + n
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + fr + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gr + [0] * (size - n - 1 - i))
    return rows


def resultant(f, g) -> int:
    """Resultant of two integer polynomials (via Sylvester + Bareiss)."""
    f, g = pnormalize(f), pnormalize(g)
    if not f or not g:
        return 0
    if pdeg(f) == 0:
        return f[0] ** pdeg(g)
    if pdeg(g) == 0:
        return g[0] ** pdeg(f)
    return det_int(sylvester_matrix(f, g))


def resultant_in_t_by_interpolation(f, g, shift=1):
    """Res_x(f(x), g(t - shift*x)) as an integer polynomial in t, from
    Sylvester resultants at t = 0, ..., nm and Newton interpolation."""
    deg = pdeg(f) * pdeg(g)
    points = list(range(deg + 1))
    values = []
    for t in points:
        # g(t - shift*x) as a polynomial in x
        gt = []
        for i, c in enumerate(g):
            term = [c]
            for _ in range(i):
                term = psub(pscale(term, t), [0] + pscale(term, shift))
            gt = padd(gt, term)
        values.append(resultant(f, gt))
    coeffs = [Fraction(v) for v in values]
    for j in range(1, deg + 1):
        for i in range(deg, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (points[i] - points[i - j])
    poly = []
    for i in reversed(range(deg + 1)):
        poly = padd(pmul(poly, [-points[i], 1]), [coeffs[i]])
    return [int(c) for c in poly]
