"""Rational references for the tests: division, the monic gcd and the
Sturm chain over ``Fraction``.  The package runs all three in Z[x], on
pseudo-division and primitive pseudo-remainders (`polys.pdivmod`,
`polys.sturm_real_roots`)."""

from fractions import Fraction

from traceforms.polys import pdeg, pderiv, pnormalize


def pdivmod_q(f, g):
    """Quotient and remainder over the rationals (exact)."""
    g = pnormalize(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = pnormalize([Fraction(c) for c in f])
    q = [Fraction(0)] * max(0, len(r) - len(g) + 1)
    lead = Fraction(g[-1])
    while r and len(r) >= len(g):
        c = r[-1] / lead
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[i + d] -= c * b
        r = pnormalize(r)
    return pnormalize(q), r


def pgcd_q(f, g):
    """Monic gcd over the rationals."""
    a, b = [Fraction(c) for c in pnormalize(f)], [Fraction(c) for c in pnormalize(g)]
    while b:
        a, b = b, pdivmod_q(a, b)[1]
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def is_squarefree_q(f) -> bool:
    return pdeg(pgcd_q(f, pderiv(f))) <= 0


def sturm_chain_q(f):
    """The Sturm chain f, f', -rem, ... of a squarefree polynomial over Q."""
    f = [Fraction(c) for c in pnormalize(f)]
    chain = [f, [Fraction(c) for c in pderiv(f)]]
    while pdeg(chain[-1]) > 0:
        rem = pdivmod_q(chain[-2], chain[-1])[1]
        if not rem:
            raise ValueError("Sturm chain requires a squarefree polynomial")
        chain.append([-c for c in rem])
    return chain


def sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_real_roots_q(f) -> int:
    """Distinct real roots of a squarefree polynomial of degree >= 1, from
    the signs of its rational Sturm chain at -infinity and +infinity."""
    chain = sturm_chain_q(f)
    return (sign_changes([p[-1] * (-1) ** pdeg(p) for p in chain])
            - sign_changes([p[-1] for p in chain]))
