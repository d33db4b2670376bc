"""Exact univariate polynomial arithmetic.

Polynomials are coefficient lists with the constant term first, so
``[b, a, 1]`` is x^2 + a x + b.  Coefficients are integers: division is
pseudo-division, and gcds and Sturm chains run on primitive
pseudo-remainders in Z[x].  Includes Newton power sums and what is read off
them: the discriminant (a Hankel determinant) and the compositum polynomial
`resultant_in_t` (Newton's identities with exact integer division).  Also
Sturm real-root counting, factorization mod p, Zassenhaus factorization
over the integers (monic case) and a rational-root test, which is all the
field machinery needs.
"""

from __future__ import annotations

import itertools
from math import comb, gcd, isqrt

from .errors import ConsistencyError, RepeatedRootError
from .linalg import det_int
from .padic import is_prime


def pnormalize(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def pdeg(f) -> int:
    return len(f) - 1


def padd(f, g):
    n = max(len(f), len(g))
    return pnormalize([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                       for i in range(n)])


def psub(f, g):
    n = max(len(f), len(g))
    return pnormalize([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)
                       for i in range(n)])


def pmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return pnormalize(out)


def pscale(f, c):
    if c == 0:
        return []
    return [a * c for a in f]


def pderiv(f):
    return pnormalize([i * c for i, c in enumerate(f)][1:])


def _int_poly(f, caller, monic=False):
    """f without trailing zeros; ValueError unless its coefficients are
    integers and, if `monic`, the leading one is 1."""
    f = pnormalize(f)
    if any(not isinstance(c, int) for c in f) or monic and f[-1:] != [1]:
        what = "a monic integer polynomial" if monic else "integer coefficients"
        raise ValueError(f"{caller} requires {what}")
    return f


def pdivmod(f, g):
    """Pseudo-division in Z[x]: (q, r) with lead(g)^k f = q g + r, deg r <
    deg g and k = max(0, deg f - deg g + 1); exact division for monic g."""
    f, g = _int_poly(f, "pdivmod"), _int_poly(g, "pdivmod")
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    lead, n = g[-1], pdeg(g)
    q, r = [0] * max(0, len(f) - n), f
    for d in reversed(range(len(q))):
        c = r.pop()
        if lead != 1:
            q, r = [lead * x for x in q], [lead * x for x in r]
        q[d] = c
        for i, b in enumerate(g[:-1]):
            r[i + d] -= c * b
    return pnormalize(q), pnormalize(r)


def _primitive(f):
    """f divided by the (positive) gcd of its coefficients."""
    c = gcd(*f)
    return [x // c for x in f] if c > 1 else f


def _primitive_gcd(f, g):
    """gcd in Z[x] of the primitive parts of f and g, by primitive
    pseudo-remainders, with a positive leading coefficient (so monic for
    monic f, by Gauss's lemma)."""
    a, b = _primitive(f), _primitive(g)
    while b:
        a, b = b, _primitive(pdivmod(a, b)[1])
    return a if a[-1] > 0 else [-c for c in a]


def power_sums(poly, count):
    """Newton power sums p_k = sum of roots^k for k < count (monic poly)."""
    n = pdeg(poly)
    sums = [n]
    for k in range(1, count):
        acc = 0
        for i in range(1, k):
            if 0 <= n - i < n:
                acc += poly[n - i] * sums[k - i]
        coeff = poly[n - k] if 0 <= n - k < n else 0
        sums.append(-k * coeff - acc)
    return sums


def discriminant(f) -> int:
    """Discriminant of a monic integer polynomial of degree >= 2; other
    input raises ValueError.

    With V the Vandermonde matrix of the roots, disc = det(V)^2 =
    det(V^T V), and V^T V is the n x n Hankel matrix of the power sums
    (p_(i+j)): a Bareiss determinant of size n, not 2n - 1 as for
    Res(f, f').
    """
    f = _int_poly(f, "discriminant", monic=True)
    n = pdeg(f)
    if n < 2:
        raise ValueError("degree must be at least 2")
    sums = power_sums(f, 2 * n - 1)
    disc = det_int([sums[i:i + n] for i in range(n)])
    if disc == 0:
        raise RepeatedRootError("polynomial has a repeated root")
    return disc


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_real_roots(f) -> int:
    """Number of distinct real roots of a squarefree integer polynomial.
    A pseudo-remainder is lead(b)^(deg a - deg b + 1) times the rational
    one, so signed and made primitive it is a positive multiple of the
    rational Sturm remainder, and the sign sequences are the same."""
    f = _int_poly(f, "sturm_real_roots")
    if pdeg(f) <= 0:
        return 0
    chain = [f, _primitive(pderiv(f))]
    while pdeg(chain[-1]) > 0:
        a, b = chain[-2], chain[-1]
        rem = pdivmod(a, b)[1]
        if not rem:
            raise RepeatedRootError("Sturm chain requires a squarefree polynomial")
        if b[-1] > 0 or (pdeg(a) - pdeg(b)) % 2:
            rem = [-c for c in rem]
        chain.append(_primitive(rem))
    # signs at -infinity and +infinity from leading terms
    at_minus = [p[-1] * (-1) ** pdeg(p) for p in chain]
    at_plus = [p[-1] for p in chain]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


# ---------------------------------------------------------------------------
# arithmetic mod p


def mp_normalize(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def mp_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return mp_normalize(out, p)


def mp_divmod(f, g, p):
    g = mp_normalize(g, p)
    if not g:
        raise ZeroDivisionError
    r = mp_normalize(f, p)
    q = [0] * max(0, len(r) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    while r and len(r) >= len(g):
        c = r[-1] * inv % p
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[i + d] = (r[i + d] - c * b) % p
        while r and r[-1] == 0:
            r.pop()
    return mp_normalize(q, p), r


def mp_gcd(f, g, p):
    a, b = mp_normalize(f, p), mp_normalize(g, p)
    while b:
        a, b = b, mp_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def mp_pow_mod(base, e: int, modpoly, p):
    result = [1]
    base = mp_divmod(base, modpoly, p)[1]
    while e:
        if e & 1:
            result = mp_divmod(mp_mul(result, base, p), modpoly, p)[1]
        base = mp_divmod(mp_mul(base, base, p), modpoly, p)[1]
        e >>= 1
    return result


def mp_radical(f, p):
    """rad(f) of a monic f mod p: the product of its distinct monic
    irreducible factors.  With c = gcd(f, f'), f / c is the product of the
    factors whose multiplicity p does not divide; dividing those out of c
    leaves a p-th power, whose root is handled the same way."""
    f = mp_normalize(f, p)
    if pdeg(f) < 1:
        return [1]
    df = mp_normalize(pderiv(f), p)
    if not df:
        return mp_radical(f[::p], p)  # f(x) = u(x^p) = u(x)^p over F_p
    c = mp_gcd(f, df, p)
    g = mp_divmod(f, c, p)[0]
    while pdeg(c) > 0:
        y = mp_gcd(c, g, p)
        if pdeg(y) == 0:
            return mp_mul(g, mp_radical(c[::p], p), p)
        c = mp_divmod(c, y, p)[0]
    return g


def mp_squarefree_decomposition(f, p):
    """f monic mod p -> list of (monic squarefree factor, multiplicity)."""
    out = []

    def recurse(f, mult):
        f = mp_normalize(f, p)
        if pdeg(f) <= 0:
            return
        df = mp_normalize(pderiv(f), p)
        if not df:
            recurse(f[::p], mult * p)  # f(x) = u(x^p) = u(x)^p
            return
        c = mp_gcd(f, df, p)
        w = mp_divmod(f, c, p)[0]
        i = 1
        while pdeg(w) > 0:
            y = mp_gcd(w, c, p)
            z = mp_divmod(w, y, p)[0]
            if pdeg(z) > 0:
                out.append((z, mult * i))
            w = y
            c = mp_divmod(c, y, p)[0]
            i += 1
        if pdeg(c) > 0:
            recurse(c[::p], mult * p)

    recurse(f, 1)
    return out


def _mp_distinct_degree(f, p):
    """f squarefree monic -> list of (product of degree-d irreducibles, d)."""
    out = []
    fstar = f
    x = [0, 1]
    w = x
    d = 0
    while pdeg(fstar) >= 2 * (d + 1):
        d += 1
        w = mp_pow_mod(w, p, fstar, p)
        g = mp_gcd(psub(w, x), fstar, p)
        if pdeg(g) > 0:
            out.append((g, d))
            fstar = mp_divmod(fstar, g, p)[0]
            w = mp_divmod(w, fstar, p)[1]
    if pdeg(fstar) > 0:
        out.append((fstar, pdeg(fstar)))
    return out


def _int_to_poly(k: int, p: int):
    digits = []
    while k:
        digits.append(k % p)
        k //= p
    return digits


def _mp_equal_degree(f, d, p):
    """Split a product of degree-d irreducibles into its factors.

    Cantor-Zassenhaus with a deterministic sequence of try elements, so
    results are reproducible run to run.
    """
    n = pdeg(f)
    if n == d:
        return [f]
    factors = [f]
    counter = p  # start at polynomials of degree >= 1
    while any(pdeg(g) > d for g in factors):
        a = mp_normalize(_int_to_poly(counter, p), p)
        counter += 1
        if pdeg(a) < 1:
            continue
        if p == 2:
            t = a
            acc = a
            for _ in range(d - 1):
                acc = mp_pow_mod(acc, 2, f, 2)
                t = padd(t, acc)
            t = mp_normalize(t, 2)
        else:
            t = psub(mp_pow_mod(a, (p**d - 1) // 2, f, p), [1])
            t = mp_normalize(t, p)
        new = []
        for g in factors:
            if pdeg(g) == d:
                new.append(g)
                continue
            h = mp_gcd(t, g, p)
            if 0 < pdeg(h) < pdeg(g):
                new.append(h)
                new.append(mp_divmod(g, h, p)[0])
            else:
                new.append(g)
        factors = new
    return factors


def factor_mod_p(f, p):
    """Full factorization of a monic polynomial mod p.

    Returns a list of (monic irreducible, multiplicity), deterministically
    ordered by (degree, coefficient tuple).
    """
    f = mp_normalize(f, p)
    out = []
    for sqf, mult in mp_squarefree_decomposition(f, p):
        for prod, d in _mp_distinct_degree(sqf, p):
            for irr in _mp_equal_degree(prod, d, p):
                out.append((irr, mult))
    out.sort(key=lambda t: (pdeg(t[0]), t[0]))
    return out


# ---------------------------------------------------------------------------
# factorization over the integers (monic case)


def _hensel_lift_pair(f, g, h, p, e):
    """Lift f = g*h (mod p) to mod p^e; all monic, g,h coprime mod p."""
    # Bezout: u*g + v*h = 1 mod p
    a, b = g, h
    u0, v0, u1, v1 = [1], [], [], [1]
    while b:
        q, r = mp_divmod(a, b, p)
        a, b = b, r
        u0, u1 = u1, mp_normalize(psub(u0, pmul(q, u1)), p)
        v0, v1 = v1, mp_normalize(psub(v0, pmul(q, v1)), p)
    inv = pow(a[0], -1, p)
    u = mp_normalize(pscale(u0, inv), p)
    v = mp_normalize(pscale(v0, inv), p)
    big_g, big_h = list(g), list(h)
    pk = p
    while pk < p**e:
        diff = psub(f, pmul(big_g, big_h))
        delta = mp_normalize([c // pk for c in diff] if diff else [], p)
        if delta:
            bcorr = mp_divmod(mp_mul(v, delta, p), g, p)[1]
            acorr = mp_divmod(psub(delta, mp_mul(bcorr, h, p)), g, p)[0]
            big_g = padd(big_g, pscale(bcorr, pk))
            big_h = padd(big_h, pscale(acorr, pk))
        pk *= p
    modulus = pk
    return (
        [c % modulus for c in big_g],
        [c % modulus for c in big_h],
        modulus,
    )


def _hensel_lift_list(f, factors, p, e):
    """Lift a list of monic factors of f mod p to factors mod p^e."""
    if len(factors) == 1:
        modulus = p**e
        return [[c % modulus for c in f]]
    mid = len(factors) // 2
    g = [1]
    for fac in factors[:mid]:
        g = mp_mul(g, fac, p)
    h = [1]
    for fac in factors[mid:]:
        h = mp_mul(h, fac, p)
    big_g, big_h, _ = _hensel_lift_pair(f, g, h, p, e)
    return _hensel_lift_list(big_g, factors[:mid], p, e) + _hensel_lift_list(
        big_h, factors[mid:], p, e
    )


def _center(c, modulus):
    c %= modulus
    return c - modulus if c > modulus // 2 else c


def _factor_squarefree_monic_int(f):
    """Irreducible monic integer factors of a squarefree monic polynomial."""
    n = pdeg(f)
    if n <= 1:
        return [f]
    # pick a prime with squarefree reduction and few modular factors
    best = None
    tried = 0
    p = 2
    while tried < 5:
        p += 1
        while not is_prime(p):
            p += 1
        fp = mp_normalize(f, p)
        if pdeg(fp) != n:
            continue
        if pdeg(mp_gcd(fp, pderiv(fp), p)) != 0:
            continue
        tried += 1
        fac = factor_mod_p(fp, p)
        if best is None or len(fac) < len(best[1]):
            best = (p, fac)
        if len(fac) == 1:
            break
    p, modular = best
    if len(modular) == 1:
        return [f]
    # Mignotte-style bound on coefficients of monic factors
    norm = isqrt(sum(c * c for c in f)) + 1
    bound = 2**n * norm
    e = 1
    while p**e < 2 * bound + 1:
        e += 1
    lifted = _hensel_lift_list(f, [g for g, _ in modular], p, e)
    modulus = p**e

    remaining = list(range(len(lifted)))
    current = f
    found = []
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for combo in itertools.combinations(remaining, size):
            prod = [1]
            for idx in combo:
                prod = [c % modulus for c in pmul(prod, lifted[idx])]
            candidate = [_center(c, modulus) for c in prod]
            if candidate[0] == 0 or current[0] % candidate[0] != 0:
                continue
            q, r = pdivmod(current, candidate)
            if r:
                continue
            found.append(candidate)
            current = q
            remaining = [i for i in remaining if i not in combo]
            hit = True
            break
        if not hit:
            size += 1
    found.append(current)
    found.sort(key=lambda g: (pdeg(g), g))
    return found


def factor_monic_int(f):
    """Factor a monic integer polynomial into monic irreducibles over Z.

    Returns a sorted list of (factor, multiplicity).
    """
    f = _int_poly(f, "factor_monic_int", monic=True)
    if pdeg(f) < 1:
        return []
    out: dict[tuple, int] = {}
    # strip powers of x
    k = 0
    while f[0] == 0:
        f = f[1:]
        k += 1
    if k:
        out[(0, 1)] = k
    current = f
    while pdeg(current) > 0:
        part = pdivmod(current, _primitive_gcd(current, pderiv(current)))[0]
        for irr in _factor_squarefree_monic_int(part):
            key = tuple(irr)
            mult = 0
            while True:
                q, r = pdivmod(current, irr)
                if r:
                    break
                current = q
                mult += 1
            out[key] = out.get(key, 0) + mult
    return sorted(([list(g), m] for g, m in out.items()), key=lambda t: (pdeg(t[0]), t[0]))


# has_rational_root tries divisors while isqrt(|f[0]|) and |lead| are at
# most this; near it the trial loop costs about what Zassenhaus does on a
# cubic, and past it the loop would grow without bound on huge input
ROOT_DIVISOR_CAP = 10_000


def has_rational_root(f) -> bool:
    """Whether an integer polynomial (constant term first, any nonzero
    leading coefficient) has a root in Q.

    A root s/q in lowest terms has q | lead and s | f[0], so the divisor
    pairs decide it.  When isqrt(|f[0]|) or |lead| passes
    ``ROOT_DIVISOR_CAP``, the linear factors of the monic image
    lead^(n-1) f(y / lead) decide it instead.
    """
    f = _int_poly(f, "has_rational_root")
    n = pdeg(f)
    if n < 1:
        return not f
    if f[0] == 0:
        return True
    lead, m = f[-1], abs(f[0])
    top = isqrt(m)
    if max(top, abs(lead)) > ROOT_DIVISOR_CAP:
        monic = [c * lead ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
        return any(pdeg(g) == 1 for g, _ in factor_monic_int(monic))
    qs = [q for q in range(1, abs(lead) + 1) if lead % q == 0]
    lower = f[-2::-1]
    for s in range(1, top + 1):
        if m % s:
            continue
        for t in (s, -s, m // s, -(m // s)):
            for q in qs:
                # q^n f(t / q)
                value, qpow = lead, 1
                for c in lower:
                    qpow *= q
                    value = value * t + c * qpow
                if value == 0:
                    return True
    return False


def is_irreducible_int(f) -> bool:
    """Irreducibility over Q of a monic integer polynomial.

    A reducible polynomial of degree <= 3 has a linear factor, so there
    the rational-root test is exact.  From degree 4 on, the polynomial
    must be squarefree and Zassenhaus must find a single factor.
    """
    f = _int_poly(f, "is_irreducible_int", monic=True)
    n = pdeg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    if n <= 3:
        return not has_rational_root(f)
    if f[0] == 0 or pdeg(_primitive_gcd(f, pderiv(f))) > 0:
        return False
    return len(_factor_squarefree_monic_int(f)) == 1


def resultant_in_t(f, g, shift: int = 1):
    """Res_x(f(x), g(t - shift*x)) for monic integer f and g: the monic
    integer polynomial in t whose roots are shift*a + b over the roots a
    of f and b of g.  Other input raises ValueError.

    Used by the field isomorphism test.  Its power sums are
    P_k = sum_i C(k, i) shift^i p_i(f) p_(k-i)(g), and Newton's identities
    k c_(N-k) = -sum_(i=1..k) c_(N-k+i) P_i give its coefficients with
    exact integer division.
    """
    f, g = (_int_poly(h, "resultant_in_t", monic=True) for h in (f, g))
    deg = pdeg(f) * pdeg(g)
    pf, pg = power_sums(f, deg + 1), power_sums(g, deg + 1)
    sums = [sum(comb(k, i) * shift**i * pf[i] * pg[k - i] for i in range(k + 1))
            for k in range(deg + 1)]
    top = [1]  # c_N, c_(N-1), ...: coefficients from the leading one down
    for k in range(1, deg + 1):
        c, rem = divmod(-sum(top[k - i] * sums[i] for i in range(1, k + 1)), k)
        if rem:
            raise ConsistencyError(f"Newton's identity at k = {k} leaves a remainder")
        top.append(c)
    return top[::-1]
