"""Exact enumeration of cubic fields of bounded discriminant.

Delone-Faddeev: cubic rings correspond to GL2(Z)-classes of integral
binary cubic forms F = (a, b, c, d), with disc(R(F)) = disc(F), and R(F) is
the maximal order of a cubic field exactly when F is irreducible and
maximal at every p (Davenport-Heilbronn).  So each cubic field is one
class of irreducible maximal forms of disc(F) = disc(K), and listing one
reduced form per class lists every field exactly once, with no maximal
order and no isomorphism test.  With a > 0, F is irreducible exactly when
F(x, 1) has no rational root (`polys.has_rational_root`, the test that
also decides `polys.is_irreducible_int` in degree <= 3).  The enumeration
follows Belabas (Math. Comp. 66, 1997), with every bound in integer
arithmetic.

* D < 0.  F has one real root theta and complex roots tau, conj(tau).  F
  is reduced when a > 0, 0 < Re tau < 1/2 and |tau| > 1.  Since F(x, 1) > 0
  exactly when x > theta, these read b*c < a*d < (a + b)(a + b + c) and
  d^2 - b*d + a*c - a^2 > 0.  A tie would need a rational theta, so
  irreducible forms have none.  |D| = a^4 |theta - tau|^4 (2 Im tau)^2 and
  Im tau > sqrt(3)/2 give 27 a^4 <= 16 X and the ranges of b and c.
* D > 0.  The Hessian (P, Q, R) = (b^2 - 3ac, bc - 9ad, c^2 - 3bd) is
  positive definite, and F is reduced when a > 0 and 0 <= Q <= P <= R.  On
  the boundary (Q = 0, Q = P or P = R) F is kept only if it is the least of
  its reduced images under the GL2(Z) matrices with entries in {-1, 0, 1}.
  Translation x -> x + ky fixes a, P and g = 2b^3 - 9abc + 27a^2 d, and the
  syzygy 4P^3 = g^2 + 27 a^2 D with P <= sqrt(D) gives 729 a^4 <= 16 X; so
  the loop runs over a, b mod 3a, P and g, and translates Q into (-P, P].

Maximality is tested only at p with p^2 | D.  Each field is reported by a
monic polynomial x^3 + b'x^2 + a'c'x + a'^2 d' from an image (a', b', c',
d') of its form with a' = |F(u, v)| prime to D, so the polynomial's index
a' shares no prime with the discriminant and every ramified prime splits
natively.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import ConsistencyError, LimitError, RepeatedRootError
from .padic import is_prime
from .polys import (
    discriminant,
    factor_monic_int,
    has_rational_root,
    pdeg,
    resultant_in_t,
)

# largest height max(|u|, |v|) tried for an index prime to the disc
MAX_INDEX_HEIGHT = 64
# largest shift s tried for a squarefree Res_x(f(x), g(t - s*x))
MAX_SHIFT = 12


@dataclass(frozen=True)
class CubicFieldClass:
    """One cubic field found by the search: field discriminant, reduced
    binary cubic form (a, b, c, d) and monic defining polynomial,
    constant term first, whose index is prime to the discriminant."""

    disc: int
    form: tuple
    poly: tuple


def _square_primes(disc: int, primes):
    """Primes p with p^2 | disc, given every prime up to |disc|^(1/3)."""
    m = abs(disc)
    out = []
    for p in primes:
        if p * p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                out.append(p)
                while m % p == 0:
                    m //= p
    # m now has at most two prime factors, none of them checked above
    r = isqrt(m)
    if r > 1 and r * r == m:
        out.append(r)
    return out


def _maximal_at(a, b, c, d, p) -> bool:
    """Davenport-Heilbronn: F is maximal at p unless F = 0 mod p or a
    multiple root of F mod p, moved to (1 : 0), leaves p^2 | a."""
    if a % p == 0 and b % p == 0:
        # the only multiple root is (1 : 0), unless F = 0 mod p
        return a % (p * p) != 0 and (c % p != 0 or d % p != 0)
    for r in range(p):
        v = ((a * r + b) * r + c) * r + d
        if v % p == 0 and ((3 * a * r + 2 * b) * r + c) % p == 0:
            return v % (p * p) != 0
    return True


def _act(form, u, s, v, t):
    """F(ux + sy, vx + ty)."""
    a, b, c, d = form
    return (
        ((a * u + b * v) * u + c * v * v) * u + d * v * v * v,
        3 * a * u * u * s + b * (u * u * t + 2 * u * s * v)
        + c * (s * v * v + 2 * u * v * t) + 3 * d * v * v * t,
        3 * a * u * s * s + b * (s * s * v + 2 * u * s * t)
        + c * (u * t * t + 2 * s * v * t) + 3 * d * v * t * t,
        ((a * s + b * t) * s + c * t * t) * s + d * t * t * t,
    )


def _positive_reduced(form) -> bool:
    a, b, c, d = form
    p, q, r = b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d
    return a > 0 and 0 <= q <= p <= r


_SMALL_GL2 = [
    (u, s, v, t)
    for u in (-1, 0, 1) for s in (-1, 0, 1) for v in (-1, 0, 1) for t in (-1, 0, 1)
    if u * t - s * v in (-1, 1)
]


def _least_on_boundary(form) -> bool:
    """True iff `form` is the least of its sign-normalised images under
    _SMALL_GL2 that stay reduced.  Two reduced forms of one class have the
    same Hessian and differ by one of its automorphisms, and every GL2(Z)
    automorphism of a reduced positive definite binary quadratic form has
    entries in {-1, 0, 1}."""
    for m in _SMALL_GL2:
        image = _act(form, *m)
        if image[0] < 0:
            image = tuple(-x for x in image)
        if image < form and _positive_reduced(image):
            return False
    return True


def _ceil_root4(num: int, den: int) -> int:
    """Least r >= 0 with r^4 * den >= num."""
    r = isqrt(isqrt(num // den))
    while r**4 * den < num:
        r += 1
    return r


def _negative_forms(limit: int):
    """(D, form) for every reduced form with -limit <= D < 0; the caller
    drops the reducible and the non-maximal ones."""
    a = 1
    while 27 * a**4 <= 16 * limit:
        big = _ceil_root4(limit, 3 * a**4)
        aa = a * a
        for b in range(-a * (big + 2), a * (big + 1) + 1):
            b2, b3 = b * b, b * b * b
            for c in range(a * (1 - big) - 1, a * (big * big + big + 1) + 2):
                lo = b * c // a + 1
                hi = ((a + b) * (a + b + c) - 1) // a
                if lo > hi:
                    continue
                # D(d) = -27a^2 d^2 + beta d + gamma >= -limit
                beta = 18 * a * b * c - 4 * b3
                gamma = b2 * c * c - 4 * a * c * c * c
                delta = beta * beta + 108 * aa * (gamma + limit)
                if delta < 0:
                    continue
                root = isqrt(delta) + 1
                lo = max(lo, (beta - root) // (54 * aa))
                hi = min(hi, -((-beta - root) // (54 * aa)))
                for d in range(lo, hi + 1):
                    if d * d - b * d + a * c - aa <= 0:
                        continue
                    disc = gamma + (beta - 27 * aa * d) * d
                    if -limit <= disc < 0:
                        yield disc, (a, b, c, d)
        a += 1


def _positive_forms(limit: int):
    """(D, form) for every reduced form with 0 < D <= limit, one per
    GL2(Z)-class; the caller drops the reducible and the non-maximal ones."""
    top_p = isqrt(limit)
    a = 1
    while 729 * a**4 <= 16 * limit:
        three_a, m = 3 * a, 27 * a * a
        for b0 in range(-((three_a - 1) // 2), three_a // 2 + 1):
            # 4P >= 27 a^2, since 4P^3 >= 27 a^2 D and D >= P^2
            first = -(-m // 4)
            first += (b0 * b0 - first) % three_a
            for p in range(first, top_p + 1, three_a):
                c0 = (b0 * b0 - p) // three_a
                base = 2 * b0**3 - 9 * a * b0 * c0
                top = 4 * p**3
                gmax = isqrt(top - 1)
                low = top - m * limit
                gmin = isqrt(low - 1) + 1 if low > 0 else 0
                # D > 0 needs g^2 < 4P^3, D <= limit needs g^2 >= low
                for g_lo, g_hi in ((-gmax, -max(gmin, 1)), (gmin, gmax)):
                    for g in range(g_lo + (base - g_lo) % m, g_hi + 1, m):
                        d0 = (g - base) // m
                        q0 = b0 * c0 - 9 * a * d0
                        # translate Q into (-P, P]
                        k = (p - q0) // (2 * p)
                        q = q0 + 2 * p * k
                        form = _act((a, b0, c0, d0), 1, k, 0, 1)
                        r = form[2] * form[2] - 3 * form[1] * form[3]
                        if 0 <= q and p <= r and (
                            (q != 0 and q != p and p != r)
                            or _least_on_boundary(form)
                        ):
                            yield (top - g * g) // m, form
        a += 1


def _monic_image(form, disc: int):
    """(a', b', c', d'): the image F(ux + sy, vx + ty), sign-normalised and
    translated to -3a'/2 < b' <= 3a'/2, whose a' = |F(u, v)| is least and
    prime to disc among primitive (u, v) of height max(|u|, |v|) at most
    h, the least height where such an a' exists.  Ties go to the lower
    height, then the lower (v, u), with v > 0, or v = 0 and u = 1."""
    best = None
    for h in range(1, MAX_INDEX_HEIGHT + 1):
        for v in range(0, h + 1):
            us = (1,) if v == 0 else range(-h, h + 1)
            for u in us:
                if max(abs(u), v) != h or gcd(u, v) != 1:
                    continue
                value = abs(_act(form, u, 0, v, 0)[0])
                if gcd(value, disc) == 1 and (best is None or value < best[0]):
                    best = (value, u, v)
        if best is not None:
            break
    else:
        raise ConsistencyError(f"no index prime to {disc} for the form {form}")
    _, u, v = best
    # complete (u, v) to a matrix of det u t - s v = 1
    t = pow(u, -1, v) if v else 1
    image = _act(form, u, (u * t - 1) // v if v else 0, v, t)
    if image[0] < 0:
        image = tuple(-x for x in image)
    a1, b1 = image[0], image[1]
    return _act(image, 1, (3 * a1 - 2 * b1) // (6 * a1), 0, 1)


def cubics_isomorphic(f, g) -> bool:
    """Exact isomorphism test for the cubic fields of two irreducible monic
    cubics, via factorization of r = Res_x(f(x), g(t - s*x)), built from
    power sums, at the first shift s where r is squarefree: where its
    discriminant, a Hankel determinant, is nonzero."""
    f, g = list(f), list(g)
    if f == g:
        return True
    for s in range(1, MAX_SHIFT + 1):
        r = resultant_in_t(f, g, shift=s)
        try:
            discriminant(r)
        except RepeatedRootError:
            continue
        return any(pdeg(h) == 3 for h, _ in factor_monic_int(r))
    raise LimitError("no squarefree shift found for the isomorphism test")


def enumerate_cubic_fields(limit: int) -> list[CubicFieldClass]:
    """All cubic fields with |disc| <= limit, one class per field, sorted
    by (disc, poly)."""
    if limit < 23:
        return []
    cube = 1
    while cube**3 < limit:
        cube += 1
    primes = [p for p in range(2, cube + 1) if is_prime(p)]
    out = []
    for forms in (_negative_forms(limit), _positive_forms(limit)):
        for disc, form in forms:
            if all(_maximal_at(*form, p) for p in _square_primes(disc, primes)) and (
                not has_rational_root(form[::-1])
            ):
                a, b, c, d = _monic_image(form, disc)
                out.append(CubicFieldClass(disc, form, (a * a * d, a * c, b, 1)))
    out.sort(key=lambda f: (f.disc, f.poly))
    return out


def equal_disc_groups(classes) -> list[list[CubicFieldClass]]:
    """Groups of >= 2 non-isomorphic fields sharing a discriminant, by disc,
    each ordered by polynomial."""
    by_disc: dict[int, list] = {}
    for c in classes:
        by_disc.setdefault(c.disc, []).append(c)
    return [sorted(v, key=lambda c: c.poly) for d, v in sorted(by_disc.items()) if len(v) > 1]
