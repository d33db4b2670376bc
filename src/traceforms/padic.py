"""Exact arithmetic at prime spots.

A "spot" is an integer p that is either -1 (the real place, Conway's
convention), 2, or an odd prime.  All routines work on exact integers or
``fractions.Fraction``; there is no floating point and no p-adic
approximation anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidPrimeError, NonUnitError, ZeroArgumentError

Rational = Fraction | int

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if a >= n:
            break
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    from math import gcd

    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; ignores the sign.

    Trial division for small primes, Pollard rho above that.
    """
    if n == 0:
        raise ZeroArgumentError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 20000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += increments[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def check_spot(p: int) -> int:
    """Validate that p is -1, 2, or an odd prime; returns p."""
    if p == -1 or p == 2:
        return p
    if p > 2 and p % 2 == 1 and is_prime(p):
        return p
    raise InvalidPrimeError(f"{p} is not -1, 2, or an odd prime")


def check_odd_prime(p: int) -> int:
    if p > 2 and p % 2 == 1 and is_prime(p):
        return p
    raise InvalidPrimeError(f"{p} is not an odd prime")


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0; multiplicative in both arguments."""
    if n <= 0 or n % 2 == 0:
        raise InvalidPrimeError(f"Jacobi symbol needs positive odd n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p; 0 when p | a."""
    check_odd_prime(p)
    return jacobi_symbol(a, p)


def least_nonresidue(p: int) -> int:
    """u_p: -1 at the real place, 5 at 2, least quadratic nonresidue mod odd p."""
    check_spot(p)
    if p == -1:
        return -1
    if p == 2:
        return 5
    u = 2
    while legendre_symbol(u, p) != -1:
        u += 1
    return u


def val_unit(a: Rational, p: int) -> tuple[int, Fraction]:
    """Write a = p^v * u with u a p-adic unit; returns (v, u) exactly."""
    if a == 0:
        raise ZeroArgumentError("valuation of 0 is undefined")
    if p < 2:
        raise InvalidPrimeError(f"finite prime required, got {p}")
    a = Fraction(a)
    num, den = a.numerator, a.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def valuation(a: Rational, p: int) -> int:
    return val_unit(a, p)[0]


def _unit_mod(u: Fraction, modulus: int) -> int:
    """Residue of a rational unit mod `modulus` (denominator invertible)."""
    num = u.numerator % modulus
    den = u.denominator % modulus
    return num * pow(den, -1, modulus) % modulus


def _legendre_unit(u: Fraction, p: int) -> int:
    return legendre_symbol(_unit_mod(u, p), p)


def hilbert_symbol(a: Rational, b: Rational, p: int) -> int:
    """Hilbert symbol (a,b)_p over Q_p, with p = -1 meaning the reals."""
    if a == 0 or b == 0:
        raise ZeroArgumentError("Hilbert symbol needs nonzero arguments")
    check_spot(p)
    if p == -1:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = val_unit(a, p)
    beta, w = val_unit(b, p)
    if p == 2:
        um = _unit_mod(u, 8)
        wm = _unit_mod(w, 8)
        eps_u = (um - 1) // 2 % 2
        eps_w = (wm - 1) // 2 % 2
        omega_u = (um * um - 1) // 8 % 2
        omega_w = (wm * wm - 1) // 8 % 2
        exponent = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if exponent % 2 else 1
    # odd p: tame formula
    sign = 1
    if alpha * beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= _legendre_unit(u, p)
    if alpha % 2:
        sign *= _legendre_unit(w, p)
    return sign


def square_class(a: Rational, p: int) -> int:
    """Canonical representative of the square class of a unit a at spot p:
    +-1 at the real place, 1, 3, 5 or 7 at 2, and 1 or u_p at odd p."""
    if a == 0:
        raise ZeroArgumentError("square class of 0 is undefined")
    check_spot(p)
    if p == -1:
        return -1 if a < 0 else 1
    v, u = val_unit(a, p)
    if v != 0:
        raise NonUnitError(f"{a} has valuation {v} at {p}; strip the uniformizer first")
    if p == 2:
        return _unit_mod(u, 8)
    return 1 if _legendre_unit(u, p) == 1 else least_nonresidue(p)
