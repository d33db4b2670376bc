import random
from fractions import Fraction

import pytest

from traceforms.errors import InvalidPrimeError, NonUnitError, ZeroArgumentError
from traceforms.padic import (
    factorize,
    hilbert_symbol,
    is_prime,
    jacobi_symbol,
    least_nonresidue,
    legendre_symbol,
    square_class,
    val_unit,
)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 97]


def squares_mod(p):
    return {x * x % p for x in range(1, p)}


def brute_hilbert(a, b, p):
    """Independent oracle: (a,b)_p = 1 iff z^2 = a x^2 + b y^2 has a
    primitive p-adic solution, tested by exhaustive search mod p^k.
    Only used at small p with small arguments.
    """
    if p == -1:
        return -1 if a < 0 and b < 0 else 1
    # scaling by squares does not change the symbol: reduce valuations to 0/1
    va, ua = val_unit(a, p)
    vb, ub = val_unit(b, p)
    a = int(ua * p ** (va % 2))
    b = int(ub * p ** (vb % 2))
    k = 3 if p != 2 else 5
    m = p**k
    squares = {z * z % m for z in range(m)}
    # a primitive solution must have x or y prime to p: if p | x and p | y
    # then p | z as well (k >= 2), contradicting primitivity
    for x in range(m):
        for y in range(m):
            if x % p == 0 and y % p == 0:
                continue
            if (a * x * x + b * y * y) % m in squares:
                return 1
    return -1


def test_primality_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 10**9)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
    assert factorize(-12) == {2: 2, 3: 1}


def test_legendre_spec_examples():
    assert legendre_symbol(1, 7) == 1
    # squares mod 7 are {1,2,4} by direct enumeration
    assert squares_mod(7) == {1, 2, 4}
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(7, 7) == 0


def test_legendre_matches_enumeration():
    for p in ODD_PRIMES:
        sq = squares_mod(p)
        for a in range(1, p):
            assert legendre_symbol(a, p) == (1 if a in sq else -1)


def test_legendre_rejects_bad_primes():
    for p in (2, 1, 0, -7, 9, 15):
        with pytest.raises(InvalidPrimeError):
            legendre_symbol(3, p)


def test_legendre_multiplicative():
    rng = random.Random(1)
    for _ in range(500):
        p = rng.choice(ODD_PRIMES)
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        if a % p == 0 or b % p == 0:
            continue
        assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


def test_jacobi_agrees_with_legendre_products():
    rng = random.Random(2)
    for _ in range(200):
        p = rng.choice(ODD_PRIMES)
        q = rng.choice(ODD_PRIMES)
        a = rng.randint(1, 10**4)
        assert jacobi_symbol(a, p * q) == jacobi_symbol(a, p) * jacobi_symbol(a, q)


def test_least_nonresidue():
    assert least_nonresidue(-1) == -1
    assert least_nonresidue(2) == 5
    assert least_nonresidue(3) == 2
    assert least_nonresidue(7) == 3
    for p in ODD_PRIMES:
        u = least_nonresidue(p)
        assert 0 < u < p
        assert legendre_symbol(u, p) == -1
        for v in range(1, u):
            assert legendre_symbol(v, p) == 1


def test_val_unit():
    assert val_unit(-243, 3) == (5, Fraction(-1))
    assert val_unit(7, 3) == (0, Fraction(7))
    assert val_unit(Fraction(9, 2), 3) == (2, Fraction(1, 2))
    with pytest.raises(ZeroArgumentError):
        val_unit(0, 5)


def test_hilbert_spec_examples():
    assert hilbert_symbol(-1, -1, -1) == -1
    for b in (2, -3, 5, 7):
        for p in (-1, 2, 3, 5, 7):
            assert hilbert_symbol(1, b, p) == 1
    assert hilbert_symbol(2, 5, 5) == -1


def test_hilbert_matches_brute_force():
    cases = [
        (2, 5, 5), (2, 2, 5), (5, 5, 5), (3, 3, 3), (-1, 3, 3),
        (2, 3, 3), (6, 15, 3), (2, 2, 2), (3, 3, 2), (2, 6, 2),
        (-1, -1, 2), (5, 7, 2), (-2, 5, 2), (10, 6, 2), (-1, 2, 2),
    ]
    for a, b, p in cases:
        assert hilbert_symbol(a, b, p) == brute_hilbert(a, b, p), (a, b, p)


def test_hilbert_symmetric_and_bilinear():
    rng = random.Random(3)
    spots = [-1, 2, 3, 5, 7, 11, 13]
    for _ in range(800):
        p = rng.choice(spots)
        a, a2, b = (rng.choice([-1, 1]) * rng.randint(1, 300) for _ in range(3))
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert hilbert_symbol(a * a2, b, p) == hilbert_symbol(a, b, p) * hilbert_symbol(
            a2, b, p
        )


def test_hilbert_product_formula():
    rng = random.Random(4)
    for _ in range(500):
        a = rng.choice([-1, 1]) * rng.randint(1, 5000)
        b = rng.choice([-1, 1]) * rng.randint(1, 5000)
        spots = {-1, 2}
        spots.update(factorize(a))
        spots.update(factorize(b))
        prod = 1
        for p in spots:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


def test_square_class():
    assert square_class(7, 3) == 1
    assert square_class(17, 2) == 1
    assert square_class(-5, -1) == -1
    with pytest.raises(NonUnitError):
        square_class(10, 5)
    with pytest.raises(ZeroArgumentError):
        square_class(0, 5)


def test_square_class_idempotent_and_canonical():
    rng = random.Random(5)
    for _ in range(400):
        p = rng.choice([-1, 2] + ODD_PRIMES)
        a = rng.choice([-1, 1]) * rng.randint(1, 10**5)
        if p > 0:
            v, u = val_unit(a, p)
            a = u
        rep = square_class(a, p)
        assert square_class(rep, p) == rep
        # rep really is in the same class: a/rep is a square at p
        ratio = Fraction(a) / rep
        if p == -1:
            assert ratio > 0
        elif p == 2:
            assert (ratio.numerator * pow(ratio.denominator, -1, 8)) % 8 == 1
        else:
            assert hilbert_symbol(ratio, least_nonresidue(p), p) == 1 or legendre_symbol(
                ratio.numerator * pow(ratio.denominator, -1, p) % p, p
            ) == 1


def test_least_nonresidue_is_nonsquare_everywhere():
    for p in [-1, 2] + ODD_PRIMES:
        u = least_nonresidue(p)
        if p == -1:
            assert u < 0
        elif p == 2:
            assert u % 8 not in (1, 7)
        else:
            assert legendre_symbol(u, p) == -1
