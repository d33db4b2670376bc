import random

import pytest

from _optimized import run_optimized
from traceforms.errors import RepeatedRootError
from traceforms.polys import (
    discriminant,
    factor_mod_p,
    factor_monic_int,
    is_irreducible_int,
    mp_mul,
    mp_normalize,
    pdeg,
    pmul,
    pnormalize,
    resultant,
    resultant_in_t,
    sturm_real_roots,
)


def test_discriminant_spec_examples():
    # x^3 - x - 1: -4(-1)^3 - 27(-1)^2 = 4 - 27 = -23
    assert discriminant([-1, -1, 0, 1]) == -23
    # x^3 - 3x + 1: -4(-3)^3 - 27 = 108 - 27 = 81
    assert discriminant([1, -3, 0, 1]) == 81
    # x^2 - 5: 4*5
    assert discriminant([-5, 0, 1]) == 20


def test_discriminant_matches_cubic_formula():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        d = -4 * a**3 - 27 * b**2
        if d == 0:
            continue
        assert discriminant([b, a, 0, 1]) == d


def test_discriminant_repeated_root():
    with pytest.raises(RepeatedRootError):
        discriminant([1, 2, 1])  # (x+1)^2


def test_resultant_multiplicative():
    f = [2, 0, 1]  # x^2 + 2
    g = [-1, 1]  # x - 1
    h = [3, 1, 1]  # x^2 + x + 3
    assert resultant(pmul(f, g), h) == resultant(f, h) * resultant(g, h)


def test_sturm_counts():
    assert sturm_real_roots([-1, -1, 0, 1]) == 1  # x^3 - x - 1
    assert sturm_real_roots([1, -3, 0, 1]) == 3  # x^3 - 3x + 1
    assert sturm_real_roots([1, 0, 0, 0, 1]) == 0  # x^4 + 1
    assert sturm_real_roots([-2, 0, 1]) == 2  # x^2 - 2


def test_sturm_against_random_products():
    rng = random.Random(13)
    for _ in range(100):
        roots = sorted(rng.sample(range(-20, 21), rng.randint(1, 4)))
        f = [1]
        for r in roots:
            f = pmul(f, [-r, 1])
        # multiply by distinct irreducible quadratics to add complex roots
        for c in rng.sample(range(1, 10), rng.randint(0, 2)):
            f = pmul(f, [c, 0, 1])
        assert sturm_real_roots(f) == len(roots)


def test_factor_mod_p_roundtrip():
    rng = random.Random(17)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7, 13, 31])
        deg = rng.randint(1, 8)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        fac = factor_mod_p(f, p)
        prod = [1]
        for g, m in fac:
            assert g[-1] == 1
            for _ in range(m):
                prod = mp_mul(prod, g, p)
        assert prod == mp_normalize(f, p)


def test_factor_mod_p_known():
    # x^3 - x - 1 mod 7 = (x - 5)(x^2 + 5x + 3)
    fac = factor_mod_p([-1, -1, 0, 1], 7)
    assert [(pdeg(g), m) for g, m in fac] == [(1, 1), (2, 1)]
    assert [2, 1] in [g for g, _ in fac]  # x + 2 = x - 5
    # x^4 + 1 mod 2 = (x + 1)^4
    fac2 = factor_mod_p([1, 0, 0, 0, 1], 2)
    assert fac2 == [([1, 1], 4)]


def test_is_irreducible_int():
    assert is_irreducible_int([-1, -1, 0, 1])  # x^3 - x - 1
    assert is_irreducible_int([1, 0, 0, 0, 1])  # x^4 + 1 (reducible mod every p)
    assert not is_irreducible_int([6, 0, -5, 0, 1])  # (x^2-2)(x^2-3)
    assert not is_irreducible_int([1, 2, 1])
    assert not is_irreducible_int([0, 1, 1])
    assert is_irreducible_int([7, 0, 0, 0, 0, 0, 1])  # x^6 + 7 (Eisenstein)


def test_factor_monic_int_roundtrip():
    rng = random.Random(19)
    for _ in range(60):
        nfac = rng.randint(1, 3)
        f = [1]
        for _ in range(nfac):
            deg = rng.randint(1, 3)
            g = [rng.randint(-6, 6) for _ in range(deg)] + [1]
            f = pmul(f, g)
        fac = factor_monic_int(f)
        prod = [1]
        for g, m in fac:
            assert is_irreducible_int(g) or pdeg(g) == 1
            for _ in range(m):
                prod = pmul(prod, g)
        assert pnormalize(prod) == pnormalize(f)


def test_factor_monic_int_known():
    fac = factor_monic_int([6, 0, -5, 0, 1])
    assert fac == [[[-3, 0, 1], 1], [[-2, 0, 1], 1]]
    fac2 = factor_monic_int([0, 0, 1, 1])  # x^2 (x+1)
    assert fac2 == [[[0, 1], 2], [[1, 1], 1]]


def test_factor_monic_int_monic_check_survives_python_O():
    # 2x^2 + 1 used to come back as a "monic" factor of itself under -O
    proc = run_optimized("""
from traceforms.polys import factor_monic_int
try:
    print(factor_monic_int([1, 0, 2]))
except ValueError:
    raise SystemExit(0)
raise SystemExit(1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_resultant_in_t():
    # f = x^2 - 2, g = x^2 - 3: Res_x(f(x), g(t-x)) has roots sqrt2 +- sqrt3
    # i.e. equals (t^2 - 5)^2 - 24 t^2 = t^4 - 10 t^2 + 1
    r = resultant_in_t([-2, 0, 1], [-3, 0, 1])
    assert r == [1, 0, -10, 0, 1]
