import itertools
import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from _optimized import run_optimized
from _rational import is_squarefree_q, pdivmod_q, pgcd_q, sturm_chain_q, sturm_real_roots_q
from _sylvester import resultant, resultant_in_t_by_interpolation
from traceforms.errors import RepeatedRootError
from traceforms.numberfield import signature_of_field
from traceforms.polys import (
    ROOT_DIVISOR_CAP,
    _factor_squarefree_monic_int,
    _primitive_gcd,
    discriminant,
    factor_mod_p,
    factor_monic_int,
    has_rational_root,
    is_irreducible_int,
    mp_mul,
    mp_normalize,
    mp_radical,
    padd,
    pdeg,
    pderiv,
    pdivmod,
    pmul,
    pnormalize,
    pscale,
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


def discriminant_by_resultant(f):
    """Reference: disc = (-1)^(n(n-1)/2) Res(f, f') for monic f."""
    n = pdeg(f)
    return (-1) ** (n * (n - 1) // 2) * resultant(f, pderiv(f))


def test_discriminant_matches_the_resultant_formula():
    rng = random.Random(2024)
    repeated = 0
    for n in range(2, 13):
        for trial in range(40):
            f = [rng.randint(-9, 9) for _ in range(n)] + [1]
            if trial % 4 == 0:  # a square factor: a repeated root
                r = rng.randint(-3, 3)
                f = pmul(f[:-2] + [1], [r * r, -2 * r, 1])
            expected = discriminant_by_resultant(f)
            if expected == 0:
                repeated += 1
                with pytest.raises(RepeatedRootError):
                    discriminant(f)
            else:
                assert discriminant(f) == expected, f
    assert repeated >= 11 * 10


def test_discriminant_repeated_root():
    with pytest.raises(RepeatedRootError):
        discriminant([1, 2, 1])  # (x+1)^2


def test_discriminant_rejects_non_monic_input():
    # the resultant of f and f' alone would give -8 for 2 - x^2 (its
    # discriminant is 8) and -16 for 2x^2 + 1 (discriminant -8)
    for f in ([2, 0, -1], [1, 0, 2], [-1, 0, 0, 3], [Fraction(1, 2), 0, 1]):
        with pytest.raises(ValueError, match="monic integer"):
            discriminant(f)
    assert discriminant([-2, 0, 1, 0, 0]) == 8  # trailing zeros are dropped


def test_discriminant_monic_check_survives_python_O():
    proc = run_optimized("""
from traceforms.polys import discriminant
for f in ([2, 0, -1], [1, 0, 2]):
    try:
        print(discriminant(f))
    except ValueError:
        continue
    raise SystemExit(1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_resultant_in_t_multiplicative():
    f = [2, 0, 1]  # x^2 + 2
    g = [-1, 1]  # x - 1
    h = [3, 1, 1]  # x^2 + x + 3
    for s in (1, 2, -3):
        assert resultant_in_t(pmul(f, g), h, s) == pmul(resultant_in_t(f, h, s),
                                                         resultant_in_t(g, h, s))
        assert resultant_in_t(h, pmul(f, g), s) == pmul(resultant_in_t(h, f, s),
                                                         resultant_in_t(h, g, s))


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


def seeded_squarefree_polys(count):
    """count squarefree integer polynomials of degree 1-9, leading
    coefficients in {-7, -3, -2, -1, 1, 2, 5}, every third one sparse."""
    rng = random.Random(31)
    out = []
    while len(out) < count:
        n = rng.randint(1, 9)
        if len(out) % 3 == 0:
            f = [rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(n)]
        else:
            f = [rng.randint(-9, 9) for _ in range(n)]
        f.append(rng.choice([-7, -3, -2, -1, 1, 2, 5]))
        if is_squarefree_q(f):
            out.append(f)
    return out


def test_sturm_matches_the_rational_chain():
    cases = seeded_squarefree_polys(2000)
    skips = 0  # chains whose remainders drop more than one degree
    for f in cases:
        assert sturm_real_roots(f) == sturm_real_roots_q(f), f
        degrees = [pdeg(p) for p in sturm_chain_q(f)]
        skips += any(a - b > 1 for a, b in zip(degrees, degrees[1:]))
    assert {f[-1] for f in cases} == {-7, -3, -2, -1, 1, 2, 5}
    assert {pdeg(f) for f in cases} == set(range(1, 10))
    assert skips >= 300, skips


def test_pdivmod_is_pseudo_division():
    rng = random.Random(37)
    for _ in range(300):
        g = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
        g.append(rng.choice([-3, -1, 1, 2, 4]))
        f = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
        q, r = pdivmod(f, g)
        k = max(0, pdeg(pnormalize(f)) - pdeg(g) + 1)
        assert padd(pmul(q, g), r) == pscale(pnormalize(f), g[-1] ** k)
        assert pdeg(r) < pdeg(g)
        if g[-1] == 1:  # exact division, equal to the rational one
            assert [q, r] == [list(map(int, h)) for h in pdivmod_q(f, g)]


def test_primitive_gcd_matches_the_rational_gcd():
    rng = random.Random(41)
    for _ in range(300):
        f = [1]
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 2))] + [1]
            f = pmul(f, pmul(g, g) if rng.random() < 0.4 else g)
        assert _primitive_gcd(f, pderiv(f)) == pgcd_q(f, pderiv(f)), f


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


def test_mp_radical_known():
    # x^3 + x = x (x + 1)^2 mod 2: f / gcd(f, f') = x, and the square
    # x^2 + 1 left in the gcd gives its root x + 1
    assert mp_radical([0, 1, 0, 1], 2) == [0, 1, 1]
    # x^4 + 1 = (x + 1)^4 mod 2 has zero derivative
    assert mp_radical([1, 0, 0, 0, 1], 2) == [1, 1]
    assert mp_radical([4], 5) == [1]


def test_mp_radical_is_the_product_of_the_distinct_irreducibles():
    rng = random.Random(23)

    def monic(deg, p):
        return [rng.randrange(p) for _ in range(deg)] + [1]

    cases = []
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        cases.append((monic(rng.randint(1, 12), p), p))
        # g(x^p) h = g(x)^p h mod p, so the p-th root branch runs
        k = rng.randint(1, 12 // p)
        gxp = [0] * (k * p + 1)
        gxp[::p] = monic(k, p)
        cases.append((mp_mul(gxp, monic(rng.randint(0, 12 - k * p), p), p), p))
    for f, p in cases:
        rad = [1]
        for g, _ in factor_mod_p(f, p):
            rad = mp_mul(rad, g, p)
        assert mp_radical(f, p) == rad


def test_is_irreducible_int():
    assert is_irreducible_int([-1, -1, 0, 1])  # x^3 - x - 1
    assert is_irreducible_int([1, 0, 0, 0, 1])  # x^4 + 1 (reducible mod every p)
    assert not is_irreducible_int([6, 0, -5, 0, 1])  # (x^2-2)(x^2-3)
    assert not is_irreducible_int([1, 2, 1])
    assert not is_irreducible_int([0, 1, 1])
    assert is_irreducible_int([7, 0, 0, 0, 0, 0, 1])  # x^6 + 7 (Eisenstein)


@pytest.mark.parametrize("poly", [[-1, 0, 4], [1, 3, 2], [1, 0, 0, 0, 2], [1, 1, -1]])
def test_is_irreducible_int_rejects_non_monic(poly):
    # 4x^2 - 1 and 2x^2 + 3x + 1 used to come back irreducible
    with pytest.raises(ValueError):
        is_irreducible_int(poly)


def test_is_irreducible_int_monic_check_survives_python_O():
    proc = run_optimized("""
from traceforms.polys import is_irreducible_int
try:
    print(is_irreducible_int([-1, 0, 4]))
except ValueError:
    raise SystemExit(0)
raise SystemExit(1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_has_rational_root_non_monic():
    assert has_rational_root([-1, 0, 4])  # 4x^2 - 1, roots +-1/2
    assert has_rational_root([1, 3, 2])  # 2x^2 + 3x + 1, roots -1/2, -1
    assert has_rational_root([-1, 3, -3, 9])  # (3x - 1)(3x^2 + 1)
    assert has_rational_root([0, 1, 1])
    assert not has_rational_root([1, 0, 2])
    assert not has_rational_root([-2, 0, 0, 3])
    assert not has_rational_root([5])
    assert has_rational_root([-3, 2])  # 2x - 3


def test_irreducibility_by_roots_matches_zassenhaus_in_degree_2_and_3():
    checked = 0
    for n in (2, 3):
        for low in itertools.product(range(-6, 7), repeat=n):
            f = list(low) + [1]
            reference = hankel_squarefree(f) and len(_factor_squarefree_monic_int(f)) == 1
            assert is_irreducible_int(f) == reference, f
            checked += 1
    assert checked == 13**2 + 13**3


def test_form_roots_match_the_monic_image():
    # F = (a, b, c, d) is irreducible iff x^3 + b x^2 + ac x + a^2 d is
    for a in range(1, 4):
        for b, c, d in itertools.product(range(-4, 5), repeat=3):
            image = [a * a * d, a * c, b, 1]
            irreducible = factor_monic_int(image) == [[image, 1]]
            assert (not has_rational_root([d, c, b, a])) == irreducible, (a, b, c, d)


@pytest.mark.parametrize("poly, root", [
    ([-(10**39), 0, 0, 1], True),  # x^3 - 10^39, root 10^13
    ([10**40, 0, 0, 1], False),  # x^3 + 10^40
    ([-1, 20001, -1, 20001], True),  # (20001 x - 1)(x^2 + 1)
    ([1, 0, 20001], False),
    ([-(10**12), 1], True),
])
def test_has_rational_root_past_the_divisor_cap(poly, root):
    # a divisor search would take up to 10^20 steps; Zassenhaus decides
    assert max(isqrt(abs(poly[0])), abs(poly[-1])) > ROOT_DIVISOR_CAP
    assert has_rational_root(poly) == root


def test_factor_monic_int_roundtrip():
    rng = random.Random(19)
    for trial in range(90):
        nfac = rng.randint(1, 3)
        f = [1]
        for _ in range(nfac):
            deg = rng.randint(1, 3)
            g = [rng.randint(-6, 6) for _ in range(deg)] + [1]
            f = pmul(f, g)
        if trial % 3 == 1:  # a repeated factor
            g = [rng.randint(-6, 6) for _ in range(rng.randint(1, 2))] + [1]
            f = pmul(f, pmul(g, g))
        if trial % 3 == 2:  # a power of x
            f = [0] * rng.randint(1, 3) + f
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
    f = [0, 0, 0, 1]  # x^3 (x - 1)^2 (x^2 + 1)^3
    for g in ([-1, 1], [-1, 1], [1, 0, 1], [1, 0, 1], [1, 0, 1]):
        f = pmul(f, g)
    assert factor_monic_int(f) == [[[-1, 1], 2], [[0, 1], 3], [[1, 0, 1], 3]]


NON_INTEGER_CALLS = [
    (factor_monic_int, ([Fraction(1, 2), 0, 1],)),
    (factor_monic_int, ([-2, 0, Fraction(1)],)),
    (is_irreducible_int, ([Fraction(1, 2), 0, 1],)),
    (is_irreducible_int, ([-2.0, 0, 1],)),
    (sturm_real_roots, ([-0.5, 0, 1],)),
    (sturm_real_roots, ([Fraction(-1, 2), 0, 1],)),
    (pdivmod, ([1, 0, 1], [Fraction(1, 2), 1])),
    (pdivmod, ([1.0, 0, 1], [1, 1])),
    (has_rational_root, ([Fraction(1, 2), 0, 1],)),
    (has_rational_root, ([-2, 0, 2.0],)),
]


@pytest.mark.parametrize("func, args", NON_INTEGER_CALLS)
def test_non_integer_coefficients_are_rejected(func, args):
    # factor_monic_int([1/2, 0, 1]) used to loop for ever, is_irreducible_int
    # and has_rational_root raised TypeError, and sturm_real_roots([-0.5,
    # 0, 1]) answered 2
    with pytest.raises(ValueError, match="integer"):
        func(*args)


def test_integer_checks_survive_python_O():
    proc = run_optimized("""
from fractions import Fraction
from traceforms.polys import (factor_monic_int, has_rational_root, is_irreducible_int,
                              pdivmod, sturm_real_roots)
calls = [(factor_monic_int, [Fraction(1, 2), 0, 1]), (is_irreducible_int, [-2.0, 0, 1]),
         (sturm_real_roots, [-0.5, 0, 1]), (pdivmod, [1.0, 0, 1], [1, 1]),
         (has_rational_root, [Fraction(1, 2), 0, 1]), (has_rational_root, [-2, 0, 2.0])]
for func, *args in calls:
    try:
        print(func(*args))
    except ValueError:
        continue
    raise SystemExit(1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr


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


def seeded_compositum_cases():
    """(f, g, shift) for 200 monic pairs of degree 2-5 against 2-4 with
    shifts 1-3.  Every sixth f has a repeated root, and every fourth g is
    f itself, which repeats the roots a + b of r at shift 1, so both
    squarefree decisions occur."""
    rng = random.Random(21)
    cases = []
    for trial in range(200):
        m, n = rng.randint(2, 5), rng.randint(2, 4)
        f = [rng.randint(-9, 9) for _ in range(m)] + [1]
        if trial % 6 == 0:
            r = rng.randint(-3, 3)
            f = pmul(f[:-2] + [1], [r * r, -2 * r, 1])
        g = f if trial % 4 == 0 else [rng.randint(-9, 9) for _ in range(n)] + [1]
        cases.append((f, g, rng.randint(1, 3)))
    return cases


def hankel_squarefree(r) -> bool:
    try:
        discriminant(r)
    except RepeatedRootError:
        return False
    return True


def test_resultant_in_t_matches_the_sylvester_reference():
    decisions = Counter()
    for f, g, s in seeded_compositum_cases():
        r = resultant_in_t(f, g, s)
        assert r == resultant_in_t_by_interpolation(f, g, s), (f, g, s)
        assert len(r) == pdeg(f) * pdeg(g) + 1 and r[-1] == 1
        squarefree = hankel_squarefree(r)
        assert squarefree == is_squarefree_q(r), (f, g, s)  # rational gcd
        decisions[squarefree] += 1
    assert decisions == Counter({True: 154, False: 46})


def test_resultant_in_t_builds_no_fraction(monkeypatch):
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert Fraction(1, 2) + 1 == Fraction(3, 2)  # the count sees a build
    assert built
    built.clear()
    for f, g, s in seeded_compositum_cases():
        r = resultant_in_t(f, g, s)
        # the rest of polys on f, and on r where it is small
        for h in (f, r) if pdeg(r) <= 8 else (f,):
            factor_monic_int(h)
            is_irreducible_int(h)
            if hankel_squarefree(h):
                sturm_real_roots(h)
                signature_of_field(h)
    assert built == []


def test_resultant_in_t_rejects_non_monic_or_non_integer_input():
    for f, g in (([2, 0, -1], [-3, 0, 1]), ([-2, 0, 1], [1, 0, 2]),
                 ([Fraction(1, 2), 0, 1], [-3, 0, 1]), ([-2, 0, 1.0], [-3, 0, 1]),
                 ([], [-3, 0, 1])):
        with pytest.raises(ValueError, match="monic integer"):
            resultant_in_t(f, g)
    assert resultant_in_t([-2, 0, 1, 0], [-3, 0, 1]) == [1, 0, -10, 0, 1]


def test_resultant_in_t_checks_newton_division_under_python_O():
    # power sums that are not those of an integer polynomial leave a
    # remainder in Newton's identities, which must raise, not be dropped
    proc = run_optimized("""
from traceforms import polys
from traceforms.errors import ConsistencyError
polys.power_sums = lambda poly, count: ([len(poly) - 1, 1] + [0] * count)[:count]
try:
    print(polys.resultant_in_t([0, 0, 1], [0, 1]))
except ConsistencyError:
    raise SystemExit(0)
raise SystemExit(1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr
