import random
from fractions import Fraction

import pytest

from traceforms.errors import TamenessError
from traceforms.numberfield import FieldRecord, field_from_record, make_splitting, splitting_data
from traceforms.padic import least_nonresidue, legendre_symbol, square_class, val_unit
from traceforms.quadform import diagonal_local_symbol_odd, local_symbol_odd
from traceforms.raminv import (
    first_ramification_factor,
    local_trace_model,
    nonresidue_odd_count,
    second_ramification_factor,
    tame_diagonal_form,
    trace_model_from_splitting,
)
from traceforms.numberfield import trace_gram

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def random_tame_splitting(rng, p, n):
    pairs = []
    remaining = n
    while remaining > 0:
        e = rng.randint(1, remaining)
        if e % p == 0:
            continue
        f = rng.randint(1, remaining // e)
        pairs.append((e, f))
        remaining -= e * f
    return make_splitting(p, pairs, n)


def test_first_factor_examples():
    sd = make_splitting(5, [(2, 1), (1, 2)], 4)
    assert first_ramification_factor(sd) == 4
    # odd Galois shape: g equal pairs (e, f); first factor is e mod squares
    rng = random.Random(71)
    for _ in range(100):
        p = rng.choice(ODD_PRIMES)
        e = rng.choice([1, 2, 3, 4, 5, 6, 7])
        if e % p == 0:
            continue
        f = rng.choice([1, 2, 3])
        g = rng.randint(1, 4)
        sd = make_splitting(p, [(e, f)] * g)
        alpha = first_ramification_factor(sd)
        u = least_nonresidue(p)
        assert square_class(alpha, p) == square_class(e ** (f * g) * u ** (g * (f - 1)), p)
        # for odd total degree efg the first factor is e mod squares
        if (e * f * g) % 2 == 1:
            assert square_class(alpha, p) == square_class(e, p)


def infinity_factor(s: int) -> int:
    """Both ramification factors at the real place equal 2^s."""
    return 2**s


def test_infinity_factor_is_the_archimedean_first_factor():
    # at the real place a complex pair has e = 2, f = 1 and a real one
    # e = f = 1; with every f = 1 the nonresidue exponent f_p - g_p is 0
    for r, s in ((3, 0), (1, 1), (2, 1), (0, 2), (1, 2), (0, 3)):
        sd = make_splitting(3, [(1, 1)] * r + [(2, 1)] * s, r + 2 * s)
        assert first_ramification_factor(sd) == infinity_factor(s)


def test_second_factor_examples():
    assert second_ramification_factor(make_splitting(5, [(2, 1)], 2), 2) == 2
    assert second_ramification_factor(make_splitting(3, [(3, 1)], 3), 3) == -9
    # unramified: the e-power part collapses to 1
    sd = make_splitting(7, [(1, 2), (1, 1)], 3)
    beta = second_ramification_factor(sd, 3)
    u = least_nonresidue(7)
    assert beta == u ** (3 - 3 - 3 + 3)


def test_nonresidue_count_examples():
    assert nonresidue_odd_count(make_splitting(5, [(2, 1), (1, 2)], 4)) == 1
    assert nonresidue_odd_count(make_splitting(7, [(2, 1)], 2)) == 0
    with pytest.raises(TamenessError):
        nonresidue_odd_count(make_splitting(3, [(3, 1)], 3))
    # fundamental-discriminant shape: unique e=2, f=1 block among e=1 blocks
    rng = random.Random(73)
    for _ in range(100):
        p = rng.choice(ODD_PRIMES)
        pairs = [(2, 1)] + [(1, rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        sd = make_splitting(p, pairs)
        assert nonresidue_odd_count(sd) == (1 - legendre_symbol(2, p)) // 2


def test_tame_diagonal_form_examples():
    assert tame_diagonal_form(make_splitting(5, [(2, 1)], 2)) == (2,)
    assert tame_diagonal_form(make_splitting(5, [(1, 2)], 2)) == (-1, -2)
    with pytest.raises(TamenessError):
        tame_diagonal_form(make_splitting(3, [(3, 1)], 3))


def test_tame_diagonal_form_det_class_fuzz():
    rng = random.Random(79)
    for _ in range(400):
        p = rng.choice(ODD_PRIMES)
        n = rng.randint(1, 12)
        sd = random_tame_splitting(rng, p, n)
        form = tame_diagonal_form(sd)
        alpha = first_ramification_factor(sd)
        det = Fraction(1)
        for e in form:
            det *= e
        assert len(form) == sd.f_sum
        assert square_class(det, p) == square_class(alpha, p)


def test_sign_identity_fuzz():
    # legendre(alpha, p) * (-1)^{f_p} = (-1)^{g_p - h_p}
    rng = random.Random(83)
    for _ in range(500):
        p = rng.choice(ODD_PRIMES)
        n = rng.randint(1, 12)
        sd = random_tame_splitting(rng, p, n)
        alpha = first_ramification_factor(sd)
        h = nonresidue_odd_count(sd)
        lhs = legendre_symbol(alpha, p) * (-1) ** sd.f_sum
        rhs = (-1) ** (sd.g - h)
        assert lhs == rhs, (p, sd.pairs)


def test_local_trace_model_c23():
    fld = field_from_record(FieldRecord(label="c23", poly=(-1, -1, 0, 1)))
    model = local_trace_model(fld, 23)
    assert model[0] == 1
    assert model[1] == 2  # alpha_23 = 2 * u^0
    v, _ = val_unit(model[2], 23)
    assert v == 1
    # oracle cross-check: model and trace gram share the local symbol at 23
    gram = trace_gram(fld)
    assert diagonal_local_symbol_odd(model, 23) == local_symbol_odd(gram, 23)


def test_local_trace_model_unramified_is_unimodular():
    fld = field_from_record(FieldRecord(label="c23", poly=(-1, -1, 0, 1)))
    model = local_trace_model(fld, 7)
    assert all(val_unit(e, 7)[0] == 0 for e in model)
    assert len(model) == 3


def test_model_determinant_consistency():
    # det(local trace model) = disc mod squares at p, for tame fields
    for poly in ([-1, -1, 0, 1], [-5, 0, 1], [8, -2, 1, 1]):
        fld = field_from_record(FieldRecord(label="t", poly=tuple(poly)))
        from traceforms.numberfield import ramification_profile

        profile, tame = ramification_profile(fld)
        assert tame
        for p, sd in profile.items():
            if p == 2:
                continue
            model = local_trace_model(fld, p)
            det = Fraction(1)
            for e in model:
                det *= e
            ratio = Fraction(fld.disc) / det
            v, u = val_unit(ratio, p)
            assert v % 2 == 0
            assert square_class(u, p) == 1


def test_second_factor_display_misses_disc_class_at_23():
    # Regression pinning a genuine discrepancy: for x^3 - x - 1 the closed
    # formula for the second factor lands in the wrong square class at 23
    # (the real scaled unit must carry the class of -1, a nonresidue mod 23),
    # which is why the local model normalizes the scaled unit to the
    # discriminant instead of using the displayed product.
    fld = field_from_record(FieldRecord(label="c23", poly=(-1, -1, 0, 1)))
    sd = splitting_data(fld, 23)
    alpha = first_ramification_factor(sd)
    beta = second_ramification_factor(sd, 3)
    assert (alpha, beta) == (2, 2)
    forced = Fraction(fld.disc) / (alpha * 23)
    assert square_class(forced, 23) != square_class(beta, 23)
    assert legendre_symbol(-1, 23) == -1
