"""Ramification invariants of a prime in a number field.

Everything here is computed from splitting data {(e_i, f_i)} alone: the
first and second ramification factors, the nonresidue count used by the
parity criterion, the tame diagonal block form, and the tame local model
of the integral trace at odd primes.  A diagonal form is the tuple of its
nonzero rational entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import ConsistencyError, FormRangeError, TamenessError
from .numberfield import NumberFieldData, SplittingData, splitting_data
from .padic import (
    Rational,
    check_odd_prime,
    least_nonresidue,
    legendre_symbol,
    square_class,
    val_unit,
)


def first_ramification_factor(split: SplittingData) -> int:
    """prod e_i^{f_i} * u_p^{f_p - g_p}; equals 1 exactly on trivial data."""
    u = least_nonresidue(split.p)
    out = 1
    for e, f in split.pairs:
        out *= e**f
    return out * u ** (split.f_sum - split.g)


def second_ramification_factor(split: SplittingData, n: int) -> Fraction:
    """The signed product with exponents e_i - f_i; an exact rational unit
    at p (negative exponents are kept as exact fractions)."""
    u = least_nonresidue(split.p)
    sign = -1 if sum(((e - 1) // 2) * f for e, f in split.pairs) % 2 else 1
    out = Fraction(sign)
    for e, f in split.pairs:
        out *= Fraction(e) ** (e - f)
    exponent = n - split.f_sum - split.e_sum + split.g
    if exponent < 0:
        raise ConsistencyError(f"negative unit exponent {exponent} at {split.p}")
    return out * u**exponent


def nonresidue_odd_count(split: SplittingData) -> int:
    """#{i : f_i odd and (e_i/p) = -1}; tame odd p only."""
    p = check_odd_prime(split.p)
    if not split.tame:
        raise TamenessError(f"{p} is wildly ramified; count undefined")
    return sum(
        1
        for e, f in split.pairs
        if f % 2 == 1 and legendre_symbol(e, p) == -1
    )


def tame_diagonal_form(split: SplittingData) -> tuple:
    """The diagonal form attached to a tame splitting at odd p.

    Block i contributes f_i entries: e_i repeated, then e_i*(-1)^{f_i-1}
    and e_i*(-u_p)^{f_i-1}; an f_i = 1 block degenerates to <e_i>.  Total
    dimension f_p, determinant in the square class of the first factor.
    """
    p = check_odd_prime(split.p)
    if not split.tame:
        raise TamenessError(f"{p} is wildly ramified; block form undefined")
    u = least_nonresidue(p)
    entries = []
    for e, f in split.pairs:
        if f == 1:
            entries.append(e)
        else:
            entries.extend([e] * (f - 2))
            entries.append(e * (-1) ** (f - 1))
            entries.append(e * (-u) ** (f - 1))
    if len(entries) != split.f_sum:
        raise ConsistencyError(f"block form at {p} does not have dimension f_p")
    if square_class(prod(entries), p) != square_class(first_ramification_factor(split), p):
        raise ConsistencyError(f"block form at {p} has the wrong determinant class")
    return tuple(entries)


def model_form(f: int, n: int, alpha: Rational, beta: Rational, p: int) -> tuple:
    """<1,...,1,alpha> + p * <1,...,1,beta> with f unimodular entries.

    When f = n the scaled part is empty and beta is ignored.
    """
    check_odd_prime(p)
    if not 0 < f <= n:
        raise FormRangeError(f"need 0 < f <= n, got f={f}, n={n}")
    if val_unit(alpha, p)[0] != 0:
        raise FormRangeError(f"alpha={alpha} is not a unit at {p}")
    entries = (1,) * (f - 1) + (alpha,)
    if f == n:
        return entries
    if val_unit(beta, p)[0] != 0:
        raise FormRangeError(f"beta={beta} is not a unit at {p}")
    return entries + (p,) * (n - f - 1) + (p * beta,)


def trace_model_from_splitting(split: SplittingData, n: int, disc: int) -> tuple:
    """Model of the local integral trace at a tame odd p.

    Unimodular part <1,...,1,alpha> with alpha the first ramification
    factor; scaled part p*<1,...,1,b> where the unit b is normalized so the
    model determinant lies in the square class of the field discriminant at
    p (the class the actual local trace is forced to carry).  The second
    ramification factor's displayed closed form does not always land in
    that class, so it is not used here.
    """
    p = check_odd_prime(split.p)
    if not split.tame:
        raise TamenessError(f"{p} is wildly ramified; tame model undefined")
    alpha = first_ramification_factor(split)
    if split.f_sum == n:
        return model_form(n, n, alpha, None, p)
    ratio = Fraction(disc, alpha * p ** (n - split.f_sum))
    return model_form(split.f_sum, n, alpha, square_class(ratio, p), p)


def local_trace_model(fld: NumberFieldData, p: int) -> tuple:
    """Asserted Z_p-isometry class of the integral trace at a tame odd p."""
    return trace_model_from_splitting(splitting_data(fld, p), fld.n, fld.disc)
