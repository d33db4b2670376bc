"""Exhaustive search for cubic fields of bounded discriminant.

Every cubic field K has a trace-zero generator theta whose minimal
polynomial is x^3 + a x + b with T2(theta) <= 2*sqrt(|disc K|): the
trace-zero sublattice of O_K has rank 2 and T2-covolume at most
sqrt(3*|disc|), so Minkowski gives a generator with |a| <= sqrt(|disc|)
and |b| <= (2*sqrt(|disc|)/3)^(3/2).  Enumerating that box is therefore
exhaustive for |disc| <= limit.

Isomorphic presentations are merged by splitting fingerprints at small
primes (a heuristic documented as such; two distinct fields would have to
share discriminant and splitting shape at all nine primes to be wrongly
merged), while distinct representatives inside one discriminant class are
confirmed pairwise by an exact resultant-based isomorphism test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import LimitError
from .numberfield import _disc_and_index, _maximal_order
from .polys import (
    factor_monic_int,
    is_squarefree_q,
    pdeg,
    resultant_in_t,
)

FINGERPRINT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


@dataclass(frozen=True)
class CubicFieldClass:
    """One cubic field found by the search: canonical depressed polynomial,
    field discriminant, and how many box presentations merged into it."""

    disc: int
    poly: tuple  # (b, a, 0, 1) for x^3 + a x + b
    presentations: int

    @property
    def a(self) -> int:
        return self.poly[1]

    @property
    def b(self) -> int:
        return self.poly[0]


def search_bounds(limit: int) -> tuple[int, int]:
    """(|a| bound, b bound) covering every cubic field with |disc| <= limit."""
    # floor((2 sqrt(L) / 3)^(3/2)) = floor((64 L^3 / 729)^(1/4))
    return isqrt(limit) + 1, isqrt(isqrt(64 * limit**3 // 729)) + 2


def _sieve(n: int):
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(2, n + 1) if flags[p]]


def _fingerprint(a: int, b: int, index: int, pdisc: int):
    comps = []
    for p in FINGERPRINT_PRIMES:
        if index % p == 0:
            comps.append(None)
        else:
            roots = sum(1 for r in range(p) if (r * (r * r + a) + b) % p == 0)
            comps.append((roots, pdisc % p == 0))
    return tuple(comps)


def _compatible(f1, f2) -> bool:
    return all(a is None or b is None or a == b for a, b in zip(f1, f2))


def _merge_fp(f1, f2):
    return tuple(a if a is not None else b for a, b in zip(f1, f2))


def _cubic_field_disc(a: int, b: int, pdisc: int, factors: dict, cache: dict):
    """(field disc, index) for x^3 + a x + b with pdisc pre-factored."""
    order = _maximal_order([b, a, 0, 1], factors, cache)
    return _disc_and_index(order, pdisc)


def cubics_isomorphic(f, g, max_shift: int = 12) -> bool:
    """Exact isomorphism test for the cubic fields of two irreducible monic
    cubics, via factorization of Res_x(f(x), g(t - s*x))."""
    f, g = list(f), list(g)
    if f == g:
        return True
    for s in range(1, max_shift + 1):
        r = resultant_in_t(f, g, shift=s)
        if not is_squarefree_q(r):
            continue
        return any(pdeg(h) == 3 for h, _ in factor_monic_int(r))
    raise LimitError("no squarefree shift found for the isomorphism test")


def enumerate_cubic_fields(limit: int, progress=None) -> list[CubicFieldClass]:
    """All cubic fields with |disc| <= limit, one class per field.

    Returns classes sorted by (disc, |a|, b, a).  `progress`, when given,
    is called with (done, total) occasionally.
    """
    if limit < 23:
        return []
    amax, bmax = search_bounds(limit)
    max_disc = 4 * amax**3 + 27 * bmax**2
    primes = _sieve(isqrt(max_disc) + 2)
    psq = [p * p for p in primes]
    divisors = [[] for _ in range(bmax + 1)]
    for d in range(1, bmax + 1):
        for m in range(d, bmax + 1, d):
            divisors[m].append(d)
    # disc -> list of [fingerprint, count, best_key, a, b]
    groups: dict[int, list] = {}
    dedekind_cache: dict = {}
    total = 2 * amax + 1
    for step, a in enumerate(range(-amax, amax + 1)):
        if progress and step % 16 == 0:
            progress(step, total)
        four_a3 = 4 * a * a * a
        aa = a
        for b in range(1, bmax + 1):
            disc = -(four_a3 + 27 * b * b)
            if disc == 0:
                continue
            has_root = False
            for r in divisors[b]:
                if r * (r * r + aa) + b == 0 or r * (r * r + aa) == b:
                    has_root = True
                    break
            if has_root:
                continue
            m = abs(disc)
            factors = {}
            for p, p2 in zip(primes, psq):
                if p2 > m:
                    break
                if m % p == 0:
                    e = 1
                    m //= p
                    while m % p == 0:
                        e += 1
                        m //= p
                    factors[p] = e
            if m > 1:
                factors[m] = factors.get(m, 0) + 1
            idx2max = 1
            for p, e in factors.items():
                if e >= 2:
                    idx2max *= p ** (2 * (e // 2))
            if abs(disc) > limit * idx2max:
                continue
            dk, index = _cubic_field_disc(a, b, disc, factors, dedekind_cache)
            if abs(dk) > limit:
                continue
            fp = _fingerprint(a, b, index, disc)
            key = (abs(a), b, a)
            bucket = groups.setdefault(dk, [])
            for rep in bucket:
                if _compatible(fp, rep[0]):
                    rep[0] = _merge_fp(rep[0], fp)
                    rep[1] += 1
                    if key < rep[2]:
                        rep[2], rep[3], rep[4] = key, a, b
                    break
            else:
                bucket.append([fp, 1, key, a, b])
    # exact confirmation: distinct representatives within a class must be
    # genuinely non-isomorphic; merge any fingerprint false splits
    out = []
    for dk in sorted(groups):
        reps = sorted(groups[dk], key=lambda r: r[2])
        confirmed = []
        for rep in reps:
            merged = False
            for kept in confirmed:
                if cubics_isomorphic(
                    [rep[4], rep[3], 0, 1], [kept[4], kept[3], 0, 1]
                ):
                    kept[1] += rep[1]
                    merged = True
                    break
            if not merged:
                confirmed.append(rep)
        for rep in confirmed:
            out.append(
                CubicFieldClass(
                    disc=dk, poly=(rep[4], rep[3], 0, 1), presentations=rep[1]
                )
            )
    return out


def equal_disc_groups(classes) -> list[list[CubicFieldClass]]:
    """Groups of >= 2 non-isomorphic fields sharing a discriminant."""
    by_disc: dict[int, list] = {}
    for c in classes:
        by_disc.setdefault(c.disc, []).append(c)
    return [sorted(v, key=lambda c: (abs(c.a), c.b, c.a)) for d, v in sorted(by_disc.items()) if len(v) > 1]
