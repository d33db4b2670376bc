"""Number fields: maximal orders, splitting data, and integral trace forms.

Fields are presented by a monic irreducible integer polynomial, with an
optional integral basis and optional per-prime splitting data for primes
dividing the index (where native factorization mod p is not valid).  The
maximal order is computed by Dedekind p-maximality tests plus the standard
radical/multiplier enlargement loop at every prime whose square divides the
polynomial discriminant.  The Dedekind test needs only the radical of f
mod p, and runs on the mod-p kernel of `polys` (`mp_radical`, `mp_divmod`,
`mp_gcd`); its overorder is one HNF of p times the order and the
m = deg z multiples U(theta) theta^j of its multiplier.  A
build computes the polynomial discriminant once; its sign also gives the
signature wherever Brill's rule leaves one choice.

All order arithmetic runs on one integer core: an order is a pair (B, den)
of integer rows B, upper triangular with positive diagonal, over one
common denominator, so basis element i is B[i]/den over the power basis.
Multiplication tables and ideal coordinates come from exact integer
forward substitution against a triangular basis, and the discriminant and
index are read off the diagonal.  No Fraction enters this arithmetic; only
`maximal_order` and `NumberFieldData.basis` hand out Fraction rows.

Every build computes the maximal order.  A supplied basis must span it
(equal HNFs over a common denominator) and is then kept as given, so
`trace_gram` sums integers and divides by den^2 once per entry.  Each
supplied splitting is checked at build as on use: against the native
factorization where p does not divide the index, ramified exactly when p
divides disc, and v_p(disc) = n - f_p when tame.  `ramification_profile`
factors each ramified prime once per field and memoises the splittings,
or the class and args of the error they raised, on the field;
`splitting_data` at a ramified prime reads that memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from math import gcd

from .errors import (
    BadBasisError,
    ConsistencyError,
    LimitError,
    NotAFieldError,
    TraceFormsError,
    UnsupportedSplittingError,
)
from .linalg import fp_left_kernel, hnf, mat_mul
from .padic import factorize, is_prime, valuation
from .polys import (
    discriminant,
    factor_mod_p,
    is_irreducible_int,
    mp_divmod,
    mp_gcd,
    mp_normalize,
    mp_radical,
    pdeg,
    pmul,
    pnormalize,
    power_sums,
    sturm_real_roots,
)
from .quadform import GramMatrix

DEGREE_CAP = 12
DISC_CAP = 10**18


@dataclass(frozen=True)
class FieldRecord:
    """Raw ingestion record: polynomial plus optional extras."""

    label: str
    poly: tuple
    basis: tuple | None = None
    splitting: dict | None = None
    galois: bool | None = None


@dataclass(frozen=True, slots=True)
class SplittingData:
    """Splitting of a finite prime: the multiset {(e_i, f_i)}."""

    p: int
    pairs: tuple  # sorted tuple of (e, f)

    @property
    def g(self) -> int:
        return len(self.pairs)

    @property
    def e_sum(self) -> int:
        return sum(e for e, _ in self.pairs)

    @property
    def f_sum(self) -> int:
        return sum(f for _, f in self.pairs)

    @property
    def degree(self) -> int:
        return sum(e * f for e, f in self.pairs)

    @property
    def tame(self) -> bool:
        return all(e % self.p != 0 for e, _ in self.pairs)

    @property
    def ramified(self) -> bool:
        return any(e > 1 for e, _ in self.pairs)


@lru_cache(maxsize=1024)
def _interned(value: tuple) -> tuple:
    """One shared object per distinct tuple of ints.  Fields repeat a few
    orders and splitting shapes (the 2258 quartics of the benchmark box
    have 62 distinct order bases and 6 ramified splitting shapes), so a
    field that keeps its order and its profile keeps mostly shared tuples."""
    return value


def make_splitting(p: int, pairs, n: int | None = None) -> SplittingData:
    pairs = _interned(tuple(sorted((int(e), int(f)) for e, f in pairs)))
    if not pairs or any(e < 1 or f < 1 for e, f in pairs):
        raise ConsistencyError(f"invalid splitting pairs at {p}: {pairs}")
    sd = SplittingData(p=p, pairs=pairs)
    if n is not None and sd.degree != n:
        raise ConsistencyError(
            f"splitting at {p} has sum e_i*f_i = {sd.degree}, expected {n}"
        )
    return sd


@dataclass(frozen=True, slots=True)
class NumberFieldData:
    """Validated field: degree, polynomial, maximal order, disc, signature.

    The maximal order is kept on the integer core: basis element i is
    rows[i] / den over the power basis.  A supplied basis is kept as
    given, not as its HNF.
    """

    label: str
    n: int
    poly: tuple
    rows: tuple  # integer rows over den
    den: int
    disc: int
    sig: tuple  # (r, s)
    poly_disc: int
    index: int
    supplied_splitting: dict = field(default_factory=dict)
    galois: bool | None = None
    # ramified SplittingData in factorize(disc) order, or on failure the
    # exception's (class, args); None until ramification_profile runs
    _ramified: tuple | None = field(default=None, init=False, compare=False,
                                    repr=False)

    @property
    def basis(self) -> tuple:
        """Rows of Fractions over the power basis."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.rows)


# ---------------------------------------------------------------------------
# order arithmetic on (B, den), as in H. Cohen, GTM 138, 2.4 and 6.1; the
# index [O : Z[theta]] is den^n over the product of the diagonal of B


def _reduction_vectors(poly, count):
    """Coordinates of x^k mod poly for k < count (monic integer poly)."""
    n = pdeg(poly)
    red = [[1 if c == k else 0 for c in range(n)] for k in range(n)]
    for k in range(n, count):
        prev = red[k - 1]
        shifted = [0] + list(prev)
        lead = shifted[n]
        red.append([shifted[c] - lead * poly[c] for c in range(n)])
    return red


def _solve_triangular(h, w):
    """Integer row x with x.h = w for upper triangular h, or None."""
    x = []
    for k, hk in enumerate(h):
        s = w[k]
        for t, xt in enumerate(x):
            if xt:
                s -= xt * h[t][k]
        q, r = divmod(s, hk[k])
        if r:
            return None
        x.append(q)
    return x


def _with_content_removed(rows, den):
    """(rows, den) divided by the gcd of den and every entry."""
    g = gcd(den, *(x for row in rows for x in row))
    if g == 1:
        return rows, den
    return [[x // g for x in row] for row in rows], den // g


def _mult_table(order, red):
    """Integer coordinates of b_i * b_j in the basis of an order."""
    rows, den = order
    n = len(rows)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        bi = rows[i]
        for j in range(i + 1):
            bj = rows[j]
            prod = [0] * (2 * n - 1)
            for k in range(n):
                if bi[k]:
                    for l in range(n):
                        prod[k + l] += bi[k] * bj[l]
            # b_i b_j = vec / den^2, so its coordinates x solve x.B = vec / den
            vec = prod[:n]
            for k in range(n, 2 * n - 1):
                if prod[k]:
                    rk = red[k]
                    for c in range(n):
                        vec[c] += prod[k] * rk[c]
            w = []
            for v in vec:
                q, r = divmod(v, den)
                if r:
                    raise ConsistencyError("order is not closed under multiplication")
                w.append(q)
            coords = _solve_triangular(rows, w)
            if coords is None:
                raise ConsistencyError("order is not closed under multiplication")
            table[i][j] = table[j][i] = coords
    return table


def _frobenius_kernel(table, p, n):
    """Basis of the nilradical of the order mod p, via the p-power map."""

    def mul(x, y):
        out = [0] * n
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        xy = xi * yj
                        for c, t in enumerate(table[i][j]):
                            out[c] += xy * t
        return [c % p for c in out]

    def power(x, e):
        result = None
        while True:
            if e & 1:
                result = x if result is None else mul(result, x)
            e >>= 1
            if not e:
                return result
            x = mul(x, x)

    frob = []
    for i in range(n):
        e_i = [1 if c == i else 0 for c in range(n)]
        frob.append(power(e_i, p))
    # iterate the p-power map until p^j >= n
    m = [row[:] for row in frob]
    pj = p
    while pj < n:
        m = [[sum(m[i][k] * frob[k][c] for k in range(n)) % p for c in range(n)]
             for i in range(n)]
        pj *= p
    return fp_left_kernel(m, p)


def _enlarge_at(order, red, p):
    """One radical/multiplier step at p; returns (new order, index gain
    exponent k with [O' : O] = p^k)."""
    rows, den = order
    n = len(rows)
    table = _mult_table(order, red)
    rad = _frobenius_kernel(table, p, n)
    ideal_rows = [list(v) for v in rad] + [
        [p if c == i else 0 for c in range(n)] for i in range(n)
    ]
    h = hnf(ideal_rows)
    if len(h) != n:
        raise ConsistencyError(f"radical at {p} does not have full rank")
    stacked = []
    for i in range(n):
        row = []
        for k in range(n):
            # coords of b_i * gamma_k in the order basis
            prod = [0] * n
            for c in range(n):
                if h[k][c]:
                    tic = table[i][c]
                    for t in range(n):
                        prod[t] += h[k][c] * tic[t]
            # ideal coordinates; integrality certifies I_p is an ideal
            coords = _solve_triangular(h, prod)
            if coords is None:
                raise ConsistencyError(f"radical at {p} is not an ideal")
            row.extend(coords)
        stacked.append(row)
    kernel = fp_left_kernel(stacked, p)
    if not kernel:
        return order, 0
    new_rows = [list(v) for v in kernel] + [
        [p if c == i else 0 for c in range(n)] for i in range(n)
    ]
    hu = hnf(new_rows)
    return _with_content_removed(mat_mul(hu, rows), den * p), len(kernel)


def _dedekind_step(poly, p):
    """Dedekind's criterion with enlargement data.

    With g = rad(f mod p) and h = (f mod p) / g, no irreducible factor is
    needed: Z[theta] is p-maximal iff z = gcd((g h - f)/p, g, h) mod p is
    constant.  Returns (maximal?, ustar, gain): when not maximal, the order
    Z[theta] + (ustar(theta)/p) Z[theta] with ustar = f / z mod p has index
    p^gain = p^deg z over Z[theta].
    """
    fbar = mp_normalize(poly, p)
    gbar = mp_radical(fbar, p)
    hbar, r = mp_divmod(fbar, gbar, p)
    if r:
        raise ConsistencyError(f"radical mod {p} does not divide f")
    z = mp_gcd(gbar, hbar, p)
    if len(z) > 1:
        gh = pmul(gbar, hbar)
        fhat = mp_normalize([(x - c) // p for x, c in zip(gh, poly)], p)
        z = mp_gcd(fhat, z, p)
    if len(z) == 1:
        return True, None, 0
    return False, mp_divmod(fbar, z, p)[0], len(z) - 1


def _dedekind_overorder(order, ustar, p):
    """order + (U(theta)/p) Z[theta], for the lift U of ustar to [0, p).

    U is monic of degree n - m, and f = U Z + p R over Z for a monic lift
    Z of z = f / ustar mod p, of degree m.  So U(theta) theta^m lies in
    p Z[theta] plus the span of the U(theta) theta^j with j < m, and so
    does each higher multiple: those m elements and p times the order's
    rows, over den p, generate the enlarged order.
    """
    rows, den = order
    n = len(rows)
    m = n + 1 - len(ustar)
    gens = [[p * x for x in row] for row in rows]
    for j in range(m):
        gens.append([0] * j + [den * c for c in ustar] + [0] * (m - 1 - j))
    return _with_content_removed(hnf(gens), den * p)


def _maximal_at_2(disc) -> bool:
    """Whether Stickelberger's relation, d_K = 0 or 1 mod 4, shows an order
    of discriminant disc (up to odd square factors) to be 2-maximal.

    An index 2^k over it would give d_K = disc / 4^k up to an odd square,
    which is 1 mod 8.  With v_2(disc) = 3 that makes v_2(d_K) = 1, and
    with v_2(disc) = 2 it makes d_K = disc / 4 mod 4, so unless
    disc / 4 = 1 mod 4 there is no such k >= 1.
    """
    v = valuation(disc, 2)
    return v == 3 or (v == 2 and disc // 4 % 4 == 3)


def _maximal_order(poly, pdisc):
    """(B, den) of the maximal order of a polynomial of disc pdisc; see
    `maximal_order`."""
    n = pdeg(poly)
    order = [[1 if c == k else 0 for c in range(n)] for k in range(n)], 1
    red = None
    for p, e in factorize(pdisc).items():
        if e < 2:
            continue
        maximal, ustar, gained = _dedekind_step(poly, p)
        if maximal:
            continue
        order = _dedekind_overorder(order, ustar, p)
        cap = e // 2
        for _ in range(cap + 1):
            if gained >= cap or (p == 2 and _maximal_at_2(pdisc // 4**gained)):
                break
            if red is None:
                red = _reduction_vectors(poly, 2 * n - 1)
            order, k = _enlarge_at(order, red, p)
            if k == 0:
                break
            gained += k
        else:
            raise LimitError(f"maximal order iteration cap exceeded at {p}")
    return order


def maximal_order(poly):
    """Integral basis (rows over the power basis) of the maximal order.

    Dedekind's criterion at p depends only on the polynomial (enlargements
    at other primes never change the p-local order), so it gates the work
    at every prime and supplies the first enlargement directly; the
    radical/multiplier loop finishes the rare deeper-index cases.  It stops
    once the index gain reaches its cap v_p(poly disc) // 2, or at p = 2
    once Stickelberger's relation rules out any further gain.
    """
    rows, den = _maximal_order(poly, discriminant(poly))
    return [[Fraction(x, den) for x in row] for row in rows]


def _diagonal_product(rows):
    out = 1
    for i, row in enumerate(rows):
        out *= row[i]
    return out


def _disc_and_index(order, pdisc):
    """(disc, index) of an order (B, den) of a polynomial of disc pdisc."""
    rows, den = order
    n = len(rows)
    covolume = _diagonal_product(rows)
    disc, r = divmod(pdisc * covolume * covolume, den ** (2 * n))
    if r:
        raise ConsistencyError("order discriminant is not an integer")
    index, r = divmod(den**n, covolume)
    if r:
        raise ConsistencyError("order does not contain Z[theta]")
    return disc, index


def _signature(poly, pdisc) -> tuple[int, int]:
    """(r, s) of a polynomial of degree n and discriminant pdisc.

    Brill's theorem, sign(disc) = (-1)^s, leaves the values of s in
    [0, n/2] of the right parity.  When one remains (every n <= 3, and
    s = 1 for n = 4 or 5 when disc < 0) it is the answer; otherwise Sturm
    counting gives r, checked against the same parity.
    """
    n = pdeg(poly)
    parity = 0 if pdisc > 0 else 1
    choices = range(parity, n // 2 + 1, 2)
    if len(choices) == 1:
        s = choices[0]
    else:
        s = (n - sturm_real_roots(poly)) // 2
        if s % 2 != parity:
            raise ConsistencyError("discriminant sign does not match the signature")
    return n - 2 * s, s


def signature_of_field(poly) -> tuple[int, int]:
    """(real embeddings, complex-conjugate pairs) of a monic integer
    polynomial with nonzero discriminant: Brill's sign rule where it
    leaves one value of s, Sturm counting where it leaves two.  Any other
    polynomial raises ValueError from `discriminant`, whose sign is what
    the rule reads."""
    poly = pnormalize(list(poly))
    return _signature(poly, discriminant(poly))


def field_from_record(rec: FieldRecord) -> NumberFieldData:
    poly = pnormalize(list(rec.poly))
    n = pdeg(poly)
    if n < 2:
        raise NotAFieldError(f"degree must be at least 2, got {n}")
    if n > DEGREE_CAP:
        raise LimitError(f"degree {n} exceeds the cap {DEGREE_CAP}")
    if poly[-1] != 1:
        raise NotAFieldError("defining polynomial must be monic")
    if poly[0] == 0:
        raise NotAFieldError("defining polynomial has constant term 0")
    if any(not isinstance(c, int) for c in poly):
        raise NotAFieldError("defining polynomial must have integer coefficients")
    if not is_irreducible_int(poly):
        raise NotAFieldError("defining polynomial is reducible over Q")
    pdisc = discriminant(poly)
    if abs(pdisc) > DISC_CAP:
        raise LimitError(f"|poly disc| = {abs(pdisc)} exceeds the cap {DISC_CAP}")
    order = rows, den = _maximal_order(poly, pdisc)
    if rec.basis is not None:
        rows, den = _integer_rows(rec.basis, n)
        common = den * order[1] // gcd(den, order[1])
        if hnf([[x * (common // den) for x in row] for row in rows]) != hnf(
            [[x * (common // order[1]) for x in row] for row in order[0]]
        ):
            raise BadBasisError("supplied basis does not span the maximal order")
    disc, index = _disc_and_index(order, pdisc)
    r, s = _signature(poly, pdisc)
    supplied = {}
    if rec.splitting:
        for p, pairs in rec.splitting.items():
            p = int(p)
            if not is_prime(p):
                raise ConsistencyError(f"splitting key {p} is not prime")
            supplied[p] = make_splitting(p, pairs, n)
    fld = NumberFieldData(
        label=rec.label,
        n=n,
        poly=tuple(poly),
        rows=_interned(tuple(tuple(row) for row in rows)),
        den=den,
        disc=disc,
        sig=_interned((r, s)),
        poly_disc=pdisc,
        index=index,
        supplied_splitting=supplied,
        galois=rec.galois,
    )
    for p in supplied:
        _splitting_at(fld, p)
    return fld


def _integer_rows(basis, n):
    """A supplied n x n basis as (integer rows, den), entry for entry."""
    basis = [[Fraction(x) for x in row] for row in basis]
    if len(basis) != n or any(len(row) != n for row in basis):
        raise BadBasisError(f"basis must be {n}x{n}")
    den = 1
    for row in basis:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    return [[x.numerator * (den // x.denominator) for x in row] for row in basis], den


def trace_gram(fld: NumberFieldData) -> GramMatrix:
    """Gram matrix Tr(b_i b_j) of the integral trace form, exactly.

    With b_i = rows[i] / den, Tr(b_i b_j) = sum_kl rows[i][k] rows[j][l]
    Tr(theta^(k+l)) / den^2: an integer sum, divided once per entry."""
    n, rows, den2 = fld.n, fld.rows, fld.den * fld.den
    sums = power_sums(list(fld.poly), 2 * n - 1)
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        bi = rows[i]
        # moments[l] = Tr(rows[i] * theta^l), so entry (i, j) is moments . rows[j]
        moments = [sum(bi[k] * sums[k + l] for k in range(n) if bi[k])
                   for l in range(n)]
        for j in range(i + 1):
            val, r = divmod(sum(m * x for m, x in zip(moments, rows[j])), den2)
            if r:
                raise BadBasisError("trace pairing is not integral on this basis")
            entries[i][j] = entries[j][i] = val
    gram = GramMatrix(entries)
    if gram.det != fld.disc:
        raise ConsistencyError("det(trace gram) != disc")
    return gram


def _splitting_at(fld: NumberFieldData, p: int) -> SplittingData:
    """`splitting_data` for a prime p, computed afresh."""
    supplied = fld.supplied_splitting.get(p)
    if fld.index % p != 0:
        fac = factor_mod_p(list(fld.poly), p)
        pairs = [(mult, pdeg(g)) for g, mult in fac]
        split = make_splitting(p, pairs, fld.n)
        if supplied is not None and supplied != split:
            raise ConsistencyError(
                f"supplied splitting at {p} contradicts native factorization"
            )
    elif supplied is None:
        raise UnsupportedSplittingError(p)
    else:
        split = supplied
    # Dedekind's discriminant theorem: p ramifies iff p divides disc
    if split.ramified != (fld.disc % p == 0):
        if split.ramified:
            raise ConsistencyError(f"{p} does not divide disc but splitting is ramified")
        raise ConsistencyError(f"{p} divides disc but splitting is unramified")
    if split.tame:
        v = valuation(fld.disc, p)
        if v != fld.n - split.f_sum:
            if split is supplied:
                raise ConsistencyError(
                    f"supplied tame splitting at {p} violates v_p(disc) = n - f_p"
                )
            raise ConsistencyError(
                f"tame discriminant formula fails at {p}: "
                f"v_p(disc)={v}, n-f_p={fld.n - split.f_sum}"
            )
    return split


def splitting_data(fld: NumberFieldData, p: int) -> SplittingData:
    """Splitting of p: native factorization mod p when p does not divide
    the index, otherwise supplied data from the record.  The splitting is
    ramified exactly when p divides disc, and a tame splitting satisfies
    v_p(disc) = n - f_p; a ConsistencyError reports either mismatch.  At a
    ramified p it is the entry of the field's ramification profile, so a
    profile that failed at any prime raises its error here too."""
    if not is_prime(p):
        raise ConsistencyError(f"{p} is not prime")
    if fld.disc % p == 0:
        return ramification_profile(fld)[0][p]
    return _splitting_at(fld, p)


def ramification_profile(fld: NumberFieldData):
    """Splitting at every ramified prime, plus the global tameness flag.

    Returns (profile dict p -> SplittingData, tame: bool), checked as in
    `splitting_data`.  The splittings are computed once per field and
    kept on it; an error is kept as its class and args and raised again
    on every call.
    """
    memo = fld._ramified
    if memo is None:
        try:
            memo = tuple(_splitting_at(fld, p) for p in factorize(fld.disc))
        except TraceFormsError as exc:
            memo = (type(exc), exc.args)
        object.__setattr__(fld, "_ramified", memo)
    if memo and isinstance(memo[0], type):
        cls, args = memo
        raise cls(*args)
    return {sd.p: sd for sd in memo}, all(sd.tame for sd in memo)


def is_fundamental_discriminant(d: int) -> bool:
    """True iff d is the discriminant of a quadratic field."""
    if d in (0, 1):
        return False

    def squarefree(m):
        m = abs(m)
        return all(e == 1 for e in factorize(m).values()) if m > 1 else m == 1

    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False
