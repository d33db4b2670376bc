"""Decision procedures for trace-form comparison.

Each procedure checks its exact hypotheses and raises (never answers) when
they fail: the underlying criteria are biconditionals only on their stated
domains.  Answers come back as Verdict records carrying the checked
hypotheses and the per-prime evidence, so reports stay auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    ConsistencyError,
    FlagInconsistencyError,
    HypothesisError,
    TamenessError,
)
from .numberfield import is_fundamental_discriminant, ramification_profile
from .padic import legendre_symbol, val_unit
from .raminv import first_ramification_factor, nonresidue_odd_count

ISOMETRIC_TRACE = "ISOMETRIC_TRACE"
SAME_SPINOR_GENUS = "SAME_SPINOR_GENUS"


@dataclass(frozen=True)
class Verdict:
    """A decision procedure's answer and its grounds: `basis` names the
    relation decided (ISOMETRIC_TRACE or SAME_SPINOR_GENUS), `theorem` the
    criterion applied, `hypotheses` the conditions it checked, and
    `witnesses` the invariants it compared."""

    answer: bool
    basis: str
    theorem: str
    hypotheses: tuple
    witnesses: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "answer": self.answer,
            "basis": self.basis,
            "theorem": self.theorem,
            "hypotheses": list(self.hypotheses),
            "witnesses": self.witnesses,
        }


@dataclass(frozen=True)
class FieldInvariants:
    """Everything the decision procedures consume.

    Built from a NumberFieldData, or constructed directly (tests fuzz
    synthetic splitting configurations through the same code paths).
    """

    n: int
    disc: int
    sig: tuple
    profile: dict  # ramified p -> SplittingData
    tame: bool
    galois: bool | None = None


def invariants_of(obj) -> FieldInvariants:
    if isinstance(obj, FieldInvariants):
        return obj
    profile, tame = ramification_profile(obj)
    return FieldInvariants(
        n=obj.n, disc=obj.disc, sig=obj.sig, profile=profile, tame=tame,
        galois=obj.galois,
    )


def _basic(obj):
    return obj.n, obj.disc, obj.sig


def _require_tame(inv: FieldInvariants):
    if not inv.tame:
        wild = sorted(p for p, sd in inv.profile.items() if not sd.tame)
        raise TamenessError(f"wild ramification at {wild}")


def _odd_ramified(inv: FieldInvariants):
    return sorted(p for p in inv.profile if p != 2)


def _assert_same_ramified(a: FieldInvariants, b: FieldInvariants):
    if set(a.profile) != set(b.profile):
        raise ConsistencyError(
            "equal discriminants of tame fields must share ramified primes"
        )


def same_spinor_genus(K, L) -> Verdict:
    """Spinor-genus equality for tame fields of equal degree >= 3.

    Conditions: equal discriminant, equal signature, and matching Legendre
    symbols of the first ramification factor at every odd prime dividing
    the common discriminant.
    """
    K, L = invariants_of(K), invariants_of(L)
    if K.n != L.n:
        raise HypothesisError("fields must have equal degree")
    if K.n < 3:
        raise HypothesisError("criterion needs degree at least 3")
    _require_tame(K)
    _require_tame(L)
    hyps = ("equal degree", "degree >= 3", "both tame")
    disc_eq = K.disc == L.disc
    sig_eq = K.sig == L.sig
    symbols = {}
    symbols_ok = True
    if disc_eq:
        _assert_same_ramified(K, L)
        for p in _odd_ramified(K):
            lk = legendre_symbol(first_ramification_factor(K.profile[p]), p)
            ll = legendre_symbol(first_ramification_factor(L.profile[p]), p)
            symbols[p] = (lk, ll)
            if lk != ll:
                symbols_ok = False
    return Verdict(
        answer=disc_eq and sig_eq and symbols_ok,
        basis=SAME_SPINOR_GENUS,
        theorem="tame-spinor-criterion",
        hypotheses=hyps,
        witnesses={
            "disc": (K.disc, L.disc),
            "signature": (K.sig, L.sig),
            "odd_prime_symbols": symbols,
        },
    )


def isometric_trace_forms(K, L) -> Verdict:
    """Isometry of integral trace forms.

    Cubic fields with a negative discriminant need nothing but the
    discriminant (any ramification); otherwise requires tame fields of
    equal degree >= 3, at least one non-totally-real, and reduces to the
    spinor-genus conditions.
    """
    nK, dK, sK = _basic(K)
    nL, dL, sL = _basic(L)
    if nK == nL == 3 and (dK < 0 or dL < 0):
        return Verdict(
            answer=dK == dL,
            basis=ISOMETRIC_TRACE,
            theorem="cubic-negative-disc",
            hypotheses=("both cubic", "negative discriminant"),
            witnesses={"disc": (dK, dL)},
        )
    if nK != nL:
        raise HypothesisError("fields must have equal degree")
    if sK[1] == 0 and sL[1] == 0:
        raise HypothesisError("no isometry criterion for totally real fields")
    inner = same_spinor_genus(K, L)
    return Verdict(
        answer=inner.answer,
        basis=ISOMETRIC_TRACE,
        theorem="tame-indefinite-isometry",
        hypotheses=inner.hypotheses + ("non-totally-real",),
        witnesses=inner.witnesses,
    )


def isometric_by_parity(K, L) -> Verdict:
    """Isometry via residue-degree equality and g - h parity.

    (a) f_p equal at every prime ramified in either field, with the real
    place counted through the signature; (b) g_p - h_p parity equal at
    every odd ramified prime.
    """
    K, L = invariants_of(K), invariants_of(L)
    if K.n != L.n:
        raise HypothesisError("fields must have equal degree")
    if K.n < 3:
        raise HypothesisError("criterion needs degree at least 3")
    if K.sig[1] == 0 and L.sig[1] == 0:
        raise HypothesisError("no isometry criterion for totally real fields")
    _require_tame(K)
    _require_tame(L)
    n = K.n
    f_table = {-1: (sum(K.sig), sum(L.sig))}
    residue_ok = sum(K.sig) == sum(L.sig)
    for p in sorted(set(K.profile) | set(L.profile)):
        fk = K.profile[p].f_sum if p in K.profile else n
        fl = L.profile[p].f_sum if p in L.profile else n
        f_table[p] = (fk, fl)
        if fk != fl:
            residue_ok = False
    parity_table = {}
    parity_ok = True
    if residue_ok:
        for p in _odd_ramified(K):
            gk = K.profile[p].g - nonresidue_odd_count(K.profile[p])
            gl = L.profile[p].g - nonresidue_odd_count(L.profile[p])
            parity_table[p] = (gk % 2, gl % 2)
            if gk % 2 != gl % 2:
                parity_ok = False
    return Verdict(
        answer=residue_ok and parity_ok,
        basis=ISOMETRIC_TRACE,
        theorem="parity-criterion",
        hypotheses=("equal degree", "degree >= 3", "both tame", "non-totally-real"),
        witnesses={"residue_sums": f_table, "g_minus_h_parity": parity_table},
    )


def isometric_fundamental_disc(K, L) -> Verdict:
    """Isometry for fields of common fundamental discriminant: the number
    of primes over each odd ramified p must have equal parity."""
    K, L = invariants_of(K), invariants_of(L)
    if K.disc != L.disc:
        raise HypothesisError("fields must share the discriminant")
    if not is_fundamental_discriminant(K.disc):
        raise HypothesisError(f"{K.disc} is not a fundamental discriminant")
    if K.sig != L.sig:
        raise HypothesisError("fields must share the signature")
    if K.sig[1] == 0:
        raise HypothesisError("no isometry criterion for totally real fields")
    squarefree_disc = K.disc % 2 != 0
    for inv in (K, L):
        for p, sd in inv.profile.items():
            if sd.tame:
                continue
            if p == 2 and squarefree_disc:
                continue  # squarefree discriminant lifts the condition at 2
            raise TamenessError(f"wild ramification at {p}")
    parity = {}
    ok = True
    for p in _odd_ramified(K):
        gk = K.profile[p].g % 2
        gl = L.profile[p].g % 2
        parity[p] = (gk, gl)
        if gk != gl:
            ok = False
    return Verdict(
        answer=ok,
        basis=ISOMETRIC_TRACE,
        theorem="fundamental-disc-parity",
        hypotheses=(
            "equal fundamental discriminant",
            "equal signature",
            "non-totally-real",
            "2 at worst tame",
        ),
        witnesses={"g_parity": parity},
    )


def galois_same_spinor_genus(K, L) -> Verdict:
    """Spinor-genus equality for tame Galois fields of equal odd degree.

    Galois-ness is a trusted flag, but the splitting shape (all (e, f)
    equal above each prime) is verified.  Totally ramified pairs reduce to
    discriminant equality alone.
    """
    K, L = invariants_of(K), invariants_of(L)
    if not (K.galois and L.galois):
        raise HypothesisError("both fields must be flagged Galois")
    if K.n != L.n:
        raise HypothesisError("fields must have equal degree")
    if K.n % 2 == 0:
        raise HypothesisError("criterion needs odd degree")
    _require_tame(K)
    _require_tame(L)
    for inv, name in ((K, "first"), (L, "second")):
        for p, sd in inv.profile.items():
            if len(set(sd.pairs)) != 1:
                raise FlagInconsistencyError(
                    f"{name} field is flagged Galois but splitting at {p} "
                    f"has unequal (e, f) pairs: {sd.pairs}"
                )
    disc_eq = K.disc == L.disc
    totally_ramified = all(
        sd.g == 1 and sd.pairs[0][0] == inv.n
        for inv in (K, L)
        for sd in inv.profile.values()
    )
    if totally_ramified:
        return Verdict(
            answer=disc_eq,
            basis=SAME_SPINOR_GENUS,
            theorem="galois-totally-ramified",
            hypotheses=(
                "both Galois (trusted flag, shape verified)",
                "odd degree",
                "both tame",
                "totally ramified at every ramified prime",
            ),
            witnesses={"disc": (K.disc, L.disc)},
        )
    symbols = {}
    ok = True
    if disc_eq:
        _assert_same_ramified(K, L)
        for p in _odd_ramified(K):
            ek = K.profile[p].pairs[0][0]
            el = L.profile[p].pairs[0][0]
            lk, ll = legendre_symbol(ek, p), legendre_symbol(el, p)
            symbols[p] = (lk, ll)
            if lk != ll:
                ok = False
    return Verdict(
        answer=disc_eq and ok,
        basis=SAME_SPINOR_GENUS,
        theorem="galois-odd-spinor",
        hypotheses=(
            "both Galois (trusted flag, shape verified)",
            "odd degree",
            "both tame",
        ),
        witnesses={"disc": (K.disc, L.disc), "ram_degree_symbols": symbols},
    )


def single_odd_prime_isometric(K, L) -> Verdict:
    """Isometry granted outright: tame, non-totally-real, equal signature
    and discriminant, and at most one odd ramified prime."""
    K, L = invariants_of(K), invariants_of(L)
    _require_tame(K)
    _require_tame(L)
    if K.sig != L.sig:
        raise HypothesisError("fields must share the signature")
    if K.sig[1] == 0:
        raise HypothesisError("fields must be non-totally-real")
    if K.disc != L.disc:
        raise HypothesisError("fields must share the discriminant")
    odd = _odd_ramified(K)
    if len(odd) > 1:
        raise HypothesisError(f"more than one odd ramified prime: {odd}")
    return Verdict(
        answer=True,
        basis=ISOMETRIC_TRACE,
        theorem="single-odd-ramified-prime",
        hypotheses=(
            "both tame",
            "non-totally-real",
            "equal signature",
            "equal discriminant",
            "at most one odd ramified prime",
        ),
        witnesses={"odd_ramified": odd},
    )


def cubic_same_spinor_genus(K, L) -> Verdict:
    """Cubic fields: same spinor genus iff same discriminant, wildness
    allowed."""
    nK, dK, _ = _basic(K)
    nL, dL, _ = _basic(L)
    if nK != 3 or nL != 3:
        raise HypothesisError("both fields must be cubic")
    return Verdict(
        answer=dK == dL,
        basis=SAME_SPINOR_GENUS,
        theorem="cubic-spinor-disc",
        hypotheses=("both cubic",),
        witnesses={"disc": (dK, dL)},
    )


def cubic_local_form_at_3(a: int, b: int) -> tuple:
    """Class of the integral trace of the totally ramified cubic extension
    of the 3-adics cut out by x^3 + 3a x + b.

    With d = -(b^2 + 4a^3): v_3(d) = 0 gives <3,3,3d>; v_3(d) = 1 gives
    <3,6,3d/2>; v_3(d) = 2 gives <3,9,-9>.
    """
    d = -(b * b + 4 * a**3)
    if d == 0:
        raise HypothesisError("discriminant is zero; not a field")
    v = val_unit(d, 3)[0]
    if v == 0:
        return (3, 3, 3 * d)
    if v == 1:
        return (3, 6, Fraction(3 * d, 2))
    if v == 2:
        return (3, 9, -9)
    raise HypothesisError(
        f"v3(27d) = {v + 3} is outside 3..5; extension is not totally ramified"
    )
