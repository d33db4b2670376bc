import dataclasses
import hashlib
import itertools
import os
import random
from fractions import Fraction

import pytest

from _synth import ODD_POOL, sibling_field, synth_field, tame_disc, tame_splittings
from traceforms.cli import ingest
from traceforms.decide import (
    FieldInvariants,
    Verdict,
    cubic_local_form_at_3,
    cubic_same_spinor_genus,
    galois_same_spinor_genus,
    invariants_of,
    isometric_by_parity,
    isometric_fundamental_disc,
    isometric_trace_forms,
    same_spinor_genus,
    single_odd_prime_isometric,
)
from traceforms.errors import (
    FlagInconsistencyError,
    HypothesisError,
    TamenessError,
    TraceFormsError,
)
from traceforms.numberfield import (
    FieldRecord,
    field_from_record,
    make_splitting,
    trace_gram,
)
from traceforms.quadform import (
    diagonal_local_symbol_odd,
    genus_equal,
    local_symbol_odd,
)

CORPUS = os.path.join(os.path.dirname(__file__), "data", "corpus.jsonl")


def make_field(label, poly, **kw):
    return field_from_record(FieldRecord(label=label, poly=tuple(poly), **kw))


def flagged_galois(fld):
    return dataclasses.replace(invariants_of(fld), galois=True)


C23 = make_field("c23", [-1, -1, 0, 1])
C31 = make_field("c31", [-1, 1, 0, 1])
C81 = make_field("c81", [1, -3, 0, 1])  # cyclic, wild at 3
C49 = make_field("c49", [-1, -2, 1, 1], galois=True)  # conductor 7
Q11 = make_field("q11", [1, 3, -3, -4, 1, 1], galois=True)  # conductor 11
Q31 = make_field("q31", [5, 1, -21, -12, 1, 1], galois=True)  # conductor 31


def test_known_quintic_conductors():
    assert Q11.disc == 11**4
    assert Q31.disc == 31**4
    assert Q11.sig == (5, 0) and Q31.sig == (5, 0)


def test_same_spinor_genus_basics():
    v = same_spinor_genus(C23, C23)
    assert v.answer and v.basis == "SAME_SPINOR_GENUS"
    assert not same_spinor_genus(C23, C31).answer
    with pytest.raises(TamenessError):
        same_spinor_genus(C81, C81)


def test_same_spinor_genus_quartic_example():
    # splittings [(2,1),(1,2)] vs [(2,1),(1,1),(1,1)] at 5: alpha symbols
    # (4/5) = +1 vs (2/5) = -1 under equal disc/signature
    a = FieldInvariants(
        n=4, disc=-5, sig=(2, 1),
        profile={5: make_splitting(5, [(2, 1), (1, 2)], 4)}, tame=True,
    )
    b = FieldInvariants(
        n=4, disc=-5, sig=(2, 1),
        profile={5: make_splitting(5, [(2, 1), (1, 1), (1, 1)], 4)}, tame=True,
    )
    v = same_spinor_genus(a, b)
    assert not v.answer
    assert v.witnesses["odd_prime_symbols"][5] == (1, -1)


def test_isometric_trace_forms_cubic_path():
    assert isometric_trace_forms(C23, C23).answer
    v = isometric_trace_forms(C23, C31)
    assert not v.answer and v.theorem == "cubic-negative-disc"
    # wildness is fine on the cubic path
    wild = make_field("w", [3, 0, 0, 1])  # x^3 + 3, disc -243
    assert isometric_trace_forms(wild, wild).answer
    assert not isometric_trace_forms(wild, C23).answer


def test_isometric_trace_forms_hypothesis_errors():
    with pytest.raises(HypothesisError):
        isometric_trace_forms(C81, C81)  # totally real cubic pair
    with pytest.raises(HypothesisError):
        isometric_trace_forms(Q11, Q31)  # totally real quintics
    with pytest.raises(HypothesisError):
        isometric_trace_forms(C23, Q11)  # degree mismatch


def test_parity_criterion_matches_trace_criterion_on_synthetic_pairs():
    rng = random.Random(97)
    checked = 0
    for _ in range(300):
        n = rng.randint(3, 8)
        s = rng.randint(1, n // 2)
        a = synth_field(rng, n, s=s)
        b = sibling_field(rng, a) if rng.random() < 0.7 else synth_field(rng, n, s=s)
        va = isometric_trace_forms(a, b)
        vb = isometric_by_parity(a, b)
        assert va.answer == vb.answer, (a, b)
        checked += 1
    assert checked == 300


def test_single_odd_prime_isometric():
    v = single_odd_prime_isometric(C23, C23)
    assert v.answer and v.theorem == "single-odd-ramified-prime"
    with pytest.raises(HypothesisError):
        single_odd_prime_isometric(C23, C31)  # unequal disc
    with pytest.raises(TamenessError):
        single_odd_prime_isometric(C81, C81)
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(3, 8)
        a = synth_field(rng, n, s=rng.randint(1, n // 2), primes=[rng.choice([3, 5, 7])])
        b = sibling_field(rng, a)
        if a.disc != b.disc or a.sig != b.sig:
            continue
        assert single_odd_prime_isometric(a, b).answer
        # consistency with the trace-form criterion on realizable shapes is
        # exercised on real fields in the acceptance suite; here we only
        # check the hypotheses route to an outright yes


def test_fundamental_disc_criterion():
    v = isometric_fundamental_disc(C23, C23)
    assert v.answer and v.theorem == "fundamental-disc-parity"
    with pytest.raises(HypothesisError):
        isometric_fundamental_disc(C23, C31)  # disc mismatch
    nonfund = make_field("nf", [2, 0, 1])  # disc -8... fundamental, use -4 instead
    assert nonfund.disc == -8
    q2 = make_field("q2", [1, 0, 1])  # disc -4
    with pytest.raises(HypothesisError):
        # -4 is fundamental but signatures/totally-real gates apply to cubics only;
        # here the mismatch is the discriminant
        isometric_fundamental_disc(C23, q2)


def test_fundamental_matches_trace_criterion_on_synthetic():
    rng = random.Random(103)
    from traceforms.numberfield import is_fundamental_discriminant

    checked = 0
    for _ in range(600):
        n = rng.randint(3, 8)
        s = rng.randint(1, n // 2)
        a = synth_field(rng, n, s=s)
        if not is_fundamental_discriminant(a.disc):
            continue
        b = sibling_field(rng, a)
        if b.disc != a.disc or b.sig != a.sig:
            continue
        va = isometric_trace_forms(a, b)
        vf = isometric_fundamental_disc(a, b)
        assert va.answer == vf.answer, (a, b)
        checked += 1
    assert checked > 20


def test_galois_criterion():
    assert galois_same_spinor_genus(Q11, Q11).answer
    v = galois_same_spinor_genus(Q11, Q31)
    assert not v.answer
    assert v.theorem == "galois-totally-ramified"
    with pytest.raises(HypothesisError):
        galois_same_spinor_genus(C23, C23)  # not flagged Galois
    with pytest.raises(FlagInconsistencyError):
        galois_same_spinor_genus(flagged_galois(C23), flagged_galois(C23))
    with pytest.raises(TamenessError):
        galois_same_spinor_genus(flagged_galois(C81), flagged_galois(C81))
    with pytest.raises(HypothesisError):
        galois_same_spinor_genus(flagged_galois(Q11), flagged_galois(C49))  # degrees


def test_galois_criterion_non_totally_ramified():
    # synthetic Galois shapes: g equal pairs (e, f) with efg = n
    rng = random.Random(107)
    for _ in range(200):
        e, f, g = rng.choice([(3, 1, 3), (3, 3, 1), (9, 1, 1), (1, 3, 3), (5, 1, 1)])
        n = e * f * g
        p = rng.choice([5, 7, 11, 13])
        if e % p == 0:
            continue
        prof_a = {p: make_splitting(p, [(e, f)] * g, n)}
        e2, f2, g2 = rng.choice([(3, 1, 3), (3, 3, 1), (9, 1, 1), (1, 3, 3), (5, 1, 1)])
        if e2 * f2 * g2 != n or e2 % p == 0:
            continue
        prof_b = {p: make_splitting(p, [(e2, f2)] * g2, n)}
        a = FieldInvariants(n=n, disc=p ** (n - f * g), sig=(n, 0), profile=prof_a,
                            tame=True, galois=True)
        b = FieldInvariants(n=n, disc=p ** (n - f2 * g2), sig=(n, 0), profile=prof_b,
                            tame=True, galois=True)
        if any(e_ == 1 for e_, _ in prof_a[p].pairs) or any(
            e_ == 1 for e_, _ in prof_b[p].pairs
        ):
            continue  # an unramified profile entry is not a valid profile
        v = galois_same_spinor_genus(a, b)
        if a.disc == b.disc:
            # matches the generic spinor criterion
            ref = same_spinor_genus(a, b)
            assert v.answer == ref.answer


def test_cubic_same_spinor_genus_alternate_presentation():
    other = make_field("c81b", [3, 3, -3, 1])  # x^3 - 3x^2 + 3x + ... shifted
    # f(x) = (x-1)^3 - 3(x-1) + 1 expanded: x^3 - 3x^2 + 3,  disc 81
    shifted = make_field("c81c", [3, 0, -3, 1])
    assert shifted.disc == 81
    v = cubic_same_spinor_genus(C81, shifted)
    assert v.answer
    assert genus_equal(trace_gram(C81), trace_gram(shifted))
    v2 = cubic_same_spinor_genus(C49, C81)
    assert not v2.answer
    assert not genus_equal(trace_gram(C49), trace_gram(C81))
    with pytest.raises(HypothesisError):
        cubic_same_spinor_genus(C23, Q11)


def test_cubic_local_form_branches():
    # x^3 - 3x + 1: d = 3, valuation 1
    form = cubic_local_form_at_3(-1, 1)
    assert form == (3, 6, Fraction(9, 2))
    # x^3 + 3: d = -9, valuation 2
    assert cubic_local_form_at_3(0, 3) == (3, 9, -9)
    # x^3 - 3x + 3: d = -5, valuation 0
    assert cubic_local_form_at_3(-1, 3) == (3, 3, -15)
    with pytest.raises(HypothesisError):
        cubic_local_form_at_3(0, 9)  # v3(d) = 4: not totally ramified
    with pytest.raises(HypothesisError):
        cubic_local_form_at_3(-1, 2)  # d = 0


SEVEN_LOCAL_CUBICS = [(-1, 19), (-1, 1), (-1, 10), (-1, 5), (0, 3), (0, 21), (0, 12)]


def test_seven_local_cubics_match_global_trace_grams():
    # the wild-cubic classification reproduced from global fields
    by_class = {}
    for a, b in SEVEN_LOCAL_CUBICS:
        branch = cubic_local_form_at_3(a, b)
        fld = make_field(f"w{a}_{b}", [b, 3 * a, 0, 1])
        gram = trace_gram(fld)
        assert diagonal_local_symbol_odd(branch, 3) == local_symbol_odd(gram, 3), (
            a,
            b,
        )
        d = -(b * b + 4 * a**3)
        by_class.setdefault(branch, []).append(d)
    # the three valuation-5 fields all land in <3,9,-9>
    assert len(by_class[(3, 9, -9)]) == 3


def test_verdict_shape():
    v = same_spinor_genus(C23, C23)
    d = v.as_dict()
    assert set(d) == {"answer", "basis", "theorem", "hypotheses", "witnesses"}
    assert invariants_of(C23).tame


def test_oracle_agreement_on_quartic_scan():
    # Central cross-check, both directions: over a box of real quartic
    # fields, the trace-isometry criterion must agree with genus equality
    # of the trace Grams on every tame non-totally-real equal-(disc, sig)
    # pair.  The box is known to contain genuine FALSE instances (e.g.
    # disc 15529, signature (0, 2)), so the only-if direction is exercised
    # on real fields, not just the cubic always-true population.
    import itertools

    from traceforms.cli import decide_pair
    from traceforms.polys import discriminant, is_irreducible_int

    fields = []
    for a, b, c, d in itertools.product(
        range(-1, 2), range(-4, 5), range(-4, 5), range(-6, 7)
    ):
        poly = [d, c, b, a, 1]
        if d == 0:
            continue
        try:
            disc = discriminant(poly)
        except Exception:
            continue
        if disc == 0 or abs(disc) > 100000:
            continue
        if not is_irreducible_int(poly):
            continue
        fields.append(
            field_from_record(FieldRecord(label=f"{a},{b},{c},{d}", poly=tuple(poly)))
        )
    groups = {}
    for f in fields:
        groups.setdefault((f.disc, f.sig), []).append(f)
    true_pairs = false_pairs = 0
    for (disc, sig), members in groups.items():
        if len(members) < 2 or sig[1] == 0:
            continue
        for f1, f2 in itertools.combinations(members, 2):
            [(_, verdict)], genus, _ = decide_pair(
                f1, f2, trace_gram(f1), trace_gram(f2),
                [("isometric_trace_forms", isometric_trace_forms)])
            if isinstance(verdict, Verdict):
                assert verdict.answer == genus, (f1.label, f2.label)
                true_pairs += verdict.answer
                false_pairs += not verdict.answer
    assert true_pairs >= 100
    assert false_pairs >= 1


SEVEN_PROCEDURES = (
    isometric_trace_forms,
    same_spinor_genus,
    isometric_by_parity,
    isometric_fundamental_disc,
    single_odd_prime_isometric,
    galois_same_spinor_genus,
    cubic_same_spinor_genus,
)


def _outcomes_digest(pairs):
    """sha256 prefix of every procedure's Verdict, or of the class and
    message of the error that skipped it, on every pair in order."""
    h = hashlib.sha256()
    for a, b in pairs:
        for proc in SEVEN_PROCEDURES:
            try:
                outcome = repr(proc(a, b).as_dict())
            except TraceFormsError as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            h.update(f"{proc.__name__} {outcome}\n".encode())
    return h.hexdigest()[:16]


def _galois_field(rng, n):
    """A synthetic field flagged Galois: equal (e, f) pairs at each of one
    or two odd primes, totally real for odd n."""
    shapes = {p: [sd for sd in tame_splittings(n, p) if len(set(sd.pairs)) == 1]
              for p in ODD_POOL}
    primes = [p for p in ODD_POOL if shapes[p]]
    profile = {p: rng.choice(shapes[p]) for p in sorted(rng.sample(primes, rng.randint(1, 2)))}
    s = 0 if n % 2 else n // 2
    return FieldInvariants(n=n, disc=tame_disc(n, s, profile), sig=(n - 2 * s, s),
                           profile=profile, tame=True, galois=True)


def _squarefree_field(rng, n):
    """A synthetic field with e = 2 once above each of one to three odd
    primes, so its discriminant is squarefree (fundamental for half the
    signatures)."""
    primes = sorted(rng.sample(ODD_POOL, rng.randint(1, 3)))
    profile = {p: rng.choice(tame_splittings(n, p, f_sum=n - 1)) for p in primes}
    s = rng.randint(0, n // 2)
    return FieldInvariants(n=n, disc=tame_disc(n, s, profile), sig=(n - 2 * s, s),
                           profile=profile, tame=True)


def _synthetic_pairs(n):
    rng = random.Random(1009 * n)
    pairs = []
    for _ in range(40):
        a = synth_field(rng, n, galois=rng.random() < 0.3 or None)
        pairs.append((a, sibling_field(rng, a)))
        pairs.append((a, sibling_field(rng, a, keep_residue_sums=False)))
        pairs.append((a, synth_field(rng, n, s=a.sig[1], primes=list(a.profile))))
        pairs.append((a, synth_field(rng, rng.choice([n - 1, n + 1]))))
        g = _galois_field(rng, n)
        pairs.append((g, _galois_field(rng, n)))
        pairs.append((g, dataclasses.replace(sibling_field(rng, g), galois=True)))
        f = _squarefree_field(rng, n)
        pairs.append((f, sibling_field(rng, f)))
    return pairs


# sha256 prefixes of every outcome: a change to any verdict, evidence table
# or skip message has to be made on purpose.  n = 9 reaches the
# non-totally-ramified Galois branch
VERDICT_PINS = {
    3: "b22ce728c6266479", 4: "8642664dec360b1e", 5: "4bfa715935eb8dad",
    6: "02f0b2dbbcaad624", 7: "a6127053d823e558", 8: "8c3c524cf33a424f",
    9: "f1bb22aa590991b5",
}


@pytest.mark.parametrize("n", sorted(VERDICT_PINS))
def test_seven_procedures_are_pinned_on_synthetic_pairs(n):
    assert _outcomes_digest(_synthetic_pairs(n)) == VERDICT_PINS[n]


def test_seven_procedures_are_pinned_on_the_corpus():
    fields = [field_from_record(rec) for rec in ingest(CORPUS)]
    pairs = [(a, b) for a, b in itertools.permutations(fields, 2) if a.n == b.n]
    assert len(pairs) == 786
    assert _outcomes_digest(pairs) == "c8ce25663057a297"
