"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; without -s they appear in pytest's captured output.
"""

import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from _synth import ODD_POOL, random_tame_splitting, sibling_field, synth_field
from traceforms.cli import decide_pair, ingest, oracle_checks, two_adic_pair_checks
from traceforms.cubicsearch import enumerate_cubic_fields, equal_disc_groups
from traceforms.decide import (
    FieldInvariants,
    cubic_local_form_at_3,
    cubic_same_spinor_genus,
    invariants_of,
    isometric_by_parity,
    isometric_fundamental_disc,
    isometric_trace_forms,
    single_odd_prime_isometric,
)
from traceforms.numberfield import (
    FieldRecord,
    field_from_record,
    is_fundamental_discriminant,
    ramification_profile,
    trace_gram,
)
from traceforms.padic import (
    factorize,
    hilbert_symbol,
    legendre_symbol,
    square_class,
    val_unit,
)
from traceforms.quadform import (
    diagonal_local_symbol_odd,
    local_symbol_odd,
    pairwise_witnesses,
)
from traceforms.raminv import (
    first_ramification_factor,
    nonresidue_odd_count,
    tame_diagonal_form,
)

DATA = os.path.join(os.path.dirname(__file__), "data", "corpus.jsonl")
CUBIC_LIMIT = 20000
ODD_PRIMES_97 = [p for p in range(3, 98) if all(p % q for q in range(2, p))]


def cubic_pair_verdict(cubic_run, c1, c2, procedure):
    """`procedure`'s verdict on a searched cubic pair, which `decide_pair`
    checks against the genus oracle together with the pair's witness."""
    f, g = cubic_run["fields"], cubic_run["grams"]
    [(_, verdict)], _, failed = decide_pair(
        f[c1.poly], f[c2.poly], g[c1.poly], g[c2.poly], [(procedure.__name__, procedure)],
        cubic_run["witnesses"].get((c1.poly, c2.poly)))
    assert failed == [], (c1, c2, failed)
    return verdict


def report(num: int, ok: bool, detail: str):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    fields = {}
    for rec in ingest(DATA):
        fields[rec.label] = field_from_record(rec)
    return fields


@pytest.fixture(scope="module")
def cubic_run():
    t0 = time.monotonic()
    classes = enumerate_cubic_fields(CUBIC_LIMIT)
    groups = equal_disc_groups(classes)
    fields = {}
    grams = {}
    for group in groups:
        for c in group:
            if c.poly not in fields:
                fld = field_from_record(FieldRecord(label=str(c.poly), poly=c.poly))
                fields[c.poly] = fld
                grams[c.poly] = trace_gram(fld)
    witnesses = {}
    for group in groups:
        if group[0].disc >= 0:
            continue
        wits = pairwise_witnesses([grams[c.poly] for c in group], 8)
        for (i, j), u in wits.items():
            witnesses[(group[i].poly, group[j].poly)] = u
    elapsed = time.monotonic() - t0
    return {
        "classes": classes,
        "groups": groups,
        "fields": fields,
        "grams": grams,
        "witnesses": witnesses,
        "elapsed": elapsed,
    }


def test_criterion_1_trace_form_fundamentals(corpus):
    t0 = time.monotonic()
    checked = 0
    for fld in corpus.values():
        checks = {name: (ok, detail) for name, ok, detail in oracle_checks(fld)}
        for name in ("det-equals-disc", "signature-identity"):
            assert checks[name][0], (fld.label, name, checks[name][1])
        checked += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        checked >= 50 and elapsed < 10.0,
        f"det and signature identities on {checked} fields in {elapsed:.2f}s",
    )


def test_criterion_2_tame_discriminant_formula(corpus):
    fields = checks = 0
    for fld in corpus.values():
        profile, tame = ramification_profile(fld)
        if not tame:
            continue
        fields += 1
        for p, sd in profile.items():
            v = 0
            d = abs(fld.disc)
            while d % p == 0:
                v += 1
                d //= p
            assert v == fld.n - sd.f_sum, (fld.label, p)
            checks += 1
    report(2, fields > 0, f"v_p(disc) = n - f_p at {checks} primes over {fields} tame fields")


def test_criterion_3_sign_identity_fuzz():
    rng = random.Random(20260808)
    t0 = time.monotonic()
    for _ in range(10**4):
        p = rng.choice(ODD_PRIMES_97)
        n = rng.randint(1, 12)
        sd = random_tame_splitting(rng, p, n)
        alpha = first_ramification_factor(sd)
        h = nonresidue_odd_count(sd)
        assert legendre_symbol(alpha, p) * (-1) ** sd.f_sum == (-1) ** (sd.g - h)
        form = tame_diagonal_form(sd)  # asserts det class = alpha internally
        det = Fraction(1)
        for e in form:
            det *= e
        assert square_class(det, p) == square_class(alpha, p)
    elapsed = time.monotonic() - t0
    report(3, elapsed < 5.0, f"10^4 tame splittings, sign and det identities, {elapsed:.2f}s")


def test_criterion_4_cubic_isometry_theorem(cubic_run):
    t0 = time.monotonic()
    neg_groups = [g for g in cubic_run["groups"] if g[0].disc < 0]
    assert neg_groups, "search found no equal-discriminant complex pairs"
    discs = {g[0].disc for g in neg_groups}
    assert {-972, -1228, -1356} <= discs
    assert any(len(g) >= 3 for g in neg_groups)
    pairs = 0
    found = 0
    for group in neg_groups:
        for c1, c2 in itertools.combinations(group, 2):
            pairs += 1
            verdict = cubic_pair_verdict(cubic_run, c1, c2, isometric_trace_forms)
            assert verdict.answer, (c1, c2)
            if cubic_run["witnesses"].get((c1.poly, c2.poly)) is not None:
                found += 1
    elapsed = cubic_run["elapsed"] + (time.monotonic() - t0)
    rate = found / pairs
    report(
        4,
        rate >= 0.80 and elapsed < 600.0,
        f"{pairs} complex pairs, all isometric and genus-equal; witnesses for "
        f"{found} ({100 * rate:.1f}%) at bound <= 8; {elapsed:.0f}s total",
    )


def test_criterion_4_every_complex_pair_has_a_witness(cubic_run):
    # the meet-in-the-middle walk over classes modulo signed permutations
    # reaches every one of the 333 complex pairs at |disc| <= 20000
    pairs = [
        (c1.poly, c2.poly)
        for group in cubic_run["groups"]
        if group[0].disc < 0
        for c1, c2 in itertools.combinations(group, 2)
    ]
    missing = [pair for pair in pairs if cubic_run["witnesses"].get(pair) is None]
    assert len(pairs) == 333
    assert missing == []


def test_criterion_5_cubic_spinor_theorem(cubic_run):
    pairs = 0
    for group in cubic_run["groups"]:
        for c1, c2 in itertools.combinations(group, 2):
            verdict = cubic_pair_verdict(cubic_run, c1, c2, cubic_same_spinor_genus)
            assert verdict.answer, (c1, c2)
            pairs += 1
    real = sum(1 for g in cubic_run["groups"] if g[0].disc > 0)
    report(
        5,
        pairs > 0 and real > 0,
        f"genus symbols agree at every prime for all {pairs} equal-disc pairs "
        f"({real} totally real groups included)",
    )


SEVEN = {
    "w19": (-1, 19),
    "c81": (-1, 1),
    "w10": (-1, 10),
    "w5": (-1, 5),
    "w3": (0, 3),
    "w21": (0, 21),
    "c972b": (0, 12),
}


def test_criterion_6_local_cubic_classification(corpus):
    val5 = []
    val4 = {}
    for label, (a, b) in SEVEN.items():
        fld = corpus[label]
        assert fld.poly == (b, 3 * a, 0, 1)
        branch = cubic_local_form_at_3(a, b)
        gram = trace_gram(fld)
        sym = local_symbol_odd(gram, 3)
        assert diagonal_local_symbol_odd(branch, 3) == sym, label
        d = -(b * b + 4 * a**3)
        v = val_unit(d, 3)[0]
        if v == 2:
            assert branch == (3, 9, -9)
            val5.append(sym)
        else:
            assert v == 1
            # scaled <3, 6, 9*delta> shape: two scale-1 entries, one scale-2
            assert [(s, dim) for s, dim, _ in sym] == [(1, 2), (2, 1)]
            val4[label] = (sym, square_class(Fraction(d, 3), 3))
    assert len(val5) == 3 and len(set(val5)) == 1
    assert len(val4) == 4
    for (l1, (s1, c1)), (l2, (s2, c2)) in itertools.combinations(val4.items(), 2):
        assert (s1 == s2) == (c1 == c2), (l1, l2)
    report(6, True, "seven wild cubics match their 3-adic branch classes, "
                    "valuation-4 forms paired exactly by discriminant class")


def test_criterion_7_local_trace_model(corpus):
    checks = 0
    for fld in corpus.values():
        for name, ok, detail in oracle_checks(fld):
            if name == "tame-valuation" or name.startswith("local-model@"):
                assert ok, (fld.label, name, detail)
            checks += name.startswith("local-model@")
    report(7, checks >= 40, f"local genus of trace gram equals the tame model at "
                            f"{checks} (field, odd prime) pairs")


def test_criterion_8_criterion_equivalences(cubic_run):
    rng = random.Random(1729)
    # parity criterion == trace criterion on 10^3 synthetic tame pairs
    pairs = 0
    fundamental_checked = 0
    while pairs < 1000:
        n = rng.randint(3, 10)
        s = rng.randint(1, n // 2)
        a = synth_field(rng, n, s=s)
        b = sibling_field(rng, a) if rng.random() < 0.7 else synth_field(rng, n, s=s)
        va = isometric_trace_forms(a, b)
        vb = isometric_by_parity(a, b)
        assert va.answer == vb.answer, (a, b)
        pairs += 1
        if (
            a.disc == b.disc
            and a.sig == b.sig
            and is_fundamental_discriminant(a.disc)
        ):
            vf = isometric_fundamental_disc(a, b)
            assert vf.answer == va.answer, (a, b)
            fundamental_checked += 1
    # single-odd-ramified-prime instances from the real search pairs
    single = 0
    from traceforms.errors import UnsupportedSplittingError

    for group in cubic_run["groups"]:
        if group[0].disc >= 0:
            continue
        for c1, c2 in itertools.combinations(group, 2):
            try:
                ka = invariants_of(cubic_run["fields"][c1.poly])
                kb = invariants_of(cubic_run["fields"][c2.poly])
            except UnsupportedSplittingError:
                continue  # index prime without supplied data; wild at 2 anyway
            if not (ka.tame and kb.tame) or ka.sig != kb.sig:
                continue
            if len([p for p in ka.profile if p != 2]) > 1:
                continue
            assert single_odd_prime_isometric(ka, kb).answer is True
            assert isometric_trace_forms(ka, kb).answer is True
            single += 1
    report(
        8,
        pairs == 1000 and fundamental_checked >= 20 and single >= 3,
        f"parity==trace on {pairs} synthetic pairs; fundamental==trace on "
        f"{fundamental_checked}; single-odd-prime outright yes consistent on "
        f"{single} real pairs",
    )


def test_criterion_9_two_adic_pairs(corpus):
    pairs = 0
    for la, lb, ok in two_adic_pair_checks(corpus.values()):
        assert ok, (la, lb)
        pairs += 1
    report(9, pairs >= 4, f"identical canonical 2-adic symbols on {pairs} "
                          f"equal-degree equal-disc corpus pairs tame at 2")


def test_criterion_10_hilbert_product_formula():
    rng = random.Random(40320)
    for _ in range(10**4):
        a = rng.choice([-1, 1]) * rng.randint(1, 10**5)
        b = rng.choice([-1, 1]) * rng.randint(1, 10**5)
        spots = {-1, 2}
        spots.update(factorize(a))
        spots.update(factorize(b))
        prod = 1
        for p in spots:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)
    report(10, True, "10^4 Hilbert product formula instances, exact")
