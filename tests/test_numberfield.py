import dataclasses
import hashlib
import itertools
import json
import os
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from _sylvester import resultant
from traceforms import numberfield, polys
from traceforms.cli import EXIT_PARSE, decide_pair, ingest, main, oracle_checks
from traceforms.errors import (
    BadBasisError,
    ConsistencyError,
    NotAFieldError,
    RepeatedRootError,
    UnsupportedSplittingError,
)
from traceforms.linalg import mat_mul, transpose
from traceforms.padic import factorize, valuation
from traceforms.polys import power_sums
from traceforms.numberfield import (
    FieldRecord,
    _dedekind_step,
    _enlarge_at,
    _reduction_vectors,
    field_from_record,
    is_fundamental_discriminant,
    maximal_order,
    ramification_profile,
    signature_of_field,
    splitting_data,
    trace_gram,
)
from traceforms.quadform import GramMatrix, genus_equal, signature

CORPUS = os.path.join(os.path.dirname(__file__), "data", "corpus.jsonl")
CUBIC_REFERENCE = (Path(__file__).resolve().parents[1]
                   / "bench" / "data" / "cubic_reference.json")


def make_field(label, poly, **kw):
    return field_from_record(FieldRecord(label=label, poly=tuple(poly), **kw))


def test_power_sums_spec_example():
    assert power_sums([-1, -1, 0, 1], 5) == [3, 0, 2, 3, 2]


def test_field_x3_x_1():
    fld = make_field("c23", [-1, -1, 0, 1])
    assert fld.disc == -23
    assert fld.sig == (1, 1)
    assert fld.index == 1
    assert [list(r) for r in fld.basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    gram = trace_gram(fld)
    assert [list(r) for r in gram.entries] == [[3, 0, 2], [0, 2, 3], [2, 3, 2]]
    assert gram.det == -23
    assert signature(gram) == (2, 1)


def test_field_x2_5_half_integer_basis():
    fld = make_field("q5", [-5, 0, 1])
    assert fld.disc == 5
    assert fld.index == 2
    # spec example with the classical basis {1, (1+theta)/2}
    rec = FieldRecord(
        label="q5b",
        poly=(-5, 0, 1),
        basis=((1, 0), (Fraction(1, 2), Fraction(1, 2))),
    )
    fld2 = field_from_record(rec)
    assert fld2.basis == ((1, 0), (Fraction(1, 2), Fraction(1, 2)))
    assert (fld2.rows, fld2.den) == (((2, 0), (1, 1)), 2)
    gram = trace_gram(fld2)
    assert [list(r) for r in gram.entries] == [[2, 1], [1, 3]]
    assert gram.det == 5
    assert genus_equal(gram, trace_gram(fld))


def test_field_x4_plus_1():
    fld = make_field("z8", [1, 0, 0, 0, 1])
    assert fld.disc == 256
    assert fld.sig == (0, 2)
    assert fld.index == 1
    assert trace_gram(fld).det == 256


def test_dedekind_example_index_two():
    # x^3 + x^2 - 2x + 8: poly disc -2012 = -4*503, field disc -503, index 2
    fld = make_field("ded", [8, -2, 1, 1])
    assert fld.poly_disc == -2012
    assert fld.disc == -503
    assert fld.index == 2
    assert [list(r) for r in fld.basis] == [
        [1, 0, 0],
        [0, Fraction(1, 2), Fraction(1, 2)],
        [0, 0, 1],
    ]
    assert trace_gram(fld).det == -503


def test_integral_basis_needs_the_radical_step():
    # x^3 - 40x + 8: poly disc 254272 = 2^6 * 3973, O_K = Z[1, theta/2, theta^2/4]
    poly = [8, -40, 0, 1]
    fld = make_field("r2", poly)
    assert (fld.disc, fld.index) == (3973, 8)
    assert [list(r) for r in fld.basis] == [
        [1, 0, 0],
        [0, Fraction(1, 2), 0],
        [0, 0, Fraction(1, 4)],
    ]
    assert maximal_order(poly) == [list(r) for r in fld.basis]
    # Dedekind's criterion gains only 2^1 of the 2^3; the radical step adds 2^2
    red = _reduction_vectors(poly, 5)
    dedekind_order = ([[2, 0, 0], [0, 2, 0], [0, 0, 1]], 2)  # Z[theta] + theta^2/2
    maximal = ([[4, 0, 0], [0, 2, 0], [0, 0, 1]], 4)  # Z[1, theta/2, theta^2/4]
    assert _enlarge_at(dedekind_order, red, 2) == (maximal, 2)
    # the same maximal order, supplied in another basis, validates
    rec = FieldRecord(
        label="r2b",
        poly=tuple(poly),
        basis=((0, Fraction(1, 2), Fraction(1, 4)), (1, 0, 0), (1, Fraction(1, 2), 0)),
    )
    fld2 = field_from_record(rec)
    assert (fld2.disc, fld2.index) == (3973, 8)


def test_supplied_basis_rejections():
    def supplied(poly, basis):
        return field_from_record(FieldRecord(label="s", poly=poly, basis=basis))

    # each basis is checked against the computed maximal order, whatever
    # is wrong with it
    half = Fraction(1, 2)
    bad = "supplied basis does not span the maximal order"
    with pytest.raises(BadBasisError, match=bad):
        supplied((-5, 0, 1), ((1, 0), (0, half)))  # (theta/2)^2 = 5/4: no ring
    with pytest.raises(BadBasisError, match=bad):
        supplied((8, -40, 0, 1), ((1, 0, 0), (0, 1, 0), (0, 0, half)))  # not maximal
    with pytest.raises(BadBasisError, match=bad):
        supplied((-5, 0, 1), ((1, 0), (2, 0)))  # singular
    with pytest.raises(BadBasisError, match=bad):
        supplied((-5, 0, 1), ((2, 0), (0, 1)))  # without 1
    with pytest.raises(BadBasisError, match="basis must be 2x2"):
        supplied((-5, 0, 1), ((1, 0), (0, 1), (1, 1)))


def test_dedekind_criterion_direct():
    assert _dedekind_step([1, 0, 0, 0, 1], 2)[0]  # Z[zeta_8] is 2-maximal
    assert not _dedekind_step([8, -2, 1, 1], 2)[0]  # essential divisor 2
    assert not _dedekind_step([-5, 0, 1], 2)[0]


def dedekind_step_from(poly, p, gbar, hbar):
    """`_dedekind_step` given g, the radical of f mod p, and h = f / g."""
    gh = polys.pmul(gbar, hbar)
    diff = [
        ((gh[i] if i < len(gh) else 0) - (poly[i] if i < len(poly) else 0))
        for i in range(max(len(gh), len(poly)))
    ]
    assert not any(c % p for c in diff)
    fbar = polys.pnormalize([(c // p) % p for c in diff])
    z = polys.mp_gcd(fbar, polys.mp_gcd(gbar, hbar, p), p)
    if polys.pdeg(z) <= 0:
        return True, None, 0
    ustar = polys.mp_divmod(polys.mp_normalize(poly, p), z, p)[0]
    return False, ustar, polys.pdeg(z)


def dedekind_step_by_factoring(poly, p):
    """Reference `_dedekind_step`: g and h from the full factorization of
    poly mod p, g the product of the irreducible factors and h the product
    of each factor to its multiplicity minus one."""
    fac = polys.factor_mod_p(poly, p)
    gbar = [1]
    for g, _ in fac:
        gbar = polys.pnormalize([c % p for c in polys.pmul(gbar, g)])
    hbar = [1]
    for g, mult in fac:
        for _ in range(mult - 1):
            hbar = polys.pnormalize([c % p for c in polys.pmul(hbar, g)])
    return dedekind_step_from(poly, p, gbar, hbar)


def dedekind_step_by_squarefree_split(poly, p):
    """Reference `_dedekind_step`: with f = prod a_i^i mod p the squarefree
    split, g = prod a_i and h = prod a_i^(i-1)."""
    gbar = hbar = [1]
    for a, mult in polys.mp_squarefree_decomposition(polys.mp_normalize(poly, p), p):
        gbar = polys.mp_mul(gbar, a, p)
        for _ in range(mult - 1):
            hbar = polys.mp_mul(hbar, a, p)
    return dedekind_step_from(poly, p, gbar, hbar)


def test_dedekind_step_matches_the_factoring_reference():
    boxes = [(range(-3, 4),) * 3, (range(-2, 3),) * 4]
    not_maximal = Counter()
    for box in boxes:
        for coeffs in itertools.product(*box):
            poly = list(coeffs) + [1]
            for p in (2, 3, 5, 7):
                got = _dedekind_step(poly, p)
                assert got == dedekind_step_by_factoring(poly, p), (poly, p)
                not_maximal[p] += not got[0]
    assert min(not_maximal.values()) > 0, not_maximal


def test_signature_of_field():
    assert signature_of_field([-1, -1, 0, 1]) == (1, 1)
    assert signature_of_field([1, -3, 0, 1]) == (3, 0)
    assert signature_of_field([1, 0, 0, 0, 1]) == (0, 2)
    # the sign rule reads the discriminant of a monic integer polynomial;
    # -x^2 + 2 has two real roots but a negative `discriminant`
    for poly in ([2, 0, -1], [-2, 0, 2], [Fraction(1, 2), 0, 1]):
        with pytest.raises(ValueError, match="monic integer"):
            signature_of_field(poly)


def test_signature_of_field_matches_sturm_counting_on_a_box():
    # every monic polynomial of degree 2-5 with the other coefficients in
    # [-2, 2] and a nonzero discriminant, reducible ones included
    checked = Counter()
    for n in range(2, 6):
        for coeffs in itertools.product(range(-2, 3), repeat=n):
            poly = list(coeffs) + [1]
            if resultant(poly, polys.pderiv(poly)) == 0:
                continue
            r = polys.sturm_real_roots(poly)
            assert signature_of_field(poly) == (r, (n - r) // 2), poly
            checked[n, r] += 1
    # every signature of each degree occurs
    assert sorted(checked) == [(n, r) for n in range(2, 6) for r in range(n % 2, n + 1, 2)]


def test_sturm_counting_runs_only_where_the_disc_sign_leaves_two_signatures(
        monkeypatch):
    small = [rec for rec in ingest(CORPUS) if len(rec.poly) <= 4]
    expected = [field_from_record(rec) for rec in small]

    def sturm(f):
        raise RuntimeError("Sturm called")

    monkeypatch.setattr(polys, "sturm_real_roots", sturm)
    monkeypatch.setattr(numberfield, "sturm_real_roots", sturm)
    assert [field_from_record(rec) for rec in small] == expected
    # x^4 - x - 1 has disc -283 < 0, so s = 1; x^4 + 1 has disc 256 > 0,
    # which leaves s = 0 and s = 2
    assert make_field("q283", [-1, -1, 0, 0, 1]).sig == (2, 1)
    with pytest.raises(RuntimeError, match="Sturm called"):
        make_field("z8", [1, 0, 0, 0, 1])


@pytest.fixture(scope="module")
def steps_with_p_squared_dividing_disc():
    """(poly, p) with p^2 | disc(poly): over x^3 + a x + b for the fields
    of the exact cubic reference with |disc| <= 20000, and over every
    monic quartic of the quartic-scan box with nonzero disc of absolute
    value <= 100000, reducible ones included."""
    rows = json.loads(CUBIC_REFERENCE.read_text())["rows"]
    cubics = [[b, a, 0, 1] for disc, a, b, _ in rows if abs(disc) <= 20000]
    steps = {"cubic": [], "quartic": []}
    for poly in cubics:
        steps["cubic"] += [(poly, p) for p, e in factorize(polys.discriminant(poly)).items()
                           if e >= 2]
    for a, b, c, d in itertools.product(
        range(-1, 2), range(-4, 5), range(-4, 5), range(-6, 7)
    ):
        if d == 0:
            continue
        poly = [d, c, b, a, 1]
        try:
            disc = polys.discriminant(poly)
        except RepeatedRootError:
            continue
        if abs(disc) <= 100000:
            steps["quartic"] += [(poly, p) for p, e in factorize(disc).items() if e >= 2]
    return steps


def test_dedekind_step_matches_the_squarefree_reference(steps_with_p_squared_dividing_disc):
    steps = steps_with_p_squared_dividing_disc
    assert {name: len(s) for name, s in steps.items()} == {
        "cubic": 5653, "quartic": 2520}
    not_maximal = Counter()
    for name, family in steps.items():
        for poly, p in family:
            got = _dedekind_step(poly, p)
            assert got == dedekind_step_by_squarefree_split(poly, p), (poly, p)
            not_maximal[name, p > 3] += not got[0]
    # both families enlarge at p = 2 or 3 and at some p > 3
    assert len(not_maximal) == 4 and min(not_maximal.values()) > 0, not_maximal


def test_stickelberger_rule_on_quadratic_orders():
    # Z[sqrt d] with disc 4d: maximal at 2 exactly when d = 2, 3 mod 4
    for d in (-1, 2, 3, -2, 6, 7, -5, 11):
        assert numberfield._maximal_at_2(4 * d), d
    for d in (-3, 5, -7, 13, 17, 21):
        assert not numberfield._maximal_at_2(4 * d), d
    assert not numberfield._maximal_at_2(16 * 3)  # v_2 = 4 decides nothing
    assert not numberfield._maximal_at_2(2 * 3)


def test_stickelberger_rule_skips_only_enlargements_that_gain_nothing(
        monkeypatch, steps_with_p_squared_dividing_disc):
    # the orders with the rule at p = 2 are those of the full
    # radical/multiplier loop, and the rule fires at v_2 = 2 and at 3
    at_2 = [poly for family in steps_with_p_squared_dividing_disc.values()
            for poly, p in family if p == 2]
    rule = numberfield._maximal_at_2
    fired = Counter()

    def recording(disc):
        fired[valuation(disc, 2), rule(disc)] += 1
        return rule(disc)

    def build_all():
        return [numberfield._maximal_order(poly, polys.discriminant(poly)) for poly in at_2]

    monkeypatch.setattr(numberfield, "_maximal_at_2", recording)
    with_rule = build_all()
    monkeypatch.setattr(numberfield, "_maximal_at_2", lambda disc: False)
    assert build_all() == with_rule
    assert fired[2, True] > 0 and fired[3, True] > 0, fired


def test_each_build_computes_the_polynomial_discriminant_once(monkeypatch):
    records = list(ingest(CORPUS))
    records.append(FieldRecord(
        label="q5b", poly=(-5, 0, 1), basis=((1, 0), (Fraction(1, 2), Fraction(1, 2)))))
    calls = []
    real = polys.discriminant

    def counting(f):
        calls.append(list(f))
        return real(f)

    monkeypatch.setattr(polys, "discriminant", counting)
    monkeypatch.setattr(numberfield, "discriminant", counting)
    for rec in records:
        del calls[:]
        field_from_record(rec)
        assert calls == [list(rec.poly)], rec.label


def test_cubic_reference_orders_are_pinned():
    # x^3 + a x + b for every field of the exact cubic reference with
    # |disc| <= 6600: order rows, den, disc, index and signature
    rows = json.loads(CUBIC_REFERENCE.read_text())["rows"]
    keys = []
    for disc, a, b, _ in rows:
        if abs(disc) <= 6600:
            fld = make_field("c", [b, a, 0, 1])
            assert fld.disc == disc
            keys.append((fld.rows, fld.den, fld.disc, fld.index, fld.sig))
    assert len(keys) == 1228
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest.startswith("9c99f1367e9f4f6b")


def test_cubic_witness_orders_are_pinned():
    # the 105 fields of every third equal-disc group of complex cubic
    # fields of the reference with |disc| <= 20000, by |disc|, from the
    # third on: order rows, den, disc and index
    reference = {}
    for disc, a, b, _ in json.loads(CUBIC_REFERENCE.read_text())["rows"]:
        if abs(disc) <= 20000:
            reference.setdefault(disc, []).append((a, b))
    discs = sorted((d for d, reps in reference.items() if d < 0 and len(reps) > 1),
                   key=abs)
    keys = []
    for disc in discs[2::3]:
        for a, b in reference[disc]:
            fld = make_field("c", [b, a, 0, 1])
            keys.append((fld.rows, fld.den, fld.disc, fld.index))
    assert len(keys) == 105
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest.startswith("015299fdcb9564b1")


def test_splitting_examples():
    fld = make_field("c23", [-1, -1, 0, 1])
    s23 = splitting_data(fld, 23)
    assert s23.pairs == ((1, 1), (2, 1))
    assert s23.tame
    s7 = splitting_data(fld, 7)
    assert s7.pairs == ((1, 1), (1, 2))
    assert not s7.ramified
    q5 = make_field("q5", [-5, 0, 1])
    s5 = splitting_data(q5, 5)
    assert s5.pairs == ((2, 1),)
    assert s5.tame


def test_splitting_needs_supplied_at_index_prime():
    fld = make_field("ded", [8, -2, 1, 1])
    with pytest.raises(UnsupportedSplittingError):
        splitting_data(fld, 2)
    fld2 = make_field(
        "ded2", [8, -2, 1, 1], splitting={2: [[1, 1], [1, 1], [1, 1]]}
    )
    s2 = splitting_data(fld2, 2)
    assert s2.pairs == ((1, 1), (1, 1), (1, 1))
    assert s2.g == 3 and not s2.ramified


def test_supplied_splitting_validation():
    # every supplied splitting is checked when the field is built
    with pytest.raises(ConsistencyError):
        make_field("bad", [8, -2, 1, 1], splitting={2: [[2, 1]]})  # sum ef != 3
    # native splitting contradicts supplied data at a non-index prime
    with pytest.raises(ConsistencyError, match="contradicts native factorization"):
        make_field("c23", [-1, -1, 0, 1], splitting={7: [[1, 1], [1, 1], [1, 1]]})
    # x^3 + x^2 - 2x + 8: disc -503, index 2, so 2 is unramified, but the
    # supplied tame splitting is ramified
    with pytest.raises(ConsistencyError, match="2 does not divide disc"):
        make_field("i2", [8, -2, 1, 1], splitting={2: [[3, 1]]})
    # x^3 + 6x - 2: disc -108 = -2^2 3^3, index 3
    fld = make_field("i3", [-2, 6, 0, 1], splitting={3: [[3, 1]]})
    assert (fld.disc, fld.index) == (-108, 3)
    assert splitting_data(fld, 3).pairs == ((3, 1),)
    with pytest.raises(ConsistencyError, match="3 divides disc but splitting is unramified"):
        make_field("i3", [-2, 6, 0, 1], splitting={3: [[1, 1], [1, 2]]})
    # tame with f_3 = 2 claims v_3(disc) = 1
    with pytest.raises(ConsistencyError, match="violates v_p"):
        make_field("i3", [-2, 6, 0, 1], splitting={3: [[2, 1], [1, 1]]})


def test_wild_splitting_at_an_unramified_index_prime_is_rejected_at_build():
    # e = 2 at p = 2 is wild, so the tame formula does not see it; 2 does
    # not divide disc -503, so no splitting at 2 may ramify
    with pytest.raises(ConsistencyError, match="2 does not divide disc but splitting is ramified"):
        make_field("i2", [8, -2, 1, 1], splitting={2: [[2, 1], [1, 1]]})


def test_wrong_splitting_at_a_prime_never_asked_for_exits_2(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps({"label": "c23", "poly": [-1, -1, 0, 1],
                                "splitting": {"7": [[1, 1], [1, 1], [1, 1]]}}) + "\n")
    for command in ("invariants", "oracle-check"):
        assert main([command, str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: supplied splitting at 7 contradicts native factorization\n")


def test_ramification_profiles():
    fld = make_field("c23", [-1, -1, 0, 1])
    profile, tame = ramification_profile(fld)
    assert set(profile) == {23}
    assert tame
    wild = make_field("c81", [1, -3, 0, 1])
    profile2, tame2 = ramification_profile(wild)
    assert set(profile2) == {3}
    assert profile2[3].pairs == ((3, 1),)
    assert not tame2
    q5 = make_field("q5", [-5, 0, 1])
    profile3, tame3 = ramification_profile(q5)
    assert set(profile3) == {5} and tame3


def test_tame_disc_valuation_formula():
    # v_p(disc) = n - f_p at every tame ramified prime
    for poly in ([-1, -1, 0, 1], [-5, 0, 1], [8, -2, 1, 1], [1, -1, 0, 0, 1]):
        fld = make_field("t", poly)
        profile, _ = ramification_profile(fld)
        for p, sd in profile.items():
            if sd.tame:
                v = 0
                d = abs(fld.disc)
                while d % p == 0:
                    v += 1
                    d //= p
                assert v == fld.n - sd.f_sum


def test_field_validation_errors():
    with pytest.raises(NotAFieldError):
        make_field("red", [6, 0, -5, 0, 1])  # (x^2-2)(x^2-3)
    with pytest.raises(NotAFieldError):
        make_field("nonmonic", [1, 0, 2])
    with pytest.raises(NotAFieldError):
        make_field("zeroconst", [0, 1, 1])
    with pytest.raises(BadBasisError):
        field_from_record(
            FieldRecord(label="b", poly=(1, 0, 1), basis=((1, 0, 0), (0, 1, 0)))
        )
    with pytest.raises(BadBasisError):
        # identity basis is not maximal for x^2 - 5
        field_from_record(
            FieldRecord(label="b2", poly=(-5, 0, 1), basis=((1, 0), (0, 1)))
        )


def test_degree_at_most_3_fields_are_built_without_zassenhaus(monkeypatch):
    # irreducibility in degree <= 3 is a rational-root test; Zassenhaus
    # stays the test from degree 4 on
    small = [rec for rec in ingest(CORPUS) if len(rec.poly) <= 4]
    expected = [field_from_record(rec) for rec in small]
    calls = []

    def zassenhaus(f):
        calls.append(list(f))
        raise RuntimeError("Zassenhaus called")

    monkeypatch.setattr(polys, "_factor_squarefree_monic_int", zassenhaus)
    assert len(small) == 34
    assert [field_from_record(rec) for rec in small] == expected
    assert calls == []
    with pytest.raises(RuntimeError, match="Zassenhaus called"):
        make_field("z8", [1, 0, 0, 0, 1])
    assert calls == [[1, 0, 0, 0, 1]]


def test_local_cubic_gram_identity():
    # Gram of the trace form of x^3 + 3a x + b in basis {1, theta, theta^2+2a}
    for a, b in [(-1, 1), (0, 3), (1, 1), (2, -5), (-3, 7)]:
        poly = [b, 3 * a, 0, 1]
        sums = power_sums(poly, 5)
        basis = [[1, 0, 0], [0, 1, 0], [2 * a, 0, 1]]
        gram = [
            [
                sum(
                    basis[i][k] * basis[j][l] * sums[k + l]
                    for k in range(3)
                    for l in range(3)
                )
                for j in range(3)
            ]
            for i in range(3)
        ]
        assert gram == [
            [3, 0, 0],
            [0, -6 * a, -3 * b],
            [0, -3 * b, 6 * a * a],
        ]


def test_trace_gram_basis_covariance():
    rng = random.Random(61)
    fld = make_field("c23", [-1, -1, 0, 1])
    g = trace_gram(fld)
    for _ in range(10):
        u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            c = rng.choice([-1, 1, 2])
            for col in range(3):
                u[i][col] += c * u[j][col]
        new_basis = mat_mul(u, [list(r) for r in fld.basis])
        rec = FieldRecord(
            label="c23u", poly=(-1, -1, 0, 1), basis=tuple(tuple(r) for r in new_basis)
        )
        fld2 = field_from_record(rec)
        # the supplied basis is kept as given, so its Gram is exactly U G U^T
        assert [list(r) for r in fld2.basis] == new_basis
        g2 = trace_gram(fld2)
        assert [list(r) for r in g2.entries] == mat_mul(
            mat_mul(u, [list(r) for r in g.entries]), transpose(u)
        )
        assert genus_equal(g, g2)
        assert g2.det == g.det


def fraction_trace_gram(fld):
    """Tr(b_i b_j) by its definition, on the Fraction rows of fld.basis."""
    n = fld.n
    sums = power_sums(list(fld.poly), 2 * n - 1)
    basis = fld.basis
    return [
        [
            sum(basis[i][k] * basis[j][l] * sums[k + l]
                for k in range(n) for l in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_integer_trace_gram_matches_the_fraction_definition():
    fields = [field_from_record(rec) for rec in ingest(CORPUS)]
    fields.append(field_from_record(FieldRecord(
        label="r2b", poly=(8, -40, 0, 1),
        basis=((0, Fraction(1, 2), Fraction(1, 4)), (1, 0, 0), (1, Fraction(1, 2), 0)),
    )))
    assert len(fields) == 62
    for fld in fields:
        assert [list(r) for r in trace_gram(fld).entries] == fraction_trace_gram(fld)


def test_is_fundamental_discriminant():
    assert is_fundamental_discriminant(-23)
    assert is_fundamental_discriminant(12)
    assert not is_fundamental_discriminant(45)
    assert not is_fundamental_discriminant(1)
    assert is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(8)
    assert is_fundamental_discriminant(-8)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(-9)
    assert not is_fundamental_discriminant(0)


def test_each_ramified_prime_is_factored_once(monkeypatch):
    # x^3 + 6 (index 1) and x^3 + 12 (index 2, splitting at 2 supplied),
    # both of disc -972 = -2^2 * 3^5
    records = {rec.label: rec for rec in ingest(CORPUS)}
    fa = field_from_record(records["c972a"])
    fb = field_from_record(records["c972b"])
    calls = Counter()
    real = numberfield.factor_mod_p

    def counting(poly, p):
        calls[tuple(poly), p] += 1
        return real(poly, p)

    monkeypatch.setattr(numberfield, "factor_mod_p", counting)
    assert decide_pair(fa, fb, trace_gram(fa), trace_gram(fb))[2] == []
    for fld in (fa, fb):
        assert all(ok for _name, ok, _detail in oracle_checks(fld))
    assert calls == {(fa.poly, 2): 1, (fa.poly, 3): 1, (fb.poly, 3): 1}


def raised(func, *args):
    with pytest.raises(Exception) as info:
        func(*args)
    return type(info.value), str(info.value)


def test_profile_errors_are_raised_again_from_the_memo():
    # x^3 + 12: 2 divides the index and the disc, and no splitting is supplied
    fld = make_field("c972b", [12, 0, 0, 1])
    first = raised(ramification_profile, fld)
    assert first == (UnsupportedSplittingError, "splitting at 2 requires supplied data")
    assert raised(ramification_profile, fld) == first
    with pytest.raises(UnsupportedSplittingError) as info:
        ramification_profile(fld)
    assert info.value.p == 2
    # the memo keeps the class and args, not the exception and its traceback
    assert fld._ramified == (UnsupportedSplittingError, (2,))
    # the profile failed at 2, so the lookup at 3 raises the same error
    assert raised(splitting_data, fld, 3) == first
    # a supplied splitting at 23 that contradicts the native one; the build
    # would reject it, so it is put on a built field
    bad = dataclasses.replace(make_field("c23", [-1, -1, 0, 1]), supplied_splitting={
        23: numberfield.make_splitting(23, [[1, 1], [1, 2]], 3)})
    first = raised(ramification_profile, bad)
    assert first == (
        ConsistencyError, "supplied splitting at 23 contradicts native factorization"
    )
    assert raised(ramification_profile, bad) == first
    assert raised(splitting_data, bad, 23) == first


def test_profile_memo_is_not_part_of_the_value():
    fld = make_field("c23", [-1, -1, 0, 1])
    fresh = make_field("c23", [-1, -1, 0, 1])
    profile, tame = ramification_profile(fld)
    assert splitting_data(fld, 23) is profile[23]
    profile.clear()  # callers get a copy of the memo
    assert set(ramification_profile(fld)[0]) == {23}
    assert fld._ramified is not None and fresh._ramified is None
    assert fld == fresh
    assert "_ramified" not in repr(fld)
    renamed = dataclasses.replace(fld, label="c23b")
    assert renamed._ramified is None
    assert ramification_profile(renamed) == (ramification_profile(fld)[0], tame)
