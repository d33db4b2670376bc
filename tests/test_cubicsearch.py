import json
from collections import Counter
from math import gcd, isqrt
from pathlib import Path

from traceforms import FieldRecord, field_from_record, ramification_profile
from traceforms.cubicsearch import (
    _maximal_at,
    _negative_forms,
    _positive_forms,
    _square_primes,
    cubics_isomorphic,
    enumerate_cubic_fields,
    equal_disc_groups,
)
from traceforms.polys import discriminant

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "data" / "cubic_reference.json"


def reference_rows(limit):
    rows = json.loads(REFERENCE.read_text())["rows"]
    return [row for row in rows if abs(row[0]) <= limit]


def form_disc(a, b, c, d):
    return (b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d
            + 18 * a * b * c * d)


def check_against_reference(limit, fields, groups):
    classes = enumerate_cubic_fields(limit)
    want = Counter(disc for disc, _, _, _ in reference_rows(limit))
    assert Counter(c.disc for c in classes) == want
    assert len(classes) == fields
    assert len(equal_disc_groups(classes)) == groups


def test_enumeration_matches_the_reference_per_disc():
    check_against_reference(3000, 515, 7)


def test_enumeration_matches_the_whole_reference():
    check_against_reference(20000, 4001, 111)


def test_grouped_fields_are_the_reference_fields():
    # -3159, -6183 and -6583 are the discs the old box search got wrong
    limit = 6600
    reference = {}
    for disc, a, b, _ in reference_rows(limit):
        reference.setdefault(disc, []).append((b, a, 0, 1))
    groups = equal_disc_groups(enumerate_cubic_fields(limit))
    assert {-3159, -6183, -6583} <= {g[0].disc for g in groups}
    checked = 0
    for group in groups:
        for field in group:
            matches = [ref for ref in reference[field.disc]
                       if cubics_isomorphic(field.poly, ref)]
            assert len(matches) == 1, field
            checked += 1
    assert checked == 74


def test_mirror_forms_give_one_field():
    # (1, -1, -3, 1) and (1, 1, -3, -1) are F(x, y) and F(x, -y), one
    # GL2(Z) class with Hessian (4, 0, 12) on the boundary Q = 0
    kept = [form for disc, form in _positive_forms(148) if disc == 148]
    assert kept == [(1, 1, -3, -1)]
    fields = [c for c in enumerate_cubic_fields(148) if c.disc == 148]
    assert [c.form for c in fields] == [(1, 1, -3, -1)]


def test_forms_not_maximal_at_p_are_rejected():
    # (1, -2, 4, -4) is reduced and irreducible, of disc -176 = -2^4 * 11:
    # x^3 - 2x^2 + 4x - 4 has a double root 0 mod 2 and 4 | F(0, 1), so
    # its ring has index 2 in the field of disc -44, and no cubic field
    # has disc -176
    assert (-176, (1, -2, 4, -4)) in list(_negative_forms(200))
    assert _square_primes(-176, [2, 3, 5, 7]) == [2]
    assert _maximal_at(1, -2, 4, -4, 2) is False
    classes = enumerate_cubic_fields(200)
    assert [c.disc for c in classes].count(-176) == 0
    assert [c.disc for c in classes].count(-44) == 1
    # the other two failures: p^2 | a with a multiple root at (1 : 0),
    # and F = 0 mod p
    assert _maximal_at(8, 4, -6, -1, 2) is False
    assert _maximal_at(3, 6, -9, 3, 3) is False
    assert _maximal_at(1, 1, -3, -1, 2) is True
    # (x - y)^3 - 2y^3, reduced, for x^3 - 2: disc -108 = -2^2 * 3^3,
    # maximal at 2 and 3
    assert _square_primes(-108, [2, 3, 5, 7]) == [2, 3]
    assert all(_maximal_at(1, -3, 3, -3, p) for p in (2, 3))
    assert [(c.form, c.poly) for c in classes if c.disc == -108] == [
        ((1, -3, 3, -3), (-2, 0, 0, 1))
    ]


def test_square_primes_finds_large_square_factors():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert _square_primes(-4 * 113 * 113, primes) == [2, 113]
    assert _square_primes(3 * 113 * 127, primes) == []
    assert _square_primes(-(29**2) * 31, primes) == [29]


def test_every_field_has_an_index_prime_to_its_disc():
    # x^3 + b'x^2 + a'c'x + a'^2 d' has disc a'^2 * D and index a'
    for c in enumerate_cubic_fields(3000):
        assert form_disc(*c.form) == c.disc
        index_sq, r = divmod(discriminant(list(c.poly)), c.disc)
        index = isqrt(index_sq)
        assert r == 0 and index * index == index_sq
        assert gcd(index, c.disc) == 1, c


def test_search_fields_split_natively():
    for c in enumerate_cubic_fields(3000):
        fld = field_from_record(FieldRecord(label=str(c.poly), poly=c.poly))
        assert fld.disc == c.disc
        ramification_profile(fld)  # no UnsupportedSplittingError
