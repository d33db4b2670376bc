import json
from collections import Counter
from pathlib import Path

from traceforms.cubicsearch import (
    _cubic_field_disc,
    enumerate_cubic_fields,
    equal_disc_groups,
    search_bounds,
)
from traceforms.padic import factorize

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "data" / "cubic_reference.json"


def test_search_bounds_are_exact_integers():
    assert search_bounds(6600) == (82, 400)
    assert search_bounds(20000) == (142, 917)


def test_cubic_field_disc_reads_the_order():
    # x^3 - 40x + 8 has poly disc -4*(-40)^3 - 27*8^2 = 2^6 * 3973
    pdisc = 254272
    assert _cubic_field_disc(-40, 8, pdisc, factorize(pdisc), {}) == (3973, 8)
    assert _cubic_field_disc(-1, 1, -23, {23: 1}, {}) == (-23, 1)


def test_enumeration_matches_the_reference_per_disc():
    # below -3159, the first discriminant where the fingerprint merge loses a field
    limit = 3000
    classes = enumerate_cubic_fields(limit)
    rows = json.loads(REFERENCE.read_text())["rows"]
    want = Counter(disc for disc, _, _, _ in rows if abs(disc) <= limit)
    assert Counter(c.disc for c in classes) == want
    assert len(classes) == 515
    assert len(equal_disc_groups(classes)) == 7
