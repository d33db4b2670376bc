"""Regenerate bench/data/cubic_reference.json: every cubic field with
|disc| <= LIMIT, by a method independent of the search's fingerprint merge.

Every box presentation x^3 + a x + b (Minkowski box, b >= 1) whose
polynomial discriminant can reach a field discriminant inside the limit is
turned into a field with `field_from_record`; the presentations of each
field discriminant are then grouped by the exact isomorphism test
`cubics_isomorphic`.  Each field keeps its least presentation under the
key (|a|, b, a), the same canonical choice the search makes.

Run it from a source checkout (about 5 minutes):

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from traceforms import FieldRecord, cubics_isomorphic, field_from_record  # noqa: E402

LIMIT = 20000
OUT = Path(__file__).resolve().parent / "data" / "cubic_reference.json"


def box_bounds(limit: int) -> tuple[int, int]:
    """|a| <= sqrt(limit) and b <= (2 sqrt(limit) / 3)^(3/2), in integers:
    the least a_max with a_max^2 > limit, and the least b_max with
    729 b_max^4 > 64 limit^3."""
    amax = isqrt(limit) + 1
    bmax = 1
    while 729 * bmax**4 <= 64 * limit**3:
        bmax += 1
    return amax, bmax


def small_primes(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, isqrt(p) + 1))]


def square_part(m: int, primes) -> int:
    """Largest s with s^2 | m, for m >= 1, by trial division up to m^(1/3):
    the cofactor left then has at most two prime factors, so it contributes
    a square only when it is a perfect square."""
    s = 1
    for p in primes:
        if p * p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        s *= p ** (e // 2)
    r = isqrt(m)
    if r * r == m:
        s *= r
    return s


def has_integer_root(a: int, b: int) -> bool:
    """An integer root r of x^3 + a x + b divides b (b >= 1)."""
    for r in range(1, isqrt(b) + 1):
        if b % r == 0:
            for d in (r, b // r):
                if d * (d * d + a) + b == 0 or d * (d * d + a) - b == 0:
                    return True
    return False


def presentations(limit: int):
    """(disc, a, b) for every box presentation with field |disc| <= limit."""
    amax, bmax = box_bounds(limit)
    max_pdisc = 4 * amax**3 + 27 * bmax**2
    primes = small_primes(int(round(max_pdisc ** (1 / 3))) + 2)
    for a in range(-amax, amax + 1):
        for b in range(1, bmax + 1):
            pdisc = -(4 * a**3 + 27 * b * b)
            if pdisc == 0 or has_integer_root(a, b):
                continue
            s = square_part(abs(pdisc), primes)
            if abs(pdisc) > limit * s * s:
                continue
            fld = field_from_record(FieldRecord(label="p", poly=(b, a, 0, 1)))
            if abs(fld.disc) <= limit:
                yield fld.disc, a, b


def classes(limit: int):
    by_disc: dict[int, list] = {}
    for disc, a, b in presentations(limit):
        by_disc.setdefault(disc, []).append((abs(a), b, a))
    out = []
    for disc in sorted(by_disc):
        kept = []  # [key, count]
        for key in sorted(by_disc[disc]):
            poly = [key[1], key[2], 0, 1]
            for rep in kept:
                if cubics_isomorphic([rep[0][1], rep[0][2], 0, 1], poly):
                    rep[1] += 1
                    break
            else:
                kept.append([key, 1])
        for key, count in kept:
            out.append((disc, key[2], key[1], count))
    return out


def main() -> int:
    t0 = time.perf_counter()
    rows = classes(LIMIT)
    discs = {}
    for disc, *_ in rows:
        discs[disc] = discs.get(disc, 0) + 1
    groups = sum(1 for c in discs.values() if c > 1)
    lines = [json.dumps(list(row)) for row in rows]
    text = (
        '{"limit": %d, "fields": %d, "groups": %d,\n'
        ' "columns": ["disc", "a", "b", "presentations"],\n'
        ' "rows": [\n  %s\n]}\n' % (LIMIT, len(rows), groups, ",\n  ".join(lines))
    )
    OUT.write_text(text)
    print(f"limit {LIMIT}: {len(rows)} fields, {groups} groups, "
          f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
