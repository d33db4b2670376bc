"""Command-line interface: ingestion, batch reports, and search harnesses.

Input is line-delimited JSON records {label, poly, basis?, splitting?,
galois?} with polynomial coefficients constant-term-first.  Output is
line-delimited JSON report objects on stdout; errors go to stderr.

Exit codes: 0 success, 1 usage, 2 parse/validation, 3 tameness or
unsupported splitting, 4 no applicable criterion, 5 invariant failure,
including a verdict or witness that contradicts the genus oracle.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .cubicsearch import enumerate_cubic_fields, equal_disc_groups
from .decide import (
    Verdict,
    cubic_local_form_at_3,
    cubic_same_spinor_genus,
    galois_same_spinor_genus,
    isometric_by_parity,
    isometric_fundamental_disc,
    isometric_trace_forms,
    same_spinor_genus,
    single_odd_prime_isometric,
)
from .errors import (
    ConsistencyError,
    DuplicateLabelError,
    FormRangeError,
    HypothesisError,
    LimitError,
    ParseError,
    TamenessError,
    TraceFormsError,
    UnsupportedSplittingError,
)
from .numberfield import (
    FieldRecord,
    field_from_record,
    ramification_profile,
    trace_gram,
)
from .padic import legendre_symbol
from .quadform import (
    canonical_two_adic_symbol,
    check_witness_bound,
    diagonal_local_symbol_odd,
    genus_equal,
    genus_symbol,
    isometry_witness_search,
    local_symbol_odd,
    pairwise_witnesses,
    signature,
)
from .raminv import (
    first_ramification_factor,
    local_trace_model,
    nonresidue_odd_count,
    second_ramification_factor,
    tame_diagonal_form,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TAME = 3
EXIT_NO_CRITERION = 4
EXIT_INVARIANT = 5

MAX_CUBIC_SEARCH = 200_000

DECISION_PROCEDURES = (
    ("isometric_trace_forms", isometric_trace_forms),
    ("same_spinor_genus", same_spinor_genus),
    ("isometric_by_parity", isometric_by_parity),
    ("isometric_fundamental_disc", isometric_fundamental_disc),
    ("single_odd_prime_isometric", single_odd_prime_isometric),
    ("galois_same_spinor_genus", galois_same_spinor_genus),
    ("cubic_same_spinor_genus", cubic_same_spinor_genus),
)


def _emit(obj, out):
    out.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _parse_rational(value, line):
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {value!r}", line)
    raise ParseError(f"bad rational {value!r}", line)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_ALLOWED_KEYS = {"label", "poly", "basis", "splitting", "galois"}


def parse_record(obj, line=None) -> FieldRecord:
    if not isinstance(obj, dict):
        raise ParseError("record must be an object", line)
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}", line)
    label = obj.get("label")
    if not isinstance(label, str) or not label:
        raise ParseError("record needs a nonempty string label", line)
    poly = obj.get("poly")
    if (
        not isinstance(poly, list)
        or len(poly) < 2
        or not all(map(_is_int, poly))
    ):
        raise ParseError("poly must be a list of integers", line)
    basis = obj.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or any(not isinstance(r, list) for r in basis):
            raise ParseError("basis must be a matrix", line)
        basis = tuple(
            tuple(_parse_rational(x, line) for x in row) for row in basis
        )
    splitting = obj.get("splitting")
    if splitting is not None:
        if not isinstance(splitting, dict):
            raise ParseError("splitting must be an object", line)
        parsed = {}
        for key, pairs in splitting.items():
            try:
                p = int(key)
            except ValueError:
                p = None
            if p is None or str(p) != key:  # one spelling per prime
                raise ParseError(f"bad splitting prime {key!r}", line)
            if not isinstance(pairs, list) or not all(
                isinstance(ef, list) and len(ef) == 2 and all(map(_is_int, ef))
                for ef in pairs
            ):
                raise ParseError(f"bad splitting pairs at {key}", line)
            parsed[p] = [(e, f) for e, f in pairs]
        splitting = parsed
    galois = obj.get("galois")
    if galois is not None and not isinstance(galois, bool):
        raise ParseError("galois must be a boolean", line)
    return FieldRecord(
        label=label, poly=tuple(poly), basis=basis, splitting=splitting,
        galois=galois,
    )


def _unique_keys(pairs):
    """`object_pairs_hook` for json.loads: an object with a repeated key
    raises KeyError(key) instead of keeping the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise KeyError(key)
        obj[key] = value
    return obj


def ingest(path) -> list[FieldRecord]:
    """Parse a line-delimited record file; duplicate labels and a key
    repeated within any JSON object are rejected."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 (byte {exc.start})")
    records = []
    seen = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc.msg})", lineno)
        except KeyError as exc:
            raise ParseError(f"repeated key {exc.args[0]!r}", lineno)
        rec = parse_record(obj, lineno)
        if rec.label in seen:
            raise DuplicateLabelError(f"duplicate label {rec.label!r}", lineno)
        seen.add(rec.label)
        records.append(rec)
    return records


def _build_fields(records):
    fields = {}
    for rec in records:
        fields[rec.label] = field_from_record(rec)
    return fields


def _field_report(fld):
    report = {
        "type": "field",
        "label": fld.label,
        "degree": fld.n,
        "poly": list(fld.poly),
        "disc": fld.disc,
        "signature": list(fld.sig),
    }
    profile, tame = ramification_profile(fld)
    report["tame"] = tame
    splitting = {}
    invariants = {}
    for p in sorted(profile):
        sd = profile[p]
        splitting[str(p)] = [list(pair) for pair in sd.pairs]
        if not sd.tame:
            invariants[str(p)] = {"wild": True}
        elif p != 2:
            alpha = first_ramification_factor(sd)
            beta = second_ramification_factor(sd, fld.n)
            invariants[str(p)] = {
                "first_factor": alpha,
                "second_factor": str(beta),
                "nonresidue_count": nonresidue_odd_count(sd),
                "legendre_first": legendre_symbol(alpha, p),
            }
    report["splitting"] = splitting
    report["invariants"] = invariants
    return report


def cmd_invariants(records, out) -> int:
    fields = _build_fields(records)
    for label in fields:
        _emit(_field_report(fields[label]), out)
    return EXIT_OK


def _emit_results(fa, fb, results, out):
    """One verdict or skip line per procedure result of `decide_pair`."""
    for name, result in results:
        report = {"type": "verdict" if isinstance(result, Verdict) else "skip",
                  "a": fa.label, "b": fb.label, "procedure": name}
        report.update(result.as_dict() if isinstance(result, Verdict)
                      else {"reason": str(result)})
        _emit(report, out)


def _report_failed(fa, fb, failed) -> int:
    """Write one stderr line per failed pair check; return their count."""
    for name in failed:
        sys.stderr.write(f"check failed: {name} on {fa.label} and {fb.label}\n")
    return len(failed)


def _check_witness_bound(bound):
    """Reject a witness bound below 1 before a command writes anything."""
    if bound is not None and bound < 1:
        raise FormRangeError("bound must be positive")


def cmd_compare(records, label_a, label_b, oracle=False, witness_bound=None,
                out=None) -> int:
    _check_witness_bound(witness_bound)
    by_label = {rec.label: rec for rec in records}
    for label in (label_a, label_b):
        if label not in by_label:
            raise ParseError(f"unknown label {label!r}")
    fa = field_from_record(by_label[label_a])
    fb = field_from_record(by_label[label_b])
    ga, gb = trace_gram(fa), trace_gram(fb)
    witness = (None if witness_bound is None
               else isometry_witness_search(ga, gb, witness_bound))
    results, genus, failed = decide_pair(fa, fb, ga, gb, witness=witness)
    _emit_results(fa, fb, results, out)
    if oracle:
        _emit({"type": "oracle", "a": fa.label, "b": fb.label, "genus_equal": genus,
               "genus_symbols": [genus_symbol(ga).as_dict(), genus_symbol(gb).as_dict()]},
              out)
    if witness_bound is not None:
        _emit({"type": "witness", "a": fa.label, "b": fb.label,
               "bound": witness_bound, "matrix": witness}, out)
    if _report_failed(fa, fb, failed):
        return EXIT_INVARIANT
    if any(isinstance(r, Verdict) for _, r in results):
        return EXIT_OK
    tame = any(isinstance(r, (TamenessError, UnsupportedSplittingError)) for _, r in results)
    return EXIT_TAME if tame else EXIT_NO_CRITERION


def _cubic_label(poly):
    """x^3+b2x^2+b1x+b0 for the monic cubic (b0, b1, b2, 1)."""
    return f"x^3{poly[2]:+d}x^2{poly[1]:+d}x{poly[0]:+d}"


def _cubic_group_reports(group, witness_bound, out):
    """Write one cubic-pair line per pair of the group; return the number
    of failed pair checks."""
    fields = [
        field_from_record(FieldRecord(label=_cubic_label(c.poly), poly=c.poly))
        for c in group
    ]
    grams = [trace_gram(f) for f in fields]
    witnesses = {}
    if witness_bound is not None and group[0].disc < 0:
        witnesses = pairwise_witnesses(grams, witness_bound)
    # the procedure names are the report keys; isometric_trace_forms
    # skips totally real cubics, whose lines carry no "isometric" key
    procedures = (("isometric", isometric_trace_forms),
                  ("same_spinor_genus", cubic_same_spinor_genus))
    failures = 0
    for i, j in itertools.combinations(range(len(group)), 2):
        witness = witnesses.get((i, j))
        results, genus, failed = decide_pair(
            fields[i], fields[j], grams[i], grams[j], procedures, witness)
        report = {"type": "cubic-pair", "disc": group[i].disc,
                  "polys": [list(group[i].poly), list(group[j].poly)]}
        report.update((name, result.answer) for name, result in results
                      if isinstance(result, Verdict))
        report["genus_equal"] = genus
        report["witness"] = witness
        _emit(report, out)
        failures += _report_failed(fields[i], fields[j], failed)
    return failures


def cmd_scan(records, out, group_by_disc=False, cubic_search=None,
             witness_bound=8) -> int:
    _check_witness_bound(witness_bound)
    if cubic_search is not None:
        if cubic_search > MAX_CUBIC_SEARCH:
            raise LimitError(f"cubic search cap is {MAX_CUBIC_SEARCH}, got {cubic_search}")
        check_witness_bound(3, witness_bound)  # the walk on cubic trace forms
    fields = _build_fields(records)
    groups = {}
    for label, fld in fields.items():
        key = (fld.n, fld.disc) if group_by_disc else (fld.n, fld.disc, fld.sig)
        groups.setdefault(key, []).append(label)
    failures = 0
    for key in sorted(groups, key=str):
        labels = groups[key]
        if len(labels) < 2:
            continue
        _emit({"type": "group", "degree": key[0], "disc": key[1],
               "labels": labels}, out)
        grams = {label: trace_gram(fields[label]) for label in labels}
        for la, lb in itertools.combinations(labels, 2):
            fa, fb = fields[la], fields[lb]
            results, _genus, failed = decide_pair(fa, fb, grams[la], grams[lb])
            _emit_results(fa, fb, results, out)
            failures += _report_failed(fa, fb, failed)
    if cubic_search is not None:
        classes = enumerate_cubic_fields(cubic_search)
        pair_groups = equal_disc_groups(classes)
        for group in pair_groups:
            failures += _cubic_group_reports(group, witness_bound, out)
        _emit({"type": "cubic-search-summary", "limit": cubic_search,
               "fields": len(classes), "equal_disc_groups": len(pair_groups),
               "pairs": sum(len(g) * (len(g) - 1) // 2 for g in pair_groups)}, out)
    return EXIT_INVARIANT if failures else EXIT_OK


def decide_pair(fa, fb, ga, gb, procedures=None, witness=None):
    """Decide one pair of fields and check it against the genus oracle.

    Runs each (name, procedure) of `procedures` (by default
    DECISION_PROCEDURES, read at call time), keeping its Verdict or the
    HypothesisError or UnsupportedSplittingError that skipped it.
    Returns ([(name, Verdict or error)], genus_equal(ga, gb), failed
    check names).  The checks point one way: a True verdict and a
    `witness` need equal genera, but one genus can hold several spinor
    genera, so a False verdict on a genus-equal pair is no failure.
    """
    results = []
    for name, proc in DECISION_PROCEDURES if procedures is None else procedures:
        try:
            results.append((name, proc(fa, fb)))
        except (HypothesisError, UnsupportedSplittingError) as exc:
            results.append((name, exc))
    genus = genus_equal(ga, gb)
    claims = [name for name, result in results
              if isinstance(result, Verdict) and result.answer]
    if witness is not None:
        claims.append("witness")
    return results, genus, [] if genus else [f"{c}-implies-genus" for c in claims]


def oracle_checks(fld):
    """Yield (name, ok, detail) for every cross-check on one field."""
    gram = trace_gram(fld)
    yield ("det-equals-disc", gram.det == fld.disc,
           f"det={gram.det} disc={fld.disc}")
    r, s = fld.sig
    sig = signature(gram)
    yield ("signature-identity", sig == (r + s, s), f"sig(gram)={sig} (r,s)=({r},{s})")
    try:
        profile, _tame = ramification_profile(fld)
    except ConsistencyError as exc:
        yield ("tame-valuation", False, str(exc))
        return
    yield ("tame-valuation", True, "v_p(disc) = n - f_p at tame primes")
    for p in sorted(profile):
        sd = profile[p]
        if p == 2 or not sd.tame:
            continue
        alpha = first_ramification_factor(sd)
        h = nonresidue_odd_count(sd)
        ok = legendre_symbol(alpha, p) * (-1) ** sd.f_sum == (-1) ** (sd.g - h)
        yield (f"alpha-sign-identity@{p}", ok, f"alpha={alpha} h={h}")
        try:
            tame_diagonal_form(sd)  # raises if the det class drifts
        except ConsistencyError as exc:
            yield (f"block-form-det@{p}", False, str(exc))
        else:
            yield (f"block-form-det@{p}", True, "det class matches first factor")
        want = diagonal_local_symbol_odd(local_trace_model(fld, p), p)
        got = local_symbol_odd(gram, p)
        yield (f"local-model@{p}", want == got, f"model={want} gram={got}")
    if fld.n == 3 and 3 in profile and not profile[3].tame:
        # wild cubic: branch classification against the trace Gram at 3
        if fld.poly[2] == 0 and fld.poly[1] % 3 == 0:
            branch = cubic_local_form_at_3(fld.poly[1] // 3, fld.poly[0])
            ok = diagonal_local_symbol_odd(branch, 3) == local_symbol_odd(gram, 3)
            yield ("wild-cubic-local@3", ok, f"branch={list(map(str, branch))}")


def two_adic_pair_checks(fields):
    """Yield (label_a, label_b, ok) for every pair of fields of equal degree
    and discriminant that are both tame at 2, in input order; ok says
    their trace Grams have the same canonical 2-adic symbol.  Each field's
    tameness at 2 and symbol are computed once, when first needed."""
    fields = list(fields)
    symbols = {}

    def tame_symbol(i):
        """The field's canonical 2-adic symbol, or None when 2 is wild."""
        if i not in symbols:
            profile, _ = ramification_profile(fields[i])
            wild = 2 in profile and not profile[2].tame
            symbols[i] = None if wild else canonical_two_adic_symbol(
                trace_gram(fields[i]))
        return symbols[i]

    for i, fa in enumerate(fields):
        for j in range(i + 1, len(fields)):
            fb = fields[j]
            if fa.n != fb.n or fa.disc != fb.disc:
                continue
            sa, sb = tame_symbol(i), tame_symbol(j)
            if sa is not None and sb is not None:
                yield fa.label, fb.label, sa == sb


def cmd_oracle_check(records, out) -> int:
    fields = _build_fields(records)
    failures = 0
    for label in fields:
        for name, ok, detail in oracle_checks(fields[label]):
            _emit({"type": "check", "label": label, "name": name,
                   "ok": ok, "detail": detail}, out)
            if not ok:
                failures += 1
    # pairwise: equal degree+disc with 2 tame in both -> equal 2-adic symbols
    for la, lb, ok in two_adic_pair_checks(fields.values()):
        _emit({"type": "check", "pair": [la, lb],
               "name": "two-adic-pair", "ok": ok, "detail": ""}, out)
        if not ok:
            failures += 1
    _emit({"type": "summary", "checks_failed": failures}, out)
    return EXIT_INVARIANT if failures else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="traceforms",
                     description="integral trace form invariants and decisions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="per-field invariant tables")
    p_inv.add_argument("records")

    p_cmp = sub.add_parser("compare", help="run every applicable criterion on a pair")
    p_cmp.add_argument("records")
    p_cmp.add_argument("label_a")
    p_cmp.add_argument("label_b")
    p_cmp.add_argument("--oracle", action="store_true",
                       help="also compare genus symbols of the trace Grams")
    p_cmp.add_argument("--witness-bound", type=int, default=None, metavar="B",
                       help="search for an explicit isometry, walking 2000*B "
                            "classes per side")

    p_scan = sub.add_parser("scan", help="pairwise decisions within groups")
    p_scan.add_argument("records", nargs="?", default=None)
    p_scan.add_argument("--group-by-disc", action="store_true",
                        help="group by (degree, disc) only, ignoring signature")
    p_scan.add_argument("--cubic-search", type=int, default=None, metavar="N",
                        help="enumerate cubic fields with |disc| <= N and report "
                             "all equal-discriminant non-isomorphic pairs")
    p_scan.add_argument("--witness-bound", type=int, default=8, metavar="B",
                        help="witness search budget for complex cubic pairs: "
                             "2000*B classes per side (default 8)")

    p_chk = sub.add_parser("oracle-check", help="run invariant cross-checks")
    p_chk.add_argument("records")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    out = sys.stdout
    try:
        if args.command == "scan":
            records = ingest(args.records) if args.records else []
            if args.records is None and args.cubic_search is None:
                sys.stderr.write("error: scan needs records or --cubic-search\n")
                return EXIT_USAGE
            return cmd_scan(
                records, out, group_by_disc=args.group_by_disc,
                cubic_search=args.cubic_search,
                witness_bound=args.witness_bound,
            )
        records = ingest(args.records)
        if args.command == "invariants":
            return cmd_invariants(records, out)
        if args.command == "compare":
            return cmd_compare(
                records, args.label_a, args.label_b, oracle=args.oracle,
                witness_bound=args.witness_bound, out=out,
            )
        if args.command == "oracle-check":
            return cmd_oracle_check(records, out)
    except (TamenessError, UnsupportedSplittingError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TAME
    except TraceFormsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
