"""A built field keeps its order on the integer core: no Fraction is stored
anywhere in a NumberFieldData, and its `basis` view still gives the
maximal order's Fraction rows (or a supplied basis as given)."""

import dataclasses
import os
from fractions import Fraction

from _optimized import run_optimized
from traceforms.cli import ingest
from traceforms.errors import TraceFormsError
from traceforms.numberfield import (
    FieldRecord,
    field_from_record,
    maximal_order,
    ramification_profile,
    trace_gram,
)

CORPUS = os.path.join(os.path.dirname(__file__), "data", "corpus.jsonl")
SUPPLIED = FieldRecord(
    label="r2b", poly=(8, -40, 0, 1),
    basis=((0, Fraction(1, 2), Fraction(1, 4)), (1, 0, 0), (1, Fraction(1, 2), 0)),
)


def fractions_in(obj, path="fld"):
    """Paths of every Fraction reachable from obj through dataclass fields,
    tuples, lists and dicts (keys and values)."""
    if isinstance(obj, Fraction):
        yield path
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from fractions_in(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, (tuple, list)):
        for i, x in enumerate(obj):
            yield from fractions_in(x, f"{path}[{i}]")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from fractions_in(key, f"{path} key {key!r}")
            yield from fractions_in(value, f"{path}[{key!r}]")


def built_fields():
    """Every corpus field and one supplied-basis field, each with its
    ramification memo filled (or holding the error it raised)."""
    fields = [field_from_record(rec) for rec in ingest(CORPUS)]
    fields.append(field_from_record(SUPPLIED))
    for fld in fields:
        trace_gram(fld)
        try:
            ramification_profile(fld)
        except TraceFormsError:
            pass
    return fields


def storage_faults(fields):
    """One line per stored Fraction, per field with a __dict__, and per
    basis view that differs from the order it should give."""
    faults = []
    for fld in fields:
        faults.extend(fractions_in(fld, fld.label))
        if hasattr(fld, "__dict__"):
            faults.append(f"{fld.label}: has a __dict__ the walk does not see")
        want = SUPPLIED.basis if fld.label == SUPPLIED.label else maximal_order(fld.poly)
        if [list(r) for r in fld.basis] != [list(r) for r in want]:
            faults.append(f"{fld.label}: basis differs from its order")
    return faults


def test_stored_fractions_are_detected():
    fld = field_from_record(SUPPLIED)
    assert list(fractions_in(dataclasses.replace(fld, den=Fraction(4)))) == ["fld.den"]
    assert list(fractions_in({Fraction(1, 2): [0, (Fraction(3),)]}, "d")) == [
        "d key Fraction(1, 2)", "d[Fraction(1, 2)][1][0]"]


def test_built_fields_store_no_fraction():
    fields = built_fields()
    assert len(fields) == 62
    assert storage_faults(fields) == []


def test_storage_check_survives_python_O():
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = run_optimized(f"""
import sys
sys.path.insert(0, {tests!r})
from test_no_fraction import built_fields, storage_faults
faults = storage_faults(built_fields())
if faults:
    print(faults)
    raise SystemExit(1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr
