import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from _optimized import CHILD_ENV
import traceforms.cli as cli
from traceforms.cli import (
    EXIT_INVARIANT,
    EXIT_NO_CRITERION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TAME,
    EXIT_USAGE,
    cmd_compare,
    cmd_invariants,
    cmd_oracle_check,
    cmd_scan,
    ingest,
    main,
    parse_record,
)
from traceforms.decide import SAME_SPINOR_GENUS, Verdict
from traceforms.errors import (ConsistencyError, DuplicateLabelError, NotAFieldError,
                               ParseError)
from traceforms.numberfield import field_from_record

DATA = os.path.join(os.path.dirname(__file__), "data", "corpus.jsonl")


def write_records(tmp_path, records):
    path = tmp_path / "records.jsonl"
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return str(path)


def run_lines(func, *args, **kwargs):
    out = io.StringIO()
    code = func(*args, out=out, **kwargs)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, lines


def test_ingest_corpus():
    records = ingest(DATA)
    assert len(records) == 61
    assert records[0].label == "q-1"


def test_parse_record_examples():
    rec = parse_record({"label": "c23", "poly": [-1, -1, 0, 1]})
    assert rec.poly == (-1, -1, 0, 1)
    rec2 = parse_record(
        {"label": "d", "poly": [8, -2, 1, 1], "splitting": {"2": [[2, 1], [1, 1]]}}
    )
    assert rec2.splitting == {2: [(2, 1), (1, 1)]}
    with pytest.raises(ParseError):
        parse_record({"label": "x", "poly": [1, 0, 1], "bogus": 1})
    with pytest.raises(ParseError):
        parse_record({"label": "x", "poly": "nope"})
    with pytest.raises(ParseError):
        parse_record({"label": "x", "poly": [1, 0, 1], "basis": [[1, "x"], [0, 1]]})
    with pytest.raises(ParseError, match="bad rational True"):
        parse_record({"label": "x", "poly": [-5, 0, 1], "basis": [[True, False], [0, 1]]})


@pytest.mark.parametrize("key", ["02", " 2", "2 ", "+2", "2_0", "\u0662", "two", ""])
def test_splitting_prime_must_be_canonical_decimal(key):
    # "02" would otherwise replace the entry at "2" without a word
    rec = {"label": "c", "poly": [8, -2, 1, 1],
           "splitting": {"2": [[1, 1], [1, 1], [1, 1]], key: [[1, 1], [1, 2]]}}
    with pytest.raises(ParseError, match="bad splitting prime"):
        parse_record(rec)


@pytest.mark.parametrize("pair", [[1.5, 1], ["1", 1], [True, 1]])
def test_splitting_pairs_must_be_integers(tmp_path, capsys, pair):
    rec = {"label": "c", "poly": [-1, -1, 0, 1],
           "splitting": {"2": [pair, [1, 1], [1, 1]]}}
    with pytest.raises(ParseError, match="bad splitting pairs at 2"):
        parse_record(rec)
    assert main(["invariants", write_records(tmp_path, [rec])]) == EXIT_PARSE
    assert "bad splitting pairs" in capsys.readouterr().err


def test_ingest_errors(tmp_path):
    path = write_records(tmp_path, [
        {"label": "a", "poly": [-1, -1, 0, 1]},
        {"label": "a", "poly": [-1, 1, 0, 1]},
    ])
    with pytest.raises(DuplicateLabelError):
        ingest(path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"label": "a", "poly": [-1,-1,0,1]}\nnot json\n')
    with pytest.raises(ParseError) as err:
        ingest(str(bad))
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("line, key", [
    ('{"label": "a", "poly": [1, 0, 1], "poly": [-1, -1, 0, 1]}', "poly"),
    ('{"label": "c", "poly": [8, -2, 1, 1],'
     ' "splitting": {"2": [[2,1],[1,1]], "2": [[1,1],[1,1],[1,1]]}}', "2"),
], ids=["poly", "splitting"])
def test_repeated_json_key_exits_2(tmp_path, capsys, line, key):
    # json.loads alone keeps the last value of a repeated key, so both
    # records ran to exit 0: the first as x^3 - x - 1, the second with
    # its wrong splitting at 2 dropped
    path = tmp_path / "repeated.jsonl"
    path.write_text('{"label": "z", "poly": [-1, -1, 0, 1]}\n' + line + "\n")
    with pytest.raises(ParseError, match=f"line 2: repeated key '{key}'"):
        ingest(str(path))
    assert main(["invariants", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: repeated key '{key}'\n"


def test_invariants_report(tmp_path):
    path = write_records(tmp_path, [
        {"label": "c23", "poly": [-1, -1, 0, 1]},
        {"label": "c81", "poly": [1, -3, 0, 1]},
        {"label": "q5", "poly": [-5, 0, 1]},
    ])
    code, lines = run_lines(cmd_invariants, ingest(path))
    assert code == EXIT_OK
    by_label = {l["label"]: l for l in lines}
    c23 = by_label["c23"]
    assert c23["disc"] == -23 and c23["signature"] == [1, 1] and c23["tame"]
    inv23 = c23["invariants"]["23"]
    assert inv23["first_factor"] == 2 and inv23["legendre_first"] == 1
    c81 = by_label["c81"]
    assert not c81["tame"]
    assert c81["invariants"]["3"] == {"wild": True}
    q5 = by_label["q5"]
    assert q5["invariants"]["5"]["first_factor"] == 2
    assert q5["invariants"]["5"]["legendre_first"] == -1


def test_invariants_deterministic(tmp_path):
    records = ingest(DATA)[:12]
    out1, out2 = io.StringIO(), io.StringIO()
    cmd_invariants(records, out=out1)
    cmd_invariants(records, out=out2)
    assert out1.getvalue() == out2.getvalue()


def test_compare_cubic_pair(tmp_path):
    path = write_records(tmp_path, [
        {"label": "a", "poly": [6, 0, 0, 1]},
        {"label": "b", "poly": [12, 0, 0, 1], "splitting": {"2": [[3, 1]]}},
    ])
    code, lines = run_lines(
        cmd_compare, ingest(path), "a", "b", oracle=True, witness_bound=4
    )
    assert code == EXIT_OK
    verdicts = {l["procedure"]: l for l in lines if l["type"] == "verdict"}
    assert verdicts["isometric_trace_forms"]["answer"] is True
    assert verdicts["cubic_same_spinor_genus"]["answer"] is True
    oracle = next(l for l in lines if l["type"] == "oracle")
    assert oracle["genus_equal"] is True
    witness = next(l for l in lines if l["type"] == "witness")
    assert witness["matrix"] is not None


def test_compare_prints_the_corpus_witness():
    # x^3 + 6 and x^3 + 12: the corpus gives both the same trace Gram, so
    # the walk starts at its collision
    code, lines = run_lines(
        cmd_compare, ingest(DATA), "c972a", "c972b", witness_bound=8
    )
    assert code == EXIT_OK
    assert lines[-1] == {
        "type": "witness", "a": "c972a", "b": "c972b", "bound": 8,
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }


def test_compare_prints_a_degree_six_witness_at_bound_eight(capsys):
    # the walk budget at bound 8 is within the cap at n = 6
    argv = ["compare", DATA, "s6a", "s6c", "--witness-bound", "8"]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out.splitlines()[-1]) == {
        "type": "witness", "a": "s6a", "b": "s6c", "bound": 8,
        "matrix": [[(-1) ** r * int(r == c) for c in range(6)] for r in range(6)],
    }


def test_compare_builds_only_the_two_named_fields(tmp_path, monkeypatch):
    built = []

    def counting(rec, *args, **kwargs):
        built.append(rec.label)
        return field_from_record(rec, *args, **kwargs)

    monkeypatch.setattr(cli, "field_from_record", counting)
    code, _ = run_lines(cmd_compare, ingest(DATA), "c972a", "c972b")
    assert code == EXIT_OK
    assert built == ["c972a", "c972b"]
    # a record that is not a field only fails the commands that build it
    path = write_records(tmp_path, [
        {"label": "a", "poly": [6, 0, 0, 1]},
        {"label": "bad", "poly": [-1, 0, 1]},
        {"label": "b", "poly": [12, 0, 0, 1], "splitting": {"2": [[3, 1]]}},
    ])
    assert run_lines(cmd_compare, ingest(path), "a", "b")[0] == EXIT_OK
    with pytest.raises(NotAFieldError):
        run_lines(cmd_compare, ingest(path), "a", "bad")


@pytest.mark.parametrize("argv", [
    ["compare", DATA, "c972a", "c972b", "--witness-bound", "-2"],
    ["scan", "--cubic-search", "1300", "--witness-bound", "-1"],
    ["compare", DATA, "c972a", "c972b", "--witness-bound", "0"],
    ["scan", "--cubic-search", "1300", "--witness-bound", "0"],
    ["scan", DATA, "--witness-bound", "-5"],
])
def test_negative_witness_bound_is_rejected(capsys, argv):
    # rejected before any report line, whether or not a search would run
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr() == ("", "error: bound must be positive\n")


def test_compare_fields_of_different_degree(capsys):
    # a cubic against a quartic: every procedure skips, and the genus
    # screen rules out a witness without a search
    argv = ["compare", DATA, "c81", "z8"]
    assert main(argv) == EXIT_TAME
    skips = capsys.readouterr().out
    assert [json.loads(line)["type"] for line in skips.splitlines()] == 7 * ["skip"]
    assert main(argv + ["--witness-bound", "8"]) == EXIT_TAME
    out, err = capsys.readouterr()
    assert err == ""
    assert out == skips + json.dumps({"type": "witness", "a": "c81", "b": "z8",
                                      "bound": 8, "matrix": None},
                                     separators=(",", ":")) + "\n"


@pytest.mark.parametrize("records", [[], [DATA]])
def test_scan_checks_the_cubic_walk_cap_before_any_output(capsys, records):
    # bound 85 is over the walk's state cap at n = 3
    argv = ["scan", *records, "--cubic-search", "3000", "--witness-bound", "85"]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr() == ("", "error: witness search space too large\n")


def test_compare_disc_mismatch(tmp_path):
    path = write_records(tmp_path, [
        {"label": "a", "poly": [-1, -1, 0, 1]},
        {"label": "b", "poly": [-1, 1, 0, 1]},
    ])
    code, lines = run_lines(cmd_compare, ingest(path), "a", "b")
    assert code == EXIT_OK
    verdicts = {l["procedure"]: l for l in lines if l["type"] == "verdict"}
    assert verdicts["isometric_trace_forms"]["answer"] is False


def test_compare_no_applicable_theorem(tmp_path):
    # tame totally real quadratics: every procedure is out of domain
    path = write_records(tmp_path, [
        {"label": "a", "poly": [-1, -1, 1]},
        {"label": "b", "poly": [-3, -1, 1]},
    ])
    code, lines = run_lines(cmd_compare, ingest(path), "a", "b")
    assert code == EXIT_NO_CRITERION
    assert all(l["type"] == "skip" for l in lines)


def test_compare_totally_real_tame_pair_gets_spinor_verdict(tmp_path):
    # the spinor-genus criterion has no non-totally-real hypothesis, so a
    # tame totally real pair of degree >= 3 still gets that verdict
    path = write_records(tmp_path, [
        {"label": "a", "poly": [1, 1, -3, -1, 1]},
        {"label": "b", "poly": [1, 4, -4, -1, 1]},
    ])
    code, lines = run_lines(cmd_compare, ingest(path), "a", "b")
    assert code == EXIT_OK
    verdicts = {l["procedure"] for l in lines if l["type"] == "verdict"}
    assert "same_spinor_genus" in verdicts
    assert "isometric_trace_forms" not in verdicts


def test_compare_unknown_label(tmp_path):
    path = write_records(tmp_path, [{"label": "a", "poly": [-1, -1, 0, 1]}])
    out = io.StringIO()
    with pytest.raises(ParseError):
        cmd_compare(ingest(path), "a", "zz", out=out)


def test_scan_groups(tmp_path):
    path = write_records(tmp_path, [
        {"label": "a", "poly": [6, 0, 0, 1]},
        {"label": "b", "poly": [12, 0, 0, 1], "splitting": {"2": [[3, 1]]}},
        {"label": "c", "poly": [-1, -1, 0, 1]},
    ])
    code, lines = run_lines(cmd_scan, ingest(path))
    assert code == EXIT_OK
    groups = [l for l in lines if l["type"] == "group"]
    assert len(groups) == 1
    assert groups[0]["labels"] == ["a", "b"]
    verdicts = [l for l in lines if l["type"] == "verdict"]
    assert any(v["procedure"] == "isometric_trace_forms" and v["answer"] for v in verdicts)


def test_scan_mixed_signature_group(tmp_path):
    # equal degree+disc, different signatures: grouped only under
    # --group-by-disc, where signature-sensitive procedures skip or answer no
    path = write_records(tmp_path, [
        {"label": "re", "poly": [2, 0, -4, 0, 1]},
        {"label": "im", "poly": [2, 0, 4, 0, 1]},
    ])
    code, lines = run_lines(cmd_scan, ingest(path))
    assert code == EXIT_OK
    assert not [l for l in lines if l["type"] == "group"]
    code2, lines2 = run_lines(cmd_scan, ingest(path), group_by_disc=True)
    assert code2 == EXIT_OK
    assert [l for l in lines2 if l["type"] == "group"]
    skips = [l for l in lines2 if l["type"] == "skip"]
    assert skips, "mixed-signature pairs should be skipped with reasons"


def test_scan_cubic_search_small(monkeypatch, capsys):
    code, lines = run_lines(cmd_scan, [], cubic_search=1300)
    assert code == EXIT_OK and capsys.readouterr().err == ""
    pairs = [l for l in lines if l["type"] == "cubic-pair"]
    assert [p["disc"] for p in pairs] == [-1228, -1228, -1228, -972]
    assert all(p["genus_equal"] for p in pairs)
    assert all(p["isometric"] for p in pairs)
    assert all(p["witness"] is not None for p in pairs)
    summary = next(l for l in lines if l["type"] == "cubic-search-summary")
    assert summary["pairs"] == 4
    # every True verdict and every witness is checked against the genus
    monkeypatch.setattr(cli, "genus_equal", lambda ga, gb: False)
    assert run_lines(cmd_scan, [], cubic_search=1300)[0] == EXIT_INVARIANT
    failed = [line.split()[2] for line in capsys.readouterr().err.splitlines()]
    assert sorted(failed) == sorted(4 * ["isometric-implies-genus", "witness-implies-genus",
                                         "same_spinor_genus-implies-genus"])


# sha256 prefixes of stdout: a byte change in any of these reports is a
# behaviour change that has to be made on purpose
GOLDEN_STDOUT = [
    (["invariants", DATA], "1b2b495c09af8c53"),
    (["oracle-check", DATA], "8180cd406649e6bc"),
    (["scan", DATA], "307d294faa018b46"),
    (["scan", DATA, "--group-by-disc"], "2966a12c33d9dd54"),
    (["scan", "--cubic-search", "3000", "--witness-bound", "8"], "618f795fd74fd1fa"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT)
def test_cli_stdout_is_pinned(capsys, argv, digest):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("argv, pairs", [
    (["scan", DATA, "--group-by-disc"], [("q2048b", "q2048c"), ("q2048c", "q2048d")]),
    (["compare", DATA, "c23", "c31"], [("c23", "c31")]),
])
def test_a_true_verdict_on_distinct_genera_exits_5(monkeypatch, capsys, argv, pairs):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    planted = (("planted", lambda fa, fb: Verdict(True, SAME_SPINOR_GENUS, "planted", ())),)
    monkeypatch.setattr(cli, "DECISION_PROCEDURES", planted)
    assert main(argv) == EXIT_INVARIANT
    assert capsys.readouterr().err == "".join(
        f"check failed: planted-implies-genus on {a} and {b}\n" for a, b in pairs)


def test_scan_empty_input():
    code, lines = run_lines(cmd_scan, [])
    assert code == EXIT_OK and lines == []


def test_oracle_check_corpus_subset(tmp_path):
    records = [r for r in ingest(DATA) if r.label in
               {"c23", "c23b", "q5", "z5", "z5b", "w3", "c972a", "c972b"}]
    code, lines = run_lines(cmd_oracle_check, records)
    assert code == EXIT_OK
    checks = [l for l in lines if l["type"] == "check"]
    assert all(c["ok"] for c in checks)
    names = {c["name"] for c in checks}
    assert "det-equals-disc" in names
    assert "signature-identity" in names
    assert any(n.startswith("local-model@") for n in names)
    assert any(n == "two-adic-pair" for n in names)
    assert any(n == "wild-cubic-local@3" for n in names)
    summary = lines[-1]
    assert summary == {"type": "summary", "checks_failed": 0}


def test_oracle_check_reports_a_block_form_failure(monkeypatch):
    def drifting(sd):
        raise ConsistencyError("planted det class drift")

    monkeypatch.setattr(cli, "tame_diagonal_form", drifting)
    code, lines = run_lines(cmd_oracle_check, ingest(DATA))
    assert code == EXIT_INVARIANT
    failed = [l for l in lines if not l.get("ok", True)]
    assert failed and all(l["name"].startswith("block-form-det@") and
                          l["detail"] == "planted det class drift" for l in failed)
    assert lines[-1] == {"type": "summary", "checks_failed": len(failed)}


def test_main_exit_codes(tmp_path, capsys):
    assert main(["bogus-command"]) == EXIT_USAGE
    path = write_records(tmp_path, [{"label": "a", "poly": [-1, -1, 0, 1]}])
    assert main(["invariants", path]) == EXIT_OK
    capsys.readouterr()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["invariants", str(bad)]) == EXIT_PARSE
    capsys.readouterr()
    # a missing file and a file that is not UTF-8 are parse errors
    missing = str(tmp_path / "no-such.jsonl")
    assert main(["invariants", missing]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {missing}: No such file or directory\n"
    latin = tmp_path / "latin.jsonl"
    latin.write_bytes(b'{"label": "\xff", "poly": [-1, -1, 0, 1]}\n')
    assert main(["invariants", str(latin)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {latin} is not UTF-8 (byte 11)\n"
    # the cubic search cap is checked before any report line
    for argv in (["scan", "--cubic-search", "200001"],
                 ["scan", DATA, "--cubic-search", "200001"]):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cubic search cap is 200000")
    # wild pair: every isometry procedure is blocked by tameness
    wild = write_records(tmp_path, [
        {"label": "a", "poly": [1, 0, 0, 1, 0, 0, 1]},
        {"label": "b", "poly": [1, 1, 1, 1, 1, 1, 1]},
    ])
    assert main(["compare", wild, "a", "b"]) == EXIT_TAME
    capsys.readouterr()


def test_invariants_unsupported_splitting_exit(tmp_path, capsys):
    # 2 divides the index of x^3 + 12 and ramifies; without supplied data
    # the invariants command must name the prime and exit 3
    path = write_records(tmp_path, [{"label": "c972b", "poly": [12, 0, 0, 1]}])
    assert main(["invariants", path]) == EXIT_TAME
    err = capsys.readouterr().err
    assert "2" in err


def test_main_smoke_compare(tmp_path, capsys):
    path = write_records(tmp_path, [
        {"label": "a", "poly": [6, 0, 0, 1]},
        {"label": "b", "poly": [12, 0, 0, 1], "splitting": {"2": [[3, 1]]}},
    ])
    assert main(["compare", path, "a", "b", "--oracle"]) == EXIT_OK
    captured = capsys.readouterr()
    lines = [json.loads(l) for l in captured.out.splitlines()]
    assert any(l["type"] == "oracle" for l in lines)


def test_python_m_traceforms_runs_the_cli(tmp_path):
    path = write_records(tmp_path, [{"label": "a", "poly": [-1, -1, 0, 1]}])
    proc = subprocess.run(
        [sys.executable, "-m", "traceforms", "invariants", path],
        env=CHILD_ENV, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    expected = io.StringIO()
    cmd_invariants(ingest(path), out=expected)
    assert proc.stdout == expected.getvalue()
