from __future__ import annotations

import argparse
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from scavenger import cli, cycles, hunts, numtheory
from scavenger.cycles import is_5cycle, parallel_first
from scavenger.hunts import (
    Certificate,
    Check,
    Report,
    read_certificate,
    verify_certificate,
    write_certificate,
)
from scavenger.numtheory import ChainCertificate
from scavenger.qcore import dist_sq, format_rational, parse_point

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- vertex files -----------------------------------------------------------------


def test_parse_vertex_file_reference():
    vf = cli.parse_vertex_file(DATA / "t22_vertices.txt")
    assert vf.t == 22
    assert len(vf.points) == 29
    assert vf.duplicates == 0


def test_parse_vertex_file_deduplicates_with_warning(tmp_path):
    f = tmp_path / "dup.txt"
    f.write_text("t=22\n1 2 3\n0 0 0\n1 2 3\n0 0 0\n0 0 0\n")
    vf = cli.parse_vertex_file(f)
    assert vf.points == (parse_point("1 2 3"), parse_point("0 0 0"))
    assert vf.duplicates == 3


def test_parse_vertex_file_zero_denominator(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("t=22\n1/0 0 0\n")
    with pytest.raises(ValueError, match="line 2, column 1"):
        cli.parse_vertex_file(f)


def test_parse_vertex_file_column_of_bad_token(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("t=22\n1 x 3\n")
    with pytest.raises(ValueError, match="line 2, column 3"):
        cli.parse_vertex_file(f)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 0 0\n", "header"),
        ("t=22\n", "no points"),
        ("t=0\n0 0 0\n", "positive"),
        ("t=x\n0 0 0\n", "line 1"),
        ("t=22\n1 2\n", "three coordinates"),
    ],
)
def test_parse_vertex_file_errors(tmp_path, text, fragment):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    with pytest.raises(ValueError, match=fragment):
        cli.parse_vertex_file(f)


def test_parse_vertex_file_unreadable():
    with pytest.raises(ValueError, match="cannot read"):
        cli.parse_vertex_file("/nonexistent/file.txt")


def test_write_vertex_file_roundtrip(tmp_path):
    f = tmp_path / "out.txt"
    pts = [parse_point("1/3 -2 0"), parse_point("5 5 5")]
    cli.write_vertex_file(f, F(22), pts)
    vf = cli.parse_vertex_file(f)
    assert vf.t == 22
    assert list(vf.points) == pts


# --- option checks -------------------------------------------------------------------


def _argv(tmp_path, command) -> list[str]:
    """`command` with the names t22_seed, t34_cycle and foci replaced by files."""
    files = {
        "t22_seed": str(DATA / "t22_seed.txt"),
        "t34_cycle": tmp_path / "cycle34.txt",
        "foci": tmp_path / "foci.txt",
    }
    files["t34_cycle"].write_text("t=34\n0 0 0\n-5 0 3\n-8 5 3\n-4 2 0\n-4 -3 3\n")
    files["foci"].write_text("t=30\n5 2 1\n-1 -2 5\n")
    return [str(files.get(word, word)) for word in command]


def exit_code(argv) -> int:
    """The status of `dispatch(argv)`, whether argparse or the command refused it."""
    try:
        return cli.dispatch(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "command,option,value",
    [
        (["hunt-grotzsch-subgraph", "30"], "--height", "0"),
        (["hunt-grotzsch-subgraph", "30"], "--d-bound", "0"),
        (["hunt-grotzsch-subgraph", "30"], "--d", "0"),
        (["hunt-grotzsch-subgraph", "30"], "--d", "-3"),
        (["hunt-grotzsch-type", "t34_cycle"], "--height", "-1"),
        (["hunt-greedy", "t22_seed"], "--cap", "0"),
        (["hunt-greedy", "t22_seed"], "--box", "0"),
        (["hunt-greedy", "t22_seed"], "--box", "-3"),
        (["hunt-greedy", "t22_seed"], "--box", "ten"),
        (["hunt-greedy", "t22_seed"], "--box", "abc"),
        (["find-cycle", "22"], "--height", "0"),
        (["find-cycle", "22"], "--denominators", "x"),
        (["find-cycle", "22"], "--denominators", "1,,3"),
        (["find-symmetric-cycle", "30"], "--d-bound", "0"),
        (["find-symmetric-cycle", "30"], "--d", "0"),
        (["find-symmetric-cycle", "30"], "--d", "-3"),
        (["find-symmetric-cycle", "30"], "--d", "1/0"),
        (["find-symmetric-cycle", "30"], "--d", "x/3"),
        (["scan-d", "30"], "--bound", "0"),
        (["scan-d", "30"], "--bound", "-4"),
        (["param-circle", "foci"], "--count", "-1"),
        (["param-circle", "foci"], "--count", "0"),
        (["param-circle", "foci"], "--height", "0"),
        (["param-circle", "foci"], "--params", "x"),
        (["param-circle", "foci"], "--params", "1/0"),
        # numerals that are not plain ASCII integers or rationals
        (["scan-d", "\u0663\u0660"], "--bound", "100"),
        (["find-cycle", "22"], "--height", "\u0666\u0660"),
        (["hunt-greedy", "t22_seed"], "--denominator", "\u0663"),
        (["hunt-greedy", "t22_seed"], "--denominator", "+3"),
        (["solve-legendre", "1_0"], "1", "-1"),
        (["solve-legendre", "+1"], "1", "-1"),
        (["solve-legendre", "\u0663"], "1", "-1"),
        (["solve-legendre", "1"], "1", "-1/1"),
    ],
    ids=lambda x: x[0] if isinstance(x, list) else x,
)
def test_bad_option_value_exits_64_before_any_output(capsys, tmp_path, command, option, value):
    code = exit_code(_argv(tmp_path, command) + [option, value])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE == 64
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == err.splitlines()[-1:]
    assert "Traceback" not in err
    # argparse's own fallback, "invalid <type function> value", names a private function
    assert "invalid" not in err


# --- verify ------------------------------------------------------------------------


def test_verify_vertex_file(capsys):
    code, out, _ = run(capsys, "verify", str(DATA / "t22_vertices.txt"))
    assert code == 0
    assert "CHECK distinct-points PASS 29 distinct points" in out
    assert "CHECK triangle-free PASS" in out
    assert "CHECK chromatic PASS no proper 3-coloring exists" in out
    assert out.rstrip().endswith("VERDICT PASS")


def test_verify_certificate_pass(capsys):
    code, out, _ = run(capsys, "verify", str(DATA / "t66_order25.cert"))
    assert code == 0
    assert "VERDICT PASS" in out


def test_verify_uncorrected_table_fails(capsys):
    code, out, _ = run(capsys, "verify", str(DATA / "t34_order25_uncorrected.cert"))
    assert code == 1
    assert "v0-X4=41" in out
    assert "v3-X4=41" in out
    assert "VERDICT FAIL" in out


FRESH_DEVICE_30 = """\
certificate h-device t=30
[vertices]
0 0 0
2 11/5 -23/5
1 5 0
56/15 217/75 -319/75
5 2 1
7 21/5 -18/5
13/3 26/15 43/15
0 0 2
-19/15 67/75 -394/75
490/257 919/257 -433/257
[edges]
0 1
0 4
0 6
0 8
1 2
1 5
2 3
2 6
2 7
3 4
3 8
4 5
4 7
5 9
6 9
7 9
8 9
[data]
h=1462/257
z=490/257 919/257 -433/257
"""


def test_verify_fresh_device_reports_exact_chain_length(capsys, tmp_path):
    f = tmp_path / "device.cert"
    f.write_text(FRESH_DEVICE_30)
    code, out, err = run(capsys, "verify", str(f))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert (
        "CHECK chain PASS vector of squared norm 30 reached in 189409 steps "
        "of squared length 1462/257"
    ) in lines
    assert lines[-1] == "VERDICT PASS"


def test_verify_device_with_far_apart_x1_x3_fails(capsys, tmp_path):
    cert = read_certificate(DATA / "t30_device.cert")
    pts = list(cert.points)
    pts[3] = parse_point("100 100 100")
    f = tmp_path / "far.cert"
    write_certificate(Certificate(cert.kind, cert.t, tuple(pts), cert.edges, cert.data), f)
    code, out, err = run(capsys, "verify", str(f))
    assert code == 1
    assert err == ""
    assert "CHECK h-edges FAIL" in out
    assert (
        "CHECK radius FAIL x1 and x3 are at squared distance 29630 > 4t; "
        "no point lies at squared distance 30 from both"
    ) in out.splitlines()
    assert out.endswith("VERDICT FAIL\n")


def test_verify_device_with_x2_off_the_mirror_fails(capsys, tmp_path):
    cert = read_certificate(DATA / "t30_device.cert")
    pts = list(cert.points)
    x0, x2, x4 = pts[0], pts[2], pts[4]
    pts[2] = x2 + (x4 - x0)  # along the normal of the bisector plane of (x0, x4)
    f = tmp_path / "off.cert"
    write_certificate(Certificate(cert.kind, cert.t, tuple(pts), cert.edges, cert.data), f)
    code, out, err = run(capsys, "verify", str(f))
    assert code == 1
    assert err == ""
    legs = format_rational(dist_sq(pts[2], x0))
    assert (
        "CHECK symmetric-cycle FAIL x2 and midpoint(x1,x3) on the bisector plane; "
        f"legs squared {legs}"
    ) in out.splitlines()
    assert out.endswith("VERDICT FAIL\n")


@pytest.mark.parametrize("message,shown", [("boom", "boom"), ("", "AssertionError")])
def test_internal_error_exits_70(capsys, monkeypatch, message, shown):
    def broken(self):
        raise AssertionError(message)

    monkeypatch.setattr(ChainCertificate, "validate", broken)
    code, out, err = run(capsys, "verify", str(DATA / "t30_device.cert"))
    assert code == cli.EXIT_INTERNAL == 70
    assert "VERDICT" not in out
    assert err == f"internal error: {shown}\n"


def test_emission_guard_exits_70(capsys, monkeypatch, tmp_path):
    failing = Report((Check("chain", "FAIL", "forced"),))
    monkeypatch.setattr(hunts, "verify_certificate", lambda cert: failing)
    out_path = tmp_path / "greedy.cert"
    code, out, err = run(
        capsys, "hunt-greedy", str(DATA / "t22_seed.txt"), "--out", str(out_path)
    )
    assert code == 70
    assert err == "internal error: a hunt emitted a certificate that fails verification\n"
    assert "VERDICT" not in out
    assert not out_path.exists()


def test_verify_device_warns(capsys):
    code, out, _ = run(capsys, "verify", str(DATA / "t30_device.cert"))
    assert code == 2
    assert "CHECK radius WARN" in out
    assert "539/30" in out
    assert "VERDICT PASS-WITH-WARNINGS" in out


def test_verify_duplicate_rows_warn(capsys, tmp_path):
    f = tmp_path / "dup.txt"
    rows = (DATA / "t22_vertices.txt").read_text().splitlines()
    f.write_text("\n".join(rows + [rows[-1]]) + "\n")
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 2
    assert "CHECK file-duplicates WARN 1 duplicate rows dropped" in out


def test_verify_malformed_file(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("t=22\nnot a point\n")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 64
    assert "error:" in err


@pytest.mark.parametrize("raw", ["2_2", "+22", "22.0", "22/3", "0x16"])
def test_verify_rejects_loose_certificate_t(capsys, tmp_path, raw):
    # the header follows the vertex-file rule for rational literals
    f = tmp_path / "loose.cert"
    f.write_text(f"# header below\ncertificate direct-chromatic t={raw}\n[vertices]\n0 0 0\n")
    code, out, err = run(capsys, "verify", str(f))
    assert code == 64
    assert out == ""
    assert "line 2: t must be an integer" in err


def test_verify_refuses_a_coordinate_in_non_ascii_digits(capsys, tmp_path):
    f = tmp_path / "arabic.txt"
    f.write_text("t=22\n0 0 0\n\u0663 0 0\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(f))
    assert code == 64
    assert out == ""
    assert "line 3, column 1" in err


@pytest.mark.parametrize("raw", ["\u0661", "+1", "0_1"])
def test_verify_refuses_an_edge_index_that_is_not_ascii_digits(capsys, tmp_path, raw):
    f = tmp_path / "edge.cert"
    f.write_text(f"certificate direct-chromatic t=22\n[vertices]\n0 0 0\n3 3 2\n[edges]\n0 {raw}\n")
    code, out, err = run(capsys, "verify", str(f))
    assert code == 64
    assert out == ""
    assert "line 6: bad edge" in err


@pytest.mark.parametrize(
    "line,edited,message",
    [
        ("h=1078/15", "h=1 2 3", "not a rational literal"),
        ("radius_sq=1081/10", "radius_sq=1 2 3", "not a rational literal"),
        ("z=37/11 -31/55 -38/55", "z=5", "expected three rationals"),
    ],
)
def test_verify_refuses_a_data_value_of_the_wrong_shape(capsys, tmp_path, line, edited, message):
    # z is read as a point and every other key as a rational, whatever the
    # value's token count
    rows = (DATA / "t30_device.cert").read_text(encoding="utf-8").splitlines()
    lineno = rows.index(line) + 1
    rows[lineno - 1] = edited
    f = tmp_path / "edited.cert"
    f.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(f))
    assert (code, out) == (64, "")
    assert f"line {lineno}: {message}" in err


def test_verify_accepts_certificate_t_with_unit_denominator(capsys, tmp_path):
    f = tmp_path / "unit.cert"
    f.write_text("certificate direct-chromatic t=22/1\n[vertices]\n0 0 0\n")
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 1
    assert "0 edges at exact squared distance 22\n" in out


def test_unknown_subcommand_usage_exit():
    with pytest.raises(SystemExit) as info:
        cli.dispatch(["frobnicate"])
    assert info.value.code == 64


# --- solve-legendre ----------------------------------------------------------------


def test_solve_legendre_unsolvable_reason(capsys):
    code, out, _ = run(capsys, "solve-legendre", "1", "1", "-3")
    assert code == 1
    assert out == "unsolvable: -ab = -1 not a QR of 3\n"


def test_solve_legendre_definite(capsys):
    code, out, _ = run(capsys, "solve-legendre", "2", "3", "5")
    assert code == 1
    assert "definite" in out


def test_solve_legendre_solution_verified(capsys):
    code, out, _ = run(capsys, "solve-legendre", "1", "1", "-2")
    assert code == 0
    x, y, z = map(int, out.split(":")[1].split())
    assert x * x + y * y - 2 * z * z == 0
    assert (x, y, z) != (0, 0, 0)


def test_solve_legendre_sweep_form_is_pinned(capsys):
    code, out, err = run(capsys, "solve-legendre", "1237", "3727", "-3557")
    assert (code, out, err) == (0, "solution: 1571 523 1070\n", "")


def test_solve_legendre_zero_coefficient(capsys):
    code, _, err = run(capsys, "solve-legendre", "0", "1", "-1")
    assert code == 64
    assert "zero coefficient" in err


def test_search_without_a_zero_on_a_solvable_form_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(numtheory, "_holzer_search", lambda coeffs, primes: None)
    code, out, err = run(capsys, "solve-legendre", "1", "1", "-2")
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("internal error: ")


# --- scan-d ------------------------------------------------------------------------


def test_scan_d_with_witnesses(capsys):
    code, out, _ = run(capsys, "scan-d", "30", "--bound", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d=26"
    assert lines[1].startswith("triangle base_sq=30 legs_sq=26:")
    assert lines[2].startswith("triangle base_sq=26 legs_sq=30:")
    # witness triangles are exact
    for line, base, legs in ((lines[1], 30, 26), (lines[2], 26, 30)):
        body = line.split(":", 1)[1].strip()
        pts = [parse_point(chunk.strip("() ")) for chunk in body.split(") (")]
        assert dist_sq(pts[0], pts[1]) == base
        assert dist_sq(pts[0], pts[2]) == legs
        assert dist_sq(pts[1], pts[2]) == legs


def test_scan_d_rational_fallback(capsys):
    code, out, _ = run(capsys, "scan-d", "58")
    assert code == 0
    assert out.splitlines()[0] == "d=314/9"


def test_scan_d_bound_past_4t_adds_no_candidate(capsys, monkeypatch):
    # no d >= 4t embeds both triangles, so the scan stops at the window
    evaluated = []
    monkeypatch.setattr(
        cycles,
        "parallel_first",
        lambda candidates, predicate: parallel_first(
            candidates, lambda d: evaluated.append(d) or predicate(d)
        ),
    )
    runs = []
    for bound in (("--bound", "200000"), ("--bound", "232"), ()):  # 232 = 4t; () is the default
        evaluated.clear()
        code, out, _ = run(capsys, "scan-d", "58", *bound)
        runs.append((code, out, list(evaluated)))
    assert runs[0] == runs[1] == runs[2]
    assert cycles.find_symmetric_5cycle(58) == cycles.find_symmetric_5cycle(58, d_bound=232)
    code, out, pairs = runs[0]
    assert code == 0 and out.splitlines()[0] == "d=314/9"
    assert pairs[-1] == (314, 9) and len(pairs) == len(set(pairs))


def test_scan_d_exhausted(capsys):
    code, out, _ = run(capsys, "scan-d", "10", "--bound", "2")
    assert code == 1
    assert "no admissible d" in out


def test_symmetric_cycle_commands_match_golden(capsys):
    """`scan-d <t>` and `find-symmetric-cycle <t>` for every open t below 400,
    plus two exhausted searches: each block of the golden is a `$ argv` line,
    an `[exit N]` line and the command's stdout."""
    blocks = (GOLDEN / "symmetric_cycles.txt").read_text(encoding="utf-8").split("$ ")[1:]
    assert len(blocks) == 100
    for block in blocks:
        argv, status, expected = block.split("\n", 2)
        code, out, err = run(capsys, *argv.split())
        assert (f"[exit {code}]", out, err) == (status, expected, ""), argv


@pytest.mark.parametrize(
    "command",
    [["scan-d", "30"], ["hunt-grotzsch-subgraph", "30"], ["hunt-grotzsch-type", "t34_cycle"]],
    ids=lambda command: command[0],
)
def test_workers_option_is_refused(capsys, tmp_path, command):
    code = exit_code(_argv(tmp_path, command) + ["--workers", "1"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE == 64
    assert out == ""
    assert "--workers" in err


EVERY_COMMAND = {
    "verify": ["verify", str(DATA / "t22_vertices.txt")],
    "hunt-greedy": ["hunt-greedy", "t22_seed", "--cap", "12"],
    "hunt-grotzsch-type": ["hunt-grotzsch-type", "t34_cycle", "--height", "2"],
    "hunt-grotzsch-subgraph": ["hunt-grotzsch-subgraph", "30", "--height", "2"],
    "find-cycle": ["find-cycle", "22", "--height", "10"],
    "find-symmetric-cycle": ["find-symmetric-cycle", "30", "--d", "26"],
    "scan-d": ["scan-d", "30", "--bound", "40"],
    "solve-legendre": ["solve-legendre", "1", "1", "-2"],
    "param-circle": ["param-circle", "foci", "--count", "3"],
}


def test_every_command_has_a_worker_env_case():
    (sub,) = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(EVERY_COMMAND) == sorted(sub.choices)


@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
def test_worker_env_is_not_read_by_commands_without_workers(capsys, monkeypatch, tmp_path, command):
    argv = _argv(tmp_path, EVERY_COMMAND[command])
    plain = run(capsys, *argv)
    monkeypatch.setenv("SCAVENGER_WORKERS", "soon")
    assert run(capsys, *argv) == plain
    assert plain[2] == ""


# --- cycle finders -----------------------------------------------------------------


def test_find_cycle_output_is_valid(capsys, tmp_path):
    out_path = tmp_path / "cycle.txt"
    code, out, _ = run(capsys, "find-cycle", "22", "--out", str(out_path))
    assert code == 0
    pts = [parse_point(line) for line in out.splitlines()]
    assert is_5cycle(pts, 22)
    vf = cli.parse_vertex_file(out_path)
    assert vf.t == 22
    assert list(vf.points) == pts


def test_find_cycle_unwritable_out_is_one_error_line(capsys, tmp_path):
    out_path = tmp_path / "missing" / "cycle.txt"
    code, out, err = run(capsys, "find-cycle", "22", "--out", str(out_path))
    assert code == 64
    assert out == ""
    assert err == f"error: cannot write {out_path}: No such file or directory\n"


def test_find_cycle_exhausted(capsys):
    # height 8 excludes every denominator-3 vector; integer-only 5-cycles
    # cannot exist at this distance
    code, out, _ = run(capsys, "find-cycle", "22", "--height", "8")
    assert code == 1
    assert "no 5-cycle" in out


@pytest.mark.parametrize("value", ["x", "1,,3", "0", "-1", ""])
def test_find_cycle_bad_denominators_are_refused_by_the_parser(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(["find-cycle", "22", "--denominators", value])
    out, err = capsys.readouterr()
    assert exc.value.code == 64
    assert out == ""
    assert err.splitlines()[-1].startswith("error: argument --denominators: must be a positive")


def test_find_cycle_exhausted_over_denominator_3(capsys):
    # 96 vectors, all over 3, and no five of them close a cycle
    code, out, _ = run(capsys, "find-cycle", "58", "--denominators", "3")
    assert code == 1
    assert out == "no 5-cycle found within bounds\n"


def test_find_cycle_with_no_admissible_denominator_is_an_empty_pool(capsys):
    # t ≡ 2 (mod 4) admits no even denominator
    code, out, err = run(capsys, "find-cycle", "22", "--denominators", "2")
    assert (code, out, err) == (1, "no 5-cycle found within bounds\n", "")


def test_find_symmetric_cycle(capsys):
    code, out, _ = run(capsys, "find-symmetric-cycle", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d=26"
    pts = [parse_point(line) for line in lines[1:]]
    assert is_5cycle(pts, 30)
    assert dist_sq(pts[0], pts[2]) == 26
    assert dist_sq(pts[4], pts[2]) == 26


def test_find_symmetric_cycle_fixed_d(capsys):
    code, out, _ = run(capsys, "find-symmetric-cycle", "30", "--d", "26")
    assert code == 0
    assert out.splitlines()[0] == "d=26"


def test_find_cycle_rejects_non_integer_t(capsys):
    code, _, err = run(capsys, "find-cycle", "22/3")
    assert code == 64
    assert "integer" in err


# --- param-circle ------------------------------------------------------------------


@pytest.fixture()
def foci_file(tmp_path):
    f = tmp_path / "foci.txt"
    f.write_text("t=30\n5 2 1\n-1 -2 5\n")
    return f


def test_param_circle_exact_focal_distances(capsys, foci_file):
    code, out, _ = run(capsys, "param-circle", str(foci_file), "--count", "12")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    a, b = parse_point("5 2 1"), parse_point("-1 -2 5")
    for line in lines:
        _, coords = line.split(" ", 1)
        p = parse_point(coords)
        assert dist_sq(p, a) == 30
        assert dist_sq(p, b) == 30


def test_param_circle_explicit_params(capsys, foci_file):
    code, out, _ = run(capsys, "param-circle", str(foci_file), "--params", "23/11")
    assert code == 0
    assert out == "s=23/11 -8/21 52/21 40/21\n"


@pytest.mark.parametrize("params", [["x"], ["1", "x"], []])
def test_param_circle_params_are_refused_before_the_circle_is_solved(
    capsys, monkeypatch, foci_file, params
):
    def unreachable(circle):
        raise AssertionError("the circle was solved")

    monkeypatch.setattr(cli, "rational_point_on_circle", unreachable)
    code = exit_code(["param-circle", str(foci_file), "--params", *params])
    out, err = capsys.readouterr()
    assert code == 64
    assert out == ""
    assert "--params" in err


def test_param_circle_without_rational_points_names_the_condition(tmp_path):
    # the normalized form is (1, 320699, -1124287673410), whose Holzer box
    # held the command for over 30 s before the form was decided first
    foci = tmp_path / "foci.txt"
    foci.write_text("t=1000003\n0 0 0\n123 457 311\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "scavenger.cli", "param-circle", str(foci)],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert proc.stdout == "no rational points: -ab = -320699 not a QR of 1124287673410\n"
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_param_circle_arity(capsys):
    code, _, err = run(capsys, "param-circle", str(DATA / "t22_seed.txt"))
    assert code == 64
    assert "exactly 2 points" in err


# --- hunts -------------------------------------------------------------------------


def test_hunt_greedy_end_to_end(capsys, tmp_path):
    out_path = tmp_path / "greedy.cert"
    code, out, _ = run(
        capsys, "hunt-greedy", str(DATA / "t22_seed.txt"), "--out", str(out_path)
    )
    assert code == 0
    assert out.startswith("HUNT PASS order=53")
    assert "VERDICT PASS" in out
    report = verify_certificate(read_certificate(out_path))
    assert report.verdict == "PASS"


def test_hunt_greedy_unwritable_out_is_one_error_line(capsys, tmp_path):
    out_path = tmp_path / "missing" / "greedy.cert"
    code, out, err = run(
        capsys, "hunt-greedy", str(DATA / "t22_seed.txt"), "--out", str(out_path)
    )
    assert code == 64
    assert out == ""
    assert err == f"error: cannot write {out_path}: No such file or directory\n"


@pytest.mark.parametrize(
    "where,reason",
    [("missing/greedy.cert", "No such file or directory"), ("", "Is a directory")],
)
def test_unwritable_out_is_refused_before_the_search(capsys, monkeypatch, tmp_path, where, reason):
    def searched(*args, **kwargs):
        raise AssertionError("the hunt ran before --out was checked")

    monkeypatch.setattr(cli, "greedy_hunt", searched)
    out_path = tmp_path / where
    code, out, err = run(
        capsys, "hunt-greedy", str(DATA / "t22_seed.txt"), "--out", str(out_path)
    )
    assert code == 64
    assert out == ""
    assert err == f"error: cannot write {out_path}: {reason}\n"


def test_write_failure_after_the_check_is_one_error_line(tmp_path):
    with pytest.raises(ValueError) as exc:
        cli._write_text(tmp_path, "t=22\n")
    assert str(exc.value) == f"cannot write {tmp_path}: Is a directory"


def test_hunt_greedy_cap_failure(capsys):
    code, out, _ = run(capsys, "hunt-greedy", str(DATA / "t22_seed.txt"), "--cap", "10")
    assert code == 1
    assert out.startswith("HUNT FAIL order=10")


def test_failing_hunt_writes_no_out_file(capsys, tmp_path):
    out_path = tmp_path / "greedy.cert"
    code, out, _ = run(
        capsys, "hunt-greedy", str(DATA / "t22_seed.txt"), "--cap", "10", "--out", str(out_path)
    )
    assert code == 1
    assert out.startswith("HUNT FAIL order=10")
    assert not out_path.exists()


def _greedy_seed(tmp_path, image: bool) -> str:
    """`data/t22_seed.txt`, or its (x, -y, -z) image written to tmp_path."""
    if not image:
        return str(DATA / "t22_seed.txt")
    vf = cli.parse_vertex_file(DATA / "t22_seed.txt")
    f = tmp_path / "seed_image.txt"
    f.write_text(f"t={vf.t}\n" + "".join(f"{p.x} {-p.y} {-p.z}\n" for p in vf.points))
    return str(f)


@pytest.mark.parametrize(
    "golden,image,options,code",
    [
        ("hunt_greedy_d3", False, ["--denominator", "3"], 0),
        ("hunt_greedy_d9", False, ["--denominator", "9"], 0),
        ("hunt_greedy_image_d9", True, ["--denominator", "9"], 0),  # 144 vertices
        ("hunt_greedy_box20_3", False, ["--box", "20/3"], 0),
        ("hunt_greedy_image_box13_2", True, ["--box", "13/2"], 0),  # the box binds
        ("hunt_greedy_cap12", False, ["--cap", "12"], 1),
    ],
)
def test_hunt_greedy_matches_golden(capsys, tmp_path, golden, image, options, code):
    got = run(capsys, "hunt-greedy", _greedy_seed(tmp_path, image), *options)
    assert got == (code, (GOLDEN / f"{golden}.out").read_text(encoding="utf-8"), "")


def test_one_process_parses_each_call_afresh(capsys, tmp_path):
    # the parser is built once per process; no option value or default
    # carries over from one call to the next
    seed = str(DATA / "t22_seed.txt")
    calls = [
        (["hunt-greedy", seed, "--cap", "12"], 1, "hunt_greedy_cap12.out"),
        (["hunt-greedy", seed], 0, "hunt_greedy_d3.out"),
        (["hunt-greedy", seed, "--cap", "12"], 1, "hunt_greedy_cap12.out"),
        (["hunt-grotzsch-subgraph", "66", "--d", "54", "--height", "8"], 0, "hunt_device66_d54.out"),
        (["hunt-grotzsch-subgraph", "30"], 0, "hunt_device30.out"),
    ]
    for argv, code, golden in calls:
        assert run(capsys, *argv) == (code, (GOLDEN / golden).read_text(encoding="utf-8"), "")


def test_hunt_greedy_seed_outside_box_exits_64(capsys):
    code, out, err = run(capsys, "hunt-greedy", str(DATA / "t22_seed.txt"), "--box", "2")
    assert (code, out) == (64, "")
    assert err == "error: seed point 14/3 1/3 1/3 is outside the candidate set\n"


def test_hunt_greedy_rejects_bad_seed(capsys, tmp_path):
    f = tmp_path / "seed.txt"
    f.write_text("t=22\n0 0 0\n1 0 0\n2 0 0\n3 0 0\n4 0 0\n")
    code, _, err = run(capsys, "hunt-greedy", str(f))
    assert code == 64
    assert "5-cycle" in err


def test_hunt_grotzsch_type_exhausts_small_height(capsys, tmp_path):
    f = tmp_path / "cycle34.txt"
    f.write_text("t=34\n0 0 0\n-5 0 3\n-8 5 3\n-4 2 0\n-4 -3 3\n")
    code, out, _ = run(capsys, "hunt-grotzsch-type", str(f), "--height", "1")
    assert code == 1
    assert "HUNT FAIL" in out


def test_hunt_grotzsch_type_requires_five_points(capsys):
    code, _, err = run(capsys, "hunt-grotzsch-type", str(DATA / "t22_vertices.txt"))
    assert code == 64
    assert "5 points" in err


def test_hunt_grotzsch_subgraph_small_height_fails(capsys):
    code, out, _ = run(capsys, "hunt-grotzsch-subgraph", "30", "--height", "4")
    assert code == 1
    assert out.splitlines()[0] == "cycle d=26"
    assert "HUNT FAIL" in out


def test_hunt_grotzsch_subgraph_30_matches_golden(capsys, tmp_path):
    out_path = tmp_path / "device30.cert"
    code, out, err = run(capsys, "hunt-grotzsch-subgraph", "30", "--out", str(out_path))
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "hunt_device30.out").read_text(encoding="utf-8")
    assert out_path.read_bytes() == (GOLDEN / "hunt_device30.cert").read_bytes()


def test_hunt_grotzsch_subgraph_66_d54_matches_golden(capsys, tmp_path):
    # a device on the direct branch from a forced d, at a lower height
    out_path = tmp_path / "device66.cert"
    code, out, err = run(
        capsys, "hunt-grotzsch-subgraph", "66", "--d", "54", "--height", "8", "--out", str(out_path)
    )
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "hunt_device66_d54.out").read_text(encoding="utf-8")
    assert out_path.read_bytes() == (GOLDEN / "hunt_device66_d54.cert").read_bytes()


@pytest.mark.parametrize("t", ["10", "58"])
def test_hunt_grotzsch_subgraph_full_sweep_matches_golden(capsys, t):
    # no pair at height 12 has a device, so every pair is decided
    code, out, err = run(capsys, "hunt-grotzsch-subgraph", t)
    assert code == 1
    assert err == ""
    assert out == (GOLDEN / f"hunt_device{t}.out").read_text(encoding="utf-8")


# --- a reader that leaves early -----------------------------------------------------


def _spawn_greedy(unbuffered: bool, *options: str) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "scavenger.cli", "hunt-greedy", str(DATA / "t22_seed.txt"), *options],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_ends_quietly_with_141(unbuffered):
    proc = _spawn_greedy(unbuffered)
    proc.stdout.close()  # gone before the first line is written
    err = proc.stderr.read()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


@pytest.mark.parametrize("unbuffered", [True, False])
def test_head_one_reads_a_line_and_stderr_stays_empty(unbuffered):
    proc = _spawn_greedy(unbuffered)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    # 0 when the whole report was written before the reader left, else 141
    assert proc.wait() in (0, 141)
    assert first == b"HUNT PASS order=53 edges=181 iterations=48\n"
    assert err == b""


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_still_writes_the_out_file(capsys, tmp_path, unbuffered):
    normal = tmp_path / "normal.cert"
    assert run(capsys, "hunt-greedy", str(DATA / "t22_seed.txt"), "--out", str(normal))[0] == 0
    early = tmp_path / "early.cert"
    proc = _spawn_greedy(unbuffered, "--out", str(early))
    proc.stdout.close()  # gone before the first line is written
    err = proc.stderr.read()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE
    assert err == b""
    assert early.read_bytes() == normal.read_bytes()
