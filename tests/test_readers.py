"""Fuzzing the text reader behind vertex files and certificates.

Whatever the text, `cli.parse_vertex_text` and `hunts.parse_certificate`
return a parsed object or raise ValueError.  An error about one line starts
`line N` (and `line N, column C` for a bad coordinate) with N a line that has
content; only whole-file complaints name no line.  `scavenger verify` on the
same text exits 0, 1, 2 or 64 and never raises.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scavenger import cli
from scavenger.hunts import parse_certificate

ROOT = Path(__file__).resolve().parent.parent
CORPUS = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "data").iterdir())}
LINE_ERROR = re.compile(r"line (\d+)(?:, column (\d+))?: ")
WHOLE_FILE_ERRORS = (
    "empty certificate",
    "certificate has no [vertices] section",
    "missing header line t=<rational>",
    "no points after the header",
)
READERS = {"vertex": cli.parse_vertex_text, "certificate": parse_certificate}

# Text built from the tokens these formats use, so that fuzzing reaches past
# the header; plus arbitrary text.
TOKENS = st.sampled_from(
    ["t=22", "t=0", "t=-3/2", "certificate", "h-device", "direct-chromatic", "t=30", "[vertices]",
     "[edges]", "[data]", "0", "1", "-2", "7/3", "1/0", "x", "h=", "z=", "=", "#", "/", "-", " ", "  "]
)
TOKEN_LINES = st.lists(TOKENS, max_size=5).map(" ".join)
FORMAT_TEXT = st.lists(TOKEN_LINES, max_size=8).map("\n".join)
ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)
TEXT = st.one_of(FORMAT_TEXT, ANY_TEXT)


def _content(text: str, lineno: int) -> str:
    lines = text.splitlines()
    return lines[lineno - 1].split("#", 1)[0].strip() if 1 <= lineno <= len(lines) else ""


def read_or_error(kind: str, text: str) -> ValueError | None:
    """Run one reader; None on success, else its ValueError after checking
    that the error names a line with content, or is a whole-file error."""
    try:
        READERS[kind](text)
    except ValueError as exc:
        message = str(exc)
        found = LINE_ERROR.match(message)
        if found is None:
            assert message in WHOLE_FILE_ERRORS, message
            return exc
        content = _content(text, int(found.group(1)))
        assert content, message
        if found.group(2) is not None:
            assert 1 <= int(found.group(2)) <= len(content), message
        return exc
    return None


def mutate(name: str, index: int, replacement: str) -> tuple[str, int, bool]:
    """The corpus file with its index-th content line (mod the count)
    replaced, the line number replaced, and whether that was the header."""
    lines = CORPUS[name].splitlines()
    content = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
    at = content[index % len(content)]
    lines[at] = replacement
    return "\n".join(lines) + "\n", at + 1, at == content[0]


def _section_of(text: str, lineno: int) -> str | None:
    section = None
    for line in text.splitlines()[: lineno - 1]:
        line = line.split("#", 1)[0].strip()
        if line in ("[vertices]", "[edges]", "[data]"):
            section = line
    return section


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_any_text_parses_or_names_a_line(text):
    for kind in READERS:
        read_or_error(kind, text)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CORPUS)), st.integers(0, 10**6), TOKEN_LINES)
def test_mutated_corpus_line_is_named(name, index, replacement):
    text, lineno, header = mutate(name, index, replacement)
    kind = "certificate" if name.endswith(".cert") else "vertex"
    for reader in READERS:
        read_or_error(reader, text)
    # a bad point in the list of points is reported at its own line (in a
    # certificate, a section marker there only starts another section)
    in_points = not header and (kind == "vertex" or _section_of(text, lineno) == "[vertices]")
    content = replacement.split("#", 1)[0].strip()
    marker = kind == "certificate" and content in ("[vertices]", "[edges]", "[data]")
    if in_points and content and not marker and len(content.split()) != 3:
        error = read_or_error(kind, text)
        assert error is not None and str(error).startswith(f"line {lineno}"), (error, lineno)


@pytest.mark.parametrize("edge", ["0 29", "29 0", "-1 3", "4 4", "3 1000"])
def test_out_of_range_edge_names_its_line(edge):
    text = CORPUS["t22_direct.cert"]
    lines = text.splitlines()
    at = lines.index("[edges]") + 3
    lines[at] = edge
    error = read_or_error("certificate", "\n".join(lines) + "\n")
    assert error is not None
    assert str(error).startswith(f"line {at + 1}: edge ") and "out of range" in str(error)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        TEXT,
        st.tuples(st.sampled_from(sorted(CORPUS)), st.integers(0, 10**6), TOKEN_LINES).map(
            lambda args: mutate(*args)[0]
        ),
    )
)
def test_verify_exits_with_a_verdict_or_64(tmp_path, capsys, text):
    f = tmp_path / "fuzzed.txt"
    f.write_text(text, encoding="utf-8")
    code = cli.dispatch(["verify", str(f)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 64), captured.err
    if code == 64:
        assert captured.out == "" and captured.err.startswith("error: ")
    else:
        assert captured.out.splitlines()[-1].startswith("VERDICT ")
