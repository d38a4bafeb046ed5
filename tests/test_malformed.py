"""Malformed input only ever gives the typed errors: random JSON values and
valid documents with one field mutated raise nothing but
:class:`OmegafractError` subclasses from the library, and through the CLI
they give exit status 1 or 2 with a JSON ``error`` report, never a
traceback."""

import contextlib
import io
import json
import os
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegafract import (
    OmegafractError,
    classify_properties,
    dimension_report,
    entropy,
    load_automaton,
)
from omegafract.cli import main

from conftest import AUTOMATA_DIR

BUNDLED = [
    "cantor",
    "cantor_pair",
    "dyadic",
    "dyadic_unambiguous",
    "full_binary",
    "golden_mean",
]

DOCUMENTS = {
    name: (AUTOMATA_DIR / f"{name}.json").read_text(encoding="utf-8")
    for name in BUNDLED
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)

#: The bugs the property was written to catch: nesting past the
#: recursion limit, bytes that are not UTF-8, and an integer literal
#: longer than the interpreter converts (4300 digits by default).
DEEP = b"[" * 200_000
NOT_UTF8 = b"\xff\xfe{\x00}\x00"
LONG_INT = b'{"base": ' + b"1" * 5_000 + b"}"


@st.composite
def mutated_documents(draw) -> bytes:
    """A bundled document with one field, of the document or of one of its
    transitions, deleted or replaced by a random JSON value or by a small
    change of a number or a state name."""
    doc = json.loads(DOCUMENTS[draw(st.sampled_from(BUNDLED))])
    target = doc
    if draw(st.booleans()):
        target = draw(st.sampled_from(doc["transitions"]))
    key = draw(st.sampled_from(sorted(target)))
    action = draw(st.sampled_from(["delete", "replace", "tweak"]))
    if action == "delete":
        del target[key]
    elif action == "replace":
        target[key] = draw(json_values)
    elif isinstance(target[key], list) and target[key]:
        i = draw(st.integers(0, len(target[key]) - 1))
        target[key][i] = draw(
            st.sampled_from([-1, 0, 1, 2, 3, 10**6, "q0", "x", None, [0]])
        )
    else:
        target[key] = draw(st.sampled_from([-1, 0, 1, 2, 3, 10**6, 2**64]))
    return json.dumps(doc).encode("utf-8")


documents = (
    json_values.map(lambda v: json.dumps(v).encode("utf-8"))
    | mutated_documents()
    | st.binary(max_size=12)
)


@contextlib.contextmanager
def document_file(data: bytes):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        yield path
    finally:
        os.unlink(path)


def check_library(data: bytes) -> None:
    with document_file(data) as path:
        try:
            a = load_automaton(path)
            classify_properties(a)
            entropy(a)
            dimension_report(a)
        except OmegafractError:
            pass


def check_cli(data: bytes, command: str) -> None:
    out = io.StringIO()
    with document_file(data) as path, contextlib.redirect_stdout(out):
        code = main([command, path])
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2), code
    assert ("error" in report) == (code != 0)
    if code:
        assert set(report["error"]) == {"code", "message"}


@given(documents)
@example(DEEP)
@example(NOT_UTF8)
@example(LONG_INT)
@settings(max_examples=100, deadline=None)
def test_library_raises_only_typed_errors(data):
    check_library(data)


@given(documents, st.sampled_from(["check", "dim"]))
@example(DEEP, "check")
@example(NOT_UTF8, "check")
@example(LONG_INT, "check")
@settings(max_examples=100, deadline=None)
def test_cli_reports_every_bad_document(data, command):
    check_cli(data, command)


def test_the_repros_are_syntax_errors(tmp_path):
    repros = [("deep", DEEP), ("not_utf8", NOT_UTF8)]
    if hasattr(sys, "get_int_max_str_digits"):  # Python 3.10.7 and later
        repros.append(("long_int", LONG_INT))
    for name, data in repros:
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", str(path)])
        assert code == 1
        assert json.loads(out.getvalue())["error"]["code"] == "syntax-error"
