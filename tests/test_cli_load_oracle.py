"""`cli.load_documents` against a frozen copy of its two-pass predecessor.

The reference below tried one `json.loads` over the whole file and, when that
failed, parsed the file again line by line. The one-pass loader must read every
file the reference accepts to the same documents, and give the same error for
an empty or whitespace-only file. Where the two differ on purpose, a test below
pins the new reading.
"""

import json
import random
from pathlib import Path
from typing import Any

import pytest

import weierstrass.cli as cli
from weierstrass.cli import load_documents
from weierstrass.errors import ParseError


# --- the reference: a whole-file decode, then a per-line re-parse --------------


def reference_load_documents(path: str) -> list[Any]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        docs = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}")
        if not docs:
            raise ParseError(f"{path}: no JSON documents found")
        return docs
    return doc if isinstance(doc, list) else [doc]


# --- file shapes built from a seed ------------------------------------------

SEED = 20261019
DRAWS = 6


def _document(rng: random.Random) -> dict:
    n = rng.randint(2, 6)
    doc = {
        "roots": [[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(n)],
        "initial": [[rng.uniform(-2, 2), rng.randint(-3, 3)] for _ in range(n)],
        "p": rng.choice(["inf", 1, 2.5]),
        "method": rng.choice(["plain", "sor_wz", "sor_new", "sor_fixed"]),
    }
    if rng.random() < 0.5:
        doc["max_iter"] = rng.randint(1, 100)
    return doc


def _lines(docs: list) -> list[str]:
    return [json.dumps(doc) for doc in docs]


def _shapes(rng: random.Random) -> dict[str, str]:
    """One file text per shape the reference reads; each draw is fresh."""
    docs = [_document(rng) for _ in range(rng.randint(2, 5))]
    one = docs[0]

    def blanks(gap: str) -> str:
        return gap.join(_lines(docs)) + "\n"

    return {
        "jsonl": blanks("\n"),
        "jsonl-no-final-newline": "\n".join(_lines(docs)),
        "blank-lines": blanks("\n\n"),
        "whitespace-only-lines": blanks("\n  \t \n"),
        "form-feed-lines": blanks("\n\f\n"),
        "crlf": "\r\n".join(_lines(docs)) + "\r\n",
        "padded-lines": "".join(f" \t{line}  \n" for line in _lines(docs)),
        "leading-and-trailing-blank-lines": "\n \n" + blanks("\n") + "\n\t\n",
        "single-line-document": json.dumps(one),
        "document-over-several-lines": json.dumps(one, indent=2) + "\n",
        "document-over-several-lines-crlf": json.dumps(one, indent=1).replace("\n", "\r\n"),
        "array-on-one-line": json.dumps(docs) + "\n",
        "array-over-several-lines": json.dumps(docs, indent=2) + "\n",
        "empty-array": "[]\n",
        "array-per-line": "\n".join(json.dumps([doc]) for doc in docs) + "\n",
        "bare-scalar": rng.choice(["3", "-2.5e3", '"text"', "null", "true"]) + "\n",
        "nan-and-infinity-literals": json.dumps(dict(one, h=float("nan"), tol_e=float("inf")))
        + "\n"
        + json.dumps(dict(one, leading=float("-inf")))
        + "\n",
        "unicode-whitespace-lines": blanks("\n\u00a0\u2003\n"),
    }


def _cases():
    rng = random.Random(SEED)
    for draw in range(DRAWS):
        for shape, text in _shapes(rng).items():
            yield f"{shape}-{draw}", text


CASES = list(_cases())


def _same(a: Any, b: Any) -> bool:
    """Equal documents, NaN included, with int and float told apart."""
    return json.dumps(a) == json.dumps(b)


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "problems.jsonl"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("name, text", CASES, ids=[name for name, _ in CASES])
def test_every_file_the_reference_reads_gives_the_same_documents(tmp_path, name, text):
    path = _write(tmp_path, text)
    expected = reference_load_documents(path)
    assert _same(load_documents(path), expected)


@pytest.mark.parametrize("text", ["", "\n", "  \n\n\t \n", "\r\n\f\n"])
def test_empty_and_whitespace_only_files_give_the_same_error(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises(ParseError) as reference:
        reference_load_documents(path)
    with pytest.raises(ParseError) as actual:
        load_documents(path)
    assert str(actual.value) == str(reference.value) == f"{path}: no JSON documents found"


def test_each_document_is_decoded_once(tmp_path, monkeypatch):
    calls = []

    class CountingDecoder(json.JSONDecoder):
        def raw_decode(self, s, idx=0):
            calls.append(idx)
            return super().raw_decode(s, idx)

    def no_whole_text_decode(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(cli, "_DECODER", CountingDecoder())
    monkeypatch.setattr(json, "loads", no_whole_text_decode)
    docs = [{"k": i} for i in range(5)]
    path = _write(tmp_path, "\n".join(map(json.dumps, docs)) + "\n")
    assert load_documents(path) == docs
    assert len(calls) == len(docs)


# --- shapes read differently on purpose --------------------------------------

DOCS = [
    {"roots": [[1, 0], [-1, 0]], "initial": [[2, 0], [-2, 0]]},
    {"roots": [[0, 1], [0, -1]], "initial": [[0, 2], [0, -2]], "p": 2},
]


@pytest.mark.parametrize(
    "text",
    [
        "\n".join(json.dumps(doc, indent=2) for doc in DOCS) + "\n",
        " ".join(json.dumps(doc) for doc in DOCS) + "\n",
    ],
    ids=["pretty-printed-documents", "two-documents-on-one-line"],
)
def test_newly_accepted_shapes_are_batches(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises(ParseError, match=":1: invalid JSON: "):
        reference_load_documents(path)
    assert load_documents(path) == DOCS


def test_one_array_among_non_json_whitespace_is_a_batch(tmp_path):
    # JSON's own whitespace is space, tab, CR and LF. Around a form feed the
    # reference's whole-file decode failed, and its line pass returned the
    # array as one document, which parse_problem then rejected as not an
    # object. Exactly one array is a batch whatever whitespace surrounds it.
    path = _write(tmp_path, json.dumps(DOCS) + "\n\f\n")
    assert reference_load_documents(path) == [DOCS]
    assert load_documents(path) == DOCS


def test_nesting_too_deep_for_the_decoder_is_a_parse_error(tmp_path):
    # The C decoder raises RecursionError at about 1,000 levels. The reference
    # let it escape; the loader names the line where the document starts.
    path = _write(tmp_path, json.dumps(DOCS[0]) + "\n\n" + "[" * 2000 + "]" * 2000 + "\n")
    with pytest.raises(RecursionError):
        reference_load_documents(path)
    with pytest.raises(ParseError) as actual:
        load_documents(path)
    assert str(actual.value) == f"{path}:3: invalid JSON: nested too deeply"
