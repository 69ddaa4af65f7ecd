import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpparse import io as dpio
from dpparse.core import Corpus, FrameMatrix, GoldAlignment, Segmentation

_BOUNDS = st.lists(st.integers(1, 30), min_size=1, max_size=8).map(
    lambda lengths: tuple(accumulate(lengths, initial=0))
)


def test_frame_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    fm = FrameMatrix("utt", rng.normal(size=(7, 5)).astype(np.float32))
    path = tmp_path / "utt.dppf"
    dpio.write_frame_file(path, fm)
    back = dpio.read_frame_file(path, "utt")
    assert back.data.tobytes() == fm.data.tobytes()


# Each corruption maps a valid frame file's bytes to a broken one, and names
# the error message it must raise.
_CORRUPTIONS = {
    "bad-magic": (lambda data: b"EVIL" + data[4:], "bad frame-file magic"),
    "wrong-version": (
        lambda data: data[:4] + (2).to_bytes(4, "little") + data[8:],
        "unsupported version 2",
    ),
    "truncated": (lambda data: data[:-4], r"payload is \d+ bytes, expected \d+"),
}


@pytest.mark.parametrize(
    "corruption", list(_CORRUPTIONS), ids=[f"frames-{c}" for c in _CORRUPTIONS]
)
def test_binary_header_errors_name_file(tmp_path, corruption):
    corrupt, message = _CORRUPTIONS[corruption]
    path = tmp_path / "frames.bin"
    dpio.write_frame_file(path, FrameMatrix("u", np.ones((4, 3), dtype=np.float32)))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(dpio.FileFormatError, match=re.escape(f"{path}: ") + message):
        dpio.read_frame_file(path, "u")


def test_manifest_and_corpus_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    utts = [FrameMatrix(f"u{i}", rng.normal(size=(4 + i, 3)).astype(np.float32)) for i in range(3)]
    (tmp_path / "frames").mkdir()
    entries = []
    for u in utts:
        rel = f"frames/{u.utterance_id}.dppf"
        dpio.write_frame_file(tmp_path / rel, u)
        entries.append((u.utterance_id, rel))
    dpio.write_manifest(tmp_path / "manifest.tsv", entries)
    corpus = dpio.load_corpus(tmp_path / "manifest.tsv")
    assert [u.utterance_id for u in corpus] == ["u0", "u1", "u2"]
    assert corpus.utterance("u2").n_blocks == 6


def test_manifest_duplicate_id_names_both_lines(tmp_path):
    dpio.write_frame_file(tmp_path / "a.dppf", FrameMatrix("u1", np.ones((3, 2))))
    manifest = tmp_path / "dup.tsv"
    manifest.write_text("u1\ta.dppf\nu2\ta.dppf\n\nu1\ta.dppf\n")
    message = f"{manifest}:4: u1: duplicate utterance id (first on line 1)"
    with pytest.raises(dpio.FileFormatError, match=re.escape(message)):
        dpio.load_corpus(manifest)


@pytest.mark.parametrize("line", ["u2\n", "u2\ta.dppf\tx\n"], ids=["one", "three"])
def test_manifest_line_without_two_fields_names_file_and_line(tmp_path, line):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("u1\ta.dppf\n" + line)
    message = f"{manifest}:2: expected 2 fields"
    with pytest.raises(dpio.FileFormatError, match=re.escape(message)):
        dpio.read_manifest(manifest)


@pytest.mark.parametrize(
    "line, message",
    [
        ("u1\tWORD\t80\n", "expected >= 4 fields"),
        ("u1\tSYLLABLE\t80\t160\n", "unknown record 'SYLLABLE'"),
    ],
    ids=["three-fields", "unknown-kind"],
)
def test_bad_alignment_line_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "align.tsv"
    path.write_text("u1\tWORD\t0\t80\n" + line, encoding="utf-8")
    message = f"{path}:2: {message}"
    with pytest.raises(dpio.FileFormatError, match=re.escape(message)):
        dpio.read_alignment(path)


def test_alignment_round_trip(tmp_path):
    gold = GoldAlignment(
        words={"u0": [(0.0, 80.0), (80.0, 200.0)]},
        phones={"u0": [(0.0, 40.0, "a"), (40.0, 80.0, "b"), (80.0, 200.0, None)]},
    )
    path = tmp_path / "align.tsv"
    dpio.write_alignment(path, gold)
    back = dpio.read_alignment(path)
    assert back.words == gold.words
    assert back.phones == gold.phones
    assert gold.validate() == []


@given(
    st.dictionaries(
        st.text("abu0_", min_size=1, max_size=6), _BOUNDS, max_size=5
    )
)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_segmentation_round_trip(tmp_path, per_utterance):
    seg = Segmentation(per_utterance)
    path = tmp_path / "seg.tsv"
    dpio.write_segmentation(path, seg)
    back = dpio.read_segmentation(path)
    assert back == seg
    assert list(back.items()) == list(seg.items())  # utterance order kept
    # ms values on the 40ms grid are written as integers
    lines = path.read_text().splitlines()
    assert len(lines) == seg.n_tokens
    assert all(re.fullmatch(r"[^\t]+\t\d+\t\d+", line) for line in lines)


def test_segmentation_lines_of_an_utterance_may_be_apart(tmp_path):
    path = tmp_path / "seg.tsv"
    path.write_text("a\t80\t200\nb\t0\t40\na\t0\t80\n", encoding="utf-8")
    seg = dpio.read_segmentation(path)
    assert list(seg.items()) == [("a", (0, 2, 5)), ("b", (0, 1))]


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("u1\t0\t80\nu1\t40\t160\n", 2),
        ("u1\t0\t80\nu1\t120\t160\n", 2),
        ("u1\t40\t80\nu1\t80\t160\n", 1),
        ("u1\t0\t80\nu2\t0\t40\nu1\t0\t80\n", 3),
    ],
    ids=["overlap", "gap", "late-start", "duplicate"],
)
def test_segmentation_that_does_not_tile_names_file_line_and_utterance(
    tmp_path, text, lineno
):
    path = tmp_path / "seg.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(
        dpio.FileFormatError, match=rf"invalid segmentation .*seg\.tsv:{lineno}: u1: "
    ):
        dpio.read_segmentation(path)


def test_text_corpus_round_trip(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b a c\nc c\n", encoding="utf-8")
    corpus = dpio.load_text_corpus(path)
    assert corpus.mode == "discrete"
    assert [u.utterance_id for u in corpus] == ["u000000", "u000001"]
    assert list(corpus.utterance("u000000").symbols) == [0, 1, 0, 2]
    assert corpus.alphabet == ("a", "b", "c")
    out = tmp_path / "out.txt"
    dpio.write_text_corpus(out, corpus)
    assert out.read_text() == path.read_text()


@pytest.mark.parametrize("blank", ["\n", " \t \n"], ids=["empty", "whitespace"])
def test_text_corpus_blank_line_names_file_and_line(tmp_path, blank):
    path = tmp_path / "c.txt"
    path.write_text("a b\n" + blank + "c\n", encoding="utf-8")
    with pytest.raises(dpio.FileFormatError, match=re.escape(f"{path}:2: blank line")):
        dpio.load_text_corpus(path)


@pytest.mark.parametrize(
    "line",
    [
        "u1\tabc\t80\n", "u1\t0\tinf\n", "u1\t80\t40\n", "u1\t40\t40\n",
        "u1\t-80\t40\n", "u1\t40\n",
    ],
    ids=["bad-time", "infinite-time", "inverted", "empty", "negative", "two-fields"],
)
def test_bad_segmentation_line_names_file_and_line(tmp_path, line):
    path = tmp_path / "seg.tsv"
    path.write_text("u1\t0\t40\n" + line, encoding="utf-8")
    with pytest.raises(dpio.FileFormatError, match=r"seg\.tsv:2: "):
        dpio.read_segmentation(path)


@pytest.mark.parametrize("kind", ["WORD", "PHONE"])
@pytest.mark.parametrize("start, end", [("80", "40"), ("80", "80")])
def test_alignment_interval_must_end_after_start(tmp_path, kind, start, end):
    path = tmp_path / "align.tsv"
    path.write_text(f"u1\tWORD\t0\t80\nu1\t{kind}\t{start}\t{end}\n", encoding="utf-8")
    with pytest.raises(dpio.FileFormatError, match=r"align\.tsv:2: end .* not after"):
        dpio.read_alignment(path)
