import numpy as np
import pytest

from dpparse import io as dpio
from dpparse.core import Corpus, FrameMatrix, GoldAlignment, Segment, Segmentation


def test_frame_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    fm = FrameMatrix("utt", rng.normal(size=(7, 5)).astype(np.float32))
    path = tmp_path / "utt.dppf"
    dpio.write_frame_file(path, fm)
    back = dpio.read_frame_file(path, "utt")
    assert back.data.tobytes() == fm.data.tobytes()


def test_frame_file_bad_magic(tmp_path):
    path = tmp_path / "bad.dppf"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(dpio.FileFormatError, match="bad.dppf"):
        dpio.read_frame_file(path, "u")


def test_frame_file_truncated_payload(tmp_path):
    fm = FrameMatrix("utt", np.ones((4, 4), dtype=np.float32))
    path = tmp_path / "utt.dppf"
    dpio.write_frame_file(path, fm)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(dpio.FileFormatError, match="payload"):
        dpio.read_frame_file(path, "utt")


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


def test_segmentation_round_trip(tmp_path):
    seg = Segmentation(
        {
            "a": [Segment("a", 0, 2), Segment("a", 2, 3)],
            "b": [Segment("b", 0, 5)],
        }
    )
    path = tmp_path / "seg.tsv"
    dpio.write_segmentation(path, seg)
    assert dpio.read_segmentation(path) == seg
    # ms values on the 40ms grid are written as integers
    assert "\t80\t120" in path.read_text()


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


def test_triplet_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    a, b, x = (rng.normal(size=(10, 4)).astype(np.float32) for _ in range(3))
    path = tmp_path / "trip.dppt"
    dpio.write_triplets(path, a, b, x)
    a2, b2, x2 = dpio.read_triplets(path)
    assert np.array_equal(a, a2) and np.array_equal(b, b2) and np.array_equal(x, x2)


def test_triplet_bad_magic(tmp_path):
    path = tmp_path / "bad.dppt"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(dpio.FileFormatError, match="magic"):
        dpio.read_triplets(path)


@pytest.mark.parametrize(
    "line",
    ["u1\tabc\t80\n", "u1\t0\tinf\n", "u1\t80\t40\n", "u1\t40\t40\n", "u1\t-80\t40\n"],
    ids=["bad-time", "infinite-time", "inverted", "empty", "negative"],
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
