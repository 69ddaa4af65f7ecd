"""Readers and writers for every on-disk format.

Binary formats are little-endian with a 4-byte magic and a u32 version;
text formats are UTF-8 and tab-separated.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from dpparse.core import (
    Corpus,
    FrameMatrix,
    GoldAlignment,
    Segment,
    Segmentation,
    SymbolSequence,
    block_to_ms,
    ms_to_end_block,
    ms_to_start_block,
)

FRAME_MAGIC = b"DPPF"
TRIPLET_MAGIC = b"DPPT"
FORMAT_VERSION = 1


class FileFormatError(Exception):
    """A file failed structural validation; the message names the file."""


# ---------------------------------------------------------------------------
# frame matrices and manifests

def write_frame_file(path, frames: FrameMatrix) -> None:
    data = np.ascontiguousarray(frames.data, dtype="<f4")
    with open(path, "wb") as f:
        f.write(FRAME_MAGIC)
        f.write(struct.pack("<III", FORMAT_VERSION, frames.n_blocks, frames.dim))
        f.write(data.tobytes())


def read_frame_file(path, utterance_id: str) -> FrameMatrix:
    path = Path(path)
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16 or header[:4] != FRAME_MAGIC:
            raise FileFormatError(f"{path}: bad frame-file magic")
        version, n_blocks, dim = struct.unpack("<III", header[4:])
        if version != FORMAT_VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")
        payload = f.read()
    expected = n_blocks * dim * 4
    if len(payload) != expected:
        raise FileFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(n_blocks, dim)
    return FrameMatrix(utterance_id, data)


def write_manifest(path, entries: list[tuple[str, str]]) -> None:
    """Write `utterance_id<TAB>relative frame path` lines."""
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, rel in entries:
            f.write(f"{utt_id}\t{rel}\n")


def read_manifest(path) -> list[tuple[str, Path]]:
    path = Path(path)
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FileFormatError(f"{path}:{lineno}: expected 2 fields")
            entries.append((parts[0], path.parent / parts[1]))
    return entries


def load_corpus(manifest_path, pair_20ms: bool = False) -> Corpus:
    """Load a continuous corpus from a manifest of frame files."""
    from dpparse.core import pair_frames

    utterances = []
    for utt_id, frame_path in read_manifest(manifest_path):
        fm = read_frame_file(frame_path, utt_id)
        if pair_20ms:
            fm = pair_frames(fm.data, utt_id)
        utterances.append(fm)
    return Corpus(utterances, mode="continuous")


# ---------------------------------------------------------------------------
# discrete text corpora

def write_text_corpus(path, corpus: Corpus) -> None:
    alphabet = corpus.alphabet
    with open(path, "w", encoding="utf-8") as f:
        for utt in corpus.utterances:
            symbols = (
                [alphabet[s] for s in utt.symbols] if alphabet else
                [str(int(s)) for s in utt.symbols]
            )
            f.write(" ".join(symbols) + "\n")


def load_text_corpus(path) -> Corpus:
    """Load a discrete corpus: one utterance per line, space-separated symbols.

    Utterance ids are assigned by line order (u000000, u000001, ...); symbol
    strings map to integer ids in order of first occurrence.
    """
    path = Path(path)
    symbol_ids: dict[str, int] = {}
    utterances = []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            tokens = line.split()
            ids = [symbol_ids.setdefault(t, len(symbol_ids)) for t in tokens]
            utterances.append(SymbolSequence(f"u{i:06d}", np.array(ids, dtype="<i4")))
    alphabet = tuple(sorted(symbol_ids, key=symbol_ids.get))
    return Corpus(utterances, mode="discrete", alphabet=alphabet)


# ---------------------------------------------------------------------------
# alignments

def write_alignment(path, gold: GoldAlignment) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, words in gold.words.items():
            for s, e in words:
                f.write(f"{utt_id}\tWORD\t{_fmt_ms(s)}\t{_fmt_ms(e)}\n")
            for p in gold.phones.get(utt_id, []):
                s, e, label = p
                if label is None:
                    f.write(f"{utt_id}\tPHONE\t{_fmt_ms(s)}\t{_fmt_ms(e)}\n")
                else:
                    f.write(f"{utt_id}\tPHONE\t{_fmt_ms(s)}\t{_fmt_ms(e)}\t{label}\n")


def read_alignment(path) -> GoldAlignment:
    path = Path(path)
    gold = GoldAlignment()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 4:
                raise FileFormatError(f"{path}:{lineno}: expected >= 4 fields")
            utt_id, kind, start, end = parts[:4]
            s, e = _times(path, lineno, start, end)
            if not s < e:
                raise FileFormatError(f"{path}:{lineno}: end {end} not after {start}")
            if kind == "WORD":
                gold.words.setdefault(utt_id, []).append((s, e))
            elif kind == "PHONE":
                label = parts[4] if len(parts) > 4 else None
                gold.phones.setdefault(utt_id, []).append((s, e, label))
            else:
                raise FileFormatError(f"{path}:{lineno}: unknown record {kind!r}")
    for intervals in gold.words.values():
        intervals.sort()
    for intervals in gold.phones.values():
        intervals.sort()
    return gold


# ---------------------------------------------------------------------------
# segmentations

def write_segmentation(path, segmentation: Segmentation) -> None:
    """One token per line: utterance id, start ms, end ms (block grid)."""
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, segs in segmentation.items():
            for seg in segs:
                f.write(
                    f"{utt_id}\t{_fmt_ms(block_to_ms(seg.start))}"
                    f"\t{_fmt_ms(block_to_ms(seg.end))}\n"
                )


def read_segmentation(path) -> Segmentation:
    path = Path(path)
    per_utt: dict[str, list[Segment]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FileFormatError(f"{path}:{lineno}: expected 3 fields")
            utt_id, start, end = parts
            s, e = _times(path, lineno, start, end)
            s, e = ms_to_start_block(s), ms_to_end_block(e)
            if not 0 <= s < e:
                raise FileFormatError(f"{path}:{lineno}: bad block interval [{s}, {e})")
            per_utt.setdefault(utt_id, []).append(Segment(utt_id, s, e))
    seg = Segmentation()
    for utt_id, segs in per_utt.items():
        seg.set_utterance(utt_id, sorted(segs, key=lambda s: s.start))
    return seg


def _times(path: Path, lineno: int, start: str, end: str) -> tuple[float, float]:
    try:
        s, e = float(start), float(end)
    except ValueError:
        s = e = math.nan
    if not (math.isfinite(s) and math.isfinite(e)):
        raise FileFormatError(f"{path}:{lineno}: bad time value")
    return s, e


def _fmt_ms(ms: float) -> str:
    return str(int(ms)) if float(ms).is_integer() else f"{ms:.3f}"


# ---------------------------------------------------------------------------
# ABX triplets

def write_triplets(path, a: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    a, b, x = (np.ascontiguousarray(m, dtype="<f4") for m in (a, b, x))
    if not (a.shape == b.shape == x.shape) or a.ndim != 2:
        raise ValueError("a, b, x must share shape (n_triplets, dim)")
    n, dim = a.shape
    stacked = np.stack([a, b, x], axis=1)  # (n, 3, dim)
    with open(path, "wb") as f:
        f.write(TRIPLET_MAGIC)
        f.write(struct.pack("<III", FORMAT_VERSION, n, dim))
        f.write(np.ascontiguousarray(stacked, dtype="<f4").tobytes())


def read_triplets(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    path = Path(path)
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16 or header[:4] != TRIPLET_MAGIC:
            raise FileFormatError(f"{path}: bad triplet-file magic")
        version, n, dim = struct.unpack("<III", header[4:])
        if version != FORMAT_VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")
        payload = f.read()
    expected = n * 3 * dim * 4
    if len(payload) != expected:
        raise FileFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    stacked = np.frombuffer(payload, dtype="<f4").reshape(n, 3, dim)
    return stacked[:, 0], stacked[:, 1], stacked[:, 2]


# ---------------------------------------------------------------------------
# reports

def report_lines(report) -> list[str]:
    """Tab-separated key/value lines plus one JSON summary line."""
    pairs = report.as_dict()
    lines = [f"{k}\t{v}" for k, v in pairs.items()]
    lines.append("SUMMARY\t" + json.dumps(pairs, sort_keys=True))
    return lines


def write_report(path, report) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in report_lines(report):
            f.write(line + "\n")
