"""Segment metadata, embeddings, overlap flags, posteriors and RTTM I/O.

File formats (all plain UTF-8 text):

* embeddings: optional ``#dim D`` header, then one segment per line,
  ``recording_id<TAB>start<TAB>end<TAB>v1 v2 ... vD``; segments are used in
  file order, so segment i is data line i
* overlap flags: one ``0`` or ``1`` per line; flag line i belongs to
  embeddings data line i
* posteriors: ``#frame_shift S`` header, then one ``p_silence p_single
  p_overlap`` row per frame
* RTTM: standard 10-field ``SPEAKER`` records
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError

log = logging.getLogger(__name__)

# Same-speaker intervals closer than this are merged, so float dust from
# repeated window arithmetic cannot fragment a continuous talk spurt.
MERGE_GAP = 1e-6


@dataclass(frozen=True)
class SegmentSpan:
    """Time extent of one analysis window within a recording."""

    recording_id: str
    index: int
    start: float
    end: float

    def __post_init__(self):
        if not self.end > self.start:
            raise ContractError(
                f"segment {self.index} of {self.recording_id!r}: "
                f"end {self.end} must exceed start {self.start}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class EmbeddingSequence:
    """Per-segment embedding vectors with their time spans, in file order."""

    spans: list[SegmentSpan]
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ContractError("embedding vectors must form a 2-D matrix")
        if len(self.spans) != self.vectors.shape[0]:
            raise ContractError(
                f"{len(self.spans)} spans but {self.vectors.shape[0]} vectors"
            )
        bad = np.flatnonzero(~np.isfinite(self.vectors).all(axis=1))
        if bad.size:
            raise ContractError(f"segment {bad[0]} has a non-finite embedding component")
        bad = np.flatnonzero(~self.vectors.any(axis=1))
        if bad.size:
            raise ContractError(f"segment {bad[0]} has a zero-norm embedding")

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class OverlapVector:
    """Binary per-segment overlap decisions."""

    flags: np.ndarray

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=np.int8)
        if self.flags.ndim != 1:
            raise ContractError("overlap flags must be a vector")
        if not np.isin(self.flags, (0, 1)).all():
            raise ContractError("overlap flags must be 0 or 1")

    def __len__(self) -> int:
        return len(self.flags)

    @classmethod
    def zeros(cls, n: int) -> "OverlapVector":
        return cls(np.zeros(n, dtype=np.int8))

    def any(self) -> bool:
        return bool(self.flags.any())


class _PosteriorRowError(ContractError):
    """A posterior row breaks one of the rules of :class:`FramePosteriors`."""

    def __init__(self, row, problem: str):
        super().__init__(f"posterior row {row} {problem}")
        self.row = int(row)


@dataclass
class FramePosteriors:
    """T x 3 class posteriors, columns ordered (silence, single, overlap)."""

    recording_id: str
    frame_shift: float
    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if not (math.isfinite(self.frame_shift) and self.frame_shift > 0):
            raise ContractError("frame_shift must be positive and finite")
        if self.rows.ndim != 2 or self.rows.shape[1] != 3:
            raise ContractError("posterior rows must be T x 3")
        bad = np.flatnonzero(~np.isfinite(self.rows).all(axis=1))
        if bad.size:
            raise _PosteriorRowError(bad[0], "has a non-finite value")
        bad = np.flatnonzero((self.rows < 0).any(axis=1))
        if bad.size:
            raise _PosteriorRowError(bad[0], "has a negative value")
        sums = self.rows.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-4)
        if bad.size:
            raise _PosteriorRowError(bad[0], f"sums to {sums[bad[0]]:.6f}, expected 1")

    @property
    def num_frames(self) -> int:
        return self.rows.shape[0]


@dataclass
class Timeline:
    """Normalized (speaker, start, end) intervals for one recording.

    Entries are kept merged per speaker and sorted by (start, end, speaker);
    construct through :meth:`from_entries` unless the input is already
    normalized.
    """

    entries: list[tuple[str, float, float]] = field(default_factory=list)
    recording_id: str = "rec"

    @classmethod
    def from_entries(
        cls, entries, recording_id: str = "rec"
    ) -> "Timeline":
        for spk, start, end in entries:
            if not end > start:
                raise ContractError(
                    f"interval ({spk!r}, {start}, {end}) has non-positive duration"
                )
        return cls(_normalize(entries), recording_id)

    @property
    def speakers(self) -> list[str]:
        return sorted({spk for spk, _, _ in self.entries})

    def shifted(self, offset: float) -> "Timeline":
        return Timeline(
            [(s, a + offset, b + offset) for s, a, b in self.entries],
            self.recording_id,
        )


def _normalize(entries) -> list[tuple[str, float, float]]:
    per_speaker: dict[str, list[tuple[float, float]]] = {}
    for spk, start, end in entries:
        per_speaker.setdefault(spk, []).append((float(start), float(end)))
    merged: list[tuple[str, float, float]] = []
    for spk, ivs in per_speaker.items():
        ivs.sort()
        cur_s, cur_e = ivs[0]
        for s, e in ivs[1:]:
            if s - cur_e <= MERGE_GAP:
                cur_e = max(cur_e, e)
            else:
                merged.append((spk, cur_s, cur_e))
                cur_s, cur_e = s, e
        merged.append((spk, cur_s, cur_e))
    merged.sort(key=lambda t: (t[1], t[2], t[0]))
    return merged


def _lines(path: Path):
    """Yield (line number, text) of the non-blank lines of a UTF-8 file."""
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})")
            if line.strip():
                yield lineno, line


def _one_recording(path: Path, rec_ids: set[str]) -> str:
    """The one recording id of a file ("rec" if it names none)."""
    if len(rec_ids) > 1:
        raise ParseError(
            f"{path}: contains {len(rec_ids)} recording ids {sorted(rec_ids)}; "
            "split into one file per recording"
        )
    return next(iter(rec_ids), "rec")


# ---------------------------------------------------------------------------
# embeddings


def load_embeddings(path) -> EmbeddingSequence:
    """Parse an embeddings file into a validated sequence, in file order."""
    path = Path(path)
    header_dim: int | None = None
    records: list[tuple[str, float, float, np.ndarray]] = []
    for lineno, raw in _lines(path):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "dim":
                try:
                    header_dim = int(parts[1])
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad dim header {line!r}")
                continue
            raise ParseError(f"{path}:{lineno}: unrecognized header {line!r}")
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}"
            )
        rec, start_s, end_s, vec_s = fields
        try:
            start, end = float(start_s), float(end_s)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad time fields {start_s!r} {end_s!r}")
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ParseError(f"{path}:{lineno}: non-finite time")
        if not end > start:
            raise ParseError(
                f"{path}:{lineno}: non-positive duration ({start} .. {end})"
            )
        try:
            vec = np.array([float(v) for v in vec_s.split()], dtype=float)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad vector component")
        if vec.size == 0:
            raise ParseError(f"{path}:{lineno}: empty vector")
        if header_dim is not None and vec.size != header_dim:
            raise ParseError(
                f"{path}:{lineno}: vector has {vec.size} components, header says {header_dim}"
            )
        if records and vec.size != records[0][3].size:
            raise ParseError(
                f"{path}:{lineno}: vector has {vec.size} components, "
                f"previous rows have {records[0][3].size}"
            )
        if not np.isfinite(vec).all():
            raise ParseError(f"{path}:{lineno}: non-finite component")
        if not vec.any():
            raise ParseError(f"{path}:{lineno}: zero-norm vector")
        records.append((rec, start, end, vec))
    if not records:
        raise ParseError(f"{path}: no segments found")
    _one_recording(path, {r[0] for r in records})
    spans = [
        SegmentSpan(rec, i, start, end)
        for i, (rec, start, end, _) in enumerate(records)
    ]
    return EmbeddingSequence(spans, np.vstack([r[3] for r in records]))


def save_embeddings(seq: EmbeddingSequence, path) -> None:
    """Write a sequence in the embeddings format with round-trip precision."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"#dim {seq.dim}\n")
        for span, vec in zip(seq.spans, seq.vectors):
            comps = " ".join(repr(float(v)) for v in vec)
            fh.write(
                f"{span.recording_id}\t{span.start!r}\t{span.end!r}\t{comps}\n"
            )


# ---------------------------------------------------------------------------
# overlap flags


def load_overlap_flags(path, expected_length: int | None = None) -> OverlapVector:
    path = Path(path)
    flags: list[int] = []
    for lineno, raw in _lines(path):
        line = raw.strip()
        if line not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: expected 0 or 1, got {line!r}")
        flags.append(int(line))
    if expected_length is not None and len(flags) != expected_length:
        raise ParseError(
            f"{path}: {len(flags)} flags but {expected_length} segments expected"
        )
    return OverlapVector(np.array(flags, dtype=np.int8))


def save_overlap_flags(overlap: OverlapVector, path) -> None:
    Path(path).write_text(
        "".join(f"{int(f)}\n" for f in overlap.flags), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# posteriors


def load_posteriors(path) -> FramePosteriors:
    path = Path(path)
    frame_shift: float | None = None
    rows: list[list[float]] = []
    for lineno, raw in _lines(path):
        line = raw.strip()
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "frame_shift":
                try:
                    frame_shift = float(parts[1])
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad frame_shift header")
                continue
            raise ParseError(f"{path}:{lineno}: unrecognized header {line!r}")
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 posteriors, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad posterior value")
    if frame_shift is None:
        raise ParseError(f"{path}: missing '#frame_shift S' header")
    if not rows:
        raise ParseError(f"{path}: no posterior rows")
    try:
        return FramePosteriors("rec", frame_shift, np.array(rows))
    except _PosteriorRowError as exc:
        # every non-header line parsed as a row; find the bad one's line only now
        lineno = [n for n, line in _lines(path) if not line.strip().startswith("#")][exc.row]
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_posteriors(post: FramePosteriors, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"#frame_shift {post.frame_shift!r}\n")
        for row in post.rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# RTTM


def load_rttm(path) -> Timeline:
    """Read SPEAKER records into a normalized timeline.

    Non-SPEAKER record types are ignored; all SPEAKER lines must share one
    recording id.
    """
    path = Path(path)
    entries: list[tuple[str, float, float]] = []
    rec_ids: set[str] = set()
    for lineno, raw in _lines(path):
        fields = raw.split()
        if fields[0] != "SPEAKER":
            continue
        if len(fields) != 10:
            raise ParseError(
                f"{path}:{lineno}: SPEAKER record has {len(fields)} fields, expected 10"
            )
        try:
            onset = float(fields[3])
            dur = float(fields[4])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad onset/duration")
        if not dur > 0:
            raise ParseError(f"{path}:{lineno}: non-positive duration {dur}")
        end = onset + dur
        if not (math.isfinite(end) and end > onset):
            raise ParseError(f"{path}:{lineno}: bad onset/duration")
        rec_ids.add(fields[1])
        entries.append((fields[7], onset, end))
    return Timeline.from_entries(entries, _one_recording(path, rec_ids))


def write_rttm(timeline: Timeline, path) -> None:
    """Write one SPEAKER line per entry, sorted by (start, speaker)."""
    path = Path(path)
    ordered = sorted(timeline.entries, key=lambda t: (t[1], t[0]))
    with path.open("w", encoding="utf-8") as fh:
        for spk, start, end in ordered:
            fh.write(
                f"SPEAKER {timeline.recording_id} 1 {start:.3f} {end - start:.3f} "
                f"<NA> <NA> {spk} <NA> <NA>\n"
            )


def assignment_to_timeline(assignment, spans) -> Timeline:
    """Expand a binary assignment matrix into a speaker timeline.

    Each set bit (i, k) contributes the interval of span i; overlapping
    windows of the same speaker merge during normalization. Clusters are
    named ``spk0``, ``spk1``, ... by first segment (ties by the next differing
    row), so names follow the partition, not the column order.
    """
    matrix = np.asarray(getattr(assignment, "matrix", assignment))
    if matrix.shape[0] != len(spans):
        raise ContractError(
            f"assignment has {matrix.shape[0]} rows but {len(spans)} spans given"
        )
    # Each column's rank in lexicographic order from row 0 down, set bits first.
    packed = 255 - np.packbits(matrix != 0, axis=0)
    rank = np.argsort(np.lexsort(packed[::-1])) if matrix.size else []
    entries = []
    for i, span in enumerate(spans):
        for j in np.flatnonzero(matrix[i]):
            entries.append((f"spk{rank[j]}", span.start, span.end))
    recording_id = spans[0].recording_id if spans else "rec"
    return Timeline.from_entries(entries, recording_id)
