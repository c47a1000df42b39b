"""Segment metadata, embeddings, overlap flags, posteriors and RTTM I/O.

File formats (all plain UTF-8 text; blank lines are skipped):

* embeddings: one segment per line,
  ``recording_id<TAB>start<TAB>end<TAB>v1 v2 ... vD``; segments are used in
  file order, so segment i is data line i; the recording id is one
  whitespace-free RTTM field; optional ``#dim D`` header
* overlap flags: one ``0`` or ``1`` per line; flag line i belongs to
  embeddings data line i
* posteriors: ``#frame_shift S`` header and one ``p_silence p_single
  p_overlap`` row per frame
* RTTM: standard 10-field ``SPEAKER`` records

A file has at most one header; it may stand anywhere and holds for every row.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError

log = logging.getLogger(__name__)

# Same-speaker intervals closer than this are merged, so float dust from
# repeated window arithmetic cannot fragment a continuous talk spurt.
MERGE_GAP = 1e-6


class RowError(ContractError):
    """A record breaks a rule of its type; ``row`` is the record's index."""

    def __init__(self, row, problem: str):
        super().__init__(problem)
        self.row = int(row)


@dataclass(frozen=True)
class SegmentSpan:
    """Time extent of one analysis window within a recording."""

    recording_id: str
    index: int
    start: float
    end: float

    def __post_init__(self):
        if self.recording_id.split() != [self.recording_id]:
            problem = "recording id is not one whitespace-free RTTM field"
        elif not (math.isfinite(self.start) and math.isfinite(self.end - self.start)):
            problem = f"non-finite time or duration ({self.start} .. {self.end})"
        elif self.end - self.start < 0.0005:  # RTTM's three decimals would write 0.000
            problem = f"duration under 0.5 ms ({self.start} .. {self.end})"
        else:
            return
        raise RowError(self.index, f"segment {self.index} of {self.recording_id!r}: {problem}")

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
        for i, span in enumerate(self.spans):
            if span.recording_id != self.spans[0].recording_id:
                raise RowError(i, f"segment {i} is of recording {span.recording_id!r}, not "
                                  f"{self.spans[0].recording_id!r}; use one file per recording")
        bad = np.flatnonzero(~np.isfinite(self.vectors).all(axis=1))
        if bad.size:
            raise RowError(bad[0], f"segment {bad[0]} has a non-finite embedding component")
        bad = np.flatnonzero(~self.vectors.any(axis=1))
        if bad.size:
            raise RowError(bad[0], f"segment {bad[0]} has a zero-norm embedding")
        if not math.isfinite(2 * sum(span.duration for span in self.spans)):  # two labels a span at most
            raise RowError(len(self.spans) - 1, "the segments' speaker time overflows float64")

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
        flags = np.asarray(self.flags)
        if flags.ndim != 1:
            raise ContractError("overlap flags must be a vector")
        if not np.isin(flags, (0, 1)).all():
            raise ContractError("overlap flags must be 0 or 1")
        self.flags = flags.astype(np.int8, copy=False)

    def __len__(self) -> int:
        return len(self.flags)

    @classmethod
    def zeros(cls, n: int) -> "OverlapVector":
        return cls(np.zeros(n, dtype=np.int8))

    def any(self) -> bool:
        return bool(self.flags.any())


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
            raise RowError(bad[0], f"posterior row {bad[0]} has a non-finite value")
        bad = np.flatnonzero((self.rows < 0).any(axis=1))
        if bad.size:
            raise RowError(bad[0], f"posterior row {bad[0]} has a negative value")
        sums = self.rows.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-4)
        if bad.size:
            raise RowError(bad[0], f"posterior row {bad[0]} sums to {sums[bad[0]]:.6f}, expected 1")

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


class _Reader:
    """The non-blank lines of a UTF-8 file, read one at a time.

    Iterating yields the data lines. A ``#<header> value`` line is the
    file's one optional header; ``value`` holds its value converted by
    ``kind``. ``lines[i]`` is the file line of data line i.
    """

    def __init__(self, path, header: str | None = None, kind=float):
        self.path, self.header, self.kind = Path(path), header, kind
        self.lineno, self.value, self.header_line = 0, None, None
        self.lines = array("l")

    def __iter__(self):
        with self.path.open("rb") as fh:
            for self.lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise self.error(f"not UTF-8 text ({exc.reason})")
                text = line.strip()
                if self.header and text.startswith("#"):
                    self._read_header(text)
                elif text:
                    self.lines.append(self.lineno)
                    yield line

    def _read_header(self, line: str) -> None:
        parts = line[1:].split()
        if len(parts) != 2 or parts[0] != self.header:
            raise self.error(f"unrecognized header {line!r}")
        if self.header_line is not None:
            raise self.error(f"second header {line!r}; line {self.header_line} has the first")
        try:
            self.value = self.kind(parts[1])
        except ValueError:
            raise self.error(f"bad {self.header} header {line!r}")
        self.header_line = self.lineno

    def error(self, problem: str, lineno: int | None = None) -> ParseError:
        return ParseError(f"{self.path}:{lineno or self.lineno}: {problem}")

    def failure(self, exc: ContractError) -> ParseError:
        """A record type's error at the line of its row, or else of the header."""
        return self.error(str(exc), self.lines[exc.row] if isinstance(exc, RowError)
                          else self.header_line)


# ---------------------------------------------------------------------------
# embeddings


def load_embeddings(path) -> EmbeddingSequence:
    """Parse an embeddings file into a validated sequence, in file order."""
    reader = _Reader(path, "dim", int)
    spans: list[SegmentSpan] = []
    vectors: list[np.ndarray] = []
    try:
        for line in reader:
            fields = line.split("\t")
            if len(fields) != 4:
                raise reader.error(f"expected 4 tab-separated fields, got {len(fields)}")
            rec, start_s, end_s, vec_s = fields
            try:
                start, end = float(start_s), float(end_s)
            except ValueError:
                raise reader.error(f"bad time fields {start_s!r} {end_s!r}")
            try:
                vec = np.array(vec_s.split(), dtype=float)
            except ValueError:
                raise reader.error("bad vector component")
            if vectors and vec.size != vectors[0].size:
                raise reader.error(f"vector has {vec.size} components, "
                                   f"previous rows have {vectors[0].size}")
            spans.append(SegmentSpan(rec, len(spans), start, end))
            vectors.append(vec)
        if not spans:
            raise ParseError(f"{reader.path}: no segments found")
        if reader.value not in (None, vectors[0].size):
            raise reader.error(f"header says {reader.value} components, rows have "
                               f"{vectors[0].size}", reader.header_line)
        return EmbeddingSequence(spans, np.vstack(vectors))
    except ContractError as exc:
        raise reader.failure(exc) from exc


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
    reader = _Reader(path)
    flags: list[int] = []
    for line in reader:
        line = line.strip()
        if line not in ("0", "1"):
            raise reader.error(f"expected 0 or 1, got {line!r}")
        flags.append(int(line))
    if expected_length is not None and len(flags) != expected_length:
        raise ParseError(f"{reader.path}: {len(flags)} flags but "
                         f"{expected_length} segments expected")
    return OverlapVector(np.array(flags, dtype=np.int8))


def save_overlap_flags(overlap: OverlapVector, path) -> None:
    Path(path).write_text(
        "".join(f"{int(f)}\n" for f in overlap.flags), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# posteriors


def load_posteriors(path) -> FramePosteriors:
    reader = _Reader(path, "frame_shift", float)
    values = array("d")
    try:
        for line in reader:
            parts = line.split()
            if len(parts) != 3:
                raise reader.error(f"expected 3 posteriors, got {len(parts)}")
            try:
                values.extend([float(v) for v in parts])
            except ValueError:
                raise reader.error("bad posterior value")
        if reader.value is None:
            raise ParseError(f"{reader.path}: missing '#frame_shift S' header")
        if not values:
            raise ParseError(f"{reader.path}: no posterior rows")
        return FramePosteriors("rec", reader.value, np.frombuffer(values).reshape(-1, 3))
    except ContractError as exc:
        raise reader.failure(exc) from exc


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
    reader = _Reader(path)
    entries: list[tuple[str, float, float]] = []
    rec_ids: set[str] = set()
    for line in reader:
        fields = line.split()
        if fields[0] != "SPEAKER":
            continue
        if len(fields) != 10:
            raise reader.error(f"SPEAKER record has {len(fields)} fields, expected 10")
        try:
            onset = float(fields[3])
            dur = float(fields[4])
        except ValueError:
            raise reader.error("bad onset/duration")
        end = onset + dur
        if not (math.isfinite(end) and end > onset):
            raise reader.error("bad onset/duration")
        rec_ids.add(fields[1])
        entries.append((fields[7], onset, end))
    if len(rec_ids) > 1:
        raise ParseError(
            f"{reader.path}: contains {len(rec_ids)} recording ids {sorted(rec_ids)}; "
            "split into one file per recording"
        )
    return Timeline.from_entries(entries, next(iter(rec_ids), "rec"))


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


def assignment_to_timeline(assignment: np.ndarray, spans) -> Timeline:
    """Expand a binary assignment matrix into a speaker timeline.

    Each set bit (i, k) contributes the interval of span i; overlapping
    windows of the same speaker merge during normalization. Clusters are
    named ``spk0``, ``spk1``, ... by first segment (ties by the next differing
    row), so names follow the partition, not the column order.
    """
    matrix = np.asarray(assignment)
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
