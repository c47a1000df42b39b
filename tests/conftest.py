from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from diarcut.ingest import Timeline


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_orthonormal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthonormal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_timeline(
    rng: np.random.Generator,
    n_speakers: int = 3,
    n_intervals: int = 8,
    horizon: float = 60.0,
    prefix: str = "spk",
) -> Timeline:
    """Random normalized timeline with millisecond-aligned boundaries."""
    entries = []
    for _ in range(n_intervals):
        spk = f"{prefix}{rng.integers(n_speakers)}"
        start = round(float(rng.uniform(0, horizon - 1.0)), 3)
        dur = round(float(rng.uniform(0.2, 5.0)), 3)
        entries.append((spk, start, start + dur))
    return Timeline.from_entries(entries)


def shifted(timeline: Timeline, offset: float) -> Timeline:
    """``timeline`` moved ``offset`` seconds along the time axis."""
    return Timeline(
        [(s, a + offset, b + offset) for s, a, b in timeline.entries], timeline.recording_id
    )


def interval_union_length(intervals) -> float:
    """Total length of a union of intervals; independent merge-free oracle."""
    points = sorted(intervals)
    total = 0.0
    cur_end = -np.inf
    for s, e in points:
        if s > cur_end:
            total += e - s
            cur_end = e
        elif e > cur_end:
            total += e - cur_end
            cur_end = e
    return total


def feasible_rows(k: int, flagged: bool):
    """All binary rows with the required sum (1, or 2 when flagged)."""
    import itertools

    rows = []
    for pick in itertools.combinations(range(k), 2 if flagged else 1):
        row = np.zeros(k, dtype=np.int8)
        row[list(pick)] = 1
        rows.append(row)
    return rows


def enumerate_assignments(n: int, k: int, flags):
    """Exhaustive feasible assignment matrices for small n."""
    import itertools

    options = [feasible_rows(k, bool(f)) for f in flags]
    for combo in itertools.product(*options):
        yield np.vstack(combo)


def block_affinity(sizes, off_value: float = 0.0) -> np.ndarray:
    """Exact block-constant affinity with all-ones blocks."""
    n = sum(sizes)
    a = np.full((n, n), off_value, dtype=float)
    offset = 0
    for m in sizes:
        a[offset : offset + m, offset : offset + m] = 1.0
        offset += m
    return a


def block_units(sizes) -> np.ndarray:
    """One-hot unit rows, one direction per block: their affinity is block_affinity(sizes)."""
    return np.repeat(np.eye(len(sizes)), sizes, axis=0)


def rttm_same_partition(path_a, path_b) -> bool:
    """Whether two RTTM files agree up to a bijection of speaker names.

    Each speaker's lines, with the name field removed, form one block; the
    files agree when they hold the same multiset of blocks.
    """

    def blocks(path):
        per_speaker: dict[str, set] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            fields = line.split()
            per_speaker.setdefault(fields[7], set()).add(tuple(fields[:7] + fields[8:]))
        return Counter(frozenset(lines) for lines in per_speaker.values())

    return blocks(path_a) == blocks(path_b)
