"""Duration-constrained Viterbi smoothing of frame-level overlap posteriors.

Each frame is labeled silence, single-speaker or overlap.  A labeling is
feasible when every maximal run of a class lasts between that class's
minimum and maximum and silence and overlap runs never touch, so every
overlap run is framed by single-speaker speech.  Bounds are given in seconds
and round up to whole frames of the posteriors' frame shift, at least one
frame, so the defaults work at any frame shift.  The decoded labeling is the
feasible one with the highest summed log emission.

The decoder works on runs, not on a duration-expanded state graph (an
explicit-duration HMM; S.-Z. Yu, "Hidden semi-Markov models", Artificial
Intelligence 174, 2010).  A run of class c over frames [s, t] scores its
entry score, the best run of a permitted class ending at s - 1, plus a
difference of prefix sums of c's emissions.  The best run of c ending at t
is therefore a sliding-window maximum over s, kept in a monotonic deque, so
time and memory are O(T) whatever the bounds.  Ties resolve as in the
equivalent chain graph with class-major states: the lower class first
(silence, single, overlap), then the shorter run, except that an unbounded
class with a one-frame minimum keeps its running run over a fresh entry.
These rules apply to exactly equal scores; scores built from prefix sums
round differently from frame-by-frame sums, so labelings whose scores differ
only by rounding may resolve differently from the chain graph.
"""

from __future__ import annotations

import logging
import math
import operator
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, InfeasiblePathError
from .ingest import FramePosteriors, OverlapVector, SegmentSpan

log = logging.getLogger(__name__)

SILENCE, SINGLE, OVERLAP = 0, 1, 2
CLASSES = (SILENCE, SINGLE, OVERLAP)
CLASS_NAMES = ("silence", "single", "overlap")

# Exits permitted into each class; overlap reaches silence only through
# single-speaker speech and vice versa.
_ALLOWED_INTO = {
    SILENCE: (SINGLE,),
    SINGLE: (SILENCE, OVERLAP),
    OVERLAP: (SINGLE,),
}


@dataclass(frozen=True)
class DurationConfig:
    """Run-length bounds in seconds and per-class posterior bias weights."""

    min_single: float = 0.03
    max_single: float | None = 10.0
    min_overlap: float = 0.1
    max_overlap: float | None = 5.0
    min_silence: float = 0.01
    max_silence: float | None = None
    bias_silence: float = 1.0
    bias_single: float = 1.0
    bias_overlap: float = 1.0

    def __post_init__(self):
        for cls, name in enumerate(CLASS_NAMES):
            lo, hi = self.bounds(cls)
            if not (math.isfinite(lo) and lo > 0):
                raise ConfigError(f"min_{name} must be positive and finite, got {lo}")
            if hi is not None and not (math.isfinite(hi) and hi >= lo):
                raise ConfigError(
                    f"max_{name}={hi} must be finite and at least min_{name}={lo}"
                )
            bias = self.biases()[cls]
            if not (math.isfinite(bias) and bias >= 0):
                raise ConfigError(f"bias_{name} must be finite and non-negative, got {bias}")

    def bounds(self, cls: int) -> tuple[float, float | None]:
        return (
            (self.min_silence, self.max_silence),
            (self.min_single, self.max_single),
            (self.min_overlap, self.max_overlap),
        )[cls]

    def biases(self) -> np.ndarray:
        return np.array([self.bias_silence, self.bias_single, self.bias_overlap])


@dataclass
class FrameLabels:
    """Decoded per-frame class labels on a fixed frame grid."""

    labels: np.ndarray
    frame_shift: float

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ContractError("labels must be a vector")
        if labels.size and not np.isin(labels, (0, 1, 2)).all():
            raise ContractError("labels must be in {0, 1, 2}")
        self.labels = labels.astype(np.int8, copy=False)
        if not (math.isfinite(self.frame_shift) and self.frame_shift > 0):
            raise ContractError("frame_shift must be positive and finite")

    def __len__(self) -> int:
        return len(self.labels)

    def runs(self) -> list[tuple[int, int, int]]:
        """Maximal runs as (class, first_frame, end_frame_exclusive)."""
        lab = self.labels
        if not lab.size:
            return []
        cuts = (np.flatnonzero(lab[1:] != lab[:-1]) + 1).tolist()
        starts = [0] + cuts
        return list(zip(lab[starts].tolist(), starts, cuts + [len(lab)]))

    def class_intervals(self, cls: int) -> list[tuple[float, float]]:
        """Time intervals covered by the given class."""
        return [
            (s * self.frame_shift, e * self.frame_shift)
            for c, s, e in self.runs()
            if c == cls
        ]


def _frames(seconds: float, frame_shift: float) -> int:
    """Whole frames covering a duration, at least one; rounding absorbs float dust."""
    frames = round(seconds / frame_shift, 9)
    if not math.isfinite(frames):
        raise ConfigError(f"{seconds} s spans too many frames of {frame_shift} s")
    return max(1, math.ceil(frames))


def run_bounds(
    cfg: DurationConfig, frame_shift: float
) -> tuple[tuple[int, int | None], ...]:
    """Run-length bounds in frames: (min, max or None) per class."""
    if not (math.isfinite(frame_shift) and frame_shift > 0):
        raise ConfigError(f"frame_shift must be positive and finite, got {frame_shift}")
    return tuple(
        (_frames(lo, frame_shift), None if hi is None else _frames(hi, frame_shift))
        for lo, hi in map(cfg.bounds, CLASSES)
    )


def decode(log_emis: np.ndarray, bounds) -> np.ndarray:
    """Best feasible labeling of a T x 3 log-emission matrix, as int8 labels.

    Args:
        log_emis: per-frame log emission of each class; -inf forbids the
            class at that frame.
        bounds: (min, max or None) run length in frames per class, as from
            :func:`run_bounds`.

    Raises:
        InfeasiblePathError: no labeling satisfies the bounds.
    """
    log_emis = np.asarray(log_emis, dtype=float)
    t_len = len(log_emis)
    neg = -math.inf
    # Per class and frame t: the class a run starting at t enters from, and
    # the start of the best run ending at t.
    came_from = [array("b", bytes(t_len)) for _ in CLASSES]
    start = [array("i", bytes(4 * t_len)) for _ in CLASSES]
    lanes = []
    for c, (m, mx) in zip(CLASSES, bounds):
        # Shorter runs win ties, except in an unbounded class with a
        # one-frame minimum, which keeps its running run over a fresh entry.
        beaten = operator.lt if mx is None and m == 1 else operator.le
        emis = array("d", log_emis[:, c].tobytes())
        # The entry score of a run starting at t minus the prefix sum of the
        # class's emissions before t.
        key = array("d", bytes(8 * t_len))
        lanes.append(
            (c, m, mx, beaten, _ALLOWED_INTO[c], deque(), emis, key, came_from[c], start[c])
        )
    total = [0.0, 0.0, 0.0]  # prefix sums of each class's finite emissions
    blocked = [-1, -1, -1]  # last frame each class may not cover
    # Score of the best run of each class ending before frame t; the empty
    # prefix may precede any class.
    best = [0.0, 0.0, 0.0]
    for t in range(t_len):
        last = best[:]
        for c, m, mx, beaten, sources, window, emis, key, came, starts in lanes:
            e = emis[t]
            if e == neg:
                blocked[c] = t
                window.clear()
                best[c] = neg
                continue
            # Enter from the best permitted class, the lowest one on ties.
            score, prev = neg, 0
            for p in sources:
                if last[p] > score:
                    score, prev = last[p], p
            key[t] = score - total[c]
            came[t] = prev
            total[c] += e
            s = t - m + 1  # a run starting at s just reached the minimum
            if s > blocked[c] and key[s] > neg:
                k = key[s]
                while window and beaten(window[-1][0], k):
                    window.pop()
                # An unbounded window never drops its front, so a run queued
                # behind it could never win.
                if mx is not None or not window:
                    window.append((k, s))
            if mx is not None and window and window[0][1] <= t - mx:
                window.popleft()
            if window:
                k, s = window[0]
                best[c] = total[c] + k
                starts[t] = s
            else:
                best[c] = neg

    labels = np.empty(t_len, dtype=np.int8)
    c = int(np.argmax(best))
    if best[c] == neg:
        raise InfeasiblePathError(
            f"no labeling of {t_len} frames satisfies the duration constraints"
        )
    t = t_len - 1
    while t >= 0:
        s = start[c][t]
        labels[s : t + 1] = c
        c, t = came_from[c][s], s - 1
    return labels


def viterbi(posteriors: FramePosteriors, cfg: DurationConfig) -> FrameLabels:
    """Most likely duration-feasible labeling of the posterior sequence.

    Emission score is log(bias_c * p_c(t)).  Raises InfeasiblePathError when
    no labeling satisfies the constraints (e.g. the sequence is shorter than
    every minimum duration).
    """
    bounds = run_bounds(cfg, posteriors.frame_shift)
    with np.errstate(divide="ignore"):
        log_emis = np.log(posteriors.rows * cfg.biases()[None, :])
    result = FrameLabels(decode(log_emis, bounds), posteriors.frame_shift)
    check_labels(result, cfg)
    return result


def check_labels(labels: FrameLabels, cfg: DurationConfig) -> None:
    """Assert the duration and adjacency invariants of a decoded labeling."""
    runs = labels.runs()
    bounds = run_bounds(cfg, labels.frame_shift)
    for cls, start, end in runs:
        lo, hi = bounds[cls]
        n_frames = end - start
        if n_frames < lo:
            raise ContractError(
                f"{CLASS_NAMES[cls]} run of {n_frames} frames violates minimum {lo}"
            )
        if hi is not None and n_frames > hi:
            raise ContractError(
                f"{CLASS_NAMES[cls]} run of {n_frames} frames violates maximum {hi}"
            )
    for (c1, _, _), (c2, _, _) in zip(runs, runs[1:]):
        if c1 not in _ALLOWED_INTO[c2]:
            raise ContractError(f"{CLASS_NAMES[c1]} run followed by {CLASS_NAMES[c2]} run")


def frames_to_flags(labels: FrameLabels, spans: list[SegmentSpan]) -> OverlapVector:
    """Flag each span whose majority lies inside overlap-labeled time.

    A span counts as overlapping when at least half of its duration
    intersects overlap regions; time past the end of the label grid counts
    as silence (logged).  A span's overlap time is F(end) - F(start): the
    running overlap time F(t), overlap time before t, is piecewise linear
    with knots at the overlap runs' first and last instants, so interpolating
    it at both span ends takes O(spans + runs) time and memory.
    """
    runs = labels.class_intervals(OVERLAP)
    starts = np.array([span.start for span in spans], dtype=float)
    ends = np.array([span.end for span in spans], dtype=float)
    cover = np.zeros(len(spans))
    if runs:
        knots = np.ravel(runs)
        totals = np.cumsum([e - s for s, e in runs])
        running = np.concatenate(([0.0], np.repeat(totals, 2)[:-1]))
        cover = np.interp(ends, knots, running) - np.interp(starts, knots, running)
    horizon = len(labels) * labels.frame_shift
    uncovered = np.count_nonzero(ends > horizon + 1e-9)
    if uncovered:
        log.warning(
            "%d spans extend past the %d-frame label grid; "
            "uncovered time treated as silence",
            uncovered,
            len(labels),
        )
    return OverlapVector(cover + 1e-9 >= 0.5 * (ends - starts))
