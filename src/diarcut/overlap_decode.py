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
Intelligence 174, 2010).  A run of class c over frames [s, t] scores its entry
score, the best run of a permitted class ending at s - 1, plus a difference of
prefix sums of c's emissions.  Silence and overlap runs enter from single, and
single runs from the better of silence and overlap (silence on ties), so each
frame's entry scores are worked out once.  The best run of c ending at t is
then a sliding-window maximum over s, so time is O(T) whatever the bounds.
Each class is a step function called once a frame: a run's key, its entry
score less the prefix sum before it, queues until the run reaches the minimum,
then joins a monotonic deque of keys and starts; an unbounded class keeps one
key, its window never dropping its front.  Besides the T x 3 log emissions,
read in place, the decoder holds per frame a run start per class (12 B) and an
entry class (1 B); a class's window and key queue hold at most its max and min
frames of entries.  Ties resolve as in the equivalent chain graph with
class-major states: the lower class first (silence, single, overlap), then the
shorter run, except that an unbounded class with a one-frame minimum keeps its
running run over a fresh entry.  These rules apply to exact ties; prefix sums
round differently from frame-by-frame sums, so near-ties may resolve
differently from the chain graph.
"""

from __future__ import annotations

import logging
import math
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


@dataclass(frozen=True)
class DurationConfig:
    """Run-length bounds in seconds per class; a max of None is unbounded."""

    min_single: float = 0.03
    max_single: float | None = 10.0
    min_overlap: float = 0.1
    max_overlap: float | None = 5.0
    min_silence: float = 0.01
    max_silence: float | None = None

    def __post_init__(self):
        for cls, name in enumerate(CLASS_NAMES):
            lo, hi = self.bounds(cls)
            if not (math.isfinite(lo) and lo > 0):
                raise ConfigError(f"min_{name} must be positive and finite, got {lo}")
            if hi is not None and not (math.isfinite(hi) and hi >= lo):
                raise ConfigError(
                    f"max_{name}={hi} must be finite and at least min_{name}={lo}"
                )

    def bounds(self, cls: int) -> tuple[float, float | None]:
        return (
            (self.min_silence, self.max_silence),
            (self.min_single, self.max_single),
            (self.min_overlap, self.max_overlap),
        )[cls]


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


def _lane(m: int, mx: int | None, starts: array):
    """Step function ``step(t, entry, e)``: the best run of m to mx frames ending at frame t,
    of log emission e, where a run entering at t scores ``entry``; its start goes to starts[t]."""
    neg = -math.inf
    if m > len(starts):  # a minimum past the last frame is never met: queue no keys
        return lambda t, entry, e: neg
    pending, window = deque(), deque()  # keys of runs shorter than m; (key, start) pairs
    total, kept, first = 0.0, neg, 0  # prefix sum of finite emissions; best key, its start
    fresh = m > 1  # whether a fresh run wins a tie in an unbounded class

    def step(t, entry, e):
        nonlocal total, kept, first
        if e == neg:
            pending.clear()
            window.clear()
            kept = neg
            return neg
        pending.append(entry - total)
        total += e
        k = pending.popleft() if len(pending) == m else neg  # its run just reached m
        if mx is None:
            if k > kept or fresh and k == kept:
                kept, first = k, t - m + 1
        else:
            if k > neg:  # shorter runs win ties
                while window and window[-1][0] <= k:
                    window.pop()
                window.append((k, t - m + 1))
            if window and window[0][1] <= t - mx:
                window.popleft()
            if not window:
                return neg
            kept, first = window[0]
        starts[t] = first
        return total + kept

    return step


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
    log_emis = np.asfortranarray(log_emis, dtype=float)  # columns read in place
    t_len = len(log_emis)
    # Per frame t: the class a single run starting at t enters from, and per
    # class the start of the best run ending at t.
    came_from = array("b", bytes(t_len))
    start = [array("i", bytes(4 * t_len)) for _ in CLASSES]
    silence, single, overlap = (_lane(m, mx, start[c]) for c, (m, mx) in zip(CLASSES, bounds))
    # Best run of each class ending before t; the empty prefix precedes any.
    best_sil = best_sing = best_ovl = 0.0
    for t, e_sil, e_sing, e_ovl in zip(range(t_len), *map(memoryview, log_emis.T)):
        # Entry scores, once per frame: silence and overlap take the best
        # single run, single the better of silence and overlap, silence on ties.
        came_from[t] = came = OVERLAP if best_ovl > best_sil else SILENCE
        entry = best_ovl if came else best_sil
        best_sil, best_sing, best_ovl = (
            silence(t, best_sing, e_sil), single(t, entry, e_sing), overlap(t, best_sing, e_ovl)
        )
    best = [best_sil, best_sing, best_ovl]
    labels = np.empty(t_len, dtype=np.int8)
    c = int(np.argmax(best))
    if best[c] == -math.inf:
        raise InfeasiblePathError(
            f"no labeling of {t_len} frames satisfies the duration constraints"
        )
    t = t_len - 1
    while t >= 0:
        s = start[c][t]
        labels[s : t + 1] = c
        c, t = came_from[s] if c == SINGLE else SINGLE, s - 1
    return labels


def viterbi(posteriors: FramePosteriors, cfg: DurationConfig) -> FrameLabels:
    """Most likely duration-feasible labeling of the posterior sequence.

    Emission score is log p_c(t).  To weight the classes by w_c, scale the
    posterior columns and renormalize each row: the renormalization adds one
    constant per frame to all three scores log(w_c * p_c(t)), so the decoded
    path is the one those weighted scores give.  Raises
    InfeasiblePathError when no labeling satisfies the constraints (e.g. the
    sequence is shorter than every minimum duration).
    """
    bounds = run_bounds(cfg, posteriors.frame_shift)
    with np.errstate(divide="ignore"):
        labels = decode(np.log(posteriors.rows, order="F"), bounds)
    result = FrameLabels(labels, posteriors.frame_shift)
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
        if SINGLE not in (c1, c2):  # silence and overlap touch
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
