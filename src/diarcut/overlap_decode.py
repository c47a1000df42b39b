"""Duration-constrained Viterbi smoothing of frame-level overlap posteriors.

Each class (silence, single-speaker, overlap) expands into a left-to-right
chain of states: a mandatory prefix enforcing the minimum run duration,
followed by an extension region up to the maximum (or a self-looping tail
state when unbounded).  Exits lead only to entry states of permitted classes;
silence and overlap never touch, so every overlap run is framed by single-
speaker speech.  All arcs score zero in log space: the decoded path is the
highest-emission labeling that satisfies the constraints, and ties resolve
toward the lower state index (silence before single before overlap).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, InfeasiblePathError
from .ingest import FramePosteriors, OverlapVector, SegmentSpan

log = logging.getLogger(__name__)

SILENCE, SINGLE, OVERLAP = 0, 1, 2
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
        for name, lo, hi in (
            ("silence", self.min_silence, self.max_silence),
            ("single", self.min_single, self.max_single),
            ("overlap", self.min_overlap, self.max_overlap),
        ):
            if lo <= 0:
                raise ConfigError(f"min_{name} must be positive, got {lo}")
            if hi is not None and hi < lo:
                raise ConfigError(
                    f"max_{name}={hi} is below min_{name}={lo}"
                )
        for name, b in (
            ("silence", self.bias_silence),
            ("single", self.bias_single),
            ("overlap", self.bias_overlap),
        ):
            if b < 0:
                raise ConfigError(f"bias_{name} must be non-negative, got {b}")

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
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.labels.ndim != 1:
            raise ContractError("labels must be a vector")
        if self.labels.size and not np.isin(self.labels, (0, 1, 2)).all():
            raise ContractError("labels must be in {0, 1, 2}")
        if self.frame_shift <= 0:
            raise ContractError("frame_shift must be positive")

    def __len__(self) -> int:
        return len(self.labels)

    def runs(self) -> list[tuple[int, int, int]]:
        """Maximal runs as (class, first_frame, end_frame_exclusive)."""
        out = []
        lab = self.labels
        start = 0
        for t in range(1, len(lab) + 1):
            if t == len(lab) or lab[t] != lab[start]:
                out.append((int(lab[start]), start, t))
                start = t
        return out

    def class_intervals(self, cls: int) -> list[tuple[float, float]]:
        """Time intervals covered by the given class."""
        return [
            (s * self.frame_shift, e * self.frame_shift)
            for c, s, e in self.runs()
            if c == cls
        ]


@dataclass
class DurationHmm:
    """Expanded state graph encoding the run-length constraints."""

    frame_shift: float
    min_frames: tuple[int, int, int]
    max_frames: tuple[int | None, int | None, int | None]
    state_class: np.ndarray
    state_pos: np.ndarray
    entry_state: tuple[int, int, int]
    loop_states: np.ndarray
    final_mask: np.ndarray
    entry_candidates: dict[int, np.ndarray]

    @property
    def num_states(self) -> int:
        return len(self.state_class)


def _frames(seconds: float, frame_shift: float) -> int:
    """Frames needed to cover a duration; rounding absorbs float dust."""
    return math.ceil(round(seconds / frame_shift, 9))


def build_duration_hmm(cfg: DurationConfig, frame_shift: float) -> DurationHmm:
    """Expand the duration constraints into a decodable state graph.

    Args:
        cfg: run-length bounds; every minimum must be at least one frame.
        frame_shift: posterior frame period in seconds.

    Returns:
        DurationHmm whose states are laid out class-major (silence, single,
        overlap) so that index order realizes the tie-break order.
    """
    if frame_shift <= 0:
        raise ConfigError("frame_shift must be positive")
    min_frames = []
    max_frames = []
    for cls in (SILENCE, SINGLE, OVERLAP):
        lo, hi = cfg.bounds(cls)
        if lo < frame_shift:
            raise ConfigError(
                f"min_{CLASS_NAMES[cls]}={lo} is shorter than one frame ({frame_shift})"
            )
        m = _frames(lo, frame_shift)
        mx = None if hi is None else _frames(hi, frame_shift)
        if mx is not None and mx < m:
            raise ConfigError(
                f"{CLASS_NAMES[cls]}: max duration {hi} rounds below min {lo} "
                f"at frame shift {frame_shift}"
            )
        min_frames.append(m)
        max_frames.append(mx)

    state_class: list[int] = []
    state_pos: list[int] = []
    entry_state = []
    loop_states = []
    for cls in (SILENCE, SINGLE, OVERLAP):
        chain = min_frames[cls] if max_frames[cls] is None else max_frames[cls]
        entry_state.append(len(state_class))
        for pos in range(1, chain + 1):
            state_class.append(cls)
            state_pos.append(pos)
        if max_frames[cls] is None:
            loop_states.append(entry_state[cls] + min_frames[cls] - 1)

    state_class = np.array(state_class, dtype=np.int8)
    state_pos = np.array(state_pos, dtype=np.int32)
    mins = np.array(min_frames)[state_class]
    final_mask = state_pos >= mins

    # A state may exit exactly when its run already satisfies the minimum.
    entry_candidates = {}
    for cls in (SILENCE, SINGLE, OVERLAP):
        cands = [
            i
            for i in range(len(state_class))
            if state_class[i] in _ALLOWED_INTO[cls] and final_mask[i]
        ]
        entry_candidates[cls] = np.array(cands, dtype=np.int64)

    return DurationHmm(
        frame_shift,
        tuple(min_frames),
        tuple(max_frames),
        state_class,
        state_pos,
        tuple(entry_state),
        np.array(loop_states, dtype=np.int64),
        final_mask,
        entry_candidates,
    )


def viterbi(posteriors: FramePosteriors, cfg: DurationConfig) -> FrameLabels:
    """Most likely duration-feasible labeling of the posterior sequence.

    Emission score is log(bias_c * p_c(t)); transitions are free or
    forbidden.  Raises InfeasiblePathError when no labeling satisfies the
    constraints (e.g. the sequence is shorter than every minimum duration).
    """
    hmm = build_duration_hmm(cfg, posteriors.frame_shift)
    t_len = posteriors.num_frames
    s_len = hmm.num_states
    with np.errstate(divide="ignore"):
        log_emis = np.log(posteriors.rows * cfg.biases()[None, :])

    bp_dtype = np.uint16 if s_len <= np.iinfo(np.uint16).max else np.int64
    backptr = np.zeros((t_len, s_len), dtype=bp_dtype)

    advance_dst = np.flatnonzero(hmm.state_pos > 1)
    entry_items = sorted(hmm.entry_candidates.items(), key=lambda kv: hmm.entry_state[kv[0]])

    score = np.full(s_len, -np.inf)
    for cls in (SILENCE, SINGLE, OVERLAP):
        score[hmm.entry_state[cls]] = 0.0
    score = score + log_emis[0][hmm.state_class]

    for t in range(1, t_len):
        new = np.full(s_len, -np.inf)
        new[advance_dst] = score[advance_dst - 1]
        backptr[t, advance_dst] = advance_dst - 1
        for s in hmm.loop_states:
            # Prefer the lower-index predecessor (the advancing one) on ties.
            if score[s] > new[s]:
                new[s] = score[s]
                backptr[t, s] = s
        for cls, cands in entry_items:
            entry = hmm.entry_state[cls]
            if cands.size == 0:
                continue
            vals = score[cands]
            best = int(np.argmax(vals))
            if vals[best] > new[entry]:
                new[entry] = vals[best]
                backptr[t, entry] = cands[best]
        score = new + log_emis[t][hmm.state_class]
        if not np.isfinite(score).any():
            raise InfeasiblePathError(
                f"no feasible labeling survives frame {t} of {t_len}"
            )

    final_scores = np.where(hmm.final_mask, score, -np.inf)
    if not np.isfinite(final_scores).any():
        raise InfeasiblePathError(
            f"no labeling of {t_len} frames satisfies the duration constraints"
        )
    state = int(np.argmax(final_scores))
    states = np.empty(t_len, dtype=np.int64)
    states[-1] = state
    for t in range(t_len - 1, 0, -1):
        state = int(backptr[t, state])
        states[t - 1] = state
    result = FrameLabels(hmm.state_class[states], posteriors.frame_shift)
    check_labels(result, cfg)
    return result


def check_labels(labels: FrameLabels, cfg: DurationConfig) -> None:
    """Assert the duration and adjacency invariants of a decoded labeling."""
    runs = labels.runs()
    shift = labels.frame_shift
    for cls, start, end in runs:
        lo, hi = cfg.bounds(cls)
        m = _frames(lo, shift)
        n_frames = end - start
        if n_frames < m:
            raise ContractError(
                f"{CLASS_NAMES[cls]} run of {n_frames} frames violates minimum {m}"
            )
        if hi is not None and n_frames > _frames(hi, shift):
            raise ContractError(
                f"{CLASS_NAMES[cls]} run of {n_frames} frames violates maximum"
            )
    for (c1, _, _), (c2, _, _) in zip(runs, runs[1:]):
        if {c1, c2} == {SILENCE, OVERLAP}:
            raise ContractError("silence and overlap runs are adjacent")


def frames_to_flags(labels: FrameLabels, spans: list[SegmentSpan]) -> OverlapVector:
    """Flag each span whose majority lies inside overlap-labeled time.

    A span counts as overlapping when at least half of its duration
    intersects overlap regions; time past the end of the label grid counts
    as silence (logged).
    """
    intervals = labels.class_intervals(OVERLAP)
    horizon = len(labels) * labels.frame_shift
    flags = np.zeros(len(spans), dtype=np.int8)
    uncovered = 0
    for i, span in enumerate(spans):
        if span.end > horizon + 1e-9:
            uncovered += 1
        cover = 0.0
        for s, e in intervals:
            cover += max(0.0, min(span.end, e) - max(span.start, s))
        if cover + 1e-9 >= 0.5 * span.duration:
            flags[i] = 1
    if uncovered:
        log.warning(
            "%d spans extend past the %d-frame label grid; "
            "uncovered time treated as silence",
            uncovered,
            len(labels),
        )
    return OverlapVector(flags)
