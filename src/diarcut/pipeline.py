"""End-to-end diarization: affinity, speaker counting, spectral clustering.

With overlap flags available, the speaker count is estimated from the
single-speaker rows only (mixture embeddings distort the eigengap analysis)
and the graph is built with the overlap-aware binarization; without flags the
run degrades to classical single-label spectral diarization.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from . import affinity, speaker_count, spectral
from .errors import ConfigError, ContractError
from .ingest import EmbeddingSequence, OverlapVector, Timeline, assignment_to_timeline
from .speaker_count import EigengapReport
from .spectral import AssignmentMatrix, DiscretizeResult

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DiarizationConfig:
    p_min: int = 2
    p_max: int = 20
    max_speakers: int = 10

    def __post_init__(self):
        for name in ("p_min", "p_max", "max_speakers"):
            if not isinstance(value := getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.max_speakers < 1:
            raise ConfigError("max_speakers must be at least 1")
        if not 2 <= self.p_min <= self.p_max:
            raise ConfigError(f"need 2 <= p_min <= p_max, got {self.p_min}:{self.p_max}")


@dataclass
class DiarizationResult:
    """The assignment's rows follow the input; the discretization's, time order."""

    timeline: Timeline
    assignment: AssignmentMatrix
    report: EigengapReport
    discretization: DiscretizeResult

    @property
    def num_speakers(self) -> int:
        """Final cluster count; ``report.k_hat`` keeps the eigengap's choice."""
        return self.assignment.k


def diarize_embeddings(
    seq: EmbeddingSequence,
    overlap: OverlapVector | None = None,
    config: DiarizationConfig = DiarizationConfig(),
) -> DiarizationResult:
    """Cluster an embedding sequence into a speaker timeline.

    Counting normalizes its rows before all N are, so one set of unit rows is held at a time.

    Args:
        seq: validated embedding sequence.
        overlap: per-segment overlap flags; None means no overlaps.
        config: sweep bounds and speaker cap.

    Returns:
        DiarizationResult with the hypothesis timeline and diagnostics.

    Raises:
        ContractError: the overlap vector's length is not the segment count.
    """
    n = len(seq)
    if overlap is None:
        overlap = OverlapVector.zeros(n)
    if len(overlap) != n:
        raise ContractError(f"{len(overlap)} overlap flags for {n} segments")
    # Segments are clustered in time order (ties by flag, then vector), so the
    # line order of the input changes no rounding and names follow time.  The
    # vectors are sort keys only when two rows tie on start, end and flag.
    keys = np.array([overlap.flags, [span.end for span in seq.spans],
                     [span.start for span in seq.spans]])
    order = np.lexsort(keys)
    if (keys[:, order[1:]] == keys[:, order[:-1]]).all(axis=0).any():
        order = np.lexsort([*seq.vectors.T[::-1], *keys])
    overlap = OverlapVector(overlap.flags[order])
    singles = order[overlap.flags == 0]
    # Counting needs a meaningful sweep over the rows it sees; with too few
    # single-speaker rows fall back to all rows.
    count_singles = overlap.any() and singles.size > config.p_min + 1
    if overlap.any() and not count_singles:
        log.warning("only %d non-overlap segments; estimating the speaker count on all rows",
                    singles.size)
    report = speaker_count.estimate(
        affinity.normalize_rows(seq.vectors[singles if count_singles else order]),
        config.p_min, config.p_max, config.max_speakers)
    k = report.k_hat
    if overlap.any() and k < 2:
        # an overlapping segment means two concurrent speakers by definition;
        # a lone segment cannot form two clusters, so its flag is dropped
        if n >= 2:
            log.warning("overlap flags present; raising speaker count from 1 to 2")
            k = 2
        else:
            log.warning("one segment cannot carry two labels; dropping its overlap flag")
            overlap = OverlapVector.zeros(n)
    log.info("binarization factor p=%d, estimated speakers K=%d", report.p_hat, k)

    spans = [seq.spans[i] for i in order]
    graph = affinity.build_bundle(affinity.cosine_affinity(
        EmbeddingSequence(spans, seq.vectors[order])), report.p_hat, overlap).binarized
    result = spectral.discretize_full(spectral.continuous_solve(graph, k), overlap)
    timeline = assignment_to_timeline(result.assignment.matrix, spans)
    back = np.argsort(order)  # time order back to input order
    assignment = AssignmentMatrix(result.assignment.matrix[back],
                                  OverlapVector(overlap.flags[back]))
    return DiarizationResult(timeline, assignment, report, result)
