"""End-to-end diarization: affinity, speaker counting, spectral clustering.

With overlap flags available, the speaker count is estimated from the
single-speaker rows only (mixture embeddings distort the eigengap analysis)
and the graph is built with the overlap-aware binarization; without flags the
run degrades to classical single-label spectral diarization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import affinity, speaker_count, spectral
from .ingest import EmbeddingSequence, OverlapVector, Timeline, assignment_to_timeline
from .speaker_count import EigengapReport
from .spectral import AssignmentMatrix, DiscretizeResult

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DiarizationConfig:
    p_min: int = 2
    p_max: int = 20
    max_speakers: int = 10
    seed: int = 0


@dataclass
class DiarizationResult:
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

    Args:
        seq: validated embedding sequence.
        overlap: per-segment overlap flags; None means no overlaps.
        config: sweep bounds, speaker cap and discretization seed.

    Returns:
        DiarizationResult with the hypothesis timeline and diagnostics.
    """
    n = len(seq)
    if overlap is None:
        overlap = OverlapVector.zeros(n)
    raw = affinity.cosine_affinity(seq)

    singles = np.flatnonzero(overlap.flags == 0)
    # Counting needs a meaningful sweep over the rows it sees; with too few
    # single-speaker rows fall back to the full matrix.
    use_submatrix = overlap.any() and singles.size > config.p_min + 1
    if overlap.any() and not use_submatrix:
        log.warning(
            "only %d non-overlap segments; estimating the speaker count "
            "on the full affinity",
            singles.size,
        )
    report = speaker_count.estimate(raw, config.p_min, config.p_max, config.max_speakers,
                                    singles if use_submatrix else None)
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

    graph = affinity.build_bundle(raw, report.p_hat, overlap).binarized
    solution = spectral.continuous_solve(graph, k)
    result = spectral.discretize_full(solution, overlap, config.seed)
    timeline = assignment_to_timeline(result.assignment.matrix, seq.spans)
    return DiarizationResult(timeline, result.assignment, report, result)
