"""Overlap-aware speaker diarization by auto-tuned spectral clustering."""

from .affinity import binarize, cosine_affinity
from .errors import (
    ConfigError,
    ContractError,
    DiarcutError,
    EmptyReferenceError,
    InfeasiblePathError,
    NumericalError,
    ParseError,
)
from .ingest import (
    EmbeddingSequence,
    FramePosteriors,
    OverlapVector,
    SegmentSpan,
    Timeline,
    assignment_to_timeline,
    load_embeddings,
    load_overlap_flags,
    load_posteriors,
    load_rttm,
    save_embeddings,
    save_overlap_flags,
    save_posteriors,
    write_rttm,
)
from .overlap_decode import (
    DurationConfig,
    FrameLabels,
    frames_to_flags,
    viterbi,
)
from .pipeline import DiarizationConfig, DiarizationResult, diarize_embeddings
from .scoring import DerBreakdown, der_score
from .speaker_count import EigengapReport, estimate
from .spectral import (
    AssignmentMatrix,
    ContinuousSolution,
    continuous_solve,
    discretize_full,
    nms_assign,
    procrustes,
)
from .synth import SynthConfig, SynthResult, generate

__version__ = "0.1.0"
