"""Synthetic conversations for end-to-end testing without corpora or models.

Speakers are unit-sphere centroids with a minimum pairwise angle; each
single-speaker segment perturbs its centroid with Gaussian noise, each
overlapping segment perturbs the normalized midpoint of two distinct
centroids.  Segments follow the standard 1.5 s window / 0.75 s stride grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ingest import EmbeddingSequence, OverlapVector, SegmentSpan, Timeline

WINDOW = 1.5
STRIDE = 0.75
MAX_REJECTION_ATTEMPTS = 100_000


@dataclass(frozen=True)
class SynthConfig:
    n_speakers: int
    n_segments: int
    dim: int = 16
    overlap_fraction: float = 0.0
    noise_sigma: float = 0.0
    min_centroid_angle: float = 45.0
    recording_id: str = "synth"
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 1:
            raise ConfigError("n_speakers must be at least 1")
        if self.dim < 2:
            raise ConfigError("dim must be at least 2")
        if self.n_segments < 1:
            raise ConfigError("n_segments must be at least 1")
        if not 0 <= self.overlap_fraction < 1:
            raise ConfigError("overlap_fraction must lie in [0, 1)")
        if self.overlap_fraction > 0 and self.n_speakers < 2:
            raise ConfigError("overlaps require at least 2 speakers")
        if not 0 <= self.noise_sigma <= 1e100:  # beyond, a noisy vector's norm can overflow
            raise ConfigError(f"noise_sigma must lie in [0, 1e100], got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SynthResult:
    embeddings: EmbeddingSequence
    overlap: OverlapVector
    reference: Timeline
    labels: list[tuple[int, ...]]
    centroids: np.ndarray


def _sample_centroids(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    max_cos = np.cos(np.radians(cfg.min_centroid_angle))
    centroids: list[np.ndarray] = []
    for _ in range(MAX_REJECTION_ATTEMPTS):
        v = rng.standard_normal(cfg.dim)
        v /= np.linalg.norm(v)
        if all(abs(float(v @ c)) <= max_cos for c in centroids):
            centroids.append(v)
        if len(centroids) == cfg.n_speakers:
            return np.array(centroids)
    raise ConfigError(
        f"could not place {cfg.n_speakers} centroids with pairwise angle "
        f">= {cfg.min_centroid_angle} deg in dim {cfg.dim} "
        f"({MAX_REJECTION_ATTEMPTS} attempts)"
    )


def generate(cfg: SynthConfig) -> SynthResult:
    """Generate embeddings, oracle overlap flags, and the reference timeline.

    Deterministic for a fixed config: the same seed reproduces the output
    bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    centroids = _sample_centroids(cfg, rng)
    n = cfg.n_segments
    k = cfg.n_speakers

    n_overlap = int(round(cfg.overlap_fraction * n))
    flags = np.zeros(n, dtype=np.int8)
    if n_overlap:
        flags[rng.choice(n, size=n_overlap, replace=False)] = 1

    # Balanced speaker allocation for the single-speaker segments keeps every
    # speaker represented whenever N >= K.
    pool = np.tile(np.arange(k), n // k + 1)[:n]
    rng.shuffle(pool)

    vectors = np.zeros((n, cfg.dim))
    labels: list[tuple[int, ...]] = []
    for i in range(n):
        if flags[i]:
            a, b = rng.choice(k, size=2, replace=False)
            base = 0.5 * (centroids[a] + centroids[b])
            labels.append(tuple(sorted((int(a), int(b)))))
        else:
            base = centroids[pool[i]]
            labels.append((int(pool[i]),))
        v = base + cfg.noise_sigma * rng.standard_normal(cfg.dim)
        vectors[i] = v / np.linalg.norm(v)

    spans = [
        SegmentSpan(cfg.recording_id, i, STRIDE * i, STRIDE * i + WINDOW)
        for i in range(n)
    ]
    entries = [
        (f"spk{s}", span.start, span.end)
        for span, lab in zip(spans, labels)
        for s in lab
    ]
    return SynthResult(
        EmbeddingSequence(spans, vectors),
        OverlapVector(flags),
        Timeline.from_entries(entries, cfg.recording_id),
        labels,
        centroids,
    )
