"""Cosine affinity, row-wise binarization and graph Laplacian construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .ingest import EmbeddingSequence, OverlapVector

# Entries within this distance of the row's p-th largest value count as tied
# with it and are kept. Mathematically equal similarities (duplicate vectors,
# symmetric mixtures) differ by ulps after dot products; an exact cutoff would
# split such classes by accident of column order.
TIE_EPS = 1e-9


@dataclass
class AffinityBundle:
    """Raw affinity with its binarized graph."""

    raw: np.ndarray
    p: int
    binarized: np.ndarray


def cosine_affinity(seq: EmbeddingSequence) -> np.ndarray:
    """Pairwise cosine similarity matrix of the segment embeddings.

    Each row is first scaled by the power of two that brings its largest
    component into [0.5, 1), so the norm neither over- nor underflows; the
    scaling is exact, and in-range rows normalize bit for bit as v / ||v||.

    Args:
        seq: embedding sequence; its vectors are nonzero.

    Returns:
        N x N symmetric matrix with entries in [-1, 1] and unit diagonal.
    """
    vecs = np.asarray(seq.vectors, dtype=float)
    _, exp = np.frexp(np.abs(vecs).max(axis=1))
    scaled = np.ldexp(vecs, -exp[:, None])
    unit = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    aff = unit @ unit.T
    aff = 0.5 * (aff + aff.T)
    np.fill_diagonal(aff, 1.0)
    return aff


def binarize(
    affinity: np.ndarray, p: int, overlap: OverlapVector | None = None
) -> np.ndarray:
    """Keep the top p values per row as 1, zero the rest, then symmetrize.

    Per row the cutoff is the p-th largest value; every entry tied with the
    cutoff (within TIE_EPS) is kept, so duplicate similarities are treated as
    one class and the result does not depend on column order. The averaged
    symmetrization (A_p + A_p^T) / 2 yields entries in {0, 0.5, 1}.

    Embeddings of overlapping segments are unreliable mixtures; letting them
    pick their neighbors among each other builds spurious mixture clusters.
    Rows flagged in ``overlap`` therefore select from single-speaker columns
    only, and get a doubled budget (2p, at most the number of such columns)
    because they carry evidence for two clusters. Without flags, or without
    any single-speaker column, every row is binarized plainly.

    Args:
        affinity: square similarity matrix.
        p: binarization factor, 1 <= p <= N; the diagonal counts toward p.
        overlap: optional per-row overlap flags.

    Returns:
        Symmetric binarized matrix with entries in {0, 0.5, 1}.
    """
    aff = np.asarray(affinity, dtype=float)
    n = aff.shape[0]
    if aff.ndim != 2 or aff.shape[1] != n:
        raise ContractError("affinity must be square")
    if not 1 <= p <= n:
        raise ContractError(f"binarization factor p={p} outside [1, {n}]")
    budget = np.full(n, p)
    if overlap is not None:
        if len(overlap) != n:
            raise ContractError("overlap vector length does not match affinity size")
        flagged = overlap.flags == 1
        n_single = n - int(flagged.sum())
        if 0 < n_single < n:
            aff = np.where(flagged[:, None] & flagged[None, :], -np.inf, aff)
            budget[flagged] = min(2 * p, n_single)
    return binarize_sorted(aff, np.sort(aff, axis=1)[:, ::-1], budget)


def binarize_sorted(
    values: np.ndarray, row_sorted: np.ndarray, budget: int | np.ndarray
) -> np.ndarray:
    """Top-``budget`` binarization of rows whose descending sort is given.

    ``row_sorted`` holds each row of ``values`` sorted in descending order,
    so one sort serves any number of budgets; masked entries are -inf and
    never kept. ``budget`` is one count for all rows or one per row.
    """
    cutoff = row_sorted[np.arange(values.shape[0]), np.asarray(budget) - 1]
    kept = (values >= cutoff[:, None] - TIE_EPS).astype(float)
    return 0.5 * (kept + kept.T)


def laplacian(binarized: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree vector and unnormalized Laplacian L = diag(d) - A.

    Args:
        binarized: symmetric nonnegative matrix (tolerance 1e-9).

    Returns:
        (degree, laplacian); rows of the Laplacian sum to zero and the matrix
        is positive semidefinite.
    """
    mat = np.asarray(binarized, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractError("binarized affinity must be square")
    if np.abs(mat - mat.T).max(initial=0.0) > 1e-9:
        raise ContractError("binarized affinity must be symmetric")
    if mat.size and mat.min() < 0:
        raise ContractError("binarized affinity must be nonnegative")
    degree = mat.sum(axis=1)
    lap = np.diag(degree) - mat
    return degree, lap


def build_bundle(
    affinity: np.ndarray, p: int, overlap: OverlapVector | None = None
) -> AffinityBundle:
    """Bundle the raw affinity with its binarized graph for one p."""
    return AffinityBundle(np.asarray(affinity, dtype=float), p, binarize(affinity, p, overlap))
