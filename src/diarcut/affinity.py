"""Cosine affinity, row-wise binarization, Laplacians and large-graph Lanczos."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .ingest import EmbeddingSequence, OverlapVector

# Entries within this distance of the row's p-th largest value count as tied
# with it and are kept. Mathematically equal similarities (duplicate vectors,
# symmetric mixtures) differ by ulps after dot products; an exact cutoff would
# split such classes by accident of column order.
TIE_EPS = 1e-9

# Graphs of this many rows or more are CSR with Lanczos spectra; below, dense
# LAPACK is faster (counting sweeps crossed near N = 700; 2-core x86 VM).
SPARSE_MIN_N = 700

# Lanczos basis size for the ARPACK solves; 32-48 timed alike, while 24,
# about ARPACK's own default for k = 11, made sweeps up to 1.4 times slower.
ARPACK_NCV = 36

# Seed of the fixed ARPACK start vector. The natural all-ones start lies in
# the Laplacian's null space, so a random one is drawn, the same every call.
ARPACK_SEED = 0


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


def binarize(affinity: np.ndarray, p: int, overlap: OverlapVector | None = None):
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
        Symmetric binarized graph with entries in {0, 0.5, 1}: a dense array
        below SPARSE_MIN_N rows, a CSR matrix from there on.
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
    return next(binarize_sweep(aff, [budget]))


def binarize_sweep(values: np.ndarray, budgets):
    """Top-``budget`` binarizations of ``values``, one graph per budget in turn.

    A budget is one count for all rows or one per row; masked -inf entries are
    never kept. One sort per row serves every budget: a row keeps a prefix of
    its descending order, found in a window of the sorted row that widens until
    no prefix reaches its end. Dense graphs sort the values and keep the entries
    at least the prefix's last value; CSR graphs argsort, gather each window's
    values through the order and take the prefix's columns from it.
    """
    n = values.shape[0]
    rows = np.arange(n)
    if n < SPARSE_MIN_N:
        row_sorted, order = np.sort(values, axis=1)[:, ::-1], None
    else:
        order = np.argsort(values, axis=1)[:, ::-1]
    for budget in map(np.asarray, budgets):
        width = int(budget.max())
        while True:
            width = min(2 * width, n)
            window = (row_sorted[:, :width] if order is None
                      else np.take_along_axis(values, order[:, :width], axis=1))
            kept = window >= (window[rows, budget - 1] - TIE_EPS)[:, None]
            if width == n or not kept[:, -1].any():
                break
        counts = kept.sum(axis=1)
        if order is None:
            dense = (values >= row_sorted[rows, counts - 1][:, None]).astype(float)
            yield 0.5 * (dense + dense.T)
            continue
        from scipy import sparse  # only large graphs pay its import time
        # Duplicates sum on conversion: 0.5 + 0.5 where both rows keep the pair.
        cols, pair_rows = order[:, :width][kept], rows.repeat(counts)
        pairs = (np.concatenate([pair_rows, cols]), np.concatenate([cols, pair_rows]))
        yield sparse.csr_matrix((np.full(2 * cols.size, 0.5), pairs), shape=(n, n))


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


def lanczos_ncv(k: int) -> int:
    """Lanczos basis size for k eigenpairs; the matrix needs this many rows."""
    return max(ARPACK_NCV, 2 * k + 1)


def deflated_eigsh(mat, k: int, which: str, weight, shift: float = 0.0, vectors: bool = True):
    """k eigenpairs at the ``which`` end ("LA"/"SA") of a symmetric sparse matrix.

    Each connected component C of the matrix's graph with nonzero ``weight``
    on C must have the unit vector along weight * 1_C as an eigenvector.
    These c vectors are the known basis, since plain Lanczos reports a
    repeated eigenvalue with missing copies; with c < k, Lanczos finds the
    other k - c on mat + shift * P (P the projector onto the basis, ``shift``
    moving its eigenvalue past the far end of the spectrum).

    Returns the N x c basis, then the other k - c eigenvalues ascending and,
    if ``vectors``, their eigenvectors; raises NumericalError if ARPACK fails.
    """
    from scipy.sparse import csgraph
    from scipy.sparse import linalg as sla

    n = mat.shape[0]
    _, labels = csgraph.connected_components(mat, directed=False)
    basis = np.zeros((n, labels.max() + 1))
    basis[np.arange(n), labels] = weight
    norms = np.linalg.norm(basis, axis=0)
    basis = np.compress(norms > 0, basis, axis=1) / norms[norms > 0]  # C order fixes P x rounding
    want = k - basis.shape[1]
    if want <= 0:
        return basis, np.empty(0), np.empty((n, 0))
    op = mat if not basis.size else sla.LinearOperator(
        (n, n), matvec=lambda x: mat @ x + shift * (basis @ (basis.T @ x)), dtype=float
    )
    v0 = np.random.default_rng(ARPACK_SEED).standard_normal(n)
    try:
        out = sla.eigsh(op, k=want, which=which, v0=v0, ncv=lanczos_ncv(k),
                        return_eigenvectors=vectors)
    except sla.ArpackError as exc:  # ArpackNoConvergence is a subclass
        raise NumericalError(f"Lanczos eigensolve failed on {n} rows: {exc}") from exc
    return (basis, *out) if vectors else (basis, np.sort(out), None)  # sorted only with vectors


def build_bundle(
    affinity: np.ndarray, p: int, overlap: OverlapVector | None = None
) -> AffinityBundle:
    """Bundle the raw affinity with its binarized graph for one p."""
    return AffinityBundle(np.asarray(affinity, dtype=float), p, binarize(affinity, p, overlap))
