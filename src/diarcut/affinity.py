"""Cosine affinity, row-wise binarization and large-graph Lanczos."""

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

# Rows per block of the binarization sweep, which holds one such block at a time.
BLOCK_ROWS = 256

# Lanczos basis size for the ARPACK solves; 32-48 timed alike, but 24,
# about ARPACK's own default for k = 11, made sweeps up to 1.4 times slower.
ARPACK_NCV = 36

# Seed of the fixed ARPACK start vector. The natural all-ones start lies in
# the Laplacian's null space, so a random one is drawn, the same every call.
ARPACK_SEED = 0


def cosine_affinity(seq: EmbeddingSequence) -> np.ndarray:
    """Unit-norm rows of the segment embeddings: rows i and j multiply to
    the cosine similarity of segments i and j.

    Each row is first scaled by the power of two that brings its largest
    component into [0.5, 1), so the norm neither over- nor underflows; the
    scaling is exact, and in-range rows normalize bit for bit as v / ||v||.
    The binarization forms these products one row block at a time, so no
    N x N affinity is ever held.

    Args:
        seq: embedding sequence; its vectors are nonzero.

    Returns:
        N x d array of unit-norm rows.
    """
    vecs = np.asarray(seq.vectors, dtype=float)
    _, exp = np.frexp(np.abs(vecs).max(axis=1))
    scaled = np.ldexp(vecs, -exp[:, None])
    return scaled / np.linalg.norm(scaled, axis=1)[:, None]


def unit_rows(unit) -> np.ndarray:
    """``unit`` as a float array; ContractError unless it is 2-D."""
    rows = np.asarray(unit, dtype=float)
    if rows.ndim != 2:
        raise ContractError("unit rows must form a 2-D array")
    return rows


def affinity_rows(unit: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the affinity unit unit^T, with its diagonal set to 1.

    Raises ContractError unless every value is finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        block = unit[start:stop] @ unit.T
    local = np.arange(len(block))
    block[local, local + start] = 1.0
    if not np.isfinite(block).all():
        raise ContractError("affinity values must be finite")
    return block


def binarize(unit: np.ndarray, p: int, overlap: OverlapVector | None = None):
    """Keep the top p affinities per row as 1, zero the rest, then symmetrize.

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
        unit: N x d unit rows from ``cosine_affinity``; their products are
            the affinities, with the diagonal taken as 1.
        p: binarization factor, 1 <= p <= N; the diagonal counts toward p.
        overlap: optional per-row overlap flags.

    Returns:
        Symmetric binarized graph with entries in {0, 0.5, 1}: a dense array
        below SPARSE_MIN_N rows, a CSR matrix from there on.
    """
    u = unit_rows(unit)
    n = u.shape[0]
    if not 1 <= p <= n:
        raise ContractError(f"binarization factor p={p} outside [1, {n}]")
    budget, flagged = np.full(n, p), None
    if overlap is not None:
        if len(overlap) != n:
            raise ContractError("overlap vector length does not match the row count")
        n_single = n - int(overlap.flags.sum())
        if 0 < n_single < n:
            flagged = overlap.flags == 1
            budget[flagged] = min(2 * p, n_single)
    return next(binarize_sweep(u, [budget], flagged=flagged))


def binarize_sweep(unit: np.ndarray, budgets, index=None, flagged=None):
    """One top-``budget`` graph of the affinity of ``unit[index]`` per budget.

    The affinity of unit rows u is u u^T with a unit diagonal. A budget is a
    count or one per row. Entries between two rows set in the boolean
    ``flagged`` count as -inf; a row keeps the entries at or above its cutoff,
    its budget-th largest value less TIE_EPS. Each block of BLOCK_ROWS rows is
    computed as u[block] u^T, checked finite before that mask and sorted for
    its cutoffs; the graphs come from its entries at or above its lowest one,
    so no N x N affinity is formed.
    """
    u = unit if index is None else unit[index]  # one gather per sweep
    n = u.shape[0]
    picks = n - np.array([np.full(n, b) for b in budgets])  # budgets x rows
    cutoffs = np.empty(picks.shape)
    cands = []  # per block: values, then int32 rows and columns (CSR's index type)
    for start in range(0, n, BLOCK_ROWS):
        part = slice(start, start + BLOCK_ROWS)
        block = affinity_rows(u, start, start + BLOCK_ROWS)
        if flagged is not None:
            block = np.where(flagged[part, None] & flagged, -np.inf, block)
        cutoffs[:, part] = np.sort(block, axis=1)[np.arange(len(block)), picks[:, part]] - TIE_EPS
        rows, cols = np.nonzero(block >= cutoffs[:, part].min(axis=0)[:, None])
        cands.append((block[rows, cols], (rows + start).astype(np.int32), cols.astype(np.int32)))
    cand_values, cand_rows, cand_cols = map(np.concatenate, zip(*cands))
    del cands  # a generator's locals live until it finishes
    for cutoff in cutoffs:
        kept = cand_values >= cutoff[cand_rows]
        if n < SPARSE_MIN_N:
            dense = np.zeros((n, n))
            dense[cand_rows, cand_cols] = kept
            yield 0.5 * (dense + dense.T)
        else:
            from scipy import sparse  # only large graphs pay its import time
            rows, cols = cand_rows[kept], cand_cols[kept]
            # Duplicates sum on conversion: 0.5 + 0.5 where both rows keep the pair.
            pairs = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
            yield sparse.csr_matrix((np.full(2 * cols.size, 0.5), pairs), shape=(n, n))


def lanczos_ncv(k: int) -> int:
    """Lanczos basis size for k eigenpairs; the matrix needs this many rows."""
    return max(ARPACK_NCV, 2 * k + 1)


def lanczos_eigsh(mat, k: int, which: str, weight=None, shift: float = 0.0, vectors: bool = False):
    """k eigenpairs at the ``which`` end ("LA"/"SA") of a symmetric sparse matrix.

    With ``weight``, each connected component C of the matrix's graph with
    nonzero weight on C must have the unit vector along weight * 1_C as an
    eigenvector. These c vectors are the known basis, since plain Lanczos
    reports a repeated eigenvalue with missing copies; with c < k, Lanczos
    finds the other k - c on mat + shift * P (P the projector onto the basis,
    ``shift`` moving its eigenvalue past the far end of the spectrum). Without
    ``weight`` the basis is empty and Lanczos runs on the matrix itself.

    ARPACK starts from the fixed seeded vector, with the basis sized for k
    eigenpairs. Returns c, then the other k - c eigenvalues and, if
    ``vectors``, the N x max(c, k) eigenvectors, the basis first: each in
    order from the ``which`` end inward. Without ``vectors``, c >= k
    components end the call before any basis is built. Raises
    NumericalError if ARPACK fails.
    """
    from scipy.sparse import csgraph
    from scipy.sparse import linalg as sla

    n = mat.shape[0]
    c, basis = 0, np.empty((n, 0))
    if weight is not None:
        _, labels = csgraph.connected_components(mat, directed=False)
        c = int(np.count_nonzero(np.bincount(labels, weights=weight * weight)))  # nonzero norms
        if vectors or c < k:
            basis = np.zeros((n, labels.max() + 1))
            basis[np.arange(n), labels] = weight
            norms = np.linalg.norm(basis, axis=0)
            basis = np.compress(norms > 0, basis, axis=1) / norms[norms > 0]  # C order fixes P x rounding
    if c >= k:
        return c, np.empty(0), basis if vectors else None
    op = mat if not c else sla.LinearOperator(
        (n, n), matvec=lambda x: mat @ x + shift * (basis @ (basis.T @ x)), dtype=float
    )
    v0 = np.random.default_rng(ARPACK_SEED).standard_normal(n)
    try:
        out = sla.eigsh(op, k=k - c, which=which, v0=v0, ncv=lanczos_ncv(k),
                        return_eigenvectors=vectors)
    except sla.ArpackError as exc:  # ArpackNoConvergence is a subclass
        raise NumericalError(f"Lanczos eigensolve failed on {n} rows: {exc}") from exc
    values, found = out if vectors else (np.sort(out), None)  # sorted only with vectors
    if which == "LA":  # ascending, so the largest come last
        values, found = values[::-1], found if found is None else found[:, ::-1]
    return c, values, found if found is None else np.hstack([basis, found])


# These two survive only for the benchmark tracer, which times the affinity
# layer at ``build_bundle`` and counts its result's fields and ``.binarized``;
# once it traces ``binarize`` instead, the pipeline calls ``binarize`` and
# these two go.
@dataclass
class AffinityBundle:
    binarized: object


def build_bundle(unit: np.ndarray, p: int, overlap: OverlapVector | None = None):
    """The binarized graph of unit rows for one p, as ``binarize`` builds it."""
    return AffinityBundle(binarize(unit, p, overlap))
