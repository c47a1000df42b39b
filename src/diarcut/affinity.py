"""Cosine affinity, row-wise binarization and the graph eigensolver."""

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

# Graphs of this many rows or more are CSR with Lanczos spectra; below, dense LAPACK. Set at the
# counting sweeps' N = 700 crossover, measured before ARPACK_TOL existed; no benchmark graph has
# 240-850 rows (`calls` 60-240, `meeting` 850-1600), so none tells a moved crossover apart.
SPARSE_MIN_N = 700

# Rows per block of the binarization sweep, whose peak is one block of BLOCK_ROWS x N float64
# affinities and its partitioned copy. A p = 2..20 sweep took 1.41 s on 8840 rows (1.30 s at
# 128) and 50 ms on 1360 (alike); below 48 each block re-streams all N x d unit rows.
BLOCK_ROWS = 64

# Lanczos basis size for the ARPACK solves; 32-48 timed alike, but 24,
# about ARPACK's own default for k = 11, made sweeps up to 1.4 times slower.
ARPACK_NCV = 36

# Seed of the fixed ARPACK start vector. The natural all-ones start lies in
# the Laplacian's null space, so a random one is drawn, the same every call.
ARPACK_SEED = 0

# Eigenvalue-only ARPACK solves stop at this relative residual; values are off by ~its square.
ARPACK_TOL = 1e-8


def cosine_affinity(seq: EmbeddingSequence) -> np.ndarray:
    """N x d unit-norm rows (``normalize_rows``) of the nonzero segment
    embeddings: rows i and j multiply to the cosine similarity of segments i
    and j. The binarization forms these products one row block at a time, so
    no N x N affinity is ever held.
    """
    return normalize_rows(seq.vectors)


def normalize_rows(rows) -> np.ndarray:
    """Each row of a 2-D array, none of them zero, scaled to unit norm.

    A row is first scaled by the power of two that brings its largest
    component into [0.5, 1), so the norm neither over- nor underflows; the
    scaling is exact, and in-range rows normalize bit for bit as v / ||v||.
    """
    vecs = np.asarray(rows, dtype=float)
    _, exp = np.frexp(np.maximum(vecs.max(axis=1), -vecs.min(axis=1)))  # no |vecs| copy
    scaled = np.ldexp(vecs, -exp[:, None])
    return np.divide(scaled, np.linalg.norm(scaled, axis=1)[:, None], out=scaled)


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


def binarize_sweep(unit: np.ndarray, budgets, flagged=None):
    """One top-``budget`` graph of the affinity of ``unit`` per budget.

    The affinity of unit rows u is u u^T with a unit diagonal. A budget is a
    count or one per row. Entries between two rows set in the boolean
    ``flagged`` count as -inf; a row keeps the entries at or above its cutoff,
    its budget-th largest value less TIE_EPS. Each block of BLOCK_ROWS rows is
    computed as u[block] u^T, checked finite before that mask and partitioned
    for its cutoffs; the graphs come from its entries at or above its lowest
    one, so no N x N affinity is formed.
    """
    n = unit.shape[0]
    picks = n - np.array([np.full(n, b) for b in budgets])  # budgets x rows
    cutoffs = np.empty(picks.shape)
    cands = []  # per block: values, then int32 rows and columns (CSR's index type)
    for start in range(0, n, BLOCK_ROWS):
        part = slice(start, start + BLOCK_ROWS)
        block = affinity_rows(unit, start, start + BLOCK_ROWS)
        if flagged is not None:
            block[flagged[part, None] & flagged] = -np.inf
        low = picks[:, part].min()  # each row's top n - low values hold all its cutoffs
        top = np.sort(np.partition(block, low, axis=1)[:, low:], axis=1)
        cutoffs[:, part] = top[np.arange(len(block)), picks[:, part] - low] - TIE_EPS
        rows, cols = np.nonzero(block >= cutoffs[:, part].min(axis=0)[:, None])
        cands.append((block[rows, cols], (rows + start).astype(np.int32), cols.astype(np.int32)))
    cand_values, cand_rows, cand_cols = map(np.concatenate, zip(*cands))
    del cands  # a generator's locals live until it finishes
    if n < SPARSE_MIN_N:  # flat positions of each candidate pair and of its mirror
        at = cand_rows.astype(np.intp) * n + cand_cols
        mirror = cand_cols.astype(np.intp) * n + cand_rows
    for cutoff in cutoffs:
        kept = cand_values >= cutoff[cand_rows]
        if n < SPARSE_MIN_N:
            dense, half = np.zeros(n * n), 0.5 * kept
            dense[at] = half
            dense[mirror] += half  # no pair repeats, so no write is lost
            yield dense.reshape(n, n)
        else:  # built in a call, so its temporaries are gone while the graph is used
            yield _csr_graph(n, cand_rows[kept], cand_cols[kept])


def _csr_graph(n: int, rows: np.ndarray, cols: np.ndarray):
    """The n x n CSR graph with 0.5 at each (row, col) and its mirror; duplicates sum."""
    from scipy import sparse  # only large graphs pay its import time
    pairs = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    return sparse.csr_matrix((np.full(2 * cols.size, 0.5), pairs), shape=(n, n))


def component_labels(mat) -> np.ndarray:
    """Component label per node of a symmetric graph, dense or CSR, numbered
    by lowest node: each sweep gives a node the least label of itself and its
    neighbours, then that label's label. A stored zero is no edge.
    """
    rows, cols = np.nonzero(mat)
    labels, spread = None, np.arange(mat.shape[0])
    while not np.array_equal(labels, spread):
        labels, spread = spread, spread.copy()
        np.minimum.at(spread, rows, labels[cols])
        spread = spread[spread]
    return np.unique(labels, return_inverse=True)[1]


def graph_eigh(mat, k: int, which: str, weight=None, shift: float = 0.0, vectors: bool = False):
    """k eigenpairs at the ``which`` end ("LA"/"SA") of a symmetric graph matrix.

    With ``weight``, which must be positive, each of the c components C must
    have the unit vector along weight * 1_C as an eigenvector. With c >= k
    these are the answer, with no solve; past k, row i is weight_i /
    ||weight_C(i)|| times row C(i) of a seeded c x k orthonormal frame (the Q
    of a QR of a Gaussian from ARPACK_SEED). Otherwise a dense array keeps
    the k at the ``which`` end of LAPACK's full solve (``eigvalsh`` unless
    ``vectors``; k = N gives the whole spectrum), and a CSR matrix takes
    the other k - c from seeded Lanczos with min(N, max(ARPACK_NCV, 2k + 1))
    vectors on mat + shift * P, P projecting onto the component vectors
    (Lanczos drops copies of a repeated eigenvalue; ``shift`` moves them
    aside), to machine precision if ``vectors``, else to residual ARPACK_TOL.

    Returns how many leading pairs are component vectors (0 from LAPACK),
    the other eigenvalues and, if ``vectors``, the N x k eigenvectors, each
    from the ``which`` end inward. Raises NumericalError if the solver fails
    or Lanczos is asked for all N pairs.
    """
    n, c = mat.shape[0], 0
    if weight is not None:
        labels = component_labels(mat)
        norms = np.sqrt(np.bincount(labels, weights=weight * weight))
        c = norms.size
    if c < k and isinstance(mat, np.ndarray):
        try:
            w, found = np.linalg.eigh(mat) if vectors else (np.linalg.eigvalsh(mat), None)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"LAPACK eigensolve failed on {n} rows: {exc}") from exc
        top = np.argsort(w)[::-1][:k] if which == "LA" else np.argsort(w)[:k]
        return 0, w[top], found[:, top] if vectors else None
    basis = np.empty((n, 0))
    if weight is not None and (vectors or c < k):
        frame = np.eye(c) if c <= k else np.linalg.qr(  # one row per component
            np.random.default_rng(ARPACK_SEED).standard_normal((c, k)))[0]
        basis = (weight / norms[labels])[:, None] * frame[labels]
    if c >= k:
        return c, np.empty(0), basis if vectors else None
    if k - c >= n:
        raise NumericalError(f"Lanczos finds at most {n - 1} eigenpairs of {n} rows; {k - c} asked")
    from scipy.sparse import linalg as sla

    op = mat if not c else sla.LinearOperator(
        (n, n), matvec=lambda x: mat @ x + shift * (basis @ (basis.T @ x)), dtype=float
    )
    v0 = np.random.default_rng(ARPACK_SEED).standard_normal(n)
    try:
        out = sla.eigsh(op, k=k - c, which=which, v0=v0, ncv=min(n, max(ARPACK_NCV, 2 * k + 1)),
                        tol=0.0 if vectors else ARPACK_TOL, return_eigenvectors=vectors)
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
