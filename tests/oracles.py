"""Reference implementations that only the tests call.

Each is a direct, unoptimized statement of a quantity the package computes
or relies on: the per-row binarization the vectorized ``binarize`` must
reproduce, the clustering objectives, the decoder's emission score and its
dense transition graph.
"""

import numpy as np

from diarcut.affinity import TIE_EPS
from diarcut.errors import ContractError
from diarcut.ingest import FramePosteriors, OverlapVector
from diarcut.overlap_decode import DurationConfig, DurationHmm


# ---------------------------------------------------------------------------
# binarization


def p_binarize(affinity: np.ndarray, p: int) -> np.ndarray:
    """Keep the p largest values per row (ties within TIE_EPS), symmetrize."""
    aff = np.asarray(affinity, dtype=float)
    n = aff.shape[0]
    if aff.ndim != 2 or aff.shape[1] != n:
        raise ContractError("affinity must be square")
    if not 1 <= p <= n:
        raise ContractError(f"binarization factor p={p} outside [1, {n}]")
    row_sorted = np.sort(aff, axis=1)[:, ::-1]
    cutoff = row_sorted[:, p - 1]
    kept = (aff >= cutoff[:, None] - TIE_EPS).astype(float)
    return 0.5 * (kept + kept.T)


def overlap_aware_binarize(
    affinity: np.ndarray, p: int, overlap: OverlapVector
) -> np.ndarray:
    """Binarize with overlap-flagged rows restricted to non-flagged columns.

    Embeddings of overlapping segments are unreliable mixtures; letting them
    pick their neighbors among each other builds spurious mixture clusters.
    Flagged rows therefore select from single-speaker columns only, and get a
    doubled budget (2p) because they carry evidence for two clusters.
    Non-flagged rows are binarized exactly as :func:`p_binarize`.
    """
    aff = np.asarray(affinity, dtype=float)
    n = aff.shape[0]
    flags = np.asarray(overlap.flags)
    if len(flags) != n:
        raise ContractError("overlap vector length does not match affinity size")
    if not flags.any():
        return p_binarize(aff, p)
    single_cols = np.flatnonzero(flags == 0)
    if single_cols.size == 0:
        return p_binarize(aff, p)
    kept = np.zeros_like(aff)
    plain = np.flatnonzero(flags == 0)
    if plain.size:
        sub_sorted = np.sort(aff[plain], axis=1)[:, ::-1]
        cutoff = sub_sorted[:, min(p, n) - 1]
        kept[plain] = aff[plain] >= cutoff[:, None] - TIE_EPS
    flagged = np.flatnonzero(flags == 1)
    budget = min(2 * p, single_cols.size)
    for i in flagged:
        vals = aff[i, single_cols]
        cutoff_i = np.sort(vals)[::-1][budget - 1]
        kept[i, single_cols[vals >= cutoff_i - TIE_EPS]] = 1.0
    return 0.5 * (kept + kept.T)


# ---------------------------------------------------------------------------
# clustering objectives


def objective_continuous(z: np.ndarray, binarized: np.ndarray) -> float:
    """Trace objective tr(Z^T A Z) of the relaxed problem."""
    z = np.asarray(z, dtype=float)
    return float(np.trace(z.T @ np.asarray(binarized) @ z))


def objective_discrete(
    assignment, binarized: np.ndarray, degree: np.ndarray
) -> float:
    """Average within-cluster link ratio of a binary assignment.

    Empty clusters contribute zero.  Equals tr(f(X)^T A f(X)) / K where
    f(X) = X (X^T D X)^-1/2, see :func:`degree_normalize`.
    """
    x = np.asarray(getattr(assignment, "matrix", assignment), dtype=float)
    a = np.asarray(binarized, dtype=float)
    d = np.asarray(degree, dtype=float)
    k = x.shape[1]
    total = 0.0
    for j in range(k):
        col = x[:, j]
        denom = float(col @ (d * col))
        if denom > 0:
            total += float(col @ a @ col) / denom
    return total / k


def degree_normalize(assignment, degree: np.ndarray) -> np.ndarray:
    """Map a binary assignment into the relaxed feasible set.

    Returns X (X^T D X)^-1/2, computed through the symmetric inverse square
    root; the result satisfies Z^T D Z = I when X has no empty cluster.
    """
    x = np.asarray(getattr(assignment, "matrix", assignment), dtype=float)
    d = np.asarray(degree, dtype=float)
    gram = x.T @ (d[:, None] * x)
    w, v = np.linalg.eigh(gram)
    if w.min() <= 0:
        raise ContractError(
            "degree normalization needs every cluster non-empty with positive volume"
        )
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.T
    return x @ inv_sqrt


# ---------------------------------------------------------------------------
# overlap decoder


def path_score(
    labels: np.ndarray, posteriors: FramePosteriors, cfg: DurationConfig
) -> float:
    """Emission score of an arbitrary labeling under the decoder's model."""
    with np.errstate(divide="ignore"):
        log_emis = np.log(posteriors.rows * cfg.biases()[None, :])
    return float(log_emis[np.arange(len(labels)), np.asarray(labels)].sum())


def transition_matrix(hmm: DurationHmm) -> np.ndarray:
    """Dense 0/1 matrix of the permitted state transitions of a decoder graph."""
    s = hmm.num_states
    t = np.zeros((s, s))
    for i in range(s):
        cls = int(hmm.state_class[i])
        mx = hmm.max_frames[cls]
        chain = hmm.min_frames[cls] if mx is None else mx
        if int(hmm.state_pos[i]) < chain:
            t[i, i + 1] = 1.0
    for i in hmm.loop_states:
        t[i, i] = 1.0
    for cls, cands in hmm.entry_candidates.items():
        t[cands, hmm.entry_state[cls]] = 1.0
    return t
