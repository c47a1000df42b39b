"""Relaxed normalized-cuts solution and overlap-constrained discretization.

The clustering objective — maximize the average fraction of link weight that
stays within a cluster — is NP-complete over binary assignments.  Dropping
the binary constraints turns it into a trace maximization whose optima are
the top-K eigenvectors of D^-1 A under arbitrary orthonormal rotation.  The
discrete answer is recovered by alternating two exact subproblem solvers:
non-maximal suppression for the best binary matrix at a fixed rotation, and
an orthogonal Procrustes fit for the best rotation at a fixed binary matrix.
Rows flagged as overlapping keep their two largest entries instead of one,
so their row sum is 2 and the segment carries two speaker labels.  Only K
eigenvectors are needed (Yu & Shi, ICCV 2003): dense graphs take them from a
full LAPACK solve, CSR graphs (SPARSE_MIN_N rows or more) from
component-deflated Lanczos iteration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import affinity
from .errors import ContractError, NumericalError
from .ingest import OverlapVector

log = logging.getLogger(__name__)

DEGREE_FLOOR = 1e-10

# Discretization schedule: RESTARTS seeded starts, each stopping once a round
# lowers the objective by less than a relative PHI_STOP_RTOL, or at MAX_ROUNDS.
RESTARTS = 3
PHI_STOP_RTOL = 1e-6
MAX_ROUNDS = 100

# Relative margin by which a later restart must lower the best objective; one
# partition reached in two column orders differs only by rounding.
PHI_TIE_RTOL = 1e-9


@dataclass
class ContinuousSolution:
    """Top-K eigenvectors of D^-1 A with their row-normalized form.

    z_star satisfies z_star^T D z_star = I; x_tilde_star has unit-norm rows.
    """

    z_star: np.ndarray
    lambda_star: np.ndarray
    x_tilde_star: np.ndarray

    @property
    def k(self) -> int:
        return self.z_star.shape[1]


@dataclass
class AssignmentMatrix:
    """Binary segment-to-cluster assignment; row i sums to 1 + overlap[i]."""

    matrix: np.ndarray
    overlap: OverlapVector

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.matrix.ndim != 2:
            raise ContractError("assignment must be a matrix")
        if not np.isin(self.matrix, (0, 1)).all():
            raise ContractError("assignment entries must be 0 or 1")
        if len(self.overlap) != self.matrix.shape[0]:
            raise ContractError("overlap vector length does not match row count")
        sums = self.matrix.sum(axis=1)
        want = 1 + self.overlap.flags
        if not (sums == want).all():
            bad = int(np.argmax(sums != want))
            raise ContractError(
                f"row {bad} sums to {sums[bad]}, expected {want[bad]}"
            )
        empty = np.flatnonzero(self.matrix.sum(axis=0) == 0)
        if empty.size:
            log.info("assignment leaves clusters %s empty", empty.tolist())

    @property
    def k(self) -> int:
        return self.matrix.shape[1]


@dataclass
class DiscretizeResult:
    """Assignment plus the per-round objective trace of each restart."""

    assignment: AssignmentMatrix
    phi: float
    phi_histories: list[list[float]]
    best_restart: int


def continuous_solve(binarized, k: int) -> ContinuousSolution:
    """Solve the relaxed clustering problem for the top-K eigenvectors.

    The eigenproblem of the non-symmetric D^-1 A is computed through the
    similar symmetric matrix D^-1/2 A D^-1/2, whose orthonormal eigenvectors
    W give Z = D^-1/2 W with Z^T D Z = I by construction.  D holds the row
    sums of the graph; isolated nodes get a floored degree.

    A dense graph takes all eigenpairs from LAPACK. A CSR graph takes the top
    K from ``affinity.lanczos_eigsh``, with the eigenvalue-1 vectors
    D^1/2 1_C of its c components of positive degree set in place; with
    c > K, where that space has no preferred basis, the dense solve runs.

    Args:
        binarized: symmetric nonnegative affinity graph, dense or CSR.
        k: number of eigenvectors, 1 <= k <= N.

    Returns:
        ContinuousSolution with eigenvalues in descending order.
    """
    n = binarized.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"k={k} outside [1, {n}]")
    d = np.asarray(binarized.sum(axis=1), dtype=float).ravel()
    isolated = d <= 0
    if isolated.any():
        log.warning(
            "%d isolated nodes after binarization; flooring degrees at %g",
            int(isolated.sum()),
            DEGREE_FLOOR,
        )
        d = d + DEGREE_FLOOR
    dinv_sqrt = 1.0 / np.sqrt(d)
    c = k + 1  # the dense solve runs unless Lanczos sets c <= k
    if not isinstance(binarized, np.ndarray) and n >= affinity.lanczos_ncv(k):
        sym = binarized.tocsr(copy=True)
        rows = np.repeat(np.arange(n), np.diff(sym.indptr))
        sym.data *= dinv_sqrt[rows] * dinv_sqrt[sym.indices]
        # Component vectors D^1/2 1_C move from eigenvalue 1 to -2, below the
        # spectrum; isolated nodes (eigenvalue 0) get no such vector.
        weight = np.where(isolated, 0.0, np.sqrt(d))
        c, values, vec = affinity.lanczos_eigsh(sym, k, "LA", weight, -3.0, vectors=True)
        lambda_star = np.concatenate([np.ones(c), values])
    if c > k:
        a = binarized if isinstance(binarized, np.ndarray) else binarized.toarray()
        sym = dinv_sqrt[:, None] * a * dinv_sqrt[None, :]
        sym = 0.5 * (sym + sym.T)
        try:
            w, vec = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigensolver failed on the normalized affinity "
                f"(degree range [{d.min():.3e}, {d.max():.3e}])"
            ) from exc
        top = np.argsort(w)[::-1][:k]
        lambda_star, vec = w[top], vec[:, top]
    z_star = dinv_sqrt[:, None] * vec
    x_tilde_star = row_normalize(z_star)
    return ContinuousSolution(z_star, lambda_star, x_tilde_star)


def row_normalize(z: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm (zero rows pass through)."""
    z = np.asarray(z, dtype=float)
    norms = np.linalg.norm(z, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    if (norms == 0).any():
        log.warning("%d zero rows during row normalization", int((norms == 0).sum()))
    return z / safe[:, None]


def nms_assign(rotated: np.ndarray, overlap: OverlapVector) -> np.ndarray:
    """Per-row non-maximal suppression with a second peak for flagged rows.

    Row i keeps its argmax; if overlap[i] = 1 the second-largest entry is
    kept as well.  Ties break toward the lower column index.

    Args:
        rotated: N x K continuous matrix (typically x_tilde_star @ R).
        overlap: per-row flags; flagged rows need K >= 2 for a second peak.

    Returns:
        N x K int8 matrix of 0/1 entries; row i sums to 1 + overlap[i].

    Raises:
        ContractError: flagged rows with K = 1.
    """
    m = np.asarray(rotated, dtype=float)
    n, k = m.shape
    flags = np.asarray(overlap.flags)
    if len(flags) != n:
        raise ContractError("overlap vector length does not match row count")
    x = np.zeros((n, k), dtype=np.int8)
    first = np.argmax(m, axis=1)
    x[np.arange(n), first] = 1
    flagged = np.flatnonzero(flags == 1)
    if flagged.size:
        if k == 1:
            raise ContractError(
                f"{flagged.size} overlap-flagged rows need a second cluster, K = 1"
            )
        masked = m[flagged].copy()
        masked[np.arange(flagged.size), first[flagged]] = -np.inf
        x[flagged, np.argmax(masked, axis=1)] = 1
    return x


def procrustes(x: np.ndarray, x_tilde_star: np.ndarray) -> np.ndarray:
    """Best orthonormal K x K rotation aligning x_tilde_star to the assignment x.

    With (U, S, V^T) the SVD of X^T X_tilde_star, the minimizer of
    ||X - X_tilde_star R||^2 over orthonormal R is R = V U^T.
    """
    x = np.asarray(x, dtype=float)
    xt = np.asarray(x_tilde_star, dtype=float)
    if x.shape != xt.shape:
        raise ContractError(
            f"shape mismatch: assignment {x.shape}, continuous {xt.shape}"
        )
    cross = x.T @ xt
    try:
        u, s, vt = np.linalg.svd(cross)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed in the rotation fit") from exc
    if s.size and s.min() < 1e-12 * max(s.max(), 1.0):
        log.warning(
            "rank-deficient cross matrix in the rotation fit "
            "(singular values %s)",
            np.array2string(s, precision=3),
        )
    return vt.T @ u.T


def assignment_distance(x: np.ndarray, x_tilde_star: np.ndarray, rotation: np.ndarray) -> float:
    """Squared Frobenius distance ||X - X_tilde_star R||^2."""
    return float(np.sum((x - x_tilde_star @ rotation) ** 2))


def _seed_rotation(x_tilde: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Initial rotation from K nearly-orthogonal rows of x_tilde.

    Starting from one random row, each further row minimizes the accumulated
    absolute inner product with the rows already chosen; the chosen rows are
    then orthonormalized.
    """
    n = x_tilde.shape[0]
    cols = [x_tilde[int(rng.integers(n))]]
    accum = np.zeros(n)
    for _ in range(1, k):
        accum = accum + np.abs(x_tilde @ cols[-1])
        cols.append(x_tilde[int(np.argmin(accum))])
    raw = np.column_stack(cols)
    q, r = np.linalg.qr(raw)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def discretize_full(
    solution: ContinuousSolution, overlap: OverlapVector, seed: int = 0
) -> DiscretizeResult:
    """Alternating discretization with restart bookkeeping.

    Each round performs the exact assignment step followed by the exact
    rotation step, so the objective recorded after each full round is
    non-increasing.  The restart whose final objective is smallest wins;
    ties within a relative PHI_TIE_RTOL keep the earlier restart.  Only the
    winning assignment is checked against the row-sum invariant.
    """
    xt = solution.x_tilde_star
    k = solution.k
    if k < 1 or seed < 0:
        raise ContractError(f"need K >= 1 clusters and seed >= 0; got K={k}, seed={seed}")
    best = None  # (x, phi, restart)
    histories: list[list[float]] = []
    for restart in range(RESTARTS):
        rng = np.random.default_rng([seed, restart])
        rot = _seed_rotation(xt, k, rng)
        phi_prev = np.inf
        phis: list[float] = []
        for _ in range(MAX_ROUNDS):
            x = nms_assign(xt @ rot, overlap)
            rot = procrustes(x, xt)
            phi = assignment_distance(x, xt, rot)
            phis.append(phi)
            if phi_prev - phi < PHI_STOP_RTOL * max(phi_prev, 1e-12):
                break
            phi_prev = phi
        histories.append(phis)
        if best is None or phis[-1] < best[1] * (1.0 - PHI_TIE_RTOL):
            best = (x, phis[-1], restart)
    x, phi, restart = best
    return DiscretizeResult(AssignmentMatrix(x, overlap), phi, histories, restart)
