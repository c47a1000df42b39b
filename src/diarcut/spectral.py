"""Relaxed normalized-cuts solution and overlap-constrained discretization.

The clustering objective — maximize the average fraction of link weight that
stays within a cluster — is NP-complete over binary assignments.  Dropping
the binary constraints turns it into a trace maximization whose optima are
the top-K eigenvectors of D^-1 A under arbitrary orthonormal rotation.  The
discrete answer is recovered by alternating two exact subproblem solvers:
non-maximal suppression for the best binary matrix at a fixed rotation, and
an orthogonal Procrustes fit for the best rotation at a fixed binary matrix.
Rows flagged as overlapping keep their two largest entries instead of one,
so their row sum is 2 and the segment carries two speaker labels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .ingest import OverlapVector

log = logging.getLogger(__name__)

DEGREE_FLOOR = 1e-10


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
class Rotation:
    """Orthonormal K x K rotation (R^T R = I within 1e-8)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        k = self.matrix.shape[0]
        if self.matrix.ndim != 2 or self.matrix.shape[1] != k:
            raise ContractError("rotation must be square")
        err = np.abs(self.matrix.T @ self.matrix - np.eye(k)).max()
        if err > 1e-8:
            raise ContractError(f"rotation is not orthonormal (deviation {err:.2e})")


@dataclass
class DiscretizeResult:
    """Assignment plus the per-round objective trace of each restart."""

    assignment: AssignmentMatrix
    rotation: Rotation
    phi: float
    phi_histories: list[list[float]]
    best_restart: int


def continuous_solve(binarized: np.ndarray, k: int) -> ContinuousSolution:
    """Solve the relaxed clustering problem for the top-K eigenvectors.

    The eigenproblem of the non-symmetric D^-1 A is computed through the
    similar symmetric matrix D^-1/2 A D^-1/2, whose orthonormal eigenvectors
    W give Z = D^-1/2 W with Z^T D Z = I by construction.  D holds the row
    sums of the graph; isolated nodes get a floored degree.

    Args:
        binarized: symmetric nonnegative affinity graph.
        k: number of eigenvectors, 1 <= k <= N.

    Returns:
        ContinuousSolution with eigenvalues in descending order.
    """
    a = np.asarray(binarized, dtype=float)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"k={k} outside [1, {n}]")
    d = a.sum(axis=1)
    if (d <= 0).any():
        log.warning(
            "%d isolated nodes after binarization; flooring degrees at %g",
            int((d <= 0).sum()),
            DEGREE_FLOOR,
        )
        d = d + DEGREE_FLOOR
    dinv_sqrt = 1.0 / np.sqrt(d)
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
    z_star = dinv_sqrt[:, None] * vec[:, top]
    lambda_star = w[top]
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


def nms_assign(rotated: np.ndarray, overlap: OverlapVector) -> AssignmentMatrix:
    """Per-row non-maximal suppression with a second peak for flagged rows.

    Row i keeps its argmax; if overlap[i] = 1 the second-largest entry is
    kept as well.  Ties break toward the lower column index.

    Args:
        rotated: N x K continuous matrix (typically x_tilde_star @ R).
        overlap: per-row flags; flagged rows need K >= 2 for a second peak.

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
    return AssignmentMatrix(x, overlap)


def procrustes(assignment, x_tilde_star: np.ndarray) -> Rotation:
    """Best orthonormal rotation aligning x_tilde_star to the assignment.

    With (U, S, V^T) the SVD of X^T X_tilde_star, the minimizer of
    ||X - X_tilde_star R||^2 over orthonormal R is R = V U^T.
    """
    x = np.asarray(getattr(assignment, "matrix", assignment), dtype=float)
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
    return Rotation(vt.T @ u.T)


def assignment_distance(assignment, x_tilde_star, rotation) -> float:
    """Squared Frobenius distance ||X - X_tilde_star R||^2."""
    x = np.asarray(getattr(assignment, "matrix", assignment), dtype=float)
    r = np.asarray(getattr(rotation, "matrix", rotation), dtype=float)
    return float(np.sum((x - np.asarray(x_tilde_star) @ r) ** 2))


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
    solution: ContinuousSolution,
    overlap: OverlapVector,
    max_iters: int = 100,
    tol: float = 1e-6,
    restarts: int = 3,
    seed: int = 0,
) -> DiscretizeResult:
    """Alternating discretization with restart bookkeeping.

    Each round performs the exact assignment step followed by the exact
    rotation step, so the objective recorded after each full round is
    non-increasing.  The restart whose final objective is smallest wins;
    ties keep the earlier restart.
    """
    xt = solution.x_tilde_star
    k = solution.k
    if k < 1:
        raise ContractError("discretization needs at least one cluster")
    if restarts < 1 or max_iters < 1 or not tol >= 0:
        raise ContractError(
            f"need restarts >= 1, max_iters >= 1 and tol >= 0; got "
            f"restarts={restarts}, max_iters={max_iters}, tol={tol}"
        )
    best: DiscretizeResult | None = None
    histories: list[list[float]] = []
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        rot = _seed_rotation(xt, k, rng)
        phi_prev = np.inf
        phis: list[float] = []
        for _ in range(max_iters):
            x = nms_assign(xt @ rot, overlap)
            rotation = procrustes(x, xt)
            rot = rotation.matrix
            phi = assignment_distance(x, xt, rot)
            phis.append(phi)
            if phi_prev - phi < tol * max(phi_prev, 1e-12):
                break
            phi_prev = phi
        histories.append(phis)
        if best is None or phis[-1] < best.phi:
            best = DiscretizeResult(x, rotation, phis[-1], [], restart)
    best.phi_histories = histories
    return best
