"""Speaker counting via the normalized maximum eigengap of binarized graphs.

For each candidate binarization factor p the affinity is binarized, and the
lowest max_speakers + 1 eigenvalues and the largest eigenvalue of its
unnormalized Laplacian are computed; the prominence of the largest eigengap
among the low ones relative to the spectral radius scores the candidate.  The
factor minimizing r(p) = p / g_p wins, and the position of its largest
eigengap gives the estimated number of speakers.

Small graphs take the full dense spectrum; large ones take the low end from
Lanczos iteration with the graph's null space (one zero per connected
component) deflated, which yields the same eigenvalues to rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import affinity as aff
from .errors import ContractError, IndeterminateSpeakerCountError, NumericalError

log = logging.getLogger(__name__)

# Eigenvalues this close to zero are snapped to exactly zero so the
# multiplicity of the zero eigenvalue (= connected components) is stable.
ZERO_SNAP = 1e-10

# Guards g_p against division by a zero spectral radius.
EPSILON = 1e-10

# Graphs with fewer rows take the dense full spectrum, which is faster there
# than Lanczos iteration: whole sweeps crossed over near N = 700 (one BLAS
# thread, 2-core x86 VM, sigma 0.15, 3-7 speakers).
SPARSE_MIN_N = 700

# Lanczos basis size for the ARPACK solves; 32-48 timed alike, while 24,
# about ARPACK's own default for k = 11, made sweeps up to 1.4 times slower.
ARPACK_NCV = 36

# Seed of the fixed ARPACK start vector. The natural all-ones start lies in
# the Laplacian's null space, so a random one is drawn, the same every call.
ARPACK_SEED = 0


@dataclass
class EigengapReport:
    """Per-p diagnostics of the binarization sweep plus the chosen estimate.

    ``eigenvalues_per_p`` holds the lowest max_speakers + 1 Laplacian
    eigenvalues of each swept graph, ``gaps_per_p`` their consecutive gaps
    and ``lambda_max_per_p`` the largest eigenvalue, so every g_p can be
    recomputed from the report.
    """

    p_values: list[int]
    eigenvalues_per_p: list[np.ndarray]
    gaps_per_p: list[np.ndarray]
    lambda_max_per_p: list[float]
    g_values: list[float]
    r_values: list[float]
    p_hat: int
    k_hat: int
    max_speakers: int

    def to_dict(self) -> dict:
        out = dict(vars(self))
        for key in ("eigenvalues_per_p", "gaps_per_p"):
            out[key] = [v.tolist() for v in out[key]]
        return out


def eigengap_vector(eigenvalues: np.ndarray) -> np.ndarray:
    """Differences of consecutive eigenvalues, which must be sorted ascending.

    Args:
        eigenvalues: length-N vector, ascending.

    Returns:
        Length N-1 vector of nonnegative gaps.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1:
        raise ContractError("eigenvalues must be a vector")
    if lam.size and np.any(np.diff(lam) < 0):
        raise ContractError("eigenvalues must be sorted ascending")
    return np.diff(lam)


def low_spectrum(binarized: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """Lowest ``m`` eigenvalues and the largest one of a graph's Laplacian.

    The Laplacian is L = diag(d) - A of the symmetric binarized graph A.
    Below SPARSE_MIN_N rows the full spectrum comes from dense ``eigvalsh``.
    Above it, the connected components c are counted first: L has exactly c
    zero eigenvalues (one per component), so with c >= m the low end is m
    zeros. Otherwise the zeros are set in place and ARPACK's Lanczos finds
    the next m - c on L + s P, where P projects onto the normalized
    component indicators and s exceeds lambda_max; this lifts the null
    space above the wanted eigenvalues, which plain Lanczos would otherwise
    report with missing copies of zero. Eigenvalues within ZERO_SNAP of zero
    are snapped to exactly zero on both paths.

    Args:
        binarized: symmetric nonnegative N x N graph.
        m: number of lowest eigenvalues wanted; fewer come back when N < m.

    Returns:
        (lowest eigenvalues ascending, lambda_max).

    Raises:
        NumericalError: ARPACK failed to converge or broke down.
    """
    n = binarized.shape[0]
    # The Lanczos basis must exceed the wanted count and fit in N rows.
    ncv = max(ARPACK_NCV, 2 * m + 1)
    if n < max(SPARSE_MIN_N, ncv):
        # Symmetric by construction: skip the checks of aff.laplacian.
        lam = np.linalg.eigvalsh(np.diag(binarized.sum(axis=1)) - binarized)
        lam[np.abs(lam) < ZERO_SNAP] = 0.0
        return lam[:m], float(lam[-1])

    # Imported here: only large graphs pay scipy.sparse's import time.
    from scipy import sparse
    from scipy.sparse import csgraph
    from scipy.sparse import linalg as sla

    adj = sparse.csr_matrix(binarized)
    lap = (sparse.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()
    components, labels = csgraph.connected_components(adj, directed=False)
    v0 = np.random.default_rng(ARPACK_SEED).standard_normal(n)
    low = np.zeros(m)
    try:
        lam_max = float(
            sla.eigsh(lap, k=1, which="LA", v0=v0, ncv=ncv, return_eigenvectors=False)[0]
        )
        if components < m:
            indicators = np.zeros((n, components))
            indicators[np.arange(n), labels] = 1.0
            indicators /= np.sqrt(indicators.sum(axis=0))
            shift = lam_max + 1.0

            def deflated(x):
                return lap @ x + shift * (indicators @ (indicators.T @ x))

            op = sla.LinearOperator((n, n), matvec=deflated, dtype=float)
            low[components:] = np.sort(
                sla.eigsh(
                    op, k=m - components, which="SA", v0=v0, ncv=ncv,
                    return_eigenvectors=False,
                )
            )
    except sla.ArpackError as exc:  # ArpackNoConvergence is a subclass
        raise NumericalError(f"Lanczos eigensolve failed on {n} rows: {exc}") from exc
    low[np.abs(low) < ZERO_SNAP] = 0.0
    return low, lam_max


def estimate(
    affinity: np.ndarray,
    p_min: int = 2,
    p_max: int = 20,
    max_speakers: int = 10,
) -> EigengapReport:
    """Sweep the binarization factor and estimate the number of speakers.

    For each p in [p_min, min(p_max, N-1)]: binarize, take the lowest
    max_speakers + 1 Laplacian eigenvalues and lambda_max from
    ``low_spectrum`` (near-zeros snapped), and compute

        g_p = max(gaps) / (lambda_max + EPSILON)
        r(p) = p / g_p

    p_hat minimizes r (ties to the smaller p).  The estimated count is one
    plus the position of the largest of those max_speakers gaps of the
    winning spectrum, i.e. the number of eigenvalues below that gap.
    Restricting the gap search bounds the estimate by max_speakers and keeps
    sparse graphs with many tiny components from dominating the sweep.

    Args:
        affinity: raw square affinity matrix.
        p_min, p_max: inclusive sweep bounds; the effective upper bound is
            clipped to N-1.  With N-1 < p_min the sweep is empty and the
            estimate is one speaker at p_hat = N.
        max_speakers: cap on the estimated count; the gap search is limited
            to this many leading positions.

    Returns:
        EigengapReport with per-p partial spectra and the chosen
        (p_hat, k_hat).

    Raises:
        IndeterminateSpeakerCountError: every candidate produced g_p = 0.
    """
    a = np.asarray(affinity, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ContractError("affinity must be square")
    if max_speakers < 1:
        raise ContractError("max_speakers must be at least 1")
    if not 1 <= p_min <= p_max:
        raise ContractError(f"empty binarization sweep: p_min={p_min}, p_max={p_max}")
    hi = min(p_max, n - 1)
    if hi < p_min:
        # Too few segments to sweep: one speaker, every segment linked.
        log.warning("%d segments are too few for a sweep from p=%d; one speaker", n, p_min)
        return EigengapReport([], [], [], [], [], [], n, 1, max_speakers)

    p_values = list(range(p_min, hi + 1))
    eigenvalues_per_p: list[np.ndarray] = []
    gaps_per_p: list[np.ndarray] = []
    lambda_max_per_p: list[float] = []
    g_values: list[float] = []
    r_values: list[float] = []

    # One descending sort per row serves every p in the sweep.
    row_sorted = np.sort(a, axis=1)[:, ::-1]
    for p in p_values:
        lam, lam_max = low_spectrum(aff.binarize_sorted(a, row_sorted, p), max_speakers + 1)
        gaps = eigengap_vector(lam)
        g = float(gaps.max()) / (lam_max + EPSILON) if gaps.size else 0.0
        r = p / g if g > 0 else float("inf")
        eigenvalues_per_p.append(lam)
        gaps_per_p.append(gaps)
        lambda_max_per_p.append(lam_max)
        g_values.append(g)
        r_values.append(r)

    if not np.isfinite(r_values).any():
        raise IndeterminateSpeakerCountError(
            "all candidate binarizations have zero eigengap ratio; "
            "the affinity carries no cluster structure"
        )
    best = int(np.argmin(r_values))
    p_hat = p_values[best]
    k_hat = int(np.argmax(gaps_per_p[best])) + 1
    if k_hat == max_speakers:
        log.warning(
            "eigengap count clamped: the largest gap is the last one searched, "
            "so the count reached max_speakers=%d",
            max_speakers,
        )
    return EigengapReport(
        p_values,
        eigenvalues_per_p,
        gaps_per_p,
        lambda_max_per_p,
        g_values,
        r_values,
        p_hat,
        k_hat,
        max_speakers,
    )
