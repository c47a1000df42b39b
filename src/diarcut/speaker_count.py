"""Speaker counting via the normalized maximum eigengap of binarized graphs.

For each candidate binarization factor p the affinity is binarized, and the
lowest min(max_speakers + 1, N) eigenvalues and the largest eigenvalue of its
unnormalized Laplacian are computed; the prominence of the largest eigengap
among the low ones relative to the spectral radius scores the candidate.  The
factor minimizing r(p) = p / g_p wins, and the position of its largest
eigengap gives the estimated number of speakers.

Every eigenvalue comes from ``affinity.graph_eigh``: small graphs are
dense and take the full spectrum from LAPACK; CSR graphs (SPARSE_MIN_N rows
or more) take the low end from Lanczos, null space (one zero per component)
deflated, stopped at residual ARPACK_TOL: LAPACK's values to about 1e-13.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import affinity as aff
from .errors import ContractError

log = logging.getLogger(__name__)

# Eigenvalues this close to zero are snapped to exactly zero so the
# multiplicity of the zero eigenvalue (= connected components) is stable.
ZERO_SNAP = 1e-10

# Added to lambda_max in g_p. Every swept graph has edges, so lambda_max >= 1/2;
# the term only rounds g_p, and stays so that g_p keeps its bits.
EPSILON = 1e-10

@dataclass
class EigengapReport:
    """Per-p diagnostics of the binarization sweep plus the chosen estimate.

    ``eigenvalues_per_p`` holds the lowest min(max_speakers + 1, N) Laplacian
    eigenvalues of each swept graph, ``gaps_per_p`` their consecutive gaps
    and ``lambda_max_per_p`` the largest eigenvalue, so every g_p can be
    recomputed from the report.  ``to_dict`` writes r(p) = p / g_p as None
    (JSON null) where g_p = 0, since strict JSON has no Infinity.
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
        out["r_values"] = [r if np.isfinite(r) else None for r in self.r_values]
        return out


def low_spectrum(binarized, m: int) -> tuple[np.ndarray, float]:
    """Lowest ``m`` eigenvalues (fewer when N < m), ascending, and the largest
    one of the Laplacian L = diag(d) - A of a symmetric binarized graph A.

    Every solve goes through ``affinity.graph_eigh``. A dense graph takes
    all N eigenvalues from one LAPACK ``eigvalsh``, which reads both ends
    at once. A CSR graph takes lambda_max and then the low end with the
    components' indicator vectors as basis: L has one zero per component, so
    c >= m components give m zeros; otherwise Lanczos finds the next m - c
    with the null space lifted above lambda_max. Both Lanczos solves stop at residual
    ARPACK_TOL. Near-zeros (ZERO_SNAP) of the low end snap to zero. Raises
    NumericalError if LAPACK fails or Lanczos fails to converge or breaks down.
    """
    n = binarized.shape[0]
    if isinstance(binarized, np.ndarray):
        # Symmetric by construction, so L is formed without checks.
        lap = np.diag(binarized.sum(axis=1))
        lap -= binarized
        lam = aff.graph_eigh(lap, n, "SA")[1]
        low, lam_max = lam[:m], float(lam[-1])  # lambda_max is 0 or >= 1/2: no snap
    else:
        from scipy import sparse  # only large graphs pay its import time
        lap = sparse.diags(np.asarray(binarized.sum(axis=1)).ravel()) - binarized
        lam_max = float(aff.graph_eigh(lap, 1, "LA")[1][0])
        c, values, _ = aff.graph_eigh(lap, min(m, n), "SA", np.ones(n), lam_max + 1.0)
        low = np.concatenate([np.zeros(c), values])[:m]
    low[np.abs(low) < ZERO_SNAP] = 0.0
    return low, lam_max


def estimate(
    unit: np.ndarray,
    p_min: int = 2,
    p_max: int = 20,
    max_speakers: int = 10,
) -> EigengapReport:
    """Sweep the binarization factor and estimate the number of speakers.

    For each p in [p_min, min(p_max, N-1)]: binarize, take the lowest
    min(max_speakers + 1, N) Laplacian eigenvalues and lambda_max from
    ``low_spectrum`` (near-zeros snapped), one graph at a time.  The scores
    come from the stacked spectra, one row per p, in whole-array steps:

        g_p = max(gaps) / (lambda_max + EPSILON)
        r(p) = p / g_p  (inf where g_p = 0)

    p_hat minimizes r (ties to the smaller p).  The estimated count is one
    plus the position of the largest of those max_speakers gaps of the
    winning spectrum, i.e. the number of eigenvalues below that gap.
    Restricting the gap search bounds the estimate by max_speakers and keeps
    sparse graphs with many tiny components from dominating the sweep. If
    every g_p is zero (more than max_speakers components at every p), the
    count is clamped to max_speakers at the largest swept p.

    Args:
        unit: N x d unit rows (``affinity.normalize_rows``) of the segments
            to count on (e.g. the single-speaker rows); the affinity is
            their products, with the diagonal taken as 1.
        p_min, p_max: inclusive sweep bounds, 2 <= p_min <= p_max (every row
            keeps another); the upper one is clipped to N-1.  With N-1 < p_min
            the sweep is empty and the estimate is one speaker at p_hat = N.
        max_speakers: cap on the estimated count; the gap search is limited
            to this many leading positions.

    Returns:
        EigengapReport with per-p partial spectra and the chosen
        (p_hat, k_hat).
    """
    u = aff.unit_rows(unit)
    n = u.shape[0]
    if max_speakers < 1:
        raise ContractError("max_speakers must be at least 1")
    if not 2 <= p_min <= p_max:
        raise ContractError(f"binarization sweep needs 2 <= p_min <= p_max, got {p_min}:{p_max}")
    hi = min(p_max, n - 1)
    if hi < p_min:
        # Too few segments to sweep: one speaker, every segment linked.
        aff.affinity_rows(u, 0, n)  # at most p_min rows, checked finite
        log.warning("%d segments are too few for a sweep from p=%d; one speaker", n, p_min)
        return EigengapReport([], [], [], [], [], [], n, 1, max_speakers)

    p_values = list(range(p_min, hi + 1))
    spectra = [low_spectrum(graph, max_speakers + 1) for graph in aff.binarize_sweep(u, p_values)]
    lam = np.array([low for low, _ in spectra])  # rows ascending, so gaps >= 0
    lam_max = np.array([top for _, top in spectra])
    gaps = np.diff(lam, axis=1)
    g = gaps.max(axis=1) / (lam_max + EPSILON)
    r = np.divide(p_values, g, out=np.full(g.shape, np.inf), where=g > 0)

    if np.isfinite(r).any():
        best = int(np.argmin(r))
        k_hat = int(np.argmax(gaps[best])) + 1
    else:  # every swept graph has more than max_speakers components
        best, k_hat = len(p_values) - 1, max_speakers
    p_hat = p_values[best]
    if k_hat == max_speakers:
        log.warning("eigengap count clamped: the count reached max_speakers=%d", max_speakers)
    return EigengapReport(
        p_values,
        list(lam),
        list(gaps),
        lam_max.tolist(),
        g.tolist(),
        r.tolist(),
        p_hat,
        k_hat,
        max_speakers,
    )
