"""Speaker counting via the normalized maximum eigengap of binarized graphs.

For each candidate binarization factor p the affinity is binarized, and the
lowest max_speakers + 1 eigenvalues and the largest eigenvalue of its
unnormalized Laplacian are computed; the prominence of the largest eigengap
among the low ones relative to the spectral radius scores the candidate.  The
factor minimizing r(p) = p / g_p wins, and the position of its largest
eigengap gives the estimated number of speakers.

Small graphs are dense and take the full spectrum; CSR graphs (SPARSE_MIN_N
rows or more) take the low end from Lanczos iteration with the null space
(one zero per connected component) deflated: the same values to rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import affinity as aff
from .errors import ContractError, IndeterminateSpeakerCountError

log = logging.getLogger(__name__)

# Eigenvalues this close to zero are snapped to exactly zero so the
# multiplicity of the zero eigenvalue (= connected components) is stable.
ZERO_SNAP = 1e-10

# Guards g_p against division by a zero spectral radius.
EPSILON = 1e-10

@dataclass
class EigengapReport:
    """Per-p diagnostics of the binarization sweep plus the chosen estimate.

    ``eigenvalues_per_p`` holds the lowest max_speakers + 1 Laplacian
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


def low_spectrum(binarized, m: int) -> tuple[np.ndarray, float]:
    """Lowest ``m`` eigenvalues and the largest one of a graph's Laplacian.

    The Laplacian is L = diag(d) - A of the symmetric binarized graph A. A
    dense graph, or one narrower than the Lanczos basis, takes the full
    spectrum from ``eigvalsh``. A CSR graph takes lambda_max and then the low
    end from ``affinity.lanczos_eigsh``, the latter with the components'
    indicator vectors as basis: L has one zero per component, so c >= m
    components give m zeros; otherwise Lanczos finds the next m - c with the
    null space lifted above lambda_max. Values within ZERO_SNAP of zero snap
    to zero on both paths.

    Args:
        binarized: symmetric nonnegative N x N graph, dense or CSR.
        m: number of lowest eigenvalues wanted; fewer come back when N < m.

    Returns:
        (lowest eigenvalues ascending, lambda_max).

    Raises:
        NumericalError: ARPACK failed to converge or broke down.
    """
    n = binarized.shape[0]
    if isinstance(binarized, np.ndarray) or n < aff.lanczos_ncv(m):
        dense = binarized if isinstance(binarized, np.ndarray) else binarized.toarray()
        # Symmetric by construction, so L is formed without checks.
        lam = np.linalg.eigvalsh(np.diag(dense.sum(axis=1)) - dense)
        lam[np.abs(lam) < ZERO_SNAP] = 0.0
        return lam[:m], float(lam[-1])

    from scipy import sparse  # only large graphs pay its import time
    lap = (sparse.diags(np.asarray(binarized.sum(axis=1)).ravel()) - binarized).tocsr()
    lam_max = float(aff.lanczos_eigsh(lap, 1, "LA")[1][0])
    c, values, _ = aff.lanczos_eigsh(lap, m, "SA", np.ones(n), lam_max + 1.0)
    low = np.concatenate([np.zeros(c), values])[:m]
    low[np.abs(low) < ZERO_SNAP] = 0.0
    return low, lam_max


def estimate(
    unit: np.ndarray,
    p_min: int = 2,
    p_max: int = 20,
    max_speakers: int = 10,
    index=None,
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
    sparse graphs with many tiny components from dominating the sweep. If
    every g_p is zero (more than max_speakers components at every p), the
    count is clamped to max_speakers at the largest swept p.

    Args:
        unit: N x d unit rows from ``affinity.cosine_affinity``; the
            affinity is their products, with the diagonal taken as 1.
        p_min, p_max: inclusive sweep bounds; the effective upper bound is
            clipped to N-1.  With N-1 < p_min the sweep is empty and the
            estimate is one speaker at p_hat = N.
        max_speakers: cap on the estimated count; the gap search is limited
            to this many leading positions.
        index: optional rows to count on, gathered once for the sweep.

    Returns:
        EigengapReport with per-p partial spectra and the chosen
        (p_hat, k_hat).

    Raises:
        IndeterminateSpeakerCountError: every g_p = 0 with N <= max_speakers.
    """
    u = aff.unit_rows(unit)
    n = u.shape[0] if index is None else len(index)
    if max_speakers < 1:
        raise ContractError("max_speakers must be at least 1")
    if not 1 <= p_min <= p_max:
        raise ContractError(f"empty binarization sweep: p_min={p_min}, p_max={p_max}")
    hi = min(p_max, n - 1)
    if hi < p_min:
        # Too few segments to sweep: one speaker, every segment linked.
        rows = u if index is None else u[index]
        aff.affinity_rows(rows, 0, len(rows))  # at most p_min rows, checked finite
        log.warning("%d segments are too few for a sweep from p=%d; one speaker", n, p_min)
        return EigengapReport([], [], [], [], [], [], n, 1, max_speakers)

    p_values = list(range(p_min, hi + 1))
    eigenvalues_per_p: list[np.ndarray] = []
    gaps_per_p: list[np.ndarray] = []
    lambda_max_per_p: list[float] = []
    g_values: list[float] = []
    r_values: list[float] = []

    for p, graph in zip(p_values, aff.binarize_sweep(u, p_values, index)):
        lam, lam_max = low_spectrum(graph, max_speakers + 1)
        gaps = eigengap_vector(lam)
        g = float(gaps.max()) / (lam_max + EPSILON) if gaps.size else 0.0
        r = p / g if g > 0 else float("inf")
        eigenvalues_per_p.append(lam)
        gaps_per_p.append(gaps)
        lambda_max_per_p.append(lam_max)
        g_values.append(g)
        r_values.append(r)

    if np.isfinite(r_values).any():
        best = int(np.argmin(r_values))
        k_hat = int(np.argmax(gaps_per_p[best])) + 1
    elif n > max_speakers:  # every swept graph has more than max_speakers components
        best, k_hat = len(p_values) - 1, max_speakers
    else:
        raise IndeterminateSpeakerCountError(
            "all candidate binarizations have zero eigengap ratio; "
            "the affinity carries no cluster structure"
        )
    p_hat = p_values[best]
    if k_hat == max_speakers:
        log.warning("eigengap count clamped: the count reached max_speakers=%d", max_speakers)
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
