"""Speaker counting via the normalized maximum eigengap of binarized graphs.

For each candidate binarization factor p the affinity is binarized, the
unnormalized Laplacian's full spectrum is computed, and the prominence of the
largest eigengap relative to the spectral radius scores the candidate.  The
factor minimizing r(p) = p / g_p wins, and the position of its largest
eigengap gives the estimated number of speakers.
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
    """Per-p diagnostics of the binarization sweep plus the chosen estimate."""

    p_values: list[int]
    eigenvalues_per_p: list[np.ndarray]
    gaps_per_p: list[np.ndarray]
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


def estimate(
    affinity: np.ndarray,
    p_min: int = 2,
    p_max: int = 20,
    max_speakers: int = 10,
) -> EigengapReport:
    """Sweep the binarization factor and estimate the number of speakers.

    For each p in [p_min, min(p_max, N-1)]: binarize, form the Laplacian,
    take the full eigenvalue set, snap near-zeros, and compute

        g_p = max(gaps[:max_speakers]) / (lambda_max + EPSILON)
        r(p) = p / g_p

    p_hat minimizes r (ties to the smaller p).  The estimated count is one
    plus the position of the largest gap among the first max_speakers gaps of
    the winning spectrum, i.e. the number of eigenvalues below that gap.
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
        EigengapReport with per-p spectra and the chosen (p_hat, k_hat).

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
        return EigengapReport([], [], [], [], [], n, 1, max_speakers)

    p_values = list(range(p_min, hi + 1))
    eigenvalues_per_p: list[np.ndarray] = []
    gaps_per_p: list[np.ndarray] = []
    g_values: list[float] = []
    r_values: list[float] = []

    # One descending sort per row serves every p in the sweep.
    row_sorted = np.sort(a, axis=1)[:, ::-1]
    for p in p_values:
        binarized = aff.binarize_sorted(a, row_sorted, p)
        # Symmetric by construction: skip the checks of aff.laplacian.
        lam = np.linalg.eigvalsh(np.diag(binarized.sum(axis=1)) - binarized)
        lam[np.abs(lam) < ZERO_SNAP] = 0.0
        gaps = eigengap_vector(lam)
        window = gaps[:max_speakers]
        g = float(window.max()) / (float(lam[-1]) + EPSILON) if window.size else 0.0
        r = p / g if g > 0 else float("inf")
        eigenvalues_per_p.append(lam)
        gaps_per_p.append(gaps)
        g_values.append(g)
        r_values.append(r)

    if not np.isfinite(r_values).any():
        raise IndeterminateSpeakerCountError(
            "all candidate binarizations have zero eigengap ratio; "
            "the affinity carries no cluster structure"
        )
    best = int(np.argmin(r_values))
    p_hat = p_values[best]
    gaps = gaps_per_p[best]
    k_hat = int(np.argmax(gaps[:max_speakers])) + 1
    unrestricted = int(np.argmax(gaps)) + 1
    if unrestricted != k_hat:
        log.warning(
            "eigengap count clamped: unrestricted argmax gives %d, "
            "limited to max_speakers=%d -> %d",
            unrestricted,
            max_speakers,
            k_hat,
        )
    return EigengapReport(
        p_values,
        eigenvalues_per_p,
        gaps_per_p,
        g_values,
        r_values,
        p_hat,
        k_hat,
        max_speakers,
    )
