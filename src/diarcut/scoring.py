"""Diarization error rate with missed/false-alarm/confusion decomposition.

The time axis is cut at every interval boundary; within each elementary
region the reference and hypothesis speaker sets are constant.  Missed
speech, false alarm and confusion accumulate region by region under the
one-to-one speaker mapping that maximizes total co-occurrence duration, and
are reported as percentages of total reference speaker time.  An optional
collar excludes a window around every reference boundary from scoring.

The mapping is an exact linear assignment by the Hungarian method with
shortest augmenting paths (Kuhn 1955; Crouse, IEEE TAES 2016).  Summed over
the regions, the correct time is the mapped pairs' total co-occurrence, so
every optimal mapping gives the same DER and a tie may resolve either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EmptyReferenceError
from .ingest import Timeline


@dataclass
class DerBreakdown:
    """Error components as percentages of scored reference speaker time."""

    missed: float
    false_alarm: float
    confusion: float
    der: float
    total_reference_speaker_time: float
    missed_seconds: float
    false_alarm_seconds: float
    confusion_seconds: float


def _regions(reference: Timeline, hypothesis: Timeline, collar: float):
    """Elementary scored regions as (duration, ref_speakers, hyp_speakers).

    A single sweep over the sorted boundary instants keeps three counted
    tracks: the active reference speakers, the active hypothesis speakers,
    and the collar windows ``[b - collar, b + collar]`` around each reference
    boundary b.  A region is scored only while no collar window is open.
    """
    if not collar >= 0:
        raise ContractError(f"collar must be non-negative, got {collar}")
    events: dict[float, list[tuple[int, int, str]]] = {}
    for which, timeline in ((0, reference), (1, hypothesis)):
        for spk, s, e in timeline.entries:
            events.setdefault(s, []).append((which, +1, spk))
            events.setdefault(e, []).append((which, -1, spk))
    if collar > 0:
        for b in {t for _, s, e in reference.entries for t in (s, e)}:
            events.setdefault(b - collar, []).append((2, +1, "collar"))
            events.setdefault(b + collar, []).append((2, -1, "collar"))

    times = sorted(events)
    # every event at an instant applies before the region that starts there,
    # so an interval is never active at its own right edge
    active = ({}, {}, {})
    regions = []
    for left, right in zip(times, times[1:]):
        for which, delta, key in events[left]:
            count = active[which].get(key, 0) + delta
            if count:
                active[which][key] = count
            else:
                active[which].pop(key, None)
        if not active[2] and (active[0] or active[1]):
            regions.append(
                (right - left, frozenset(active[0]), frozenset(active[1]))
            )
    return regions


def _linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A minimum-cost assignment ``(rows, cols)``, the pairs sorted by row.

    The Hungarian method with row and column potentials: each row joins by a
    shortest augmenting path over reduced costs.  The cost must be finite.
    """
    if cost.shape[1] < cost.shape[0]:  # tall: solve the transpose
        rows = _linear_sum_assignment(cost.T)[1]
        return np.sort(rows), np.argsort(rows)
    nr, nc = cost.shape
    cost = np.hstack([cost, np.full((nr, 1), np.inf)])  # column nc starts each path
    u, v, row4col = np.zeros(nr), np.zeros(nc + 1), np.full(nc + 1, -1)
    for i in range(nr):
        row4col[nc], j = i, nc
        shortest, way = np.full(nc + 1, np.inf), np.full(nc + 1, nc)
        seen = np.zeros(nc + 1, bool)
        while row4col[j] != -1:
            seen[j], r = True, row4col[j]
            reduced = cost[r] - u[r] - v
            better = ~seen & (reduced < shortest)
            shortest[better], way[better] = reduced[better], j
            j = np.argmin(np.where(seen, np.inf, shortest))
            delta = shortest[j]
            u[row4col[seen]] += delta
            v[seen] -= delta
            shortest[~seen] -= delta
        while j != nc:  # flip the path back to its start
            row4col[j], j = row4col[way[j]], way[j]
    return np.arange(nr), np.argsort(row4col[:nc])[nc - nr:]  # free columns (-1) sort first


def _optimal_mapping(regions, ref_speakers, hyp_speakers) -> dict[str, str]:
    if not ref_speakers or not hyp_speakers:
        return {}
    matrix = np.zeros((len(hyp_speakers), len(ref_speakers)))
    h_index = {s: i for i, s in enumerate(hyp_speakers)}
    r_index = {s: i for i, s in enumerate(ref_speakers)}
    for dur, ref_active, hyp_active in regions:
        for h in hyp_active:
            for r in ref_active:
                matrix[h_index[h], r_index[r]] += dur
    if not np.isfinite(matrix).all():
        raise ContractError("speaker co-occurrence time overflows float64")
    rows, cols = _linear_sum_assignment(-matrix)
    return {
        hyp_speakers[i]: ref_speakers[j]
        for i, j in zip(rows, cols)
        if matrix[i, j] > 0
    }


def der_score(
    reference: Timeline, hypothesis: Timeline, collar: float = 0.0
) -> DerBreakdown:
    """Score a hypothesis timeline against a reference.

    Args:
        reference: ground-truth speaker intervals (normalized).
        hypothesis: system output intervals (normalized).
        collar: seconds excluded around each reference boundary.

    Returns:
        DerBreakdown; the DER percentage is the exact sum of the three
        component percentages.

    Raises:
        EmptyReferenceError: the reference has no scored speaker time.
        ContractError: a speaker time total overflows float64.
    """
    regions = _regions(reference, hypothesis, collar)
    mapping = _optimal_mapping(regions, reference.speakers, hypothesis.speakers)

    ref_time = 0.0
    missed = 0.0
    false_alarm = 0.0
    confusion = 0.0
    for dur, ref_active, hyp_active in regions:
        n_ref = len(ref_active)
        n_hyp = len(hyp_active)
        correct = sum(
            1 for h in hyp_active if mapping.get(h) in ref_active
        )
        ref_time += n_ref * dur
        missed += max(0, n_ref - n_hyp) * dur
        false_alarm += max(0, n_hyp - n_ref) * dur
        confusion += (min(n_ref, n_hyp) - correct) * dur
    if not np.isfinite([ref_time, missed, false_alarm, confusion]).all():
        raise ContractError("speaker time total overflows float64; DER is undefined")
    if ref_time <= 0:
        raise EmptyReferenceError(
            "reference timeline has no scored speaker time; DER is undefined"
        )
    ms = 100.0 * missed / ref_time
    fa = 100.0 * false_alarm / ref_time
    conf = 100.0 * confusion / ref_time
    return DerBreakdown(
        missed=ms,
        false_alarm=fa,
        confusion=conf,
        der=ms + fa + conf,
        total_reference_speaker_time=ref_time,
        missed_seconds=missed,
        false_alarm_seconds=false_alarm,
        confusion_seconds=confusion,
    )
