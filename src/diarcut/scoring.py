"""Diarization error rate with missed/false-alarm/confusion decomposition.

The time axis is cut at every interval boundary; within each elementary
region the reference and hypothesis speaker sets are constant.  Missed
speech, false alarm and confusion accumulate region by region under the
one-to-one speaker mapping that maximizes total co-occurrence duration, and
are reported as percentages of total reference speaker time.  An optional
collar excludes a window around every reference boundary from scoring.

The mapping is an exact linear assignment by Crouse's shortest augmenting
path (D. F. Crouse, "On implementing 2D rectangular assignment algorithms",
IEEE TAES 2016), ported line for line from scipy's ``linear_sum_assignment``
so that ties resolve as there.
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
    """Minimum-cost assignment ``(rows, cols)``, exactly as scipy returns it.

    A port of scipy's rectangular LSAP: remaining columns start in reverse
    order and are swap-removed, a later equal reduced cost wins only if its
    column is unassigned, and a tall matrix is solved transposed with the
    pairs sorted by row.  The cost must be finite.
    """
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    u, v = np.zeros(nr), np.zeros(nc)
    path, col4row, row4col = np.full(nc, -1), np.full(nr, -1), np.full(nc, -1)
    for cur_row in range(nr):
        # shortest augmenting path from cur_row to an unassigned column
        shortest = np.full(nc, np.inf)
        seen_rows, seen_cols = np.zeros(nr, bool), np.zeros(nc, bool)
        remaining, n_left = np.arange(nc)[::-1].copy(), nc
        i, min_val, sink = cur_row, 0.0, -1
        while sink == -1:
            seen_rows[i] = True
            left = remaining[:n_left]
            reduced = min_val + cost[i, left] - u[i] - v[left]
            better = reduced < shortest[left]
            path[left[better]] = i
            shortest[left[better]] = reduced[better]
            min_val = shortest[left].min()
            ties = np.flatnonzero(shortest[left] == min_val)
            free = ties[row4col[left[ties]] == -1]
            index = free[-1] if free.size else ties[0]
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            n_left -= 1
            remaining[index] = remaining[n_left]
        # dual update, then flip the path
        u[cur_row] += min_val
        seen_rows[cur_row] = False
        u[seen_rows] += min_val - shortest[col4row[seen_rows]]
        v[seen_cols] -= min_val - shortest[seen_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


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


def map_speakers(reference: Timeline, hypothesis: Timeline) -> dict[str, str]:
    """One-to-one partial mapping hypothesis -> reference labels.

    Maximizes summed co-occurrence duration via an exact assignment; labels
    with no positive co-occurrence stay unmapped.
    """
    regions = _regions(reference, hypothesis, collar=0.0)
    return _optimal_mapping(regions, reference.speakers, hypothesis.speakers)


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
