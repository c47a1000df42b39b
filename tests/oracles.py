"""Reference implementations that only the tests call.

Each is a direct, unoptimized statement of a quantity the package computes
or relies on: the whole affinity of unit rows, which the binarization forms
one row block at a time, the per-row binarization the vectorized
``binarize`` must reproduce, the unnormalized graph Laplacian whose
spectrum the speaker count reads, the clustering objectives, the decoder's
emission score, the duration-expanded state graph with its Viterbi
decoder, whose labels the run-length ``decode`` must reproduce, the
agglomerative (AHC) baseline the quality grid compares against, and the
scorer's regions with the collar windows merged up front, which the
one-sweep ``_regions`` must reproduce, the speaker mapping that
``der_score`` scores under, and the posteriors file read one line at a
time, whose rows and errors the block reader must reproduce.
"""

import bisect
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diarcut import scoring
from diarcut.affinity import TIE_EPS
from diarcut.errors import ContractError, InfeasiblePathError, ParseError
from diarcut.ingest import FramePosteriors, OverlapVector, RowError, Timeline
from diarcut.overlap_decode import CLASSES, OVERLAP, SILENCE, SINGLE, DurationConfig, run_bounds


# ---------------------------------------------------------------------------
# binarization


def full_affinity(unit) -> np.ndarray:
    """The N x N affinity of unit rows, u u^T with a unit diagonal, in one piece."""
    u = np.asarray(unit, dtype=float)
    aff = u @ u.T
    np.fill_diagonal(aff, 1.0)
    return aff


def p_binarize(affinity: np.ndarray, p) -> np.ndarray:
    """Keep the p largest values per row (ties within TIE_EPS), symmetrize.

    ``p`` is one count for every row or one count per row.
    """
    aff = np.asarray(affinity, dtype=float)
    n = aff.shape[0]
    if aff.ndim != 2 or aff.shape[1] != n:
        raise ContractError("affinity must be square")
    p = np.broadcast_to(p, n)
    if not ((1 <= p) & (p <= n)).all():
        raise ContractError(f"binarization factor p={p} outside [1, {n}]")
    row_sorted = np.sort(aff, axis=1)[:, ::-1]
    cutoff = row_sorted[np.arange(n), p - 1]
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
# posteriors file


def posteriors_by_line(path) -> FramePosteriors:
    """Read a posteriors file one line at a time, each line decoded, stripped
    and parsed on its own; every refusal is a ParseError naming the file line.
    """
    path = Path(path)
    shift, header_line, numbers, rows = None, None, [], []

    def error(problem, lineno):
        return ParseError(f"{path}:{lineno}: {problem}")

    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"not UTF-8 text ({exc.reason})", lineno)
            text = line.strip()
            if text.startswith("#"):
                parts = text[1:].split()
                if len(parts) != 2 or parts[0] != "frame_shift":
                    raise error(f"unrecognized header {text!r}", lineno)
                if header_line is not None:
                    raise error(f"second header {text!r}; line {header_line} has the first", lineno)
                try:
                    shift = float(parts[1])
                except ValueError:
                    raise error(f"bad frame_shift header {text!r}", lineno)
                header_line = lineno
            elif text:
                parts = text.split()
                if len(parts) != 3:
                    raise error(f"expected 3 posteriors, got {len(parts)}", lineno)
                try:
                    rows.append([float(v) for v in parts])
                except ValueError:
                    raise error("bad posterior value", lineno)
                numbers.append(lineno)
    if shift is None:
        raise ParseError(f"{path}: missing '#frame_shift S' header")
    if not rows:
        raise ParseError(f"{path}: no posterior rows")
    try:
        return FramePosteriors("rec", shift, np.array(rows))
    except RowError as exc:
        raise error(str(exc), numbers[exc.row]) from exc
    except ContractError as exc:
        raise error(str(exc), header_line) from exc


# ---------------------------------------------------------------------------
# graph Laplacian


def laplacian(binarized: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree vector and unnormalized Laplacian L = diag(d) - A.

    Args:
        binarized: symmetric nonnegative matrix (tolerance 1e-9).

    Returns:
        (degree, laplacian); rows of the Laplacian sum to zero and the matrix
        is positive semidefinite.
    """
    mat = np.asarray(binarized, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractError("binarized affinity must be square")
    if np.abs(mat - mat.T).max(initial=0.0) > 1e-9:
        raise ContractError("binarized affinity must be symmetric")
    if mat.size and mat.min() < 0:
        raise ContractError("binarized affinity must be nonnegative")
    degree = mat.sum(axis=1)
    return degree, np.diag(degree) - mat


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
    x = np.asarray(assignment, dtype=float)
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
    x = np.asarray(assignment, dtype=float)
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

# Exits permitted into each class; overlap reaches silence only through
# single-speaker speech and vice versa.
_ALLOWED_INTO = {
    SILENCE: (SINGLE,),
    SINGLE: (SILENCE, OVERLAP),
    OVERLAP: (SINGLE,),
}


def path_score(labels: np.ndarray, posteriors: FramePosteriors) -> float:
    """Emission score of an arbitrary labeling under the decoder's model."""
    with np.errstate(divide="ignore"):
        log_emis = np.log(posteriors.rows)
    return float(log_emis[np.arange(len(labels)), np.asarray(labels)].sum())


@dataclass
class DurationHmm:
    """Expanded state graph encoding the run-length constraints."""

    frame_shift: float
    min_frames: tuple[int, int, int]
    max_frames: tuple[int | None, int | None, int | None]
    state_class: np.ndarray
    state_pos: np.ndarray
    entry_state: tuple[int, int, int]
    loop_states: np.ndarray
    final_mask: np.ndarray
    entry_candidates: dict[int, np.ndarray]

    @property
    def num_states(self) -> int:
        return len(self.state_class)


def build_duration_hmm(cfg: DurationConfig, frame_shift: float) -> DurationHmm:
    """Expand the duration constraints into a decodable state graph.

    Each class becomes a left-to-right chain: a mandatory prefix enforcing the
    minimum run length, then an extension region up to the maximum, or a
    self-looping tail state when unbounded.  Exits lead only to entry states
    of permitted classes.  States are laid out class-major (silence, single,
    overlap), so index order realizes the tie-break order.
    """
    min_frames, max_frames = zip(*run_bounds(cfg, frame_shift))
    state_class: list[int] = []
    state_pos: list[int] = []
    entry_state = []
    loop_states = []
    for cls in CLASSES:
        chain = min_frames[cls] if max_frames[cls] is None else max_frames[cls]
        entry_state.append(len(state_class))
        for pos in range(1, chain + 1):
            state_class.append(cls)
            state_pos.append(pos)
        if max_frames[cls] is None:
            loop_states.append(entry_state[cls] + min_frames[cls] - 1)

    state_class = np.array(state_class, dtype=np.int8)
    state_pos = np.array(state_pos, dtype=np.int32)
    mins = np.array(min_frames)[state_class]
    final_mask = state_pos >= mins

    # A state may exit exactly when its run already satisfies the minimum.
    entry_candidates = {}
    for cls in CLASSES:
        cands = [
            i
            for i in range(len(state_class))
            if state_class[i] in _ALLOWED_INTO[cls] and final_mask[i]
        ]
        entry_candidates[cls] = np.array(cands, dtype=np.int64)

    return DurationHmm(
        frame_shift,
        tuple(min_frames),
        tuple(max_frames),
        state_class,
        state_pos,
        tuple(entry_state),
        np.array(loop_states, dtype=np.int64),
        final_mask,
        entry_candidates,
    )


def chain_viterbi(log_emis: np.ndarray, hmm: DurationHmm) -> np.ndarray:
    """Viterbi over the expanded graph: best labeling of a T x 3 log-emission
    matrix, with a T x S backpointer table.  All arcs score zero; ties go to
    the lower state index, and a loop state prefers advancing over looping."""
    t_len = len(log_emis)
    s_len = hmm.num_states
    backptr = np.zeros((t_len, s_len), dtype=np.int64)

    advance_dst = np.flatnonzero(hmm.state_pos > 1)
    entry_items = sorted(hmm.entry_candidates.items(), key=lambda kv: hmm.entry_state[kv[0]])

    score = np.full(s_len, -np.inf)
    for cls in CLASSES:
        score[hmm.entry_state[cls]] = 0.0
    score = score + log_emis[0][hmm.state_class]

    for t in range(1, t_len):
        new = np.full(s_len, -np.inf)
        new[advance_dst] = score[advance_dst - 1]
        backptr[t, advance_dst] = advance_dst - 1
        for s in hmm.loop_states:
            # Prefer the lower-index predecessor (the advancing one) on ties.
            if score[s] > new[s]:
                new[s] = score[s]
                backptr[t, s] = s
        for cls, cands in entry_items:
            entry = hmm.entry_state[cls]
            if cands.size == 0:
                continue
            vals = score[cands]
            best = int(np.argmax(vals))
            if vals[best] > new[entry]:
                new[entry] = vals[best]
                backptr[t, entry] = cands[best]
        score = new + log_emis[t][hmm.state_class]

    final_scores = np.where(hmm.final_mask, score, -np.inf)
    if not np.isfinite(final_scores).any():
        raise InfeasiblePathError(
            f"no labeling of {t_len} frames satisfies the duration constraints"
        )
    state = int(np.argmax(final_scores))
    states = np.empty(t_len, dtype=np.int64)
    states[-1] = state
    for t in range(t_len - 1, 0, -1):
        state = int(backptr[t, state])
        states[t - 1] = state
    return hmm.state_class[states]


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


# ---------------------------------------------------------------------------
# AHC baseline


# Cosine distance at which the average-linkage tree is cut. Tuned on the
# seed-1 four-speaker cells of the quality grid (sigma 0.15 and 0.23, overlap
# 0-40 %, 120 segments) over the grid 0.50, 0.55, ..., 1.20: 0.95 gave the
# lowest mean DER, 21.0 % (0.90: 30.8 %, 1.00: 59.7 %).
AHC_CUT = 0.95


def ahc_labels(vectors) -> np.ndarray:
    """One cluster label per segment, 0 to C - 1, from average-linkage AHC.

    The paper's baseline: agglomerative clustering of the embeddings on
    cosine distance, with the tree cut at distance AHC_CUT. It gives no
    segment two labels.
    """
    from scipy.cluster.hierarchy import fcluster, linkage

    tree = linkage(np.asarray(vectors, dtype=float), method="average", metric="cosine")
    return fcluster(tree, t=AHC_CUT, criterion="distance") - 1


# ---------------------------------------------------------------------------
# scoring


def merged_window_regions(reference: Timeline, hypothesis: Timeline, collar: float):
    """Scored regions as (duration, ref_speakers, hyp_speakers).

    The collar windows around the reference boundaries are merged into
    disjoint excluded intervals first; a region between two consecutive cut
    points is dropped when it lies inside one of them.
    """
    if not collar >= 0:
        raise ContractError(f"collar must be non-negative, got {collar}")
    excluded: list[tuple[float, float]] = []
    if collar > 0:
        for b in sorted({t for _, s, e in reference.entries for t in (s, e)}):
            lo, hi = b - collar, b + collar
            if excluded and lo <= excluded[-1][1]:
                excluded[-1] = (excluded[-1][0], max(excluded[-1][1], hi))
            else:
                excluded.append((lo, hi))

    events: dict[float, list[tuple[int, int, str]]] = {}
    for which, timeline in ((0, reference), (1, hypothesis)):
        for spk, s, e in timeline.entries:
            events.setdefault(s, []).append((which, +1, spk))
            events.setdefault(e, []).append((which, -1, spk))
    for s, e in excluded:
        events.setdefault(s, [])
        events.setdefault(e, [])

    exclusion_starts = [s for s, _ in excluded]
    times = sorted(events)
    active = ({}, {})
    regions = []
    for left, right in zip(times, times[1:]):
        for which, delta, spk in events[left]:
            count = active[which].get(spk, 0) + delta
            if count:
                active[which][spk] = count
            else:
                active[which].pop(spk, None)
        i = bisect.bisect_right(exclusion_starts, left) - 1
        if i >= 0 and right <= excluded[i][1]:
            continue
        if active[0] or active[1]:
            regions.append((right - left, frozenset(active[0]), frozenset(active[1])))
    return regions


def map_speakers(reference: Timeline, hypothesis: Timeline) -> dict[str, str]:
    """The one-to-one hypothesis -> reference mapping ``der_score`` scores under."""
    regions = scoring._regions(reference, hypothesis, 0.0)
    return scoring._optimal_mapping(regions, reference.speakers, hypothesis.speakers)
