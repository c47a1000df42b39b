import math

import numpy as np
import pytest

from diarcut.errors import ConfigError, ContractError, InfeasiblePathError
from diarcut.ingest import FramePosteriors, SegmentSpan
from diarcut.overlap_decode import (
    OVERLAP,
    SILENCE,
    SINGLE,
    DurationConfig,
    FrameLabels,
    build_duration_hmm,
    check_labels,
    frames_to_flags,
    viterbi,
)
from oracles import path_score, transition_matrix

ALLOWED_NEXT = {SILENCE: (SINGLE,), SINGLE: (SILENCE, OVERLAP), OVERLAP: (SINGLE,)}


def frame_config(min_sil=1, max_sil=None, min_sing=1, max_sing=None, min_ovl=1, max_ovl=None, **bias):
    """Duration bounds given in frames, mapped onto a 1-second frame shift."""
    return DurationConfig(
        min_silence=float(min_sil),
        max_silence=None if max_sil is None else float(max_sil),
        min_single=float(min_sing),
        max_single=None if max_sing is None else float(max_sing),
        min_overlap=float(min_ovl),
        max_overlap=None if max_ovl is None else float(max_ovl),
        **bias,
    )


def posteriors_from(rows):
    rows = np.asarray(rows, dtype=float)
    return FramePosteriors("rec", 1.0, rows / rows.sum(axis=1, keepdims=True))


def random_posteriors(rng, t):
    return posteriors_from(rng.dirichlet(np.ones(3), size=t))


def brute_force_best(post: FramePosteriors, cfg: DurationConfig) -> float:
    """Exhaustive search over duration-feasible labelings (small T only)."""
    t_len = post.num_frames
    shift = post.frame_shift
    mins, maxs = {}, {}
    for cls in (SILENCE, SINGLE, OVERLAP):
        lo, hi = cfg.bounds(cls)
        mins[cls] = math.ceil(round(lo / shift, 9))
        maxs[cls] = None if hi is None else math.ceil(round(hi / shift, 9))
    with np.errstate(divide="ignore"):
        log_emis = np.log(post.rows * cfg.biases()[None, :])

    best = -np.inf

    def extend(t, cls, run, score):
        nonlocal best
        if t == t_len:
            if run >= mins[cls]:
                best = max(best, score)
            return
        if maxs[cls] is None or run < maxs[cls]:
            extend(t + 1, cls, run + 1, score + log_emis[t, cls])
        if run >= mins[cls]:
            for nxt in ALLOWED_NEXT[cls]:
                extend(t + 1, nxt, 1, score + log_emis[t, nxt])

    for cls in (SILENCE, SINGLE, OVERLAP):
        extend(1, cls, 1, log_emis[0, cls])
    return best


def random_feasible_path(rng, t_len, cfg: DurationConfig, shift=1.0):
    """Rejection-sample one feasible labeling by stacking random runs."""
    mins, maxs = {}, {}
    for cls in (SILENCE, SINGLE, OVERLAP):
        lo, hi = cfg.bounds(cls)
        mins[cls] = math.ceil(round(lo / shift, 9))
        maxs[cls] = t_len if hi is None else math.ceil(round(hi / shift, 9))
    for _ in range(5000):
        labels = []
        cls = int(rng.integers(3))
        while len(labels) < t_len:
            run = int(rng.integers(mins[cls], maxs[cls] + 1))
            labels.extend([cls] * run)
            cls = int(rng.choice(ALLOWED_NEXT[cls]))
        labels = labels[:t_len]
        fl = FrameLabels(np.array(labels), shift)
        try:
            check_labels(fl, cfg)
            return fl
        except ContractError:
            continue
    raise AssertionError("could not sample a feasible path")


class TestDurationConfig:
    def test_defaults_valid(self):
        cfg = DurationConfig()
        assert cfg.min_single == 0.03 and cfg.max_single == 10.0
        assert cfg.min_overlap == 0.1 and cfg.max_overlap == 5.0

    def test_min_above_max_rejected(self):
        with pytest.raises(ConfigError):
            DurationConfig(min_overlap=2.0, max_overlap=1.0)

    def test_nonpositive_min_rejected(self):
        with pytest.raises(ConfigError):
            DurationConfig(min_silence=0.0)


class TestBuildDurationHmm:
    def test_chain_lengths(self):
        hmm = build_duration_hmm(frame_config(min_sing=3, max_sing=5), 1.0)
        assert hmm.min_frames[SINGLE] == 3
        assert hmm.max_frames[SINGLE] == 5
        assert (hmm.state_class == SINGLE).sum() == 5

    def test_unbounded_gets_tail_loop(self):
        hmm = build_duration_hmm(frame_config(min_sil=2), 1.0)
        assert (hmm.state_class == SILENCE).sum() == 2
        assert hmm.loop_states.size >= 1

    def test_silence_overlap_arcs_absent(self):
        hmm = build_duration_hmm(frame_config(), 1.0)
        t = transition_matrix(hmm)
        sil = np.flatnonzero(hmm.state_class == SILENCE)
        ovl = np.flatnonzero(hmm.state_class == OVERLAP)
        assert t[np.ix_(sil, ovl)].sum() == 0
        assert t[np.ix_(ovl, sil)].sum() == 0

    def test_min_below_frame_shift_rejected(self):
        with pytest.raises(ConfigError, match="shorter than one frame"):
            build_duration_hmm(DurationConfig(min_silence=0.005), 0.01)

    def test_seconds_to_frames(self):
        hmm = build_duration_hmm(DurationConfig(), 0.01)
        assert hmm.min_frames == (1, 3, 10)
        assert hmm.max_frames == (None, 1000, 500)


class TestViterbi:
    def test_pure_single(self):
        post = posteriors_from([[0.0, 1.0, 0.0]] * 100)
        labels = viterbi(post, frame_config())
        assert (labels.labels == SINGLE).all()

    def test_short_spike_smoothed(self, rng):
        # a 2-frame overlap burst cannot satisfy min_overlap=4 and must fold
        # into the surrounding single run; brute force confirms the optimum
        rows = [[0.05, 0.9, 0.05]] * 10
        rows[4] = [0.05, 0.1, 0.85]
        rows[5] = [0.05, 0.1, 0.85]
        post = posteriors_from(rows)
        cfg = frame_config(min_ovl=4)
        labels = viterbi(post, cfg)
        assert (labels.labels == SINGLE).all()
        assert path_score(labels.labels, post, cfg) == pytest.approx(
            brute_force_best(post, cfg)
        )

    def test_matches_brute_force(self, rng):
        cfg = frame_config(min_sil=1, max_sil=4, min_sing=2, max_sing=6, min_ovl=2, max_ovl=3)
        for trial in range(25):
            t_len = int(rng.integers(4, 11))
            post = random_posteriors(rng, t_len)
            labels = viterbi(post, cfg)
            check_labels(labels, cfg)
            assert path_score(labels.labels, post, cfg) == pytest.approx(
                brute_force_best(post, cfg), abs=1e-9
            )

    def test_beats_random_feasible_paths(self, rng):
        cfg = frame_config(min_sil=1, min_sing=2, min_ovl=2, max_ovl=5)
        post = random_posteriors(rng, 30)
        decoded = path_score(viterbi(post, cfg).labels, post, cfg)
        for _ in range(1000):
            fl = random_feasible_path(rng, 30, cfg)
            assert decoded >= path_score(fl.labels, post, cfg) - 1e-9

    def test_duration_bounds_hold(self, rng):
        cfg = frame_config(min_sil=2, max_sil=6, min_sing=3, max_sing=7, min_ovl=2, max_ovl=4)
        for trial in range(10):
            post = random_posteriors(rng, 40)
            labels = viterbi(post, cfg)
            check_labels(labels, cfg)

    def test_no_silence_overlap_adjacency(self, rng):
        cfg = frame_config()
        for _ in range(10):
            labels = viterbi(random_posteriors(rng, 25), cfg)
            runs = labels.runs()
            for (c1, _, _), (c2, _, _) in zip(runs, runs[1:]):
                assert {c1, c2} != {SILENCE, OVERLAP}

    def test_deterministic(self, rng):
        post = random_posteriors(rng, 30)
        cfg = frame_config(min_sing=2)
        a = viterbi(post, cfg)
        b = viterbi(post, cfg)
        assert np.array_equal(a.labels, b.labels)

    def test_infeasible_raises(self):
        # 2 frames cannot host any run: every class needs at least 3
        post = posteriors_from([[0.3, 0.4, 0.3]] * 2)
        cfg = frame_config(min_sil=3, max_sil=4, min_sing=3, max_sing=4, min_ovl=3, max_ovl=4)
        with pytest.raises(InfeasiblePathError):
            viterbi(post, cfg)

    def test_max_duration_forces_breaks(self):
        # a bounded single-speaker chain must yield to another class even
        # when the posteriors always favor single
        post = posteriors_from([[0.01, 0.98, 0.01]] * 23)
        cfg = frame_config(min_sing=1, max_sing=5, min_ovl=1, max_ovl=2)
        labels = viterbi(post, cfg)
        for cls, start, end in labels.runs():
            if cls == SINGLE:
                assert end - start <= 5
        assert (labels.labels == SINGLE).sum() >= 15

    def test_zero_probability_everywhere_is_infeasible(self):
        # hard-zero posteriors leave no positive-probability feasible path
        post = posteriors_from([[0.0, 1.0, 0.0]] * 8)
        cfg = frame_config(min_sing=1, max_sing=3, min_ovl=2, max_ovl=2)
        with pytest.raises(InfeasiblePathError):
            viterbi(post, cfg)

    def test_bias_shifts_decisions(self):
        rows = [[0.4, 0.6, 0.0]] * 6
        post = posteriors_from(rows)
        neutral = viterbi(post, frame_config())
        assert (neutral.labels == SINGLE).all()
        biased = viterbi(post, frame_config(bias_silence=2.0, bias_single=1.0))
        assert (biased.labels == SILENCE).all()


class TestFramesToFlags:
    def _span(self, start, end):
        return SegmentSpan("rec", 0, start, end)

    def _labels_with_overlap(self, total, ovl_start, ovl_end, shift=0.1):
        lab = np.full(total, SINGLE, dtype=np.int8)
        lab[ovl_start:ovl_end] = OVERLAP
        return FrameLabels(lab, shift)

    def test_majority_flagged(self):
        labels = self._labels_with_overlap(30, 0, 8)  # 0.8 s of overlap
        flags = frames_to_flags(labels, [self._span(0.0, 1.5)])
        assert flags.flags.tolist() == [1]

    def test_minority_not_flagged(self):
        labels = self._labels_with_overlap(30, 0, 7)  # 0.7 s
        flags = frames_to_flags(labels, [self._span(0.0, 1.5)])
        assert flags.flags.tolist() == [0]

    def test_exact_half_inclusive(self):
        labels = self._labels_with_overlap(30, 0, 15)  # 0.75 s over a 1.5 s span
        flags = frames_to_flags(labels, [self._span(0.0, 1.5)])
        assert flags.flags.tolist() == [1]

    def test_span_beyond_grid_counts_silence(self):
        labels = self._labels_with_overlap(10, 0, 10)  # 1 s of overlap total
        flags = frames_to_flags(labels, [self._span(0.0, 3.0)])
        assert flags.flags.tolist() == [0]
