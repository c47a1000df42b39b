import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from diarcut.errors import ConfigError, ContractError, InfeasiblePathError
from diarcut.ingest import FramePosteriors, SegmentSpan
from diarcut.overlap_decode import (
    CLASS_NAMES,
    OVERLAP,
    SILENCE,
    SINGLE,
    DurationConfig,
    FrameLabels,
    check_labels,
    decode,
    frames_to_flags,
    run_bounds,
    viterbi,
)
from oracles import build_duration_hmm, chain_viterbi, path_score, transition_matrix

ALLOWED_NEXT = {SILENCE: (SINGLE,), SINGLE: (SILENCE, OVERLAP), OVERLAP: (SINGLE,)}


def frame_config(min_sil=1, max_sil=None, min_sing=1, max_sing=None, min_ovl=1, max_ovl=None):
    """Duration bounds given in frames, mapped onto a 1-second frame shift."""
    return DurationConfig(
        min_silence=float(min_sil),
        max_silence=None if max_sil is None else float(max_sil),
        min_single=float(min_sing),
        max_single=None if max_sing is None else float(max_sing),
        min_overlap=float(min_ovl),
        max_overlap=None if max_ovl is None else float(max_ovl),
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
        log_emis = np.log(post.rows)

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

    @pytest.mark.parametrize(
        "field", ["min_overlap", "max_single", "max_silence", "min_single", "min_silence"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            DurationConfig(**{field: value})


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



@st.composite
def duration_configs(draw):
    """Valid bounds: positive finite minima, each maximum at least its minimum or None."""
    values = {}
    for name in CLASS_NAMES:
        lo = values[f"min_{name}"] = draw(st.floats(0.0, 1e300, exclude_min=True))
        values[f"max_{name}"] = draw(st.none() | st.floats(lo, 1e300))
    return DurationConfig(**values)


class TestRunBounds:
    def test_min_below_frame_shift_is_one_frame(self):
        # any run lasts at least one frame, so a sub-frame minimum is always met
        assert run_bounds(DurationConfig(min_silence=0.005), 0.01)[SILENCE] == (1, None)

    def test_seconds_to_frames(self):
        assert run_bounds(DurationConfig(), 0.01) == ((1, None), (3, 1000), (10, 500))

    def test_defaults_at_twenty_ms(self):
        assert run_bounds(DurationConfig(), 0.02) == ((1, None), (2, 500), (5, 250))

    def test_vanishing_bounds_floor_at_one_frame(self):
        # 1e-300 / 0.01 rounds to 0 frames; the floor keeps the run one frame long
        cfg = DurationConfig(min_overlap=1e-300, max_overlap=1e-300)
        assert run_bounds(cfg, 0.01)[OVERLAP] == (1, 1)

    @settings(max_examples=300, deadline=None, database=None)
    @given(cfg=duration_configs(), frame_shift=st.floats(1e-4, 1.0))
    def test_rounded_min_never_exceeds_max(self, cfg, frame_shift):
        # rounding up is monotone, so min <= max in seconds stays so in frames
        for lo, hi in run_bounds(cfg, frame_shift):
            assert 1 <= lo and (hi is None or lo <= hi)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, 0.0, -0.01, 1e-320])
    def test_bad_frame_shift_rejected(self, shift):
        with pytest.raises(ConfigError):
            run_bounds(DurationConfig(), shift)


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
        assert path_score(labels.labels, post) == pytest.approx(
            brute_force_best(post, cfg)
        )

    def test_matches_brute_force(self, rng):
        cfg = frame_config(min_sil=1, max_sil=4, min_sing=2, max_sing=6, min_ovl=2, max_ovl=3)
        for trial in range(25):
            t_len = int(rng.integers(4, 11))
            post = random_posteriors(rng, t_len)
            labels = viterbi(post, cfg)
            check_labels(labels, cfg)
            assert path_score(labels.labels, post) == pytest.approx(
                brute_force_best(post, cfg), abs=1e-9
            )

    def test_beats_random_feasible_paths(self, rng):
        cfg = frame_config(min_sil=1, min_sing=2, min_ovl=2, max_ovl=5)
        post = random_posteriors(rng, 30)
        decoded = path_score(viterbi(post, cfg).labels, post)
        for _ in range(1000):
            fl = random_feasible_path(rng, 30, cfg)
            assert decoded >= path_score(fl.labels, post) - 1e-9

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

    @pytest.mark.parametrize(
        "labels, message",
        [([0, 0, 2, 2], "silence run followed by overlap run"),
         ([1, 2, 0], "overlap run followed by silence run")],
    )
    def test_check_labels_rejects_silence_overlap_adjacency(self, labels, message):
        with pytest.raises(ContractError, match=message):
            check_labels(FrameLabels(np.array(labels), 1.0), frame_config())

    @pytest.mark.parametrize(
        "labels, message",
        [([1, 1, 1, 1], "single run of 4 frames violates maximum 3"),
         ([1, 2, 2, 2, 1], "overlap run of 3 frames violates maximum 2")],
    )
    def test_check_labels_rejects_a_run_over_its_maximum(self, labels, message):
        with pytest.raises(ContractError, match=message):
            check_labels(FrameLabels(np.array(labels), 1.0), frame_config(max_sing=3, max_ovl=2))

    def test_default_bounds_at_twenty_ms(self):
        # min_silence 0.01 s is half a frame here; it decodes as a one-frame minimum
        rows = [[0.05, 0.9, 0.05]] * 150
        rows[50:75] = [[0.05, 0.1, 0.85]] * 25
        rows[100:110] = [[0.9, 0.05, 0.05]] * 10
        post = FramePosteriors("rec", 0.02, np.array(rows))
        labels = viterbi(post, DurationConfig())
        check_labels(labels, DurationConfig())
        assert labels.runs() == [
            (SINGLE, 0, 50), (OVERLAP, 50, 75), (SINGLE, 75, 100),
            (SILENCE, 100, 110), (SINGLE, 110, 150),
        ]

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

    def test_unreachable_minimum_forbids_the_class(self, rng):
        # a minimum far beyond any recording (--min-silence 1e300 gives about
        # 1e302 frames) must act as a class that no frame may take
        huge = 10**300
        for _ in range(500):
            t_len = int(rng.integers(1, 60))
            log_emis = np.log(rng.dirichlet(np.ones(3), size=t_len))
            log_emis[rng.random((t_len, 3)) < 0.05] = -np.inf
            bounds = list(run_bounds(random_frame_config(rng), 1.0))
            c = int(rng.integers(0, 3))
            forbidden, one_frame = log_emis.copy(), list(bounds)
            forbidden[:, c] = -np.inf
            one_frame[c] = (1, bounds[c][1])
            bounds[c] = (huge, None if bounds[c][1] is None else 10 * huge)
            assert outcome(decode, log_emis, bounds) == outcome(decode, forbidden, one_frame)
        assert run_bounds(DurationConfig(min_silence=1e300), 0.01)[SILENCE][0] > huge
        with pytest.raises(InfeasiblePathError):
            decode(np.zeros((50, 3)), [(huge, None), (huge, 10 * huge), (huge, None)])

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
        # a class is weighted by scaling its posterior column and
        # renormalizing each row: silence x2 turns [0.4, 0.6] into [4/7, 3/7]
        rows = np.array([[0.4, 0.6, 0.0]] * 6)
        neutral = viterbi(posteriors_from(rows), frame_config())
        assert (neutral.labels == SINGLE).all()
        biased = viterbi(posteriors_from(rows * [2.0, 1.0, 1.0]), frame_config())
        assert (biased.labels == SILENCE).all()


def reference_runs(lab):
    """Maximal runs by a scan over frames."""
    out = []
    start = 0
    for t in range(1, len(lab) + 1):
        if t == len(lab) or lab[t] != lab[start]:
            out.append((int(lab[start]), start, t))
            start = t
    return out


def reference_flags(labels, spans):
    """Half-span rule summing the overlap of every span with every interval."""
    intervals = labels.class_intervals(OVERLAP)
    flags = []
    for span in spans:
        cover = 0.0
        for s, e in intervals:
            cover += max(0.0, min(span.end, e) - max(span.start, s))
        flags.append(int(cover + 1e-9 >= 0.5 * span.duration))
    return flags


def random_labels(rng, t_len, shift):
    runs = np.repeat(rng.integers(0, 3, size=t_len), rng.integers(1, 6, size=t_len))
    return FrameLabels(runs[:t_len], shift)


class TestFrameLabels:
    @pytest.mark.parametrize("shift", [math.nan, math.inf, 0.0])
    def test_bad_frame_shift_rejected(self, shift):
        with pytest.raises(ContractError):
            FrameLabels(np.zeros(3), shift)

    @pytest.mark.parametrize("labels, message", [
        ([0, 3, 1], "labels must be in {0, 1, 2}"),
        ([-1], "labels must be in {0, 1, 2}"),
        # 257 used to become the valid label 1 when cast to int8
        ([0, 257], "labels must be in {0, 1, 2}"),
        ([[0, 1], [1, 0]], "labels must be a vector"),
    ])
    def test_bad_labels_rejected(self, labels, message):
        with pytest.raises(ContractError, match=re.escape(message)):
            FrameLabels(np.array(labels), 0.01)

    def test_runs_match_frame_scan(self, rng):
        assert FrameLabels(np.zeros(0), 0.01).runs() == []
        for _ in range(50):
            labels = random_labels(rng, int(rng.integers(1, 200)), 0.01)
            assert labels.runs() == reference_runs(labels.labels)


class TestFramesToFlags:
    def test_matches_all_pairs_reference(self, rng):
        for _ in range(100):
            shift = float(rng.choice([0.01, 0.1, 0.03]))
            labels = random_labels(rng, int(rng.integers(1, 400)), shift)
            horizon = len(labels) * shift
            # short spans, half off the frame grid and half on it, where a
            # cover of exactly half the span is common
            starts = rng.uniform(-0.1 * horizon, 1.1 * horizon, size=60)
            ends = starts + rng.uniform(0.3, 12.0, size=60) * shift
            starts[30:] = np.round(starts[30:] / shift) * shift
            ends[30:] = starts[30:] + rng.integers(1, 12, size=30) * shift
            spans = [SegmentSpan("rec", i, a, b) for i, (a, b) in enumerate(zip(starts, ends))]
            got = frames_to_flags(labels, spans).flags.tolist()
            assert got == reference_flags(labels, spans)

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

    @pytest.mark.parametrize(
        "labels, spans, past_grid",
        [
            # no overlap frame
            (FrameLabels([SILENCE] * 5 + [SINGLE] * 25, 0.1), [(0.0, 1.5), (1.5, 3.0), (2.5, 4.0)], 1),
            # no span
            (FrameLabels([OVERLAP] * 30, 0.1), [], 0),
            # no frame
            (FrameLabels(np.zeros(0), 0.01), [(0.0, 1.5), (0.75, 2.25)], 2),
        ],
    )
    def test_degenerate_inputs_flag_nothing(self, caplog, labels, spans, past_grid):
        caplog.set_level(logging.WARNING)
        flags = frames_to_flags(labels, [self._span(a, b) for a, b in spans])
        assert flags.flags.tolist() == [0] * len(spans)
        warned = [r.getMessage() for r in caplog.records if "label grid" in r.getMessage()]
        expected = (
            f"{past_grid} spans extend past the {len(labels)}-frame label grid; "
            "uncovered time treated as silence"
        )
        assert warned == ([expected] if past_grid else [])


def random_frame_config(rng):
    """Bounds of 1-5 frames per class, each unbounded with probability 0.4."""
    kw = {}
    for name in ("sil", "sing", "ovl"):
        lo = int(rng.integers(1, 6))
        kw[f"min_{name}"] = lo
        kw[f"max_{name}"] = None if rng.random() < 0.4 else lo + int(rng.integers(0, 8))
    return frame_config(**kw)


def outcome(decoder, log_emis, arg):
    """Labels as a list, or None when the decoder finds no feasible labeling."""
    try:
        return decoder(log_emis, arg).tolist()
    except InfeasiblePathError:
        return None


def both_decoders(log_emis, cfg, shift=1.0):
    return (
        outcome(decode, log_emis, run_bounds(cfg, shift)),
        outcome(chain_viterbi, log_emis, build_duration_hmm(cfg, shift)),
    )


class TestMatchesChainGraph:
    """The run-length decoder against Viterbi over the duration-expanded graph."""

    @pytest.mark.parametrize(
        "bounds, t_len, expected",
        [
            # the lowest class wins; silence keeps its running run
            (dict(), 4, [0, 0, 0, 0]),
            # a run that just reached its minimum beats a longer one
            (dict(min_sil=2, min_sing=2, min_ovl=2), 5, [1, 1, 1, 0, 0]),
            # the shortest run within the bounds wins
            (dict(max_sil=2, max_sing=2, max_ovl=2), 5, [0, 1, 0, 1, 0]),
        ],
    )
    def test_tie_rules_on_flat_emissions(self, bounds, t_len, expected):
        assert both_decoders(np.zeros((t_len, 3)), frame_config(**bounds)) == (
            expected,
            expected,
        )

    def test_integer_emissions_identical(self, rng):
        # integer-valued scores add exactly in any order, so every tie is a
        # true tie and both decoders must break it the same way
        infeasible = 0
        for trial in range(1500):
            cfg = random_frame_config(rng)
            t_len = int(rng.integers(1, 40))
            log_emis = -rng.integers(0, 5, size=(t_len, 3)).astype(float)
            log_emis[rng.random((t_len, 3)) < (0.0, 0.05, 0.2)[trial % 3]] = -np.inf
            ours, graph = both_decoders(log_emis, cfg)
            assert ours == graph
            infeasible += ours is None
        assert 0 < infeasible < 1500

    def test_continuous_posteriors_identical(self, rng):
        for _ in range(300):
            cfg = random_frame_config(rng)
            post = random_posteriors(rng, int(rng.integers(1, 60)))
            ours, graph = both_decoders(np.log(post.rows), cfg)
            assert ours == graph

    def test_default_config_identical(self, rng):
        classes = np.repeat(rng.integers(0, 3, size=40), rng.integers(20, 80, size=40))
        rows = rng.dirichlet(np.ones(3), size=len(classes)) * 0.5
        rows[np.arange(len(classes)), classes] += 0.5
        ours, graph = both_decoders(np.log(rows), DurationConfig(), shift=0.01)
        assert ours is not None and ours == graph

    def test_tied_rows_score_equal(self, rng):
        # quantized posteriors tie often; float rounding may then pick a
        # different labeling, but never a worse one
        for _ in range(300):
            cfg = random_frame_config(rng)
            counts = rng.integers(0, 3, size=(int(rng.integers(1, 40)), 3))
            counts[counts.sum(axis=1) == 0] = 1
            post = posteriors_from(counts)
            with np.errstate(divide="ignore"):
                ours, graph = both_decoders(np.log(post.rows), cfg)
            assert (ours is None) == (graph is None)
            if ours is not None:
                check_labels(FrameLabels(np.array(ours), 1.0), cfg)
                assert path_score(np.array(ours), post) == pytest.approx(
                    path_score(np.array(graph), post), abs=1e-9
                )

    def test_memory_independent_of_bounds(self, rng):
        t_len = 5_000
        log_emis = np.log(rng.dirichlet(np.ones(3), size=t_len))
        peaks = []
        for scale in (1.0, 100.0):
            cfg = DurationConfig(max_single=10.0 * scale, max_overlap=5.0 * scale)
            peaks.append(traced_peak(lambda: decode(log_emis, run_bounds(cfg, 0.01)))[1])
        # a few bytes per frame and class, where the expanded graph would
        # need one backpointer per frame and state
        assert max(peaks) < 55 * t_len

    def test_viterbi_memory_per_frame(self, rng):
        # the decoder reads the column-major log emissions in place; a class
        # whose minimum outlasts the recording queues no keys
        t_len = 100_000
        post = FramePosteriors("rec", 0.01, rng.dirichlet(np.ones(3), size=t_len))
        for cfg in (DurationConfig(), DurationConfig(min_silence=1e300),
                    DurationConfig(min_overlap=1e300, max_overlap=None)):
            _, peak = traced_peak(viterbi, post, cfg)
            assert peak <= 50 * t_len, (cfg, peak / t_len)
