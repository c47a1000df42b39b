import itertools
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_timeline, shifted
from diarcut import scoring
from diarcut.errors import EmptyReferenceError
from diarcut.ingest import Timeline
from diarcut.scoring import der_score
from oracles import map_speakers, merged_window_regions


def timelines(speakers: str):
    """Non-empty timelines with millisecond-aligned boundaries."""
    interval = st.tuples(
        st.sampled_from(speakers), st.integers(0, 60_000), st.integers(1, 5_000)
    )
    return st.lists(interval, min_size=1, max_size=12).map(
        lambda raw: Timeline(
            [(spk, a / 1000, (a + d) / 1000) for spk, a, d in raw]
        )
    )


def quarter_timelines(speakers: str):
    """Timelines on a quarter-second grid, so collar windows touch exactly."""
    interval = st.tuples(st.sampled_from(speakers), st.integers(0, 160), st.integers(1, 24))
    return st.lists(interval, min_size=1, max_size=10).map(
        lambda raw: Timeline([(spk, a / 4, (a + d) / 4) for spk, a, d in raw])
    )


def lattice_timelines(speakers: str):
    """Timelines on a 0.75 s lattice: co-occurrence ties are common and exact."""
    interval = st.tuples(st.sampled_from(speakers), st.integers(0, 16), st.integers(1, 4))
    return st.lists(interval, min_size=1, max_size=12).map(
        lambda raw: Timeline([(spk, 0.75 * a, 0.75 * (a + d)) for spk, a, d in raw])
    )


def real_timelines(speakers: str):
    """Timelines with real-valued times."""
    interval = st.tuples(st.sampled_from(speakers), st.floats(0, 60), st.floats(1e-3, 10))
    return st.lists(interval, min_size=1, max_size=12).map(
        lambda raw: Timeline([(spk, a, a + d) for spk, a, d in raw])
    )


# eighths of a second make windows touch and overlap; floats make them straddle
collars = st.one_of(st.integers(0, 24).map(lambda k: k / 8), st.floats(0, 3))


def breakdown(reference: Timeline, hypothesis: Timeline, collar: float):
    try:
        return asdict(der_score(reference, hypothesis, collar))
    except EmptyReferenceError:
        return None


def cooccurrence(ref: Timeline, hyp: Timeline, h: str, r: str) -> float:
    """Brute-force co-occurrence duration of one (hyp, ref) speaker pair."""
    total = 0.0
    for spk_h, s1, e1 in hyp.entries:
        if spk_h != h:
            continue
        for spk_r, s2, e2 in ref.entries:
            if spk_r == r:
                total += max(0.0, min(e1, e2) - max(s1, s2))
    return total


class TestDerScore:
    def test_identical(self):
        tl = Timeline([("a", 0.0, 5.0), ("b", 3.0, 8.0)])
        out = der_score(tl, tl)
        assert (out.missed, out.false_alarm, out.confusion, out.der) == (0, 0, 0, 0)

    def test_empty_hypothesis_all_missed(self):
        ref = Timeline([("spkA", 0.0, 10.0)])
        out = der_score(ref, Timeline())
        assert out.missed == pytest.approx(100.0)
        assert out.der == pytest.approx(100.0)

    def test_full_overlap_single_hypothesis(self):
        # two speakers across [0, 10], hypothesis covers one: half is missed
        ref = Timeline([("A", 0.0, 10.0), ("B", 0.0, 10.0)])
        hyp = Timeline([("X", 0.0, 10.0)])
        out = der_score(ref, hyp)
        assert out.total_reference_speaker_time == pytest.approx(20.0)
        assert out.missed == pytest.approx(50.0)
        assert out.false_alarm == pytest.approx(0.0)
        assert out.confusion == pytest.approx(0.0)
        assert out.der == pytest.approx(50.0)

    def test_pure_confusion(self):
        ref = Timeline([("A", 0.0, 4.0), ("B", 4.0, 8.0)])
        hyp = Timeline([("X", 0.0, 6.0), ("Y", 6.0, 8.0)])
        out = der_score(ref, hyp)
        # X maps to A (4 s > 2 s); frames 4-6 are confusions
        assert out.confusion == pytest.approx(100.0 * 2.0 / 8.0)
        assert out.der == pytest.approx(out.missed + out.false_alarm + out.confusion)

    def test_self_score_zero_random(self, rng):
        for _ in range(25):
            tl = random_timeline(rng)
            out = der_score(tl, tl)
            assert out.der == pytest.approx(0.0, abs=1e-12)

    def test_label_renaming_invariance(self, rng):
        for trial in range(10):
            ref = random_timeline(rng)
            hyp = random_timeline(rng, prefix="hyp")
            base = der_score(ref, hyp)
            renamed = Timeline(
                [(f"zz-{spk}", s, e) for spk, s, e in hyp.entries]
            )
            again = der_score(ref, renamed)
            assert again.der == pytest.approx(base.der, abs=1e-12)

    def test_translation_invariance(self, rng):
        ref = random_timeline(rng)
        hyp = random_timeline(rng, prefix="hyp")
        base = der_score(ref, hyp)
        moved = der_score(shifted(ref, 1000.0), shifted(hyp, 1000.0))
        assert moved.missed == pytest.approx(base.missed, abs=1e-9)
        assert moved.false_alarm == pytest.approx(base.false_alarm, abs=1e-9)
        assert moved.confusion == pytest.approx(base.confusion, abs=1e-9)

    def test_additivity_over_recordings(self, rng):
        # pooling the per-recording second counts equals scoring the
        # concatenation on a shifted time axis
        ref1, hyp1 = random_timeline(rng), random_timeline(rng, prefix="hyp")
        ref2, hyp2 = random_timeline(rng, prefix="s2-"), random_timeline(rng, prefix="h2-")
        a = der_score(ref1, hyp1)
        b = der_score(ref2, hyp2)
        offset = 10_000.0
        ref_cat = Timeline(ref1.entries + shifted(ref2, offset).entries)
        hyp_cat = Timeline(hyp1.entries + shifted(hyp2, offset).entries)
        pooled = der_score(ref_cat, hyp_cat)
        assert pooled.missed_seconds == pytest.approx(
            a.missed_seconds + b.missed_seconds, abs=1e-9
        )
        assert pooled.false_alarm_seconds == pytest.approx(
            a.false_alarm_seconds + b.false_alarm_seconds, abs=1e-9
        )
        assert pooled.confusion_seconds == pytest.approx(
            a.confusion_seconds + b.confusion_seconds, abs=1e-9
        )
        assert pooled.total_reference_speaker_time == pytest.approx(
            a.total_reference_speaker_time + b.total_reference_speaker_time,
            abs=1e-9,
        )

    def test_components_sum_exactly(self, rng):
        for _ in range(10):
            ref = random_timeline(rng)
            hyp = random_timeline(rng, prefix="hyp")
            out = der_score(ref, hyp)
            assert out.der == out.missed + out.false_alarm + out.confusion

    @settings(max_examples=150, deadline=None, database=None)
    @given(timelines("abc"))
    def test_self_score_is_zero(self, ref):
        assert der_score(ref, ref).der == 0

    @settings(max_examples=150, deadline=None, database=None)
    @given(timelines("abc"), timelines("xyz"), st.integers(-1000, 1000))
    def test_shift_invariant(self, ref, hyp, offset):
        base = der_score(ref, hyp)
        moved = der_score(shifted(ref, offset), shifted(hyp, offset))
        # shifted boundaries round differently, and DER is relative to the reference time
        assert moved.der == pytest.approx(base.der, rel=1e-7, abs=1e-9)

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            der_score(Timeline(), Timeline([("a", 0.0, 1.0)]))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.one_of(quarter_timelines("abc"), timelines("abc")), quarter_timelines("xyz"), collars)
    def test_collar_sweep_matches_merged_windows(self, ref, hyp, collar):
        got = breakdown(ref, hyp, collar)
        with mock.patch.object(scoring, "_regions", merged_window_regions):
            want = breakdown(ref, hyp, collar)
        assert got == want
        assert scoring._regions(ref, hyp, collar) == merged_window_regions(ref, hyp, collar)

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.one_of(st.tuples(lattice_timelines("abcd"), lattice_timelines("vwxyz")),
                     st.tuples(real_timelines("abcd"), real_timelines("vwxyz"))), collars)
    def test_same_breakdown_under_scipys_mapping(self, pair, collar):
        # any optimal mapping gives the same DER, so the scorer's output does
        # not depend on how its solver breaks ties; scipy is a test oracle only
        from scipy.optimize import linear_sum_assignment

        got = breakdown(*pair, collar)
        with mock.patch.object(scoring, "_linear_sum_assignment", linear_sum_assignment):
            want = breakdown(*pair, collar)
        assert got == want

    def test_collar_excludes_boundaries(self):
        ref = Timeline([("A", 0.0, 10.0)])
        hyp = Timeline([("A", 0.25, 10.0)])
        strict = der_score(ref, hyp, collar=0.0)
        forgiving = der_score(ref, hyp, collar=0.5)
        assert strict.missed > 0
        assert forgiving.missed == pytest.approx(0.0)
        assert forgiving.total_reference_speaker_time == pytest.approx(9.0)


class TestMapSpeakers:
    def test_identity(self):
        tl = Timeline([("a", 0.0, 2.0), ("b", 2.0, 4.0)])
        assert map_speakers(tl, tl) == {"a": "a", "b": "b"}

    def test_permutation(self):
        ref = Timeline([("a", 0.0, 2.0), ("b", 2.0, 4.0)])
        hyp = Timeline([("b", 0.0, 2.0), ("a", 2.0, 4.0)])
        assert map_speakers(ref, hyp) == {"b": "a", "a": "b"}

    def test_unmatched_labels_stay_unmapped(self):
        ref = Timeline([("a", 0.0, 2.0)])
        hyp = Timeline([("x", 0.0, 2.0), ("y", 5.0, 6.0)])
        mapping = map_speakers(ref, hyp)
        assert mapping == {"x": "a"}

    def test_equal_cooccurrence_either_mapping_gives_one_der(self):
        # x co-occurs 1 s with both a and b, so mapping it to either is optimal
        ref = Timeline([("a", 0.0, 1.0), ("b", 1.0, 2.0)])
        hyp = Timeline([("x", 0.0, 2.0)])
        assert map_speakers(ref, hyp) in ({"x": "a"}, {"x": "b"})
        scores = []
        for col in (0, 1):
            pick = lambda cost, col=col: (np.array([0]), np.array([col]))
            with mock.patch.object(scoring, "_linear_sum_assignment", pick):
                assert map_speakers(ref, hyp) == {"x": "ab"[col]}
                scores.append(der_score(ref, hyp))
        assert scores[0] == scores[1] == der_score(ref, hyp)
        assert scores[0].confusion == 50.0

    def test_matches_factorial_brute_force(self, rng):
        # oracle: best bijection over all 3! pairings
        for trial in range(25):
            ref = random_timeline(rng, n_speakers=3, n_intervals=6)
            hyp = random_timeline(rng, n_speakers=3, n_intervals=6, prefix="hyp")
            mapping = map_speakers(ref, hyp)
            got = sum(cooccurrence(ref, hyp, h, r) for h, r in mapping.items())
            best = 0.0
            hyps, refs = hyp.speakers, ref.speakers
            k = min(len(hyps), len(refs))
            for h_sub in itertools.permutations(hyps, k):
                for r_sub in itertools.permutations(refs, k):
                    total = sum(
                        cooccurrence(ref, hyp, h, r) for h, r in zip(h_sub, r_sub)
                    )
                    best = max(best, total)
            assert got == pytest.approx(best, abs=1e-9)


def cost_matrices():
    """1-9 x 1-9 costs: small integers, so ties are common, or bounded floats."""
    shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))
    ints = st.integers(0, 3).map(float)
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return st.one_of(
        shapes.flatmap(lambda shape: arrays(float, shape, elements=ints)),
        shapes.flatmap(lambda shape: arrays(float, shape, elements=floats)),
    )


class TestLinearSumAssignment:
    @settings(max_examples=500, deadline=None, database=None)
    @given(cost_matrices())
    @example(np.zeros((1, 1)))
    @example(np.zeros((1, 6)))
    @example(np.zeros((6, 1)))
    @example(np.zeros((4, 7)))
    @example(np.zeros((7, 4)))
    @example(-np.ones((9, 9)))
    def test_is_an_optimal_matching(self, cost):
        # scipy is a test oracle only: the scorer runs on its own solver
        from scipy.optimize import linear_sum_assignment

        rows, cols = scoring._linear_sum_assignment(cost)
        assert len(rows) == len(cols) == min(cost.shape)
        # one-to-one, rows ascending, every index inside the matrix
        assert rows.tolist() == sorted(set(rows.tolist()))
        assert len(set(cols.tolist())) == len(cols)
        assert set(rows.tolist()) <= set(range(cost.shape[0]))
        assert set(cols.tolist()) <= set(range(cost.shape[1]))
        # both solvers compare path costs in floating point, so on mixed
        # magnitudes either may miss the exact optimum by rounding, a few ulps
        # of the largest cost; the small integer costs sum exactly
        want_rows, want_cols = linear_sum_assignment(cost)
        slack = cost.size * np.spacing(np.abs(cost).max())
        assert math.fsum(cost[rows, cols]) == pytest.approx(
            math.fsum(cost[want_rows, want_cols]), rel=0, abs=slack)
