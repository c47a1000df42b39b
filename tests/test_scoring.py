import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_timeline
from diarcut.errors import EmptyReferenceError
from diarcut.ingest import Timeline
from diarcut.scoring import der_score, map_speakers


def timelines(speakers: str):
    """Non-empty timelines with millisecond-aligned boundaries."""
    interval = st.tuples(
        st.sampled_from(speakers), st.integers(0, 60_000), st.integers(1, 5_000)
    )
    return st.lists(interval, min_size=1, max_size=12).map(
        lambda raw: Timeline.from_entries(
            [(spk, a / 1000, (a + d) / 1000) for spk, a, d in raw]
        )
    )


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
        tl = Timeline.from_entries([("a", 0.0, 5.0), ("b", 3.0, 8.0)])
        out = der_score(tl, tl)
        assert (out.missed, out.false_alarm, out.confusion, out.der) == (0, 0, 0, 0)

    def test_empty_hypothesis_all_missed(self):
        ref = Timeline.from_entries([("spkA", 0.0, 10.0)])
        out = der_score(ref, Timeline())
        assert out.missed == pytest.approx(100.0)
        assert out.der == pytest.approx(100.0)

    def test_full_overlap_single_hypothesis(self):
        # two speakers across [0, 10], hypothesis covers one: half is missed
        ref = Timeline.from_entries([("A", 0.0, 10.0), ("B", 0.0, 10.0)])
        hyp = Timeline.from_entries([("X", 0.0, 10.0)])
        out = der_score(ref, hyp)
        assert out.total_reference_speaker_time == pytest.approx(20.0)
        assert out.missed == pytest.approx(50.0)
        assert out.false_alarm == pytest.approx(0.0)
        assert out.confusion == pytest.approx(0.0)
        assert out.der == pytest.approx(50.0)

    def test_pure_confusion(self):
        ref = Timeline.from_entries([("A", 0.0, 4.0), ("B", 4.0, 8.0)])
        hyp = Timeline.from_entries([("X", 0.0, 6.0), ("Y", 6.0, 8.0)])
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
            renamed = Timeline.from_entries(
                [(f"zz-{spk}", s, e) for spk, s, e in hyp.entries]
            )
            again = der_score(ref, renamed)
            assert again.der == pytest.approx(base.der, abs=1e-12)

    def test_translation_invariance(self, rng):
        ref = random_timeline(rng)
        hyp = random_timeline(rng, prefix="hyp")
        base = der_score(ref, hyp)
        shifted = der_score(ref.shifted(1000.0), hyp.shifted(1000.0))
        assert shifted.missed == pytest.approx(base.missed, abs=1e-9)
        assert shifted.false_alarm == pytest.approx(base.false_alarm, abs=1e-9)
        assert shifted.confusion == pytest.approx(base.confusion, abs=1e-9)

    def test_additivity_over_recordings(self, rng):
        # pooling the per-recording second counts equals scoring the
        # concatenation on a shifted time axis
        ref1, hyp1 = random_timeline(rng), random_timeline(rng, prefix="hyp")
        ref2, hyp2 = random_timeline(rng, prefix="s2-"), random_timeline(rng, prefix="h2-")
        a = der_score(ref1, hyp1)
        b = der_score(ref2, hyp2)
        offset = 10_000.0
        ref_cat = Timeline.from_entries(ref1.entries + ref2.shifted(offset).entries)
        hyp_cat = Timeline.from_entries(hyp1.entries + hyp2.shifted(offset).entries)
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
        moved = der_score(ref.shifted(offset), hyp.shifted(offset))
        # shifted boundaries round differently, and DER is relative to the reference time
        assert moved.der == pytest.approx(base.der, rel=1e-7, abs=1e-9)

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            der_score(Timeline(), Timeline.from_entries([("a", 0.0, 1.0)]))

    def test_collar_excludes_boundaries(self):
        ref = Timeline.from_entries([("A", 0.0, 10.0)])
        hyp = Timeline.from_entries([("A", 0.25, 10.0)])
        strict = der_score(ref, hyp, collar=0.0)
        forgiving = der_score(ref, hyp, collar=0.5)
        assert strict.missed > 0
        assert forgiving.missed == pytest.approx(0.0)
        assert forgiving.total_reference_speaker_time == pytest.approx(9.0)


class TestMapSpeakers:
    def test_identity(self):
        tl = Timeline.from_entries([("a", 0.0, 2.0), ("b", 2.0, 4.0)])
        assert map_speakers(tl, tl) == {"a": "a", "b": "b"}

    def test_permutation(self):
        ref = Timeline.from_entries([("a", 0.0, 2.0), ("b", 2.0, 4.0)])
        hyp = Timeline.from_entries([("b", 0.0, 2.0), ("a", 2.0, 4.0)])
        assert map_speakers(ref, hyp) == {"b": "a", "a": "b"}

    def test_unmatched_labels_stay_unmapped(self):
        ref = Timeline.from_entries([("a", 0.0, 2.0)])
        hyp = Timeline.from_entries([("x", 0.0, 2.0), ("y", 5.0, 6.0)])
        mapping = map_speakers(ref, hyp)
        assert mapping == {"x": "a"}

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
