import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interval_union_length
from diarcut.errors import ContractError, ParseError
from diarcut.ingest import (
    EmbeddingSequence,
    FramePosteriors,
    OverlapVector,
    SegmentSpan,
    Timeline,
    assignment_to_timeline,
    load_embeddings,
    load_overlap_flags,
    load_posteriors,
    load_rttm,
    save_embeddings,
    save_overlap_flags,
    save_posteriors,
    write_rttm,
)


def spans(n, rec="rec", stride=0.75, window=1.5):
    return [SegmentSpan(rec, i, stride * i, stride * i + window) for i in range(n)]


class TestEmbeddings:
    def test_two_lines(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0.0\t1.5\t1.0 0.0 0.0\nrec\t0.75\t2.25\t0.0 1.0 0.0\n")
        seq = load_embeddings(f)
        assert len(seq) == 2
        assert seq.dim == 3
        assert seq.spans[0].start == 0.0
        assert seq.spans[1].index == 1

    def test_dim_mismatch(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0\t1\t1 0 0\nrec\t1\t2\t1 0 0 0\n")
        with pytest.raises(ParseError, match=":2"):
            load_embeddings(f)

    def test_header_enforced(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("#dim 4\nrec\t0\t1\t1 0 0\n")
        with pytest.raises(ParseError, match="header says 4"):
            load_embeddings(f)

    def test_zero_norm_rejected(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0\t1\t0 0 0\n")
        with pytest.raises(ParseError, match="zero-norm"):
            load_embeddings(f)

    def test_tiny_norm_loads(self, tmp_path):
        # the squared norm of 1e-200 underflows to zero; the vector does not
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0\t1\t1e-200 0\n")
        assert load_embeddings(f).vectors.tolist() == [[1e-200, 0.0]]

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_component_rejected(self, tmp_path, bad):
        f = tmp_path / "emb.txt"
        f.write_text(f"rec\t0\t1\t1 0 0\nrec\t1\t2\t1 {bad} 0\n")
        with pytest.raises(ParseError, match=":2: non-finite component"):
            load_embeddings(f)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_sequence_rejects_non_finite(self, bad):
        vectors = np.ones((3, 2))
        vectors[1, 0] = bad
        with pytest.raises(ContractError, match="segment 1 has a non-finite"):
            EmbeddingSequence(spans(3), vectors)

    def test_non_finite_time_rejected(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t-inf\tinf\t1 0\n")
        with pytest.raises(ParseError, match=":1: non-finite time"):
            load_embeddings(f)

    def test_bad_duration(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t1.0\t1.0\t1 0\n")
        with pytest.raises(ParseError, match="duration"):
            load_embeddings(f)

    def test_field_count(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0\t1\n")
        with pytest.raises(ParseError, match="4 tab-separated"):
            load_embeddings(f)

    def test_multiple_recordings_rejected(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("a\t0\t1\t1 0\nb\t0\t1\t0 1\n")
        with pytest.raises(ParseError, match="recording ids"):
            load_embeddings(f)

    def test_sorted_by_span(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0.75\t2.25\t0 1\nrec\t0.0\t1.5\t1 0\n")
        seq = load_embeddings(f)
        assert seq.spans[0].start == 0.0
        assert seq.vectors[0, 0] == 1.0

    def test_save_load_round_trip(self, tmp_path, rng):
        # the written file must reproduce every value bit for bit
        vecs = rng.standard_normal((7, 5)) * np.pi
        seq = EmbeddingSequence(spans(7), vecs)
        f = tmp_path / "emb.txt"
        save_embeddings(seq, f)
        back = load_embeddings(f)
        assert np.array_equal(back.vectors, seq.vectors)
        assert [s.start for s in back.spans] == [s.start for s in seq.spans]


class TestOverlapFlags:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "flags.txt"
        ov = OverlapVector(np.array([0, 1, 1, 0]))
        save_overlap_flags(ov, f)
        assert np.array_equal(load_overlap_flags(f, 4).flags, ov.flags)

    def test_bad_value(self, tmp_path):
        f = tmp_path / "flags.txt"
        f.write_text("0\n2\n")
        with pytest.raises(ParseError, match=":2"):
            load_overlap_flags(f)

    def test_length_check(self, tmp_path):
        f = tmp_path / "flags.txt"
        f.write_text("0\n1\n")
        with pytest.raises(ParseError, match="expected"):
            load_overlap_flags(f, expected_length=3)


class TestPosteriors:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "post.txt"
        f.write_text("#frame_shift 0.01\n0.2 0.5 0.3\n1 0 0\n")
        post = load_posteriors(f)
        assert post.frame_shift == 0.01
        assert post.num_frames == 2
        out = tmp_path / "back.txt"
        save_posteriors(post, out)
        again = load_posteriors(out)
        assert np.array_equal(again.rows, post.rows)

    def test_missing_header(self, tmp_path):
        f = tmp_path / "post.txt"
        f.write_text("0.2 0.5 0.3\n")
        with pytest.raises(ParseError, match="frame_shift"):
            load_posteriors(f)

    def test_row_sum_checked(self, tmp_path):
        f = tmp_path / "post.txt"
        f.write_text("#frame_shift 0.01\n0.5 0.5 0.5\n")
        with pytest.raises(ParseError, match="sums to"):
            load_posteriors(f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        with pytest.raises(ContractError, match="row 1 has a non-finite"):
            FramePosteriors("r", 0.01, [[0.2, 0.3, 0.5], [bad, 0.5, 0.5]])

    def test_non_finite_row_in_file(self, tmp_path):
        f = tmp_path / "post.txt"
        f.write_text("#frame_shift 0.01\n0.2 0.3 0.5\nnan 0.5 0.5\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_posteriors(f)

    @pytest.mark.parametrize("shift", ["nan", "inf", "-0.01"])
    def test_bad_frame_shift_header(self, tmp_path, shift):
        f = tmp_path / "post.txt"
        f.write_text(f"#frame_shift {shift}\n0.2 0.3 0.5\n")
        with pytest.raises(ParseError, match="frame_shift"):
            load_posteriors(f)


class TestRttm:
    def test_single_line(self, tmp_path):
        f = tmp_path / "a.rttm"
        f.write_text("SPEAKER rec 1 0.00 1.50 <NA> <NA> spkA <NA> <NA>\n")
        tl = load_rttm(f)
        assert tl.entries == [("spkA", 0.0, 1.5)]
        assert tl.recording_id == "rec"

    def test_adjacent_merged(self, tmp_path):
        f = tmp_path / "a.rttm"
        f.write_text(
            "SPEAKER rec 1 0.00 1.00 <NA> <NA> spkA <NA> <NA>\n"
            "SPEAKER rec 1 1.00 1.00 <NA> <NA> spkA <NA> <NA>\n"
        )
        assert load_rttm(f).entries == [("spkA", 0.0, 2.0)]

    def test_write_format(self, tmp_path):
        tl = Timeline.from_entries([("s1", 0.0, 0.75)])
        f = tmp_path / "w.rttm"
        write_rttm(tl, f)
        assert f.read_text() == "SPEAKER rec 1 0.000 0.750 <NA> <NA> s1 <NA> <NA>\n"

    def test_empty_timeline(self, tmp_path):
        f = tmp_path / "w.rttm"
        write_rttm(Timeline(), f)
        assert f.read_text() == ""

    def test_round_trip_write_then_read(self, tmp_path):
        # millisecond-aligned normalized timelines survive exactly
        tl = Timeline.from_entries(
            [("a", 0.0, 1.5), ("b", 0.75, 2.25), ("a", 1.5, 3.0)], "meeting"
        )
        f = tmp_path / "rt.rttm"
        write_rttm(tl, f)
        assert load_rttm(f) == tl

    def test_round_trip_read_then_write(self, tmp_path):
        f1 = tmp_path / "a.rttm"
        f1.write_text(
            "SPEAKER rec 1 2.250 0.750 <NA> <NA> b <NA> <NA>\n"
            "SPEAKER rec 1 0.000 1.500 <NA> <NA> a <NA> <NA>\n"
        )
        f2 = tmp_path / "b.rttm"
        write_rttm(load_rttm(f1), f2)
        assert f2.read_text() == (
            "SPEAKER rec 1 0.000 1.500 <NA> <NA> a <NA> <NA>\n"
            "SPEAKER rec 1 2.250 0.750 <NA> <NA> b <NA> <NA>\n"
        )

    def test_bad_field_count(self, tmp_path):
        f = tmp_path / "a.rttm"
        f.write_text("SPEAKER rec 1 0.00 1.50 <NA> spkA <NA> <NA>\n")
        with pytest.raises(ParseError, match=":1"):
            load_rttm(f)

    def test_negative_duration(self, tmp_path):
        f = tmp_path / "a.rttm"
        f.write_text("SPEAKER rec 1 0.00 -1.0 <NA> <NA> spkA <NA> <NA>\n")
        with pytest.raises(ParseError, match="duration"):
            load_rttm(f)

    @pytest.mark.parametrize(
        "onset, dur", [("nan", "1.0"), ("0.0", "nan"), ("inf", "1.0"), ("0.0", "inf"), ("1e20", "1.0")]
    )
    def test_non_finite_or_absorbed_times_rejected(self, tmp_path, onset, dur):
        f = tmp_path / "a.rttm"
        f.write_text(f"SPEAKER rec 1 {onset} {dur} <NA> <NA> spkA <NA> <NA>\n")
        with pytest.raises(ParseError, match=":1"):
            load_rttm(f)

    def test_non_speaker_lines_skipped(self, tmp_path):
        f = tmp_path / "a.rttm"
        f.write_text(
            "SPKR-INFO rec 1 <NA> <NA> <NA> unknown spkA <NA>\n"
            "SPEAKER rec 1 0.00 1.50 <NA> <NA> spkA <NA> <NA>\n"
        )
        assert len(load_rttm(f).entries) == 1


LOADERS = [load_embeddings, load_overlap_flags, load_posteriors, load_rttm]

# Fragments of every format, so that generated files get past the first line.
TOKENS = [
    b"SPEAKER", b"rec", b"spk", b"<NA>", b"#dim", b"#frame_shift", b";;",
    b"0", b"1", b"2", b"0.5", b"-1", b"1e20", b"1e308", b"1e-320", b"nan", b"inf", b"-inf",
    b" ", b"\t", b"\n", b"\r\n", b"\r", b"\xff", b"\xc3", b"\xe2\x80\xa8",
]


class TestArbitraryBytes:
    @pytest.mark.parametrize("loader", LOADERS)
    def test_invalid_utf8_names_the_line(self, tmp_path, loader):
        f = tmp_path / "in.txt"
        f.write_bytes(b"\n\xff\xfe\n")
        with pytest.raises(ParseError, match=r"in\.txt:2: not UTF-8"):
            loader(f)

    @pytest.mark.parametrize("loader", LOADERS)
    def test_only_parse_errors(self, tmp_path_factory, loader):
        f = tmp_path_factory.mktemp("bytes") / "in.txt"

        @settings(max_examples=150, deadline=None, database=None)
        @given(
            st.one_of(
                st.binary(max_size=200),
                st.lists(st.sampled_from(TOKENS), max_size=80).map(b"".join),
            )
        )
        def check(data):
            f.write_bytes(data)
            try:
                loader(f)
            except ParseError:
                pass

        check()


class TestAssignmentToTimeline:
    def test_single_row(self):
        tl = assignment_to_timeline(np.array([[1, 0]]), spans(1))
        assert tl.entries == [("spk0", 0.0, 1.5)]

    def test_overlap_row_two_intervals(self):
        tl = assignment_to_timeline(np.array([[1, 1, 0]]), spans(1))
        assert tl.entries == [("spk0", 0.0, 1.5), ("spk1", 0.0, 1.5)]

    def test_consecutive_windows_merged(self):
        tl = assignment_to_timeline(np.array([[1, 0], [1, 0]]), spans(2))
        assert tl.entries == [("spk0", 0.0, 2.25)]

    def test_row_count_mismatch(self):
        with pytest.raises(ContractError, match="rows"):
            assignment_to_timeline(np.array([[1, 0]]), spans(2))

    def test_per_speaker_duration_equals_window_union(self, rng):
        # oracle: union length computed by an independent sweep
        n, k = 30, 3
        x = np.zeros((n, k), dtype=int)
        x[np.arange(n), rng.integers(0, k, n)] = 1
        sp = spans(n)
        tl = assignment_to_timeline(x, sp)
        for j in range(k):
            windows = [
                (sp[i].start, sp[i].end) for i in range(n) if x[i, j] == 1
            ]
            got = sum(e - s for spk, s, e in tl.entries if spk == f"spk{j}")
            assert got == pytest.approx(interval_union_length(windows), abs=1e-9)


class TestTimeline:
    def test_non_positive_interval_rejected(self):
        with pytest.raises(ContractError):
            Timeline.from_entries([("a", 1.0, 1.0)])

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abc"),
                st.floats(0.0, 1e4),
                st.floats(1e-3, 1e3),
            ),
            max_size=20,
        )
    )
    def test_from_entries_idempotent(self, raw):
        once = Timeline.from_entries([(spk, t, t + d) for spk, t, d in raw])
        assert Timeline.from_entries(once.entries).entries == once.entries

    def test_float_dust_merged(self):
        tl = Timeline.from_entries([("a", 0.0, 1.0), ("a", 1.0 + 5e-7, 2.0)])
        assert tl.entries == [("a", 0.0, 2.0)]
