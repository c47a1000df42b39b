import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interval_union_length, rttm_same_partition
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
        with pytest.raises(ParseError, match=":2: segment 1 has a non-finite embedding component"):
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
        message = ":1: segment 0 of 'rec': non-finite time or duration (-inf .. inf)"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_embeddings(f)

    def test_bad_duration(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t1.0\t1.0\t1 0\n")
        with pytest.raises(ParseError, match="duration"):
            load_embeddings(f)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("rec\t1.0\tinf\t1 0", "segment 1 of 'rec': non-finite time or duration (1.0 .. inf)"),
            # finite ends whose distance overflows: the RTTM duration would read inf
            ("rec\t-1e308\t1e308\t1 0",
             "segment 1 of 'rec': non-finite time or duration (-1e+308 .. 1e+308)"),
            ("rec\t2.0\t1.5\t1 0", "segment 1 of 'rec': duration under 0.5 ms (2.0 .. 1.5)"),
            # 0.0004999... s: RTTM's three decimals would write a duration of 0.000
            ("rec\t1.0\t1.0005\t1 0", "segment 1 of 'rec': duration under 0.5 ms (1.0 .. 1.0005)"),
            ("rec\t1\t2\t1 nan", "segment 1 has a non-finite embedding component"),
            ("rec\t1\t2\t0 0", "segment 1 has a zero-norm embedding"),
            ("rec\t1\t2\t1 x", "bad vector component"),
        ],
        ids=["non-finite-time", "infinite-duration", "duration", "sub-millisecond",
             "non-finite-component", "zero-norm", "bad-component"],
    )
    def test_bad_row_names_its_line(self, tmp_path, bad_row, message):
        f = tmp_path / "emb.txt"
        f.write_text(f"\n#dim 2\nrec\t0\t1\t1 0\n\n{bad_row}\nrec\t2\t3\t0 1\n")
        with pytest.raises(ParseError, match=re.escape(f"emb.txt:5: {message}")):
            load_embeddings(f)

    def test_speaker_time_overflow_names_the_last_line(self, tmp_path):
        # flagged, both spans carry two labels; DER's total would read inf
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0\t6e307\t1 0\nrec\t6e307\t1.2e308\t0 1\n")
        with pytest.raises(ParseError, match="emb.txt:2: the segments' speaker time overflows"):
            load_embeddings(f)

    @pytest.mark.parametrize("rec", ["my rec", "", "a\u2028b"])
    def test_recording_id_is_one_rttm_field(self, tmp_path, rec):
        # an id that RTTM cannot hold as one field would make an unreadable output
        f = tmp_path / "emb.txt"
        f.write_text(f"{rec}\t0\t1\t1 0\n\n{rec}\t1\t2\t0 1\n")
        message = f"emb.txt:1: segment 0 of {rec!r}: recording id is not one whitespace-free"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_embeddings(f)

    def test_header_may_follow_the_rows(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0\t1\t1 0 0\n#dim 3\nrec\t1\t2\t0 1 0\n")
        assert load_embeddings(f).dim == 3

    def test_header_after_rows_enforced(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0\t1\t1 0 0\nrec\t1\t2\t0 1 0\nrec\t2\t3\t0 0 1\n#dim 7\n")
        with pytest.raises(ParseError, match="emb.txt:4: header says 7 components, rows have 3"):
            load_embeddings(f)

    def test_second_header_rejected(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("#dim 2\nrec\t0\t1\t1 0\n#dim 2\n")
        message = "emb.txt:3: second header '#dim 2'; line 1 has the first"
        with pytest.raises(ParseError, match=message):
            load_embeddings(f)

    def test_field_count(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0\t1\n")
        with pytest.raises(ParseError, match="4 tab-separated"):
            load_embeddings(f)

    def test_multiple_recordings_rejected(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("a\t0\t1\t1 0\nb\t0\t1\t0 1\n")
        message = "emb.txt:2: segment 1 is of recording 'b', not 'a'; use one file per recording"
        with pytest.raises(ParseError, match=message):
            load_embeddings(f)

    def test_file_order_kept(self, tmp_path):
        # segment i is data line i, whatever the times say
        f = tmp_path / "emb.txt"
        f.write_text("rec\t0.75\t2.25\t0 1\nrec\t0.0\t1.5\t1 0\n")
        seq = load_embeddings(f)
        assert [(s.index, s.start) for s in seq.spans] == [(0, 0.75), (1, 0.0)]
        assert seq.vectors.tolist() == [[0.0, 1.0], [1.0, 0.0]]

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

    # 256 and 0.5 used to become the valid flag 0 when cast to int8
    @pytest.mark.parametrize("flags", [[0, 2], [-1], [256, 1], [0.5]])
    def test_vector_rejects_values_outside_0_1(self, flags):
        with pytest.raises(ContractError, match="overlap flags must be 0 or 1"):
            OverlapVector(np.array(flags))

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

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("nan 0.5 0.5", "posterior row 1 has a non-finite value"),
            ("-0.1 0.6 0.5", "posterior row 1 has a negative value"),
            # the first bad row is named, not the worst one
            ("0.5 0.5 0.5\n1 1 1", "posterior row 1 sums to 1.500000, expected 1"),
            ("0.1 0.8 zz", "bad posterior value"),
        ],
        ids=["non-finite", "negative", "sum", "bad-value"],
    )
    def test_bad_row_names_its_line(self, tmp_path, bad_row, message):
        f = tmp_path / "post.txt"
        f.write_text(f"#frame_shift 0.01\n0.2 0.3 0.5\n\n{bad_row}\n")
        with pytest.raises(ParseError, match=f"post.txt:4: {message}"):
            load_posteriors(f)

    def test_second_header_rejected(self, tmp_path):
        # a later header must not retime the frames read before it
        f = tmp_path / "post.txt"
        f.write_text("#frame_shift 0.01\n0.2 0.3 0.5\n#frame_shift 0.5\n0.2 0.3 0.5\n")
        with pytest.raises(
            ParseError, match=r"post.txt:3: second header '#frame_shift 0.5'; line 1 has the first"
        ):
            load_posteriors(f)

    def test_header_may_follow_the_rows(self, tmp_path):
        f = tmp_path / "post.txt"
        f.write_text("0.2 0.3 0.5\n\n#frame_shift 0.02\n1 0 0\n")
        post = load_posteriors(f)
        assert (post.frame_shift, post.num_frames) == (0.02, 2)

    @pytest.mark.parametrize(
        "shift, message",
        [
            # the rule lives in FramePosteriors; the error names the header's line
            ("nan", "frame_shift must be positive and finite"),
            ("inf", "frame_shift must be positive and finite"),
            ("-0.01", "frame_shift must be positive and finite"),
            ("x", "bad frame_shift header '#frame_shift x'"),
        ],
        ids=["nan", "inf", "-0.01", "x"],
    )
    def test_bad_frame_shift_header(self, tmp_path, shift, message):
        f = tmp_path / "post.txt"
        f.write_text(f"#frame_shift {shift}\n0.2 0.3 0.5\n")
        with pytest.raises(ParseError, match=re.escape(f"post.txt:1: {message}")):
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


@pytest.mark.parametrize(
    "loader, text, message",
    [
        (load_embeddings, "rec\t0\t1\t1 0\n\n#dim abc\n", "in.txt:3: bad dim header '#dim abc'"),
        (load_posteriors, "\n#frame_shift 0.01\n", "in.txt: no posterior rows"),
        (load_rttm,
         "SPEAKER b 1 0.0 1.0 <NA> <NA> s <NA> <NA>\nSPEAKER a 1 1.0 1.0 <NA> <NA> s <NA> <NA>\n",
         "in.txt: contains 2 recording ids ['a', 'b']"),
    ],
    ids=["dim-header", "header-only", "two-recordings"],
)
def test_whole_file_refusal_names_the_file(tmp_path, loader, text, message):
    f = tmp_path / "in.txt"
    f.write_text(text)
    with pytest.raises(ParseError, match=re.escape(message)):
        loader(f)


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

    def test_names_follow_first_segment(self):
        # column 1 owns segment 0, column 0 starts later, column 2 is empty
        x = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]])
        tl = assignment_to_timeline(x, spans(3))
        assert tl.speakers == ["spk0", "spk1"]
        assert ("spk1", 0.75, 2.25) in tl.entries
        # two clusters start at an overlap row: the next differing row decides
        tl = assignment_to_timeline(np.array([[1, 1], [0, 1]]), spans(2, stride=2.0))
        assert tl.entries == [("spk0", 0.0, 1.5), ("spk1", 0.0, 1.5), ("spk0", 2.0, 3.5)]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=2, unique=True),
            min_size=1, max_size=25,
        ),
        perm=st.permutations(range(5)),
    )
    def test_rttm_bytes_ignore_column_order(self, tmp_path_factory, rows, perm):
        x = np.zeros((len(rows), 5), dtype=np.int8)
        for i, cols in enumerate(rows):
            x[i, cols] = 1
        out = tmp_path_factory.mktemp("rttm")
        write_rttm(assignment_to_timeline(x, spans(len(rows))), out / "a.rttm")
        write_rttm(assignment_to_timeline(x[:, list(perm)], spans(len(rows))), out / "b.rttm")
        assert (out / "a.rttm").read_bytes() == (out / "b.rttm").read_bytes()

    def test_same_partition_helper(self, tmp_path):
        x = np.array([[1, 0], [0, 1], [1, 0]])
        paths = [tmp_path / f"{name}.rttm" for name in "abc"]
        write_rttm(assignment_to_timeline(x, spans(3)), paths[0])
        write_rttm(
            Timeline.from_entries(
                [(f"other{1 - j}", s.start, s.end) for s, j in zip(spans(3), x.argmax(1))]
            ),
            paths[1],
        )
        write_rttm(assignment_to_timeline(np.array([[1, 0], [1, 0], [0, 1]]), spans(3)), paths[2])
        assert paths[0].read_bytes() != paths[1].read_bytes()
        assert rttm_same_partition(paths[0], paths[1])
        assert not rttm_same_partition(paths[0], paths[2])

    def test_per_speaker_duration_equals_window_union(self, rng):
        # oracle: union length computed by an independent sweep
        n, k = 30, 3
        x = np.zeros((n, k), dtype=int)
        x[np.arange(n), rng.integers(0, k, n)] = 1
        sp = spans(n)
        tl = assignment_to_timeline(x, sp)
        # clusters are named in order of their first segment
        first = [np.flatnonzero(x[:, j])[0] for j in range(k)]
        names = {int(j): f"spk{rank}" for rank, j in enumerate(np.argsort(first))}
        for j in range(k):
            windows = [
                (sp[i].start, sp[i].end) for i in range(n) if x[i, j] == 1
            ]
            got = sum(e - s for spk, s, e in tl.entries if spk == names[j])
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
