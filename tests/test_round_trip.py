"""Every file diarcut writes, diarcut reads back.

Each property drives the command line on generated input. A run ends in a
valid round trip, or exits 2 at the first program that reads the bad input:
no program may reject a file that an earlier one wrote.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diarcut.cli import main
from diarcut.ingest import FramePosteriors, load_posteriors, load_rttm, save_posteriors

# Start times, durations and gaps: zero (spans touch), tiny (around RTTM's
# millisecond), ordinary, huge, and near the float64 limit.
ORDINARY = st.floats(0.1, 100.0)
TIMES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2e-3),
    ORDINARY,
    st.floats(1e12, 1e20),
    st.floats(1e307, 1e308),
)
VECTORS = ["1 0.1 0", "0 1 0.1", "0.1 0 1"]


@st.composite
def recordings(draw):
    """Embeddings-file text for one recording of up to three speakers, and
    overlap flags for it or None."""
    n = draw(st.integers(1, 5))
    # ordinary values are drawn more often, so that a fair share of recordings is valid
    t = draw(st.one_of(ORDINARY, TIMES, TIMES.map(lambda x: -x)))
    lines = []
    for _ in range(n):
        dur = draw(st.one_of(ORDINARY, TIMES))
        lines.append(f"rec\t{t!r}\t{t + dur!r}\t{draw(st.sampled_from(VECTORS))}\n")
        # the next span touches, overlaps, or follows after a gap
        t += dur + draw(st.one_of(st.just(0.0), st.just(-0.5 * dur), ORDINARY, TIMES))
    flags = draw(st.none() | st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return "".join(lines), flags


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def assert_rttm_scores_against_itself(capsys, rttm):
    assert load_rttm(rttm).entries
    code, out, err = run(capsys, "score", "--ref", rttm, "--hyp", rttm)
    assert code == 0, err
    assert json.loads(out.splitlines()[-1])["der"] == 0.0


def test_synth_output_diarizes(tmp_path_factory, capsys):
    @settings(max_examples=15, deadline=None, database=None)
    @given(
        speakers=st.integers(1, 4),
        segments=st.integers(1, 30),
        overlap=st.sampled_from(["0", "0.1", "0.5"]),
        sigma=st.sampled_from(["0", "0.2", "1e300"]),
        dim=st.integers(2, 6),
        seed=st.integers(0, 2**16),
    )
    def check(speakers, segments, overlap, sigma, dim, seed):
        data = tmp_path_factory.mktemp("synth") / "data"
        code, _, err = run(capsys, "synth", "--speakers", speakers, "--segments", segments,
                           "--overlap-frac", overlap, "--sigma", sigma, "--dim", dim,
                           "--min-angle", "20", "--seed", seed, "--out-dir", data)
        if code == 2:
            assert err.startswith("error: ") and not data.exists()
            return
        assert code == 0, err
        hyp = data / "hyp.rttm"
        code, _, err = run(capsys, "diarize", "--embeddings", data / "embeddings.txt",
                           "--flags", data / "overlap_flags.txt", "--out", hyp)
        assert code == 0, err
        assert run(capsys, "score", "--ref", data / "reference.rttm", "--hyp", hyp)[0] == 0
        assert_rttm_scores_against_itself(capsys, data / "reference.rttm")

    check()


def test_diarize_rttm_scores_against_itself(tmp_path, capsys):
    emb, flg, hyp = tmp_path / "emb.txt", tmp_path / "flags.txt", tmp_path / "hyp.rttm"

    @settings(max_examples=40, deadline=None, database=None)
    @given(recordings())
    # finite spans whose speaker time overflows: merged into one speaker, and
    # flagged, so that both spans carry two labels
    @example(("rec\t-1e308\t0.0\t1 0\nrec\t0.0\t1e308\t1 0\n", None))
    @example(("rec\t0.0\t1e308\t1 0\nrec\t5e307\t1.5e308\t0 1\n", [1, 1]))
    def check(recording):
        text, flags = recording
        emb.write_text(text)
        argv = ["diarize", "--embeddings", emb, "--out", hyp]
        if flags is not None:
            flg.write_text("".join(f"{f}\n" for f in flags))
            argv += ["--flags", flg]
        hyp.unlink(missing_ok=True)
        code, _, err = run(capsys, *argv)
        if code == 2:
            assert err.startswith(f"error: {emb}:") and not hyp.exists()
            return
        assert code == 0, err
        assert_rttm_scores_against_itself(capsys, hyp)

    check()


def test_detect_overlap_flags_diarize(tmp_path, capsys):
    post, emb = tmp_path / "post.txt", tmp_path / "emb.txt"
    flg, hyp = tmp_path / "flags.txt", tmp_path / "hyp.rttm"

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        recording=recordings(),
        runs=st.lists(st.tuples(st.integers(0, 2), st.integers(5, 60)), min_size=1, max_size=8),
        frame_shift=st.sampled_from([0.005, 0.01, 0.02]),
    )
    def check(recording, runs, frame_shift):
        classes = np.repeat([c for c, _ in runs], [n for _, n in runs])
        rows = np.full((classes.size, 3), 0.05)
        rows[np.arange(classes.size), classes] = 0.9
        save_posteriors(FramePosteriors("rec", frame_shift, rows), post)
        emb.write_text(recording[0])
        flg.unlink(missing_ok=True)
        code, _, err = run(capsys, "detect-overlap", "--posteriors", post,
                           "--segments", emb, "--out", flg)
        if code == 2:
            assert err.startswith("error: ") and not flg.exists()
            return
        assert code == 0, err
        code, _, err = run(capsys, "diarize", "--embeddings", emb, "--flags", flg, "--out", hyp)
        assert code == 0, err
        assert_rttm_scores_against_itself(capsys, hyp)

    check()


@settings(max_examples=60, deadline=None, database=None)
@given(
    raw=arrays(float, st.tuples(st.integers(1, 20), st.just(3)),
               elements=st.floats(0.0, 1e300) | st.floats(0.0, 1e-300)),
    frame_shift=st.floats(1e-300, 1e300),
)
def test_posteriors_round_trip(tmp_path_factory, raw, frame_shift):
    sums = raw.sum(axis=1, keepdims=True)
    if not (sums > 0).all():
        return
    post = FramePosteriors("rec", frame_shift, raw / sums)
    path = tmp_path_factory.mktemp("post") / "post.txt"
    save_posteriors(post, path)
    back = load_posteriors(path)
    assert back.frame_shift == post.frame_shift
    assert np.array_equal(back.rows, post.rows)
