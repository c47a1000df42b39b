import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from diarcut import ingest, scoring
from diarcut.cli import main
from diarcut.synth import SynthConfig, generate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run_cli(
        capsys,
        "synth",
        "--speakers", "3",
        "--segments", "30",
        "--seed", "5",
        "--out-dir", str(out),
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_three_files(self, synth_dir):
        assert (synth_dir / "embeddings.txt").exists()
        assert (synth_dir / "overlap_flags.txt").exists()
        assert (synth_dir / "reference.rttm").exists()

    def test_matches_library(self, synth_dir):
        seq = ingest.load_embeddings(synth_dir / "embeddings.txt")
        lib = generate(SynthConfig(n_speakers=3, n_segments=30, seed=5))
        assert np.array_equal(seq.vectors, lib.embeddings.vectors)


class TestDiarizeCommand:
    def test_noiseless_round_trip_der_zero(self, synth_dir, tmp_path, capsys):
        hyp = tmp_path / "hyp.rttm"
        code, out, _ = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(hyp),
        )
        assert code == 0
        assert last_json(out)["k_hat"] == 3
        ref = ingest.load_rttm(synth_dir / "reference.rttm")
        result = scoring.der_score(ref, ingest.load_rttm(hyp))
        assert result.der == pytest.approx(0.0, abs=1e-12)

    def test_oracle_flags_emit_cotemporal_intervals(self, tmp_path, capsys):
        data = tmp_path / "d"
        run_cli(
            capsys,
            "synth",
            "--speakers", "3",
            "--segments", "36",
            "--overlap-frac", "0.2",
            "--seed", "9",
            "--out-dir", str(data),
        )
        hyp = tmp_path / "hyp.rttm"
        code, _, _ = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(data / "embeddings.txt"),
            "--flags", str(data / "overlap_flags.txt"),
            "--out", str(hyp),
        )
        assert code == 0
        flags = ingest.load_overlap_flags(data / "overlap_flags.txt")
        seq = ingest.load_embeddings(data / "embeddings.txt")
        timeline = ingest.load_rttm(hyp)
        for i in np.flatnonzero(flags.flags):
            span = seq.spans[i]
            mid = 0.5 * (span.start + span.end)
            active = [s for s, a, b in timeline.entries if a < mid < b]
            assert len(active) == 2

    def test_noiseless_overlap_der_zero_through_files(self, tmp_path, capsys):
        # the full file round trip (3-decimal RTTM quantization included)
        # preserves the error-free result on clean overlapping data
        data = tmp_path / "ovl"
        run_cli(
            capsys,
            "synth",
            "--speakers", "4",
            "--segments", "80",
            "--overlap-frac", "0.2",
            "--seed", "0",
            "--out-dir", str(data),
        )
        hyp = tmp_path / "hyp.rttm"
        code, _, _ = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(data / "embeddings.txt"),
            "--flags", str(data / "overlap_flags.txt"),
            "--out", str(hyp),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "score",
            "--ref", str(data / "reference.rttm"),
            "--hyp", str(hyp),
        )
        assert code == 0
        assert last_json(out)["der"] == 0.0

    def test_missing_embeddings_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "x.rttm"),
        )
        assert code == 2
        assert "nope.txt" in err

    @pytest.mark.parametrize("n, flags, k", [(1, None, 1), (1, "1\n", 1), (2, None, 1), (2, "0\n1\n", 2)])
    def test_short_recordings(self, tmp_path, capsys, n, flags, k):
        emb = tmp_path / "emb.txt"
        emb.write_text("".join(f"rec\t{0.75 * i}\t{0.75 * i + 1.5}\t1 {i}\n" for i in range(n)))
        args = ["diarize", "--embeddings", str(emb), "--out", str(tmp_path / "h.rttm")]
        if flags:
            (tmp_path / "flags.txt").write_text(flags)
            args += ["--flags", str(tmp_path / "flags.txt")]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert last_json(out)["k_hat"] == k
        assert len(ingest.load_rttm(tmp_path / "h.rttm").speakers) == k

    def test_huge_components_give_two_speakers(self, tmp_path, capsys):
        # the squared norms overflow; unscaled, every row became a zero vector
        rows = ["1e308 1e308"] * 3 + ["1e308 -1e308"] * 2
        emb = tmp_path / "emb.txt"
        emb.write_text(
            "".join(f"rec\t{0.75 * i}\t{0.75 * i + 1.5}\t{r}\n" for i, r in enumerate(rows))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(
                capsys, "diarize", "--embeddings", str(emb), "--out", str(tmp_path / "h.rttm")
            )
        assert code == 0
        assert last_json(out)["k_hat"] == 2
        assert len(ingest.load_rttm(tmp_path / "h.rttm").speakers) == 2

    @pytest.mark.parametrize(
        "option",
        [
            ["--restarts", "0"],
            ["--restarts", "-2"],
            ["--max-iters", "0"],
            ["--tol", "nan"],
            ["--tol", "-1"],
        ],
    )
    def test_degenerate_settings_exit_2(self, synth_dir, tmp_path, capsys, option):
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(tmp_path / "h.rttm"),
            *option,
        )
        assert code == 2
        assert "error: need restarts >= 1" in err

    def test_forced_count_dumps_the_eigengap_choice(self, tmp_path, capsys):
        # one speaker with one flagged segment: the eigengap says 1, the
        # run uses 2 so the flagged segment gets its second label
        data = tmp_path / "one"
        run_cli(capsys, "synth", "--speakers", "1", "--segments", "12", "--seed", "2",
                "--out-dir", str(data))
        flags = tmp_path / "flags.txt"
        flags.write_text("".join("1\n" if i == 4 else "0\n" for i in range(12)))
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(data / "embeddings.txt"),
            "--flags", str(flags),
            "--out", str(tmp_path / "h.rttm"),
            "--dump-report", str(report),
        )
        assert code == 0
        assert json.loads(report.read_text())["k_hat"] == 1
        assert last_json(out)["k_hat"] == 2
        assert "12 segments -> 2 speakers" in out

    def test_invalid_utf8_embeddings_exit_2(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_bytes(b"rec\t0.0\t1.5\t1 0\n\xff\xfe\n")
        code, _, err = run_cli(
            capsys, "diarize", "--embeddings", str(emb), "--out", str(tmp_path / "h.rttm")
        )
        assert code == 2
        assert "emb.txt:2: not UTF-8" in err

    def test_dump_report(self, synth_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(tmp_path / "h.rttm"),
            "--dump-report", str(report),
        )
        data = json.loads(report.read_text())
        assert data["k_hat"] == 3
        assert data["p_values"][0] == 2

    def test_dump_matrices(self, synth_dir, tmp_path, capsys):
        dump = tmp_path / "mats"
        code, _, _ = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(tmp_path / "h.rttm"),
            "--dump-matrices", str(dump),
        )
        assert code == 0
        raw = np.loadtxt(dump / "affinity_raw.csv", delimiter=",")
        binarized = np.loadtxt(dump / "affinity_binarized.csv", delimiter=",")
        lap = np.loadtxt(dump / "laplacian.csv", delimiter=",")
        assert raw.shape == binarized.shape == lap.shape == (30, 30)
        assert np.abs(lap.sum(axis=1)).max() < 1e-9

    def test_determinism_byte_identical(self, synth_dir, tmp_path, capsys):
        outs = []
        jsons = []
        for name in ("a.rttm", "b.rttm"):
            hyp = tmp_path / name
            rep = tmp_path / (name + ".json")
            code, _, _ = run_cli(
                capsys,
                "diarize",
                "--embeddings", str(synth_dir / "embeddings.txt"),
                "--out", str(hyp),
                "--seed", "3",
                "--dump-report", str(rep),
            )
            assert code == 0
            outs.append(hyp.read_bytes())
            jsons.append(rep.read_bytes())
        assert outs[0] == outs[1]
        assert jsons[0] == jsons[1]


class TestScoreCommand:
    def test_identical_files(self, synth_dir, capsys):
        ref = str(synth_dir / "reference.rttm")
        code, out, _ = run_cli(capsys, "score", "--ref", ref, "--hyp", ref)
        assert code == 0
        assert "DER           :   0.0%" in out
        assert last_json(out)["der"] == 0.0

    def test_matches_library_exactly(self, synth_dir, tmp_path, capsys):
        hyp = tmp_path / "hyp.rttm"
        run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(hyp),
        )
        code, out, _ = run_cli(
            capsys,
            "score",
            "--ref", str(synth_dir / "reference.rttm"),
            "--hyp", str(hyp),
        )
        assert code == 0
        got = last_json(out)
        lib = scoring.der_score(
            ingest.load_rttm(synth_dir / "reference.rttm"), ingest.load_rttm(hyp)
        )
        assert got == asdict(lib)

    def test_invalid_utf8_exits_2(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.rttm"
        bad.write_bytes(b"SPEAKER rec 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n\xff\xfe\n")
        code, _, err = run_cli(
            capsys, "score", "--ref", str(synth_dir / "reference.rttm"), "--hyp", str(bad)
        )
        assert code == 2
        assert "bad.rttm:2: not UTF-8" in err

    @pytest.mark.parametrize("collar", ["nan", "-0.5"])
    def test_bad_collar_exits_2(self, synth_dir, capsys, collar):
        ref = str(synth_dir / "reference.rttm")
        code, _, err = run_cli(capsys, "score", "--ref", ref, "--hyp", ref, "--collar", collar)
        assert code == 2
        assert "collar must be non-negative" in err

    def test_malformed_rttm_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.rttm"
        bad.write_text("SPEAKER rec 1 oops 1.0 <NA> <NA> a <NA> <NA>\n")
        code, _, err = run_cli(
            capsys, "score", "--ref", str(bad), "--hyp", str(bad)
        )
        assert code == 2
        assert ":1" in err


class TestDetectOverlapCommand:
    def _write_inputs(self, tmp_path, rows, shift=0.01):
        post = tmp_path / "post.txt"
        lines = [f"#frame_shift {shift}"] + [" ".join(map(str, r)) for r in rows]
        post.write_text("\n".join(lines) + "\n")
        emb = tmp_path / "emb.txt"
        emb.write_text(
            "rec\t0.0\t1.5\t1 0\nrec\t0.75\t2.25\t0 1\nrec\t1.5\t3.0\t1 1\n"
        )
        return post, emb

    def test_all_single_gives_zero_flags(self, tmp_path, capsys):
        post, emb = self._write_inputs(tmp_path, [[0.0, 1.0, 0.0]] * 300)
        out = tmp_path / "flags.txt"
        code, _, _ = run_cli(
            capsys,
            "detect-overlap",
            "--posteriors", str(post),
            "--segments", str(emb),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text() == "0\n0\n0\n"

    def test_majority_overlap_window_flagged(self, tmp_path, capsys):
        # overlap active on [0.5 s, 1.6 s): covers most of the first window,
        # a minority of the second, and under half of the third
        rows = []
        for t in range(300):
            mid = (t + 0.5) * 0.01
            rows.append([0.0, 0.05, 0.95] if 0.5 <= mid < 1.6 else [0.0, 0.95, 0.05])
        post, emb = self._write_inputs(tmp_path, rows)
        out = tmp_path / "flags.txt"
        code, _, _ = run_cli(
            capsys,
            "detect-overlap",
            "--posteriors", str(post),
            "--segments", str(emb),
            "--out", str(out),
            "--lab", str(tmp_path / "ovl.lab"),
        )
        assert code == 0
        assert out.read_text() == "1\n1\n0\n"
        assert "overlap" in (tmp_path / "ovl.lab").read_text()

    def test_infeasible_durations_exit_2(self, tmp_path, capsys):
        post, emb = self._write_inputs(tmp_path, [[0.2, 0.5, 0.3]] * 2, shift=1.0)
        code, _, err = run_cli(
            capsys,
            "detect-overlap",
            "--posteriors", str(post),
            "--segments", str(emb),
            "--out", str(tmp_path / "f.txt"),
            "--min-single", "3.0",
            "--max-single", "4.0",
            "--min-silence", "3.0",
            "--max-silence", "4.0",
            "--min-overlap", "3.0",
            "--max-overlap", "4.0",
        )
        assert code == 2
        assert "error" in err


    @pytest.mark.parametrize(
        "option, header",
        [
            ([], "nan"),
            (["--frame-shift", "nan"], "0.01"),
            (["--min-overlap", "nan"], "0.01"),
            (["--max-single", "nan"], "0.01"),
            (["--bias-single", "nan"], "0.01"),
        ],
    )
    def test_nan_settings_exit_2(self, tmp_path, capsys, option, header):
        post, emb = self._write_inputs(tmp_path, [[0.1, 0.8, 0.1]] * 300)
        post.write_text(post.read_text().replace("0.01", header, 1))
        code, _, err = run_cli(
            capsys,
            "detect-overlap",
            "--posteriors", str(post),
            "--segments", str(emb),
            "--out", str(tmp_path / "f.txt"),
            *option,
        )
        assert code == 2
        assert "must be" in err


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score", "--no-such-flag", "x"])
        assert exc.value.code == 1

    def test_bad_p_range_exits_2(self, synth_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(tmp_path / "h.rttm"),
            "--p-range", "five",
        )
        assert code == 2
        assert "MIN:MAX" in err
