import json
import logging
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import diarcut
from diarcut import affinity, cli, ingest, overlap_decode, scoring
from diarcut.cli import build_parser, main
from diarcut.pipeline import diarize_embeddings
from diarcut.synth import SynthConfig, generate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def reversed_copy(src, dst):
    """Write the data lines of ``src`` to ``dst`` in reverse, headers first."""
    lines = src.read_text().splitlines(keepends=True)
    headers = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    dst.write_text("".join(headers + data[::-1]))
    return dst


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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "synth", "--speakers", "2", "--segments", "10",
                               "--seed", "-1", "--out-dir", str(tmp_path / "d"))
        assert code == 2
        assert "seed must be non-negative" in err

    @pytest.mark.parametrize("option, value, message", [
        ("--speakers", "0", "n_speakers must be at least 1"),
        ("--dim", "1", "dim must be at least 2"),
        ("--segments", "0", "n_segments must be at least 1"),
        ("--overlap-frac", "1", "overlap_fraction must lie in [0, 1)"),
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, option, value, message):
        # the option given last overrides the valid value given first
        code, _, err = run_cli(capsys, "synth", "--speakers", "2", "--segments", "10",
                               option, value, "--out-dir", str(tmp_path / "d"))
        assert code == 2
        assert f"error: {message}" in err
        assert not (tmp_path / "d").exists()


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

    def _reversed_overlap_files(self, tmp_path, capsys):
        data = tmp_path / "d"
        run_cli(capsys, "synth", "--speakers", "3", "--segments", "30", "--sigma", "0.1",
                "--overlap-frac", "0.2", "--seed", "1", "--out-dir", str(data))
        emb = reversed_copy(data / "embeddings.txt", tmp_path / "emb.txt")
        flags = reversed_copy(data / "overlap_flags.txt", tmp_path / "flags.txt")
        return data, emb, flags

    def test_reversed_files_score_as_in_order(self, tmp_path, capsys):
        # flag line i belongs to embeddings line i, not to the i-th earliest segment
        data, emb, flags = self._reversed_overlap_files(tmp_path, capsys)
        hyp = tmp_path / "hyp.rttm"
        code, out, _ = run_cli(capsys, "diarize", "--embeddings", str(emb),
                               "--flags", str(flags), "--out", str(hyp))
        assert code == 0
        assert last_json(out)["k_hat"] == 3
        code, out, _ = run_cli(capsys, "score", "--ref", str(data / "reference.rttm"),
                               "--hyp", str(hyp))
        assert code == 0
        assert last_json(out)["der"] == 0.0

    def test_flagged_lines_get_two_labels(self, tmp_path, capsys):
        _, emb, flags = self._reversed_overlap_files(tmp_path, capsys)
        seq = ingest.load_embeddings(emb)
        flagged = ingest.load_overlap_flags(flags, len(seq))
        two = diarize_embeddings(seq, flagged).assignment.matrix.sum(axis=1) == 2
        lab = generate(SynthConfig(n_speakers=3, n_segments=30, noise_sigma=0.1,
                                   overlap_fraction=0.2, seed=1))
        want = {(s.start, s.end) for s, f in zip(lab.embeddings.spans, lab.overlap.flags) if f}
        assert {(s.start, s.end) for s, t in zip(seq.spans, two) if t} == want

    def test_missing_embeddings_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "x.rttm"),
        )
        assert code == 2
        assert "nope.txt" in err

    @pytest.mark.parametrize("out, reason", [
        ("missing_dir/h.rttm", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, synth_dir, tmp_path, capsys, out, reason):
        target = tmp_path / out
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(target),
        )
        assert code == 2
        assert reason in err and str(target) in err

    @pytest.mark.parametrize("option", ["--out", "--dump-report"])
    def test_bad_output_path_fails_before_the_run(self, synth_dir, tmp_path, capsys, monkeypatch,
                                                  option):
        def unreachable(*args, **kwargs):
            raise AssertionError("clustering ran despite a bad output path")

        monkeypatch.setattr(cli, "diarize_embeddings", unreachable)
        paths = {"--out": tmp_path / "h.rttm", "--dump-report": tmp_path / "report.json"}
        paths[option] = tmp_path / "missing" / paths[option].name
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(paths["--out"]),
            "--dump-report", str(paths["--dump-report"]),
        )
        assert code == 2
        assert "No such file or directory" in err and str(paths[option]) in err
        assert not any(path.exists() for path in paths.values())

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

    def test_negative_seed_exits_2(self, synth_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(tmp_path / "h.rttm"),
            "--seed", "-1",
        )
        assert code == 2
        assert "seed >= 0" in err

    def test_zero_max_speakers_exits_2(self, synth_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--out", str(tmp_path / "h.rttm"),
            "--max-speakers", "0",
        )
        assert code == 2
        assert "error: max_speakers must be at least 1" in err

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

    @pytest.mark.parametrize("rec", ["my rec", ""])
    def test_recording_id_rttm_cannot_hold_exits_2(self, tmp_path, capsys, rec):
        # RTTM holds the recording id as one field, so no output may be written
        emb = tmp_path / "emb.txt"
        emb.write_text("".join(f"{rec}\t{i}\t{i + 1}\t1 {i % 2}\n" for i in range(6)))
        out = tmp_path / "h.rttm"
        code, _, err = run_cli(capsys, "diarize", "--embeddings", str(emb), "--out", str(out))
        assert code == 2
        assert "emb.txt:1: segment 0 of" in err
        assert not out.exists()

    def test_sub_millisecond_span_exits_2(self, tmp_path, capsys):
        # its RTTM duration would read 0.000, which score rejects
        emb = tmp_path / "emb.txt"
        emb.write_text("rec\t0.0\t0.0004\t1 0\nrec\t1.0\t2.0\t0 1\nrec\t2.0\t3.0\t1 1\n")
        out = tmp_path / "h.rttm"
        code, _, err = run_cli(capsys, "diarize", "--embeddings", str(emb), "--out", str(out))
        assert code == 2
        assert "emb.txt:1: segment 0 of 'rec': duration under 0.5 ms" in err
        assert not out.exists()

    def test_half_millisecond_span_scores_against_itself(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("rec\t0.0\t0.0005\t1 0\nrec\t1.0\t2.0\t0 1\nrec\t2.0\t3.0\t1 1\n")
        hyp = tmp_path / "h.rttm"
        code, _, _ = run_cli(capsys, "diarize", "--embeddings", str(emb), "--out", str(hyp))
        assert code == 0
        assert " 0.000 0.001 " in hyp.read_text()
        code, out, _ = run_cli(capsys, "score", "--ref", str(hyp), "--hyp", str(hyp))
        assert code == 0
        assert last_json(out)["der"] == 0.0

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
        swept = len(data["p_values"])
        assert len(data["lambda_max_per_p"]) == len(data["eigenvalues_per_p"]) == swept
        for lam, gaps in zip(data["eigenvalues_per_p"], data["gaps_per_p"]):
            assert len(lam) == data["max_speakers"] + 1 and len(gaps) == len(lam) - 1

    def test_dump_report_is_strict_json(self, tmp_path, capsys):
        # at p = 2 this recording's graph has a zero g_p, so r(p) is infinite
        data_dir = tmp_path / "data"
        run_cli(capsys, "synth", "--speakers", "3", "--segments", "60", "--sigma", "0.1",
                "--seed", "1", "--out-dir", str(data_dir))
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(data_dir / "embeddings.txt"),
            "--out", str(tmp_path / "h.rttm"),
            "--dump-report", str(report),
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        data = json.loads(report.read_text(), parse_constant=reject)
        assert data["p_values"][0] == 2 and data["r_values"][0] is None
        assert data["r_values"][data["p_values"].index(data["p_hat"])] is not None

    def test_eigensolver_failure_exits_numerical(self, tmp_path, capsys, monkeypatch):
        from scipy.sparse import linalg as sla

        data = tmp_path / "data"
        run_cli(capsys, "synth", "--speakers", "3", "--segments", "60", "--out-dir", str(data))

        def fail(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0)
        monkeypatch.setattr(sla, "eigsh", fail)
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(data / "embeddings.txt"),
            "--out", str(tmp_path / "h.rttm"),
        )
        assert code == 3
        assert "Lanczos eigensolve failed" in err

    def test_clustering_eigensolver_failure_exits_numerical(self, tmp_path, capsys, monkeypatch):
        from scipy.sparse import linalg as sla

        data = tmp_path / "data"
        # noisy enough that the graph is one component, so Lanczos must run
        run_cli(capsys, "synth", "--speakers", "3", "--segments", "60", "--sigma", "0.3",
                "--out-dir", str(data))
        real = sla.eigsh

        def fail_top_k(*args, **kwargs):
            # counting asks for "SA" and the one largest value; clustering for "LA", k > 1
            if kwargs["which"] == "LA" and kwargs["k"] > 1:
                raise sla.ArpackError(-9999)
            return real(*args, **kwargs)

        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0)
        monkeypatch.setattr(sla, "eigsh", fail_top_k)
        code, _, err = run_cli(
            capsys,
            "diarize",
            "--embeddings", str(data / "embeddings.txt"),
            "--out", str(tmp_path / "h.rttm"),
        )
        assert code == 3
        assert "Lanczos eigensolve failed" in err

    def test_more_speakers_than_the_cap_clamp(self, tmp_path, capsys, caplog):
        # 12 noiseless speakers: every swept graph has at least 12 components,
        # so every eigengap ratio is zero; the count clamps to max_speakers
        # and clustering, with more components than clusters, solves dense
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--speakers", "12", "--segments", "900", "--sigma", "0",
                "--seed", "8", "--out-dir", str(data))
        with caplog.at_level(logging.WARNING):
            code, out, _ = run_cli(
                capsys,
                "diarize",
                "--embeddings", str(data / "embeddings.txt"),
                "--out", str(tmp_path / "h.rttm"),
            )
        assert code == 0
        assert last_json(out)["k_hat"] == 10
        assert last_json(out)["p_hat"] == 20
        assert "clamped" in caplog.text

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

    @pytest.mark.parametrize("ref_lines, hyp_lines", [
        # each speaker's time is finite, the total reference time is not
        (["0 1e308 a", "0 1e308 b"], ["0 1e308 x"]),
        # one region spans [-1e308, 1e308], so its duration is infinite
        (["-1e308 1e308 a", "0 1e308 a"], ["-1e308 1e308 x", "0 1e308 x"]),
    ])
    def test_overflowing_speaker_time_exits_2(self, tmp_path, capsys, ref_lines, hyp_lines):
        paths = []
        for name, lines in (("ref", ref_lines), ("hyp", hyp_lines)):
            path = tmp_path / f"{name}.rttm"
            path.write_text("".join(
                f"SPEAKER r 1 {onset} {dur} <NA> <NA> {spk} <NA> <NA>\n"
                for onset, dur, spk in map(str.split, lines)
            ))
            paths.append(str(path))
        code, out, err = run_cli(capsys, "score", "--ref", paths[0], "--hyp", paths[1])
        assert (code, out) == (2, "")
        assert "overflows float64" in err

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

    def test_bad_lab_path_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("decoding ran despite a bad output path")

        monkeypatch.setattr(overlap_decode, "viterbi", unreachable)
        post, emb = self._write_inputs(tmp_path, [[0.0, 1.0, 0.0]] * 300)
        out, lab = tmp_path / "flags.txt", tmp_path / "missing" / "ovl.lab"
        code, _, err = run_cli(capsys, "detect-overlap", "--posteriors", str(post),
                               "--segments", str(emb), "--out", str(out), "--lab", str(lab))
        assert code == 2
        assert "No such file or directory" in err and str(lab) in err
        assert not out.exists()

    def test_default_bounds_at_twenty_ms_reach_diarize(self, tmp_path, capsys):
        # overlap on [0.5 s, 1.6 s) at a 20 ms shift, decoded with the default
        # bounds, whose 0.01 s minimum silence is half a frame
        rows = []
        for t in range(150):
            mid = (t + 0.5) * 0.02
            rows.append([0.0, 0.05, 0.95] if 0.5 <= mid < 1.6 else [0.0, 0.95, 0.05])
        post, emb = self._write_inputs(tmp_path, rows, shift=0.02)
        flags, hyp = tmp_path / "flags.txt", tmp_path / "hyp.rttm"
        code, _, err = run_cli(capsys, "detect-overlap", "--posteriors", str(post),
                               "--segments", str(emb), "--out", str(flags))
        assert code == 0, err
        assert flags.read_text() == "1\n1\n0\n"
        code, _, err = run_cli(capsys, "diarize", "--embeddings", str(emb),
                               "--flags", str(flags), "--out", str(hyp))
        assert code == 0, err
        assert hyp.read_text().startswith("SPEAKER rec 1 ")

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

    def test_flags_follow_segment_lines(self, tmp_path, capsys):
        # overlap on [0.5 s, 1.6 s) flags the windows starting at 0 and 0.75
        rows = []
        for t in range(300):
            mid = (t + 0.5) * 0.01
            rows.append([0.0, 0.05, 0.95] if 0.5 <= mid < 1.6 else [0.0, 0.95, 0.05])
        post, emb = self._write_inputs(tmp_path, rows)
        reversed_copy(emb, emb)
        out = tmp_path / "flags.txt"
        code, _, _ = run_cli(capsys, "detect-overlap", "--posteriors", str(post),
                             "--segments", str(emb), "--out", str(out))
        assert code == 0
        assert out.read_text() == "0\n1\n1\n"

    def test_frame_shift_option_is_gone(self, tmp_path, capsys):
        post, emb = self._write_inputs(tmp_path, [[0.1, 0.8, 0.1]] * 300)
        with pytest.raises(SystemExit) as exc:
            main(["detect-overlap", "--posteriors", str(post), "--segments", str(emb),
                  "--out", str(tmp_path / "f.txt"), "--frame-shift", "0.02"])
        assert exc.value.code == 1


class TestStartup:
    # scipy.sparse serves only graphs of SPARSE_MIN_N rows or more, and scoring
    # runs on numpy alone; importing scipy costs every run its start-up time

    def _loaded(self, *argvs):
        """Exit codes of the runs, made in one process, and the scipy modules
        loaded before the first and after the last."""
        script = (
            "import json, sys\n"
            "import diarcut.cli\n"
            "def scipy():\n"
            "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "before = scipy()\n"
            "codes = [diarcut.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, before, scipy()]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = json.dumps([list(map(str, argv)) for argv in argvs])
        proc = subprocess.run(
            [sys.executable, "-c", script, runs],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    @staticmethod
    def _small_recording(data):
        synth = generate(SynthConfig(n_speakers=3, n_segments=60, overlap_fraction=0.2, seed=2))
        data.mkdir()
        ingest.save_embeddings(synth.embeddings, data / "emb.txt")
        ingest.save_overlap_flags(synth.overlap, data / "flags.txt")
        ingest.write_rttm(synth.reference, data / "ref.rttm")
        return ["diarize", "--embeddings", data / "emb.txt", "--flags", data / "flags.txt",
                "--out", data / "h.rttm"]

    def test_optional_scipy_modules_not_imported(self, tmp_path):
        post, emb = TestDetectOverlapCommand._write_inputs(None, tmp_path, [[0.0, 1.0, 0.0]] * 300)
        argv = ["detect-overlap", "--posteriors", post, "--segments", emb,
                "--out", tmp_path / "flags.txt"]
        assert self._loaded(argv) == [[0], [], []]

    def test_small_diarize_loads_no_sparse(self, tmp_path):
        argv = self._small_recording(tmp_path / "data")
        assert self._loaded(argv) == [[0], [], []]

    def test_score_leaves_optimize_unloaded(self, tmp_path):
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER r 1 0 2 <NA> <NA> a <NA> <NA>\n"
                       "SPEAKER r 1 1 3 <NA> <NA> b <NA> <NA>\n")
        codes, _, after = self._loaded(["score", "--ref", ref, "--hyp", ref])
        assert codes == [0]
        assert "scipy.optimize" not in after

    def test_small_diarize_then_score_loads_no_scipy(self, tmp_path):
        data = tmp_path / "data"
        diarize = self._small_recording(data)
        score = ["score", "--ref", data / "ref.rttm", "--hyp", data / "h.rttm"]
        assert self._loaded(diarize, score) == [[0, 0], [], []]


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score", "--no-such-flag", "x"])
        assert exc.value.code == 1

    def test_dump_matrices_option_is_gone(self, synth_dir, tmp_path, capsys):
        dump = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main(["diarize", "--embeddings", str(synth_dir / "embeddings.txt"),
                  "--out", str(tmp_path / "h.rttm"), "--dump-matrices", str(dump)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: diarcut")
        assert "unrecognized arguments: --dump-matrices" in err
        assert not dump.exists()

    def test_schedule_options_are_gone(self, synth_dir, tmp_path, capsys):
        # the discretization schedule and the overlap noise are constants
        runs = [
            ["diarize", "--embeddings", str(synth_dir / "embeddings.txt"),
             "--out", str(tmp_path / "h.rttm"), option, "3"]
            for option in ("--restarts", "--max-iters", "--tol")
        ]
        runs.append(["synth", "--speakers", "2", "--segments", "4",
                     "--out-dir", str(tmp_path / "s"), "--overlap-sigma", "0.1"])
        for argv in runs:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: diarcut")
            assert f"unrecognized arguments: {argv[-2]}" in err
        assert not (tmp_path / "h.rttm").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("level", ["verbose", "5", ""])
    def test_unknown_log_level_exits_1(self, synth_dir, capsys, level):
        ref = str(synth_dir / "reference.rttm")
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", level, "score", "--ref", ref, "--hyp", ref])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: diarcut")
        assert "argument --log-level: invalid choice" in err

    def test_log_level_names_ignore_case(self):
        for name in ("debug", "Info", "WARNING", "error", "critical"):
            args = build_parser().parse_args(["--log-level", name, "score", "--ref", "r", "--hyp", "h"])
            assert args.log_level == name.upper()

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


class TestManifest:
    def test_logged_once_with_package_version(self, synth_dir, capsys, caplog):
        ref = str(synth_dir / "reference.rttm")
        with caplog.at_level(logging.INFO, logger="diarcut"):
            assert run_cli(capsys, "score", "--ref", ref, "--hyp", ref)[0] == 0
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("manifest ")]
        assert len(logged) == 1
        manifest = json.loads(logged[0].removeprefix("manifest "))
        assert manifest["version"] == diarcut.__version__
        assert manifest["command"] == "score"

    def test_pyproject_version_matches_package(self):
        # read without tomllib, which Python 3.10 lacks
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "(.*)"$', pyproject, re.M)[1] == diarcut.__version__
