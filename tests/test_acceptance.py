"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools

import numpy as np
import pytest

from conftest import block_affinity, enumerate_assignments, random_orthonormal, random_timeline
from diarcut.affinity import cosine_affinity
from diarcut.cli import main as cli_main
from diarcut.ingest import OverlapVector, Timeline
from diarcut.overlap_decode import (
    OVERLAP,
    SILENCE,
    viterbi,
)
from diarcut.pipeline import diarize_embeddings
from diarcut.scoring import der_score, map_speakers
from diarcut.spectral import (
    assignment_distance,
    nms_assign,
    procrustes,
    row_normalize,
)
from diarcut.speaker_count import estimate
from diarcut.synth import SynthConfig, generate
from oracles import path_score
from test_overlap_decode import brute_force_best, frame_config, random_posteriors
from test_scoring import cooccurrence


def _criterion(name, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


@pytest.fixture(scope="module")
def random_pipeline_runs():
    """200 seeded synthetic diarization runs shared by criteria 1 and 2."""
    rng = np.random.default_rng(20240)
    runs = []
    for i in range(200):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(20, 101))
        ovl = float(rng.uniform(0.0, 0.4))
        sigma = float(rng.uniform(0.0, 0.15))
        cfg = SynthConfig(
            n_speakers=k,
            n_segments=n,
            overlap_fraction=ovl,
            noise_sigma=sigma,
            seed=int(rng.integers(0, 2**31)),
        )
        data = generate(cfg)
        result = diarize_embeddings(data.embeddings, data.overlap)
        runs.append((cfg, data, result))
    return runs


def test_c01_constraint_satisfaction(random_pipeline_runs):
    def body():
        for cfg, data, result in random_pipeline_runs:
            sums = result.assignment.matrix.sum(axis=1)
            expected = 1 + data.overlap.flags
            assert np.array_equal(sums, expected), (
                f"row-sum violation on {cfg}"
            )

    _criterion("C1 row sums equal 1 + overlap flag on 200 random instances", body)


def test_c02_monotone_descent(random_pipeline_runs):
    def body():
        for cfg, data, result in random_pipeline_runs:
            for history in result.discretization.phi_histories:
                assert all(
                    later <= earlier + 1e-9
                    for earlier, later in zip(history, history[1:])
                ), f"objective increased on {cfg}"

    _criterion("C2 discretization objective non-increasing per round", body)


def test_c03_nms_brute_force_equivalence():
    def body():
        rng = np.random.default_rng(7)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 4))
            rotated = row_normalize(rng.standard_normal((n, k))) @ random_orthonormal(k, rng)
            for flags in (np.zeros(n, dtype=np.int8), rng.integers(0, 2, n).astype(np.int8)):
                out = nms_assign(rotated, OverlapVector(flags))
                got = float(np.sum((out - rotated) ** 2))
                best = min(
                    float(np.sum((x - rotated) ** 2))
                    for x in enumerate_assignments(n, k, flags)
                )
                assert got == pytest.approx(best, abs=1e-12)

    _criterion("C3 suppression equals exhaustive argmin (N<=8, K<=3, 50 inputs)", body)


def test_c04_procrustes_optimality():
    def body():
        rng = np.random.default_rng(11)
        for trial in range(100):
            n, k = 12, 3
            x = (rng.uniform(size=(n, k)) > 0.5).astype(float)
            xt = rng.standard_normal((n, k))
            rot = procrustes(x, xt)
            best = assignment_distance(x, xt, rot)
            for _ in range(500):
                q = random_orthonormal(k, rng)
                assert best <= assignment_distance(x, xt, q) + 1e-9

    _criterion("C4 rotation fit beats 500 random rotations on 100 pairs", body)


def test_c05_speaker_counting():
    def body():
        # exact block-diagonal affinities: always the component count
        for c in range(2, 7):
            for sizes in ([12] * c, [10] * c, [10 + (i % 3) for i in range(c)]):
                report = estimate(block_affinity(sizes))
                assert report.k_hat == c, f"{sizes}: got {report.k_hat}"
        # noisy embeddings: at least 95 correct of 100 seeded trials
        correct = 0
        total = 0
        for k in range(2, 7):
            for seed in range(20):
                cfg = SynthConfig(
                    n_speakers=k,
                    n_segments=20 * k,
                    noise_sigma=0.1,
                    min_centroid_angle=45.0,
                    seed=seed,
                )
                aff = cosine_affinity(generate(cfg).embeddings)
                total += 1
                correct += estimate(aff).k_hat == k
        assert total == 100
        assert correct >= 95, f"only {correct}/100 correct"

    _criterion("C5 speaker count: blocks 100%, noisy embeddings >= 95%", body)


def test_c06_end_to_end_der():
    def body():
        # noiseless, no overlap: exactly zero error
        for seed in range(5):
            cfg = SynthConfig(n_speakers=4, n_segments=80, seed=seed)
            data = generate(cfg)
            out = diarize_embeddings(data.embeddings)
            der = der_score(data.reference, out.timeline).der
            assert der == pytest.approx(0.0, abs=1e-9), f"seed {seed}: DER {der}"
        # noiseless with 20% oracle-flagged overlaps: the two-peak assignment
        # recovers both true speakers, still zero error
        for seed in range(5):
            cfg = SynthConfig(
                n_speakers=4, n_segments=80, overlap_fraction=0.2, seed=seed
            )
            data = generate(cfg)
            out = diarize_embeddings(data.embeddings, data.overlap)
            der = der_score(data.reference, out.timeline).der
            assert der == pytest.approx(0.0, abs=1e-9), f"seed {seed}: DER {der}"
        # noisy: median DER over 20 seeds within 5%
        ders = []
        for seed in range(20):
            cfg = SynthConfig(
                n_speakers=4, n_segments=80, noise_sigma=0.15, seed=seed
            )
            data = generate(cfg)
            out = diarize_embeddings(data.embeddings)
            ders.append(der_score(data.reference, out.timeline).der)
        assert float(np.median(ders)) <= 5.0, f"median {np.median(ders)}"

    _criterion("C6 end-to-end DER: 0.000% noiseless, <= 5% median at sigma 0.15", body)


def test_c07_overlap_aware_beats_agnostic():
    def body():
        wins = 0
        for seed in range(20):
            cfg = SynthConfig(
                n_speakers=4,
                n_segments=80,
                overlap_fraction=0.3,
                noise_sigma=0.1,
                seed=seed,
            )
            data = generate(cfg)
            aware = der_score(
                data.reference,
                diarize_embeddings(data.embeddings, data.overlap).timeline,
            )
            agnostic = der_score(
                data.reference, diarize_embeddings(data.embeddings).timeline
            )
            if aware.missed < agnostic.missed and aware.der < agnostic.der:
                wins += 1
        assert wins >= 19, f"only {wins}/20 seeds improved"

    _criterion("C7 oracle overlap flags lower both missed speech and DER (>=19/20)", body)


def test_c08_viterbi_brute_force():
    def body():
        rng = np.random.default_rng(23)
        cfg = frame_config(
            min_sil=1, max_sil=4, min_sing=2, max_sing=6, min_ovl=2, max_ovl=3
        )
        for trial in range(100):
            t_len = int(rng.integers(3, 13))
            post = random_posteriors(rng, t_len)
            labels = viterbi(post, cfg)
            got = path_score(labels.labels, post, cfg)
            best = brute_force_best(post, cfg)
            assert got == pytest.approx(best, abs=1e-9)
            runs = labels.runs()
            for (c1, _, _), (c2, _, _) in zip(runs, runs[1:]):
                assert {c1, c2} != {SILENCE, OVERLAP}

    _criterion("C8 decoder matches exhaustive search, no silence-overlap contact", body)


def test_c09_scoring_self_consistency():
    def body():
        rng = np.random.default_rng(31)
        for _ in range(100):
            tl = random_timeline(rng)
            assert der_score(tl, tl).der == 0.0
        for _ in range(20):
            ref = random_timeline(rng)
            hyp = random_timeline(rng, prefix="hyp")
            base = der_score(ref, hyp)
            renamed = Timeline.from_entries(
                [(f"r-{spk}", s, e) for spk, s, e in hyp.entries]
            )
            again = der_score(ref, renamed)
            assert again.der == base.der
        for _ in range(50):
            ref = random_timeline(rng, n_speakers=3, n_intervals=6)
            hyp = random_timeline(rng, n_speakers=3, n_intervals=6, prefix="hyp")
            mapping = map_speakers(ref, hyp)
            got = sum(cooccurrence(ref, hyp, h, r) for h, r in mapping.items())
            best = 0.0
            k = min(len(hyp.speakers), len(ref.speakers))
            for h_sub in itertools.permutations(hyp.speakers, k):
                for r_sub in itertools.permutations(ref.speakers, k):
                    best = max(
                        best,
                        sum(cooccurrence(ref, hyp, h, r) for h, r in zip(h_sub, r_sub)),
                    )
            assert got == pytest.approx(best, abs=1e-9)

    _criterion("C9 scorer: self-score 0, rename-invariant, mapping optimal", body)


def test_c10_determinism(tmp_path, capsys):
    def body():
        data_dir = tmp_path / "data"
        assert (
            cli_main(
                [
                    "synth",
                    "--speakers", "4",
                    "--segments", "60",
                    "--overlap-frac", "0.2",
                    "--sigma", "0.1",
                    "--seed", "17",
                    "--out-dir", str(data_dir),
                ]
            )
            == 0
        )
        artifacts = []
        for name in ("one", "two"):
            rttm = tmp_path / f"{name}.rttm"
            report = tmp_path / f"{name}.json"
            code = cli_main(
                [
                    "diarize",
                    "--embeddings", str(data_dir / "embeddings.txt"),
                    "--flags", str(data_dir / "overlap_flags.txt"),
                    "--out", str(rttm),
                    "--seed", "17",
                    "--dump-report", str(report),
                ]
            )
            assert code == 0
            artifacts.append((rttm.read_bytes(), report.read_bytes()))
        capsys.readouterr()
        assert artifacts[0][0] == artifacts[1][0], "RTTM outputs differ"
        assert artifacts[0][1] == artifacts[1][1], "JSON reports differ"

    _criterion("C10 identical seeds give byte-identical RTTM and JSON", body)
