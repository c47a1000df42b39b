"""Golden outputs: pinned digests of CLI outputs on fixed synthetic inputs.

Refactors that must not change behaviour are checked against these bytes.
RTTM files carry three decimals, so the digests are stable against last-ulp
differences in the floating-point libraries; the pinned ``p_hat``/``k_hat``
pairs fail with a readable message before the digest does.
"""

import hashlib
import json

import numpy as np
import pytest

from diarcut import ingest
from diarcut.cli import main
from diarcut.synth import STRIDE, WINDOW

# (speakers, segments, overlap fraction, sigma, seed)
#   -> (RTTM sha256, p_hat, k_hat) without flags, then the same with oracle
#      flags when the recording has overlaps
DIARIZE_GOLDEN = {
    (3, 30, 0.0, 0.0, 5): (
        "f09b1b758b0fb604a00e9e0451ecc07b24f7944a404c93d5a0796ae8da446812", 2, 3,
    ),
    (4, 60, 0.2, 0.1, 17): (
        "556b731b5364e33f72a261dfdbedd6ca66979f57e72f2e53dbbf510b63348fae", 17, 4,
        "dbaae03a11e8ecd3ac0771107c9d9ee9472891628e25efdf5002b172910a995c", 9, 4,
    ),
    (5, 120, 0.3, 0.15, 3): (
        "5899166945d703a8231655ac5b2d26f0d7012bbf027fa10cd025a1d42ef8d61d", 17, 5,
        "e00b929809047e839e61be2af34b6261cc9365561ce98461083c3bac802d3d71", 12, 5,
    ),
    (6, 200, 0.15, 0.15, 11): (
        "ea3e1d944b4db6838b0b1797f4e646e6cffaa71dbc81740cf7b926ec81e7b4dc", 12, 6,
        "306044e7d5823f2bb24d560681ad77075c2399a418cfac71e62bf539a52ffafe", 16, 6,
    ),
}

# seed -> (sha256 of the flags file, sha256 of the .lab file)
DETECT_GOLDEN = {
    4: (
        "e8699bb1e75ed691c2e51e7ff7ec77d13d915420bffd592611d409a840814a0f",
        "b023c5dc2efb4ba48ca636476ed9ffe4dfd4d05a5b48142609cd423bf1ff895f",
    ),
    23: (
        "ba5c8a8c71766d7ccdb57c8b257f30827fbbefd17a2502a92b60d3832ad8aa32",
        "c9124712ac284353348c8c1f2a3d79cc81289d40216594e47d776c0bd6284af8",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv) -> dict:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out.strip().splitlines()[-1])


def synth_dir(tmp_path, capsys, speakers, segments, overlap, sigma, seed):
    data = tmp_path / "data"
    run(
        capsys, "synth", "--speakers", speakers, "--segments", segments,
        "--overlap-frac", overlap, "--sigma", sigma, "--seed", seed,
        "--out-dir", data,
    )
    return data


def diarize(capsys, data, out, flags: bool):
    argv = ["diarize", "--embeddings", data / "embeddings.txt", "--out", out]
    if flags:
        argv += ["--flags", data / "overlap_flags.txt"]
    summary = run(capsys, *argv)
    return sha256(out), summary["p_hat"], summary["k_hat"]


@pytest.mark.parametrize("case", sorted(DIARIZE_GOLDEN))
def test_diarize_golden(case, tmp_path, capsys):
    data = synth_dir(tmp_path, capsys, *case)
    got = diarize(capsys, data, tmp_path / "plain.rttm", flags=False)
    if case[2] > 0:
        got += diarize(capsys, data, tmp_path / "flagged.rttm", flags=True)
    want = DIARIZE_GOLDEN[case]
    assert got[1:3] == want[1:3], "p_hat/k_hat without flags changed"
    assert got[4:] == want[4:], "p_hat/k_hat with flags changed"
    assert got == want


def frame_posteriors(rng: np.random.Generator, n_frames: int) -> np.ndarray:
    """Noisy posteriors over alternating single/overlap/silence runs."""
    classes = np.empty(n_frames, dtype=int)
    t, cls = 0, 1
    while t < n_frames:
        run_len = int(rng.integers(20, 200)) if cls != 1 else int(rng.integers(50, 400))
        classes[t : t + run_len] = cls
        t += run_len
        cls = int(rng.choice([0, 2])) if cls == 1 else 1
    rows = rng.dirichlet(np.ones(3), size=n_frames) * 0.6
    rows[np.arange(n_frames), classes] += 0.4
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", sorted(DETECT_GOLDEN))
def test_detect_overlap_golden(seed, tmp_path, capsys):
    data = synth_dir(tmp_path, capsys, 4, 60, 0.2, 0.1, seed)
    n_frames = int(round((WINDOW + STRIDE * 59) / 0.01))
    rows = frame_posteriors(np.random.default_rng(seed), n_frames)
    post = tmp_path / "post.txt"
    ingest.save_posteriors(ingest.FramePosteriors("synth", 0.01, rows), post)
    flags, lab = tmp_path / "flags.txt", tmp_path / "ovl.lab"
    run(
        capsys, "detect-overlap", "--posteriors", post,
        "--segments", data / "embeddings.txt", "--out", flags, "--lab", lab,
    )
    assert (sha256(flags), sha256(lab)) == DETECT_GOLDEN[seed]
