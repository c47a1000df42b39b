"""Golden outputs: pinned digests of CLI outputs on fixed synthetic inputs.

Refactors that must not change behaviour are checked against these bytes.
Speaker names are canonical (in order of each cluster's first segment), so
the digests pin the partition, not the column order of the clustering.
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
        "a150ec541e1e81abebfc7219b8f96e9c08c7897f756596de660661c39f735c03", 2, 3,
    ),
    (4, 60, 0.2, 0.1, 17): (
        "b02df29d7d54638e667d57e11cac7ef7df433a87fcd34e80b9a00081ceaf326a", 17, 4,
        "936ce5745d9996e4a2fc21b26e94f0f3dcebf57c931553e9b3bc98f6d294ff36", 9, 4,
    ),
    (5, 120, 0.3, 0.15, 3): (
        "b540973aa6d58486646a6d316a546d16fe9d02db5fb8400e2aa4ba131fe2871a", 17, 5,
        "6022c1bba8ad1acbb7553581096b896442dc639741ea910bf6a7ce6c12ba6da6", 12, 5,
    ),
    (6, 200, 0.15, 0.15, 11): (
        "bd2eb6bba8c2a026e70dfa67de201bef0558994865204ee2a168f866ca4e43e2", 12, 6,
        "085fe10eaa50e67d79463aa9149a834639525b5e7456251a2f238943506e3ea0", 16, 6,
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
