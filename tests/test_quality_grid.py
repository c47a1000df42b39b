"""Pinned quality grid: speaker count, binarization factor and DER per cell.

The cells follow the paper's analysis of DER as overlap grows (0-40 %), on
4-speaker recordings of 120 segments in 128 dimensions, at two noise levels
on both sides of the counting cliff and two seeds. Each recording runs with
oracle overlap flags, with oracle flags of which a seeded 10 % are flipped (a
stand-in for an imperfect overlap detector), with flags decoded from noisy
frame posteriors by ``viterbi`` and ``frames_to_flags`` (the whole system),
and without flags. One cell has more speakers than ``max_speakers``; one has
720 rows, so that counting (without flags) and clustering run on the Lanczos
paths. The paper's baseline, average-linkage AHC on cosine distance
(``oracles.ahc_labels``), clusters each 4-speaker recording once; its rows
carry ``"ahc"`` in the ``flags`` field that names the variant.

``quality_grid.json`` holds ``k_hat``, ``p_hat``, the final cluster count and
the DER of every cell (AHC rows: the cluster count and DER), and for decoded
flags the percentage of segments whose flag differs from the oracle's; the
test recomputes them and compares exactly. After a change that is meant to
move them, rewrite the file with

    PYTHONPATH=src python tests/test_quality_grid.py
"""

import json
from pathlib import Path

import numpy as np

from oracles import ahc_labels
from diarcut import synth
from diarcut.ingest import FramePosteriors, OverlapVector, assignment_to_timeline
from diarcut.overlap_decode import OVERLAP, SINGLE, DurationConfig, frames_to_flags, viterbi
from diarcut.pipeline import DiarizationConfig, diarize_embeddings
from diarcut.scoring import der_score
from diarcut.synth import SynthConfig, generate

GRID_FILE = Path(__file__).with_name("quality_grid.json")

FLIP_FRACTION = 0.1

# Frame posteriors for decoded flags, as the benchmark's generator makes
# them: the true class's logit gets LOGIT_GAIN, every logit Gaussian noise of
# LOGIT_NOISE smoothed over NOISE_SMOOTH frames.
FRAME_SHIFT = 0.01
LOGIT_GAIN = 2.5
LOGIT_NOISE = 1.0
NOISE_SMOOTH = 5


def grid_cells():
    """(speakers, segments, overlap, sigma, seed, flags, max_speakers) per cell."""
    cells = [
        (4, 120, overlap, sigma, seed, flags, 10)
        for sigma in (0.15, 0.23)
        for overlap in (0.0, 0.1, 0.2, 0.3, 0.4)
        for seed in (1, 2)
        for flags in ("oracle", "flipped", "decoded", "none")
    ]
    cells.append((12, 200, 0.0, 0.0, 1, "none", 10))
    cells += [(4, 720, 0.1, 0.15, 1, flags, 10) for flags in ("oracle", "none")]
    cells += [
        (4, 120, overlap, sigma, seed, "ahc", None)
        for sigma in (0.15, 0.23)
        for overlap in (0.0, 0.1, 0.2, 0.3, 0.4)
        for seed in (1, 2)
    ]
    return cells


def noisy_posteriors(rng: np.random.Generator, classes: np.ndarray) -> np.ndarray:
    """T x 3 posteriors whose rows sum to 1, peaked on the true class."""
    noise = rng.standard_normal((len(classes) + NOISE_SMOOTH - 1, 3))
    kernel = np.ones(NOISE_SMOOTH) / np.sqrt(NOISE_SMOOTH)
    smooth = np.column_stack([np.convolve(noise[:, j], kernel, mode="valid") for j in range(3)])
    logits = LOGIT_NOISE * smooth
    logits[np.arange(len(classes)), classes] += LOGIT_GAIN
    logits -= logits.max(axis=1, keepdims=True)
    expo = np.exp(logits)
    return expo / expo.sum(axis=1, keepdims=True)


def decoded_flags(data, seed) -> OverlapVector:
    """Flags decoded with the default duration bounds from noisy posteriors.

    Segment i's label (single, or overlap when flagged) gives the true class
    of the frames in the middle half of its window, [0.75 i + 0.375,
    0.75 i + 1.125); these halves tile the recording, and the frames before
    the first and after the last take the nearest segment's class.
    """
    spans = data.embeddings.spans
    mid = (np.arange(round(spans[-1].end / FRAME_SHIFT)) + 0.5) * FRAME_SHIFT
    segment = np.clip((mid - synth.WINDOW / 4) // synth.STRIDE, 0, len(spans) - 1).astype(int)
    classes = np.where(data.overlap.flags[segment] == 1, OVERLAP, SINGLE)
    rows = noisy_posteriors(np.random.default_rng(seed), classes)
    labels = viterbi(FramePosteriors("synth", FRAME_SHIFT, rows), DurationConfig())
    return frames_to_flags(labels, spans)


def run_cell(speakers, segments, overlap, sigma, seed, flags, max_speakers) -> dict:
    data = generate(SynthConfig(n_speakers=speakers, n_segments=segments, dim=128,
                                overlap_fraction=overlap, noise_sigma=sigma, seed=seed))
    cell = {"speakers": speakers, "segments": segments, "overlap": overlap, "sigma": sigma,
            "seed": seed, "flags": flags}
    if flags == "ahc":
        labels = ahc_labels(data.embeddings.vectors)
        onehot = np.eye(labels.max() + 1, dtype=np.int8)[labels]
        timeline = assignment_to_timeline(onehot, data.embeddings.spans)
        cell.update(num_speakers=onehot.shape[1], der=der_score(data.reference, timeline).der)
        return cell
    ov = None if flags == "none" else data.overlap
    if flags == "flipped":
        rng = np.random.default_rng(seed)
        flipped = data.overlap.flags.copy()
        flipped[rng.choice(segments, round(FLIP_FRACTION * segments), replace=False)] ^= 1
        ov = OverlapVector(flipped)
    if flags == "decoded":
        ov = decoded_flags(data, seed)
    out = diarize_embeddings(data.embeddings, ov, DiarizationConfig(max_speakers=max_speakers))
    cell.update(max_speakers=max_speakers, k_hat=out.report.k_hat, p_hat=out.report.p_hat,
                num_speakers=out.num_speakers, der=der_score(data.reference, out.timeline).der)
    if flags == "decoded":
        cell["flag_error"] = 100 * np.count_nonzero(ov.flags != data.overlap.flags) / segments
    return cell


def test_grid_matches_pinned_values():
    want = json.loads(GRID_FILE.read_text(encoding="utf-8"))
    got = [run_cell(*cell) for cell in grid_cells()]
    assert [cell for cell in got if cell not in want] == []
    assert got == want


def test_spectral_with_oracle_flags_beats_ahc_on_every_overlap_cell():
    cells = json.loads(GRID_FILE.read_text(encoding="utf-8"))
    der = {(c["flags"], c["sigma"], c["overlap"], c["seed"]): c["der"]
           for c in cells if c["segments"] == 120 and c["speakers"] == 4}
    ahc = {key[1:]: value for key, value in der.items() if key[0] == "ahc"}
    assert len(ahc) == 20
    # keys are (sigma, overlap, seed)
    losing = [key for key, value in ahc.items() if key[1] > 0 and der[("oracle", *key)] >= value]
    assert losing == []


if __name__ == "__main__":
    cells = [run_cell(*cell) for cell in grid_cells()]
    lines = ",\n".join(json.dumps(cell) for cell in cells)
    GRID_FILE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
