"""Pinned quality grid: speaker count, binarization factor and DER per cell.

The cells follow the paper's analysis of DER as overlap grows (0-40 %), on
4-speaker recordings of 120 segments in 128 dimensions, at two noise levels
on both sides of the counting cliff and two seeds. Each recording runs with
oracle overlap flags, with oracle flags of which a seeded 10 % are flipped (a
stand-in for an imperfect overlap detector), and without flags. One cell has
more speakers than ``max_speakers``; one has 720 rows, so that counting
(without flags) and clustering run on the Lanczos paths.

``quality_grid.json`` holds ``k_hat``, ``p_hat``, the final cluster count and
the DER of every cell; the test recomputes them and compares exactly. After a
change that is meant to move them, rewrite the file with

    PYTHONPATH=src python tests/test_quality_grid.py
"""

import json
from pathlib import Path

import numpy as np

from diarcut.ingest import OverlapVector
from diarcut.pipeline import DiarizationConfig, diarize_embeddings
from diarcut.scoring import der_score
from diarcut.synth import SynthConfig, generate

GRID_FILE = Path(__file__).with_name("quality_grid.json")

FLIP_FRACTION = 0.1


def grid_cells():
    """(speakers, segments, overlap, sigma, seed, flags, max_speakers) per cell."""
    cells = [
        (4, 120, overlap, sigma, seed, flags, 10)
        for sigma in (0.15, 0.23)
        for overlap in (0.0, 0.1, 0.2, 0.3, 0.4)
        for seed in (1, 2)
        for flags in ("oracle", "flipped", "none")
    ]
    cells.append((12, 200, 0.0, 0.0, 1, "none", 10))
    cells += [(4, 720, 0.1, 0.15, 1, flags, 10) for flags in ("oracle", "none")]
    return cells


def run_cell(speakers, segments, overlap, sigma, seed, flags, max_speakers) -> dict:
    data = generate(SynthConfig(n_speakers=speakers, n_segments=segments, dim=128,
                                overlap_fraction=overlap, noise_sigma=sigma, seed=seed))
    ov = None if flags == "none" else data.overlap
    if flags == "flipped":
        rng = np.random.default_rng(seed)
        flipped = data.overlap.flags.copy()
        flipped[rng.choice(segments, round(FLIP_FRACTION * segments), replace=False)] ^= 1
        ov = OverlapVector(flipped)
    out = diarize_embeddings(data.embeddings, ov, DiarizationConfig(max_speakers=max_speakers))
    return {
        "speakers": speakers, "segments": segments, "overlap": overlap, "sigma": sigma,
        "seed": seed, "flags": flags, "max_speakers": max_speakers,
        "k_hat": out.report.k_hat, "p_hat": out.report.p_hat,
        "num_speakers": out.num_speakers, "der": der_score(data.reference, out.timeline).der,
    }


def test_grid_matches_pinned_values():
    want = json.loads(GRID_FILE.read_text(encoding="utf-8"))
    got = [run_cell(*cell) for cell in grid_cells()]
    assert [cell for cell in got if cell not in want] == []
    assert got == want


if __name__ == "__main__":
    cells = [run_cell(*cell) for cell in grid_cells()]
    lines = ",\n".join(json.dumps(cell) for cell in cells)
    GRID_FILE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
