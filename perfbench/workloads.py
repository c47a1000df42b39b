"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed list of recordings. The seed decides their
content (speaker count, centroids, noise, overlap positions, frame class
runs); the recording sizes follow a fixed schedule per workload, so that
runs with different seeds do the same amount of work and their timings can
be compared.

``generate`` writes the input files into a work directory and returns a
manifest: for each recording the CLI commands to run, the output files to
check and the ground truth to check them against. It also returns the
wall time spent inside ``synth.generate``, which is input generation and
never part of a timed command.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from diarcut import ingest, overlap_decode, synth

WORKLOADS = ("meeting", "calls", "overlap-hour")

# Untraced passes per run of --seconds 30 (a traced run adds as many traced
# passes). The count follows --seconds only, never the program's speed, so
# that every commit is measured on the same number of samples: a faster
# build must not also get more tries at a fast pass. Sized so that the seed
# code's passes fill about 30 s on a 2-core VM: meeting about 11 s, calls
# about 5 s, overlap-hour about 2 s a pass.
PASSES_PER_30_S = {"meeting": 2, "calls": 5, "overlap-hour": 10}


def passes(name: str, seconds: float) -> int:
    """Untraced passes for a run of ``seconds``: at least one."""
    return max(1, round(PASSES_PER_30_S[name] * seconds / 30.0))


DIM = 128
SIGMA = 0.15

# meeting: 12.5, 16.25 and 20 minutes of audio on the 1.5 s / 0.75 s grid.
MEETING_SEGMENTS = (1000, 1300, 1600)
MEETING_SPEAKERS = (4, 8)
MEETING_OVERLAP = 0.15

# calls: 100 recordings of 45 s to 3 min, about 5 s per pass, so that a run
# times each recording several times and keeps the fastest.
CALLS_COUNT = 100
CALLS_SEGMENTS = (60, 240)
CALLS_SPEAKERS = (2, 5)

# overlap-hour: one recording of 7.5 minutes at a 10 ms frame shift.
# Long enough that the T x 1501 backpointer table is the largest allocation;
# short enough that a run repeats it ten times, so the fastest pass is
# taken from ten samples.
FRAME_SHIFT = 0.01
HOUR_FRAMES = 45_000
# Bounds passed to detect-overlap and checked on its .lab output; equal to
# the DurationConfig defaults.
MIN_OVERLAP = 0.1
MAX_OVERLAP = 5.0
# True run lengths in frames; each range lies inside the DurationConfig()
# bounds (silence >= 1, single 3..1000, overlap 10..500 frames).
RUN_FRAMES = {
    overlap_decode.SILENCE: (20, 150),
    overlap_decode.SINGLE: (50, 600),
    overlap_decode.OVERLAP: (20, 200),
}
P_OVERLAP_AFTER_SINGLE = 0.3
# Posterior logits: true class gets LOGIT_GAIN, every class gets Gaussian
# noise of LOGIT_NOISE, smoothed over NOISE_SMOOTH frames as a frame
# classifier's outputs would be.
LOGIT_GAIN = 2.5
LOGIT_NOISE = 1.0
NOISE_SMOOTH = 5


class Generator:
    """Writes one workload's inputs into a directory and times synth."""

    def __init__(self, work: Path):
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.synth_s = 0.0
        self.synth_calls = 0

    def synth(self, **kwargs) -> synth.SynthResult:
        t0 = time.perf_counter()
        result = synth.generate(synth.SynthConfig(dim=DIM, noise_sigma=SIGMA, **kwargs))
        self.synth_s += time.perf_counter() - t0
        self.synth_calls += 1
        return result

    def diarize_recording(self, rec_id: str, data: synth.SynthResult, with_flags: bool) -> dict:
        d = self.work / rec_id
        d.mkdir()
        emb, ref, hyp = d / "embeddings.txt", d / "reference.rttm", d / "hyp.rttm"
        ingest.save_embeddings(data.embeddings, emb)
        ingest.write_rttm(data.reference, ref)
        diarize = ["diarize", "--embeddings", str(emb), "--out", str(hyp)]
        if with_flags:
            flags = d / "flags.txt"
            ingest.save_overlap_flags(data.overlap, flags)
            diarize += ["--flags", str(flags)]
        return {
            "id": rec_id,
            "audio_s": data.embeddings.spans[-1].end,
            "n_speakers": len(data.reference.speakers),
            "commands": [diarize, ["score", "--ref", str(ref), "--hyp", str(hyp)]],
            "rttm": str(hyp),
        }

    def overlap_recording(self, rec_id: str, seed: int, n_frames: int) -> dict:
        d = self.work / rec_id
        d.mkdir()
        rng = np.random.default_rng(seed)
        classes = true_frame_classes(rng, n_frames)
        post = noisy_posteriors(rng, classes)
        n_spans = int((len(classes) * FRAME_SHIFT - synth.WINDOW) // synth.STRIDE) + 1
        spans = self.synth(
            n_speakers=4, n_segments=n_spans, recording_id=rec_id, seed=int(rng.integers(2**31))
        ).embeddings
        oracle = oracle_flags(classes, spans.spans)
        paths = {k: d / v for k, v in (
            ("post", "posteriors.txt"), ("emb", "segments.txt"), ("truth", "classes.npy"),
            ("flags", "flags.txt"), ("lab", "overlap.lab"),
        )}
        ingest.save_posteriors(ingest.FramePosteriors(rec_id, FRAME_SHIFT, post), paths["post"])
        ingest.save_embeddings(spans, paths["emb"])
        np.save(paths["truth"], classes)
        return {
            "id": rec_id,
            "audio_s": len(classes) * FRAME_SHIFT,
            "commands": [[
                "detect-overlap", "--posteriors", str(paths["post"]),
                "--segments", str(paths["emb"]), "--out", str(paths["flags"]),
                "--lab", str(paths["lab"]),
                "--min-overlap", repr(MIN_OVERLAP), "--max-overlap", repr(MAX_OVERLAP),
            ]],
            "flags": str(paths["flags"]),
            "lab": str(paths["lab"]),
            "overlap_bounds": [MIN_OVERLAP, MAX_OVERLAP],
            "truth_classes": str(paths["truth"]),
            "oracle_flags": oracle.tolist(),
        }


def true_frame_classes(rng: np.random.Generator, n_frames: int) -> np.ndarray:
    """Seeded class runs covering at least ``n_frames`` frames.

    Runs alternate between single-speaker speech and either silence or
    overlap, so silence and overlap never touch; every run length lies
    inside its RUN_FRAMES range. The sequence ends with the run that
    crosses ``n_frames`` kept whole, so no run is cut below its minimum.
    """
    runs = []
    total = 0
    cls = overlap_decode.SILENCE
    while total < n_frames:
        lo, hi = RUN_FRAMES[cls]
        length = int(rng.integers(lo, hi + 1))
        runs.append((cls, length))
        total += length
        if cls == overlap_decode.SINGLE:
            cls = (
                overlap_decode.OVERLAP
                if rng.random() < P_OVERLAP_AFTER_SINGLE
                else overlap_decode.SILENCE
            )
        else:
            cls = overlap_decode.SINGLE
    return np.repeat(
        np.array([c for c, _ in runs], dtype=np.int8), [n for _, n in runs]
    )


def noisy_posteriors(rng: np.random.Generator, classes: np.ndarray) -> np.ndarray:
    """T x 3 posteriors whose rows sum to 1, peaked on the true class."""
    noise = rng.standard_normal((len(classes) + NOISE_SMOOTH - 1, 3))
    kernel = np.ones(NOISE_SMOOTH) / math.sqrt(NOISE_SMOOTH)
    smooth = np.column_stack(
        [np.convolve(noise[:, j], kernel, mode="valid") for j in range(3)]
    )
    logits = LOGIT_NOISE * smooth
    logits[np.arange(len(classes)), classes] += LOGIT_GAIN
    logits -= logits.max(axis=1, keepdims=True)
    expo = np.exp(logits)
    return expo / expo.sum(axis=1, keepdims=True)


def oracle_flags(classes: np.ndarray, spans) -> np.ndarray:
    """Half-span rule of ``frames_to_flags`` applied to the true classes.

    A span is flagged when at least half of its duration lies in overlap
    frames. Spans on the synth grid start and end on frame boundaries.
    """
    covered = np.concatenate(([0], np.cumsum(classes == overlap_decode.OVERLAP)))
    flags = np.zeros(len(spans), dtype=np.int8)
    for i, span in enumerate(spans):
        a = min(round(span.start / FRAME_SHIFT), len(classes))
        b = min(round(span.end / FRAME_SHIFT), len(classes))
        cover = (covered[b] - covered[a]) * FRAME_SHIFT
        flags[i] = cover + 1e-9 >= 0.5 * span.duration
    return flags


def generate(name: str, seed: int, work: Path) -> dict:
    """Write the inputs of workload ``name`` for ``seed``; return its manifest."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    gen = Generator(work)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])

    def rec_seed() -> int:
        return int(rng.integers(2**31))

    if name == "meeting":
        warmup = gen.diarize_recording(
            "warmup", gen.synth(n_speakers=3, n_segments=60, overlap_fraction=MEETING_OVERLAP,
                                recording_id="warmup", seed=rec_seed()), with_flags=True)
        recordings = [
            gen.diarize_recording(
                f"meeting{i}",
                gen.synth(
                    n_speakers=int(rng.integers(MEETING_SPEAKERS[0], MEETING_SPEAKERS[1] + 1)),
                    n_segments=n, overlap_fraction=MEETING_OVERLAP,
                    recording_id=f"meeting{i}", seed=rec_seed(),
                ),
                with_flags=True,
            )
            for i, n in enumerate(MEETING_SEGMENTS)
        ]
    elif name == "calls":
        warmup = gen.diarize_recording(
            "warmup", gen.synth(n_speakers=2, n_segments=60, recording_id="warmup",
                                seed=rec_seed()), with_flags=False)
        lo, hi = CALLS_SEGMENTS
        sizes = [lo + round((hi - lo) * i / (CALLS_COUNT - 1)) for i in range(CALLS_COUNT)]
        rng.shuffle(sizes)
        recordings = [
            gen.diarize_recording(
                f"call{i:03d}",
                gen.synth(
                    n_speakers=int(rng.integers(CALLS_SPEAKERS[0], CALLS_SPEAKERS[1] + 1)),
                    n_segments=n, recording_id=f"call{i:03d}", seed=rec_seed(),
                ),
                with_flags=False,
            )
            for i, n in enumerate(sizes)
        ]
    else:
        warmup = gen.overlap_recording("warmup", rec_seed(), 2_000)
        recordings = [gen.overlap_recording("hour0", rec_seed(), HOUR_FRAMES)]
    return {
        "workload": name,
        "seed": seed,
        "warmup": warmup["commands"],
        "recordings": recordings,
        "synth_generate_s": gen.synth_s,
        "synth_generate_calls": gen.synth_calls,
    }
