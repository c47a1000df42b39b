#!/usr/bin/env python3
"""Quick check of the benchmark's own code at tiny sizes.

    python3 perfbench/selfcheck.py

Checks the frame-posterior generator, the oracle-flag rule, the span
arithmetic and layer wrapping of the tracer, the failure count, the core
picker, one traced child run on a tiny manifest of its own, and that
run.py refuses to run without the program's sources. The tiny inputs exist only here; they are not a
workload and their timings mean nothing. Prints one line per check and
exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from diarcut import cli, ingest, overlap_decode, pipeline, synth  # noqa: E402, F401

import machine  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selfcheck"


def check(name: str, condition: bool, detail: str = "") -> None:
    print(f"[{'ok' if condition else 'FAIL'}] {name}{': ' + detail if detail else ''}")
    if not condition:
        raise SystemExit(1)


def runs_of(classes: np.ndarray) -> list[tuple[int, int]]:
    edges = np.flatnonzero(np.diff(classes)) + 1
    bounds = np.concatenate(([0], edges, [len(classes)]))
    return [(int(classes[a]), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:])]


def check_posteriors() -> None:
    classes = workloads.true_frame_classes(np.random.default_rng(7), 5_000)
    runs = runs_of(classes)
    cfg = overlap_decode.DurationConfig()
    shift = workloads.FRAME_SHIFT
    in_bounds = all(
        cfg.bounds(c)[0] - 1e-9 <= n * shift
        and (cfg.bounds(c)[1] is None or n * shift <= cfg.bounds(c)[1] + 1e-9)
        for c, n in runs
    )
    check("true runs within DurationConfig() bounds", in_bounds and len(classes) >= 5_000)
    touching = any(
        {a, b} == {overlap_decode.SILENCE, overlap_decode.OVERLAP}
        for (a, _), (b, _) in zip(runs, runs[1:])
    )
    check("silence and overlap never adjacent", not touching)
    post = workloads.noisy_posteriors(np.random.default_rng(7), classes)
    check("posterior rows sum to 1", bool(np.abs(post.sum(axis=1) - 1).max() < 1e-12
                                          and (post >= 0).all()))
    again = workloads.noisy_posteriors(np.random.default_rng(7), classes)
    check("posteriors repeat for a seed", bool((post == again).all()))
    n_spans = int((len(classes) * shift - synth.WINDOW) // synth.STRIDE) + 1
    spans = [ingest.SegmentSpan("r", i, synth.STRIDE * i, synth.STRIDE * i + synth.WINDOW)
             for i in range(n_spans)]
    oracle = workloads.oracle_flags(classes, spans)
    program = overlap_decode.frames_to_flags(overlap_decode.FrameLabels(classes, shift), spans)
    check("oracle flags follow frames_to_flags' half-span rule",
          bool((oracle == program.flags).all()), f"{int(oracle.sum())} of {n_spans} flagged")
    check("duration states computed for the defaults",
          tracer.duration_states(cfg, shift) == 1 + 1000 + 500)


def check_tracer() -> None:
    spans = [["a", 0.0, 10.0, -1, ""], ["b", 1.0, 4.0, 0, ""], ["c", 2.0, 3.0, 1, ""],
             ["b", 5.0, 6.0, 0, ""]]
    times = tracer.self_times(spans)
    check("self time subtracts direct children",
          times == {"a": [6.0, 1], "b": [3.0, 2], "c": [1.0, 1]}, str(times))

    before = {(m, f): getattr(sys.modules[f"diarcut.{m}"], f) for m, f, _ in tracer.LAYERS}
    data = synth.generate(synth.SynthConfig(n_speakers=3, n_segments=40, dim=16,
                                            overlap_fraction=0.1, noise_sigma=0.05, seed=3))
    tr = tracer.Tracer()
    tr.install()
    try:
        result = pipeline.diarize_embeddings(data.embeddings, data.overlap)
    finally:
        tr.uninstall()
    restored = all(getattr(sys.modules[f"diarcut.{m}"], f) is fn for (m, f), fn in before.items())
    check("uninstall restores every function", restored)
    names = {s[0] for s in tr.spans}
    want = {"pipeline.diarize_embeddings", "affinity.cosine_affinity", "affinity.build_bundle",
            "speaker_count.estimate", "spectral.continuous_solve", "spectral.discretize_full",
            "ingest.timeline"}
    check("pipeline layers traced", want <= names, str(sorted(names)))
    root = next(i for i, s in enumerate(tr.spans) if s[0] == "pipeline.diarize_embeddings")
    nested = all(s[3] == root for s in tr.spans if s[0] in want - {"pipeline.diarize_embeddings"})
    check("layer spans are children of the pipeline span", nested)
    metrics = tracer.layer_metrics(tr.spans, tr.counts)
    check("eigensolve count from the report",
          metrics["speaker_count.eigensolves"] == len(result.report.p_values))
    check("every layer reported", all(f"{layer}_s" in metrics for layer in tracer.TIMED_LAYERS))


def tiny_manifest(work: Path) -> dict:
    gen = workloads.Generator(work)

    def small(rec_id, seed, flags):
        return gen.diarize_recording(rec_id, gen.synth(
            n_speakers=3, n_segments=40, overlap_fraction=0.1 if flags else 0.0,
            recording_id=rec_id, seed=seed), with_flags=flags)

    warm = small("warmup", 1, True)
    return {
        "workload": "selfcheck",
        "seed": 0,
        "passes": 2,
        "warmup": warm["commands"],
        "recordings": [small("a", 2, True), small("b", 3, False),
                       gen.overlap_recording("c", 4, 1_500)],
        "synth_generate_s": gen.synth_s,
        "synth_generate_calls": gen.synth_calls,
    }


def check_child() -> None:
    work = SCRATCH / "child"
    manifest = tiny_manifest(work)
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--manifest", str(work / "manifest.json"),
         "--result", str(work / "result.json"), "--t0", repr(time.monotonic()),
         "--trace", "1", "--spans", str(work / "spans.json")],
        capture_output=True, text=True, timeout=120, check=False)
    check("child run exits 0", proc.returncode == 0, proc.stderr[-500:] if proc.returncode else "")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    check("tiny recordings pass every output check",
          result["failed"] == 0 and not result["errors"], str(result["errors"]))
    check("attempted counts recordings, not passes",
          result["attempted"] == len(manifest["recordings"]), str(result["attempted"]))
    check("untraced and traced passes alternate",
          result["traced_passes"] >= 2 and result["passes"] >= result["traced_passes"],
          f"{result['passes']} untraced, {result['traced_passes']} traced")
    layers = result["layers"]
    check("both halves traced", layers["speaker_count.estimate_calls"] == 2
          and layers["overlap_decode.viterbi_calls"] == 1, str(
              {k: v for k, v in layers.items() if k.endswith("_calls")}))
    check("quality figures reported",
          set(result["quality"]) == {"der_pct", "k_err_pct", "frame_err_pct", "flag_err_pct"})
    spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
    check("spans written with the tracing overhead",
          spans["passes"] and spans["passes"][0] and "tracing_overhead_s" in spans)


def check_failure_count() -> None:
    import child

    recordings = {"recordings": [{"id": "r0"}, {"id": "r1"}, {"id": "r2"}]}
    passes = [{"rec_ok": [True, True, False], "rec_digests": ["a", "b", "c"]},
              {"rec_ok": [True, True, False], "rec_digests": ["a", "x", "c"]}]
    errors: list[str] = []
    failed = child.failed_recordings(recordings, passes, errors)
    check("a recording fails once, on a failed pass or on bytes that differ",
          failed == 2 and errors == ["r1: outputs differ between passes"], f"{failed} {errors}")


def check_core_picker() -> None:
    picker = machine.CorePicker(every_s=3600.0)
    picker.pick()
    pinned = os.sched_getaffinity(0)
    picker.maybe_pick()  # within every_s: keeps the core
    picker.release()
    many = len(picker.cores) > 1
    check("core picker pins to one allowed core, once per interval, and releases",
          pinned <= set(picker.cores) and len(pinned) == (1 if many else len(picker.cores))
          and sum(picker.picks.values()) == int(many)
          and os.sched_getaffinity(0) == set(picker.cores), f"{pinned} {picker.picks}")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "calls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    check("run.py refuses to run without the program's sources",
          proc.returncode != 0 and not proc.stdout.strip(), proc.stderr.strip())


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_posteriors()
        check_tracer()
        check_failure_count()
        check_core_picker()
        check_child()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
