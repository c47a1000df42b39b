"""One benchmark run of a workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand. It imports diarcut from
the checkout, warms up by running the workload's commands once on a tiny
recording, then drives the recordings of the manifest through
``diarcut.cli.main`` in a closed loop with one client: each command starts
when the previous one has returned. A pass is one trip through all
recordings; the manifest fixes how many passes run. Only the ``cli.main``
calls are timed; output checks and hashing run between them. Before a
recording, once a second has passed since the last choice, the process
moves to the core that is fastest at the moment (``machine.CorePicker``).
A recording fails if a command exits non-zero or fails an output check in any pass, or
if its output bytes differ between passes.

With tracing on, untraced and traced passes alternate; the traced ones
record spans (see tracer.py). The result, with the raw per-pass samples,
goes to the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from diarcut import cli, ingest, overlap_decode  # noqa: E402

import machine  # noqa: E402
import tracer  # noqa: E402

# Output sanity ceilings, per recording. Far above what a working build
# scores on these inputs, far below a broken one.
DER_CEILING_PCT = 25.0
FRAME_ERR_CEILING_PCT = 15.0
FLAG_ERR_CEILING_PCT = 15.0
# After this long no further pass starts, so that a run of a much slower
# build still ends inside 180 s; it then has fewer samples than the manifest
# asks for, and the result's pass counts show it.
LAST_PASS_START_S = 120.0


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


class Capture:
    """Keeps the labels ``viterbi`` returns; the CLI writes only overlap runs."""

    def __init__(self):
        self.labels = None
        original = overlap_decode.viterbi

        def capture(*args, **kwargs):
            self.labels = original(*args, **kwargs)
            return self.labels

        tracer.replace_everywhere(original, capture)


class Checker:
    """Checks each recording's outputs and accumulates quality figures."""

    def __init__(self, load_rttm):
        self.load_rttm = load_rttm
        self.errors: list[str] = []
        self.per_recording: list[dict] = []
        self.scored = {"error_s": 0.0, "ref_s": 0.0}
        self.k_wrong = 0
        self.frames = [0, 0]  # wrong, total
        self.flags = [0, 0]

    def fail(self, rec, message) -> bool:
        self.errors.append(f"{rec['id']}: {message}")
        return False

    def diarize(self, rec, outputs) -> bool:
        diar, score = outputs
        try:
            self.load_rttm(rec["rttm"])
        except Exception as exc:  # any parse failure fails the recording
            return self.fail(rec, f"hypothesis RTTM does not parse: {exc}")
        der = score["der"]
        self.scored["error_s"] += (
            score["missed_seconds"] + score["false_alarm_seconds"] + score["confusion_seconds"]
        )
        self.scored["ref_s"] += score["total_reference_speaker_time"]
        self.k_wrong += diar["k_hat"] != rec["n_speakers"]
        self.per_recording.append({
            "id": rec["id"], "n_speakers": rec["n_speakers"], "k_hat": diar["k_hat"],
            "p_hat": diar["p_hat"], "der_pct": der,
        })
        if not der <= DER_CEILING_PCT:
            return self.fail(rec, f"DER {der:.2f} % above {DER_CEILING_PCT} %")
        return True

    def overlap(self, rec, labels) -> bool:
        lines = Path(rec["flags"]).read_text(encoding="utf-8").splitlines()
        oracle = rec["oracle_flags"]
        if len(lines) != len(oracle) or any(x not in ("0", "1") for x in lines):
            return self.fail(rec, f"flags file has {len(lines)} lines for {len(oracle)} spans")
        lo, hi = rec["overlap_bounds"]
        for line in Path(rec["lab"]).read_text(encoding="utf-8").splitlines():
            start, end, _ = line.split("\t")
            if not lo - 1e-3 <= float(end) - float(start) <= hi + 1e-3:
                return self.fail(rec, f"overlap run {start}-{end} outside [{lo}, {hi}] s")
        truth = np.load(rec["truth_classes"])
        frame_wrong = int(np.count_nonzero(labels.labels != truth))
        flag_wrong = sum(int(a) != b for a, b in zip(lines, oracle))
        self.frames[0] += frame_wrong
        self.frames[1] += truth.size
        self.flags[0] += flag_wrong
        self.flags[1] += len(oracle)
        frame_pct = 100.0 * frame_wrong / truth.size
        flag_pct = 100.0 * flag_wrong / len(oracle)
        self.per_recording.append({
            "id": rec["id"], "frame_err_pct": frame_pct, "flag_err_pct": flag_pct,
            "n_flagged": sum(x == "1" for x in lines), "n_oracle": sum(oracle),
        })
        if not frame_pct <= FRAME_ERR_CEILING_PCT:
            return self.fail(rec, f"frame error {frame_pct:.2f} % above ceiling")
        if not flag_pct <= FLAG_ERR_CEILING_PCT:
            return self.fail(rec, f"flag error {flag_pct:.2f} % above ceiling")
        return True

    def quality(self) -> dict:
        out = {}
        diarized = sum("k_hat" in r for r in self.per_recording)
        if diarized:
            out["der_pct"] = 100.0 * self.scored["error_s"] / self.scored["ref_s"]
            out["k_err_pct"] = 100.0 * self.k_wrong / diarized
        if self.frames[1]:
            out["frame_err_pct"] = 100.0 * self.frames[0] / self.frames[1]
            out["flag_err_pct"] = 100.0 * self.flags[0] / self.flags[1]
        return out


def output_files(rec) -> list[str]:
    return [rec[k] for k in ("rttm", "flags", "lab") if k in rec]


def run_pass(manifest, checker, capture, cores, tr, label: str, first: bool) -> dict:
    """One trip through every recording; returns timings, checks and digests.

    Output checks run on the first pass only; later passes must reproduce
    its bytes, which ``main`` compares per recording.
    """
    digest = hashlib.sha256()
    rec_times, rec_ok, rec_digests, timed, cpu = [], [], [], 0.0, 0.0
    for rec in manifest["recordings"]:
        cores.maybe_pick()
        if tr is not None:
            tr.request = f"{label}/{rec['id']}"
        spent, outputs, ok = 0.0, [], True
        rec_digest = hashlib.sha256()
        try:
            for argv in rec["commands"]:
                c0 = time.process_time()
                t0 = time.perf_counter()
                code, out = run_cli(argv)
                spent += time.perf_counter() - t0
                cpu += time.process_time() - c0
                if code != 0:
                    ok = False
                    checker.errors.append(f"{rec['id']}: {argv[0]} exited {code}")
                    break
                outputs.append(last_json(out))
            for path in output_files(rec) if ok else ():
                data = Path(path).read_bytes()
                digest.update(data)
                rec_digest.update(data)
            if ok and first:
                if "rttm" in rec:
                    ok = checker.diarize(rec, outputs)
                else:
                    ok = checker.overlap(rec, capture.labels)
        except Exception:  # a crash fails this recording; the loop goes on
            ok = False
            checker.errors.append(f"{rec['id']}: {traceback.format_exc(limit=3)}")
            traceback.print_exc()
        capture.labels = None
        rec_ok.append(ok)
        rec_digests.append(rec_digest.hexdigest())
        rec_times.append(spent)
        timed += spent
    return {
        "timed_s": timed, "cpu_s": cpu, "rec_s": rec_times, "rec_ok": rec_ok,
        "rec_digests": rec_digests, "digest": digest.hexdigest(),
    }


def failed_recordings(manifest, passes, errors: list[str]) -> int:
    """Recordings that failed in any pass or whose bytes differ between passes."""
    failed = 0
    for i, rec in enumerate(manifest["recordings"]):
        digests = {p["rec_digests"][i] for p in passes}
        if len(digests) > 1:
            errors.append(f"{rec['id']}: outputs differ between passes")
        failed += len(digests) > 1 or not all(p["rec_ok"][i] for p in passes)
    return failed


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cores", default=None,
                    help="comma-separated cores to choose from before each recording")
    args = ap.parse_args(argv)

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    capture = Capture()
    for command in manifest["warmup"]:
        code, _ = run_cli(command)
        if code != 0:
            print(f"warm-up command {command[0]} exited {code}", file=sys.stderr)
            return 1
    result = {"setup_s": time.monotonic() - args.t0, "blas": machine.blas()}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    checker = Checker(ingest.load_rttm)
    cores = machine.CorePicker(
        None if args.cores is None else [int(c) for c in args.cores.split(",")])
    tr = tracer.Tracer() if args.trace else None
    want = manifest["passes"]
    untraced, traced, layer_runs, traced_spans = [], [], [], []
    start = time.perf_counter()
    while len(untraced) < want or (tr is not None and len(traced) < want):
        if untraced and (tr is None or traced) and time.perf_counter() - start > LAST_PASS_START_S:
            print(f"stopped after {len(untraced)} of {want} passes: "
                  f"{LAST_PASS_START_S} s reached", file=sys.stderr)
            break
        use_trace = tr is not None and len(traced) < len(untraced)
        if use_trace:
            tr.install()
        try:
            p = run_pass(manifest, checker, capture, cores, tr if use_trace else None,
                         label=f"pass{len(untraced) + len(traced)}", first=not untraced)
        finally:
            if use_trace:
                tr.uninstall()
        if use_trace:
            traced.append(p)
            layer_runs.append(tracer.layer_metrics(tr.spans, tr.counts))
            traced_spans.append(tr.spans)
        else:
            untraced.append(p)

    passes = untraced + traced
    failed = failed_recordings(manifest, passes, checker.errors)
    # Per recording, the fastest of its untraced passes. On a shared machine a
    # core runs up to 1.7 times slower for seconds at a time while a neighbour
    # is busy; the fastest pass is the one least slowed by that.
    rec_s = [min(times) for times in zip(*(p["rec_s"] for p in untraced))]
    audio_s = sum(rec["audio_s"] for rec in manifest["recordings"])
    result.update({
        "passes": len(untraced),
        "core_picks": cores.picks,
        "traced_passes": len(traced),
        "attempted": len(manifest["recordings"]),
        "failed": failed,
        "digest": untraced[0]["digest"],
        "quality": checker.quality(),
        "per_recording": checker.per_recording,
        "timed_s_per_pass": [p["timed_s"] for p in untraced],
        "cpu_s_per_pass": [p["cpu_s"] for p in untraced],
        "rtf": sum(rec_s) / audio_s,
        "rec_samples": len(rec_s) * len(untraced),
        "rec_s_p50": statistics.median(rec_s),
        "rec_s_p95": percentile(rec_s, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tr is not None:
        # Times: median over traced passes. Counts: the same in every pass.
        layers = dict(layer_runs[0])
        for k in layers:
            if k.endswith("_s"):
                layers[k] = statistics.median(run[k] for run in layer_runs)
            elif any(run[k] != layers[k] for run in layer_runs):
                checker.errors.append(f"{k} differs between traced passes")
        layers["trace.overhead_s"] = (
            statistics.median(p["timed_s"] for p in traced)
            - statistics.median(p["timed_s"] for p in untraced)
        )
        result["layers"] = layers
        if args.spans:
            Path(args.spans).write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "request"],
                "tracing_overhead_s": layers["trace.overhead_s"],
                "passes": traced_spans,
            }), encoding="utf-8")
    result["errors"] = checker.errors[:20]
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
