#!/usr/bin/env python3
"""diarcut benchmark: one run of one workload.

    python3 perfbench/run.py --workload meeting --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The parent process (this file) imports
diarcut from ``src/``, writes the workload's seeded inputs under
``.perfbench/``, times several fresh child processes up to their first
command (set-up), before and after one child process that runs the
workload through ``diarcut.cli.main`` (see child.py) for a fixed number of
passes sized to fill ``--seconds`` on the seed code. With ``--trace 1``
that child also runs traced passes and per-layer metrics are reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The full record (machine, quality figures, output digest,
per-recording k_hat and p_hat, raw samples) is written to
``.perfbench/results/``, and with ``--trace 1`` the spans as well.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# Set-up is also measured in this many extra children that stop after it,
# started before and after the measuring one; setup_s is the fastest of
# them all. Spreading the probes over the run, and keeping the fastest,
# steps round the phases of seconds to a minute in which a shared machine
# runs a process up to 1.7 times slower.
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 3
BLAS_THREADS = 1
# Every child must have ended this long after the parent started.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 1


def spawn(manifest: Path, result: Path, log: Path, env: dict, deadline: float,
          cores, extra) -> dict:
    """Run child.py, started on the fastest core, and return the JSON it wrote."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("no time left for the next child process")
    cores.pick()
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--manifest", str(manifest),
           "--result", str(result), "--t0", repr(t0), *extra]
    with log.open("a", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(cmd, stdout=fh, stderr=fh, env=env, cwd=ROOT,
                                  timeout=remaining, check=False)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"child did not finish within {remaining:.0f} s")
        finally:
            cores.release()
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"child exited {proc.returncode}:\n{tail}")
    return json.loads(result.read_text(encoding="utf-8"))


def metric_block(names_units, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "diarcut" / "cli.py").is_file():
        return fail(f"no diarcut sources under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(ROOT / "src"))
    import machine

    # One BLAS thread, set before numpy loads: a run then needs one free core,
    # not all of them at once, which keeps it steady on a shared machine.
    # Fixed string hashing removes one more source of run-to-run variation.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)

    import diarcut
    import workloads

    if Path(diarcut.__file__).resolve().parent != ROOT / "src" / "diarcut":
        return fail(f"imported diarcut from {diarcut.__file__}, not from this checkout")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{label}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = workloads.generate(args.workload, args.seed, work)
        manifest["passes"] = workloads.passes(args.workload, args.seconds)
        # Flush the inputs now, so that writing them back to disk does not
        # compete with the first timed pass.
        for path in work.rglob("*"):
            if path.is_file():
                with path.open("rb") as fh:
                    os.fsync(fh.fileno())
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        log = work / "child.log"

        cores = machine.CorePicker()

        def setup_probe(i: int) -> float:
            probe = spawn(manifest_path, work / f"setup{i}.json", log, env, deadline, cores,
                          ["--setup-only"])
            return probe["setup_s"]

        setups = [setup_probe(i) for i in range(SETUP_PROBES_BEFORE)]
        spans_path = results / f"{label}-spans.json"
        extra = ["--trace", str(args.trace), "--cores", ",".join(map(str, cores.cores))]
        if args.trace:
            extra += ["--spans", str(spans_path)]
        child = spawn(manifest_path, work / "result.json", log, env, deadline, cores, extra)
        setups.append(child["setup_s"])
        setups += [setup_probe(SETUP_PROBES_BEFORE + i) for i in range(SETUP_PROBES_AFTER)]
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = {
        "setup_s": min(setups),
        "rtf": child["rtf"],
        "peak_rss_mb": child["peak_rss_mb"],
        "rec_s_p50": child["rec_s_p50"],
        "rec_s_p95": child["rec_s_p95"],
    }
    layers = dict(child.get("layers", {}))
    layers["synth.generate_s"] = manifest["synth_generate_s"]
    layers["synth.generate_calls"] = manifest["synth_generate_calls"]
    fail_pct = 100.0 * child["failed"] / child["attempted"]
    correct = child["failed"] == 0 and not child["errors"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.record(args.seed, child["blas"]),
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "fail_pct": fail_pct,
        "errors": child["errors"],
        "end_to_end": measured,
        "quality": child["quality"],
        "output_sha256": child["digest"],
        "per_recording": child["per_recording"],
        "samples": {
            "setup_s": setups,
            "timed_s_per_pass": child["timed_s_per_pass"],
            "cpu_s_per_pass": child["cpu_s_per_pass"],
            "passes": child["passes"],
            "traced_passes": child["traced_passes"],
            "core_picks": child["core_picks"],
            "rec_samples": child["rec_samples"],
        },
    }
    if args.trace:
        record["layers"] = layers
        record["spans_file"] = spans_path.name
    (results / f"{label}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    quality = " ".join(f"{k}={v:.4g}" for k, v in sorted(child["quality"].items()))
    print(f"{args.workload} seed={args.seed} passes={child['passes']} "
          f"fail_pct={fail_pct:.4g} {quality} sha256={child['digest'][:16]}")
    for error in child["errors"]:
        print(f"  check failed: {error}")
    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = layers
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = measured
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metric_block(names, values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
