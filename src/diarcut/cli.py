"""Command-line interface: synth, diarize, detect-overlap, score.

Exit codes: 0 success, 1 usage, 2 data or configuration error, 3 numerical
failure.  Every run logs a reproducibility manifest (version and resolved
configuration; diarization takes no seed).  Each command returns its text
lines and a summary; ``main`` alone writes stdout: those lines, then the
summary as one JSON line.  A command that fails writes nothing to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, ingest, overlap_decode, scoring, synth
from .errors import ConfigError, DiarcutError, NumericalError
from .pipeline import DiarizationConfig, diarize_embeddings

log = logging.getLogger("diarcut")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _manifest(args: argparse.Namespace) -> None:
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    log.info(
        "manifest %s",
        json.dumps(
            {"version": __version__, "command": args.command, "config": resolved},
            sort_keys=True,
            default=str,
        ),
    )


# Options that map one to one onto config fields; p_min and p_max share --p-range.
DIARIZE_FIELDS = [f for f in fields(DiarizationConfig) if f.name not in ("p_min", "p_max")]
DURATION_FIELDS = fields(overlap_decode.DurationConfig)


def _add_field_options(parser: argparse.ArgumentParser, config_fields) -> None:
    """Add one ``--field-name`` option per field, with the field's default."""
    for f in config_fields:
        kind = float if f.default is None else type(f.default)
        parser.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default)


def _field_values(args: argparse.Namespace, config_fields) -> dict:
    return {f.name: getattr(args, f.name) for f in config_fields}


def _parse_p_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--p-range expects MIN:MAX, got {text!r}")


def _cmd_synth(args) -> tuple[str, dict]:
    cfg = synth.SynthConfig(
        n_speakers=args.speakers,
        n_segments=args.segments,
        dim=args.dim,
        overlap_fraction=args.overlap_frac,
        noise_sigma=args.sigma,
        min_centroid_angle=args.min_angle,
        seed=args.seed,
    )
    result = synth.generate(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ingest.save_embeddings(result.embeddings, out / "embeddings.txt")
    ingest.save_overlap_flags(result.overlap, out / "overlap_flags.txt")
    ingest.write_rttm(result.reference, out / "reference.rttm")
    summary = {
        "out_dir": str(out),
        "n_segments": len(result.embeddings),
        "n_overlap": int(result.overlap.flags.sum()),
        "n_speakers": cfg.n_speakers,
    }
    text = (
        f"wrote {summary['n_segments']} segments "
        f"({summary['n_overlap']} overlapping, {cfg.n_speakers} speakers) to {out}"
    )
    return text, summary


def _cmd_diarize(args) -> tuple[str, dict]:
    p_min, p_max = _parse_p_range(args.p_range)
    config = DiarizationConfig(p_min=p_min, p_max=p_max, **_field_values(args, DIARIZE_FIELDS))
    seq = ingest.load_embeddings(args.embeddings)
    overlap = None
    if args.flags:
        overlap = ingest.load_overlap_flags(args.flags, expected_length=len(seq))
    result = diarize_embeddings(seq, overlap, config)
    ingest.write_rttm(result.timeline, args.out)
    if args.dump_report:
        with Path(args.dump_report).open("w", encoding="utf-8") as fh:
            json.dump(result.report.to_dict(), fh, sort_keys=True)
    summary = {
        "out": str(args.out),
        "n_segments": len(seq),
        "p_hat": result.report.p_hat,
        "k_hat": result.num_speakers,
        "phi": result.discretization.phi,
    }
    text = (
        f"{len(seq)} segments -> {result.num_speakers} speakers "
        f"(p={result.report.p_hat}); wrote {args.out}"
    )
    return text, summary


def _cmd_detect_overlap(args) -> tuple[str, dict]:
    cfg = overlap_decode.DurationConfig(**_field_values(args, DURATION_FIELDS))
    post = ingest.load_posteriors(args.posteriors)
    labels = overlap_decode.viterbi(post, cfg)
    spans = ingest.load_spans(args.segments)
    flags = overlap_decode.frames_to_flags(labels, spans)
    ingest.save_overlap_flags(flags, args.out)
    if args.lab:
        with Path(args.lab).open("w", encoding="utf-8") as fh:
            for start, end in labels.class_intervals(overlap_decode.OVERLAP):
                fh.write(f"{start:.3f}\t{end:.3f}\toverlap\n")
    summary = {
        "out": str(args.out),
        "n_segments": len(spans),
        "n_flagged": int(flags.flags.sum()),
        "n_frames": len(labels),
    }
    return f"flagged {summary['n_flagged']} of {len(spans)} segments; wrote {args.out}", summary


def _cmd_score(args) -> tuple[str, dict]:
    reference = ingest.load_rttm(args.ref)
    hypothesis = ingest.load_rttm(args.hyp)
    breakdown = scoring.der_score(reference, hypothesis, collar=args.collar)
    rows = (("missed speech", breakdown.missed), ("false alarm", breakdown.false_alarm),
            ("confusion", breakdown.confusion), ("DER", breakdown.der))
    return "\n".join(f"{name:<13} : {pct:5.1f}%" for name, pct in rows), asdict(breakdown)


@functools.cache  # one parser per process: parsing leaves no state in it
def build_parser() -> _Parser:
    parser = _Parser(prog="diarcut", description=__doc__)
    parser.add_argument("--log-level", default="INFO", type=str.upper, help="logging level name",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic conversation")
    p.add_argument("--speakers", type=int, required=True)
    p.add_argument("--segments", type=int, required=True)
    p.add_argument("--overlap-frac", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--min-angle", type=float, default=45.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("diarize", help="cluster an embeddings file into an RTTM")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--flags", default=None, help="overlap-flag file; omit for none")
    p.add_argument("--out", required=True)
    defaults = DiarizationConfig()
    p.add_argument(
        "--p-range", default=f"{defaults.p_min}:{defaults.p_max}", metavar="MIN:MAX"
    )
    _add_field_options(p, DIARIZE_FIELDS)
    p.add_argument("--dump-report", default=None, help="write the eigengap report JSON")
    p.set_defaults(func=_cmd_diarize)

    p = sub.add_parser("detect-overlap", help="decode posteriors into overlap flags")
    p.add_argument("--posteriors", required=True)
    p.add_argument("--segments", required=True, help="embeddings file; only fields 1-3 are read")
    p.add_argument("--out", required=True)
    _add_field_options(p, DURATION_FIELDS)
    p.add_argument("--lab", default=None, help="also write overlap regions as a .lab file")
    p.set_defaults(func=_cmd_detect_overlap)

    p = sub.add_parser("score", help="score a hypothesis RTTM against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--collar", type=float, default=0.0)
    p.set_defaults(func=_cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # basicConfig acts once per process; the level is set anew by every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    log.setLevel(args.log_level)
    _manifest(args)
    try:
        # a bad output path fails here, before the run; a file made by this check is removed
        for path in filter(None, map(vars(args).get, ("out", "dump_report", "lab"))):
            created = not os.path.lexists(path)
            open(path, "a").close()
            if created:
                os.remove(path)
        text, summary = args.func(args)
        print(text, json.dumps(summary, sort_keys=True), sep="\n")
        return EXIT_OK
    except (OSError, DiarcutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
