"""Span tracing of diarcut's layers from outside the program.

``Tracer.install`` replaces each public layer function listed in LAYERS,
in every loaded ``diarcut`` module that holds it, by a wrapper that records
a span (name, start, end, parent span, request id) and then counts the
work the call did. Callers look these functions up at call time (``cli``
calls ``ingest.load_embeddings``, ``pipeline`` calls
``speaker_count.estimate``), so the wrappers see every call the CLI makes.
``uninstall`` puts the originals back.

Counts come from a call's arguments and return value only, and repeat
exactly for the same inputs. These are computed from input sizes rather
than read off what the program returns: ``ingest.bytes_read`` (file
sizes), ``overlap_decode.states``, ``.state_frames``,
``.backptr_bytes_computed`` and ``.span_interval_pairs``, and the "used"
side of ``speaker_count.eigvals_used_ratio``. Counting runs in its own
``trace.count`` span, a sibling of the counted call, so it is excluded from
every layer's self time.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, layer). A layer's time metric is "<layer>_s" and its
# call count "<layer>_calls".
LAYERS = (
    ("cli", "main", "cli.main"),
    ("ingest", "load_embeddings", "ingest.parse"),
    ("ingest", "load_overlap_flags", "ingest.parse"),
    ("ingest", "load_posteriors", "ingest.parse"),
    ("ingest", "load_rttm", "ingest.parse"),
    ("ingest", "write_rttm", "ingest.write"),
    ("ingest", "save_overlap_flags", "ingest.write"),
    ("ingest", "assignment_to_timeline", "ingest.timeline"),
    ("pipeline", "diarize_embeddings", "pipeline.diarize_embeddings"),
    ("affinity", "cosine_affinity", "affinity.cosine_affinity"),
    ("affinity", "build_bundle", "affinity.build_bundle"),
    ("speaker_count", "estimate", "speaker_count.estimate"),
    ("spectral", "continuous_solve", "spectral.continuous_solve"),
    ("spectral", "discretize_full", "spectral.discretize_full"),
    ("overlap_decode", "viterbi", "overlap_decode.viterbi"),
    ("overlap_decode", "frames_to_flags", "overlap_decode.frames_to_flags"),
    ("scoring", "der_score", "scoring.der_score"),
)

# Input generation, timed by the benchmark itself outside every command.
SYNTH_LAYER = "synth.generate"

TIMED_LAYERS = tuple(dict.fromkeys(layer for _, _, layer in LAYERS)) + (SYNTH_LAYER,)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_parse(args, kwargs, result):
    return {"ingest.bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_cosine(args, kwargs, result):
    return {"affinity.dense_bytes_computed": np.asarray(result).nbytes}


def _count_bundle(args, kwargs, bundle):
    # Dense N x N arrays the bundle holds besides the affinity passed in.
    given = _arg(args, kwargs, 0, "affinity")
    dense = sum(
        v.nbytes
        for v in vars(bundle).values()
        if isinstance(v, np.ndarray) and v.ndim == 2 and v is not given
    )
    binarized = bundle.binarized
    nnz = binarized.nnz if hasattr(binarized, "nnz") else np.count_nonzero(binarized)
    return {
        "affinity.dense_bytes_computed": dense,
        "affinity.nnz": int(nnz),
        "affinity.rows": binarized.shape[0],
    }


def _count_estimate(args, kwargs, report):
    n = np.shape(_arg(args, kwargs, 0, "affinity"))[0]
    solves = len(report.p_values)
    return {
        "speaker_count.eigensolves": solves,
        "speaker_count.eigvals_computed": sum(np.size(v) for v in report.eigenvalues_per_p),
        # The gap window needs max_speakers+1 eigenvalues, the ratio lambda_max.
        "speaker_count.eigvals_used": solves * min(report.max_speakers + 2, n),
    }


def _count_solve(args, kwargs, solution):
    n, k = solution.z_star.shape
    return {"spectral.eigvecs_used": k, "spectral.eigvecs_n": n}


def _count_discretize(args, kwargs, result):
    histories = result.phi_histories
    return {
        "spectral.rounds": sum(len(h) for h in histories),
        "spectral.best_restart_rounds": len(histories[result.best_restart]),
    }


def duration_states(cfg, frame_shift: float) -> int:
    """States of the duration-expanded decoding graph, computed from cfg."""
    total = 0
    for cls in range(3):
        lo, hi = cfg.bounds(cls)
        chain = lo if hi is None else hi
        total += math.ceil(round(chain / frame_shift, 9))
    return total


def _count_viterbi(args, kwargs, labels):
    post = _arg(args, kwargs, 0, "posteriors")
    cfg = _arg(args, kwargs, 1, "cfg")
    states = duration_states(cfg, post.frame_shift)
    cells = post.num_frames * states
    return {
        "overlap_decode.states": states,
        "overlap_decode.state_frames": cells,
        "overlap_decode.backptr_bytes_computed": cells * (2 if states <= 65535 else 8),
    }


def _count_flags(args, kwargs, flags):
    labels = np.asarray(_arg(args, kwargs, 0, "labels").labels) == 2  # the overlap class
    runs = int(labels[0]) + int(np.count_nonzero(labels[1:] & ~labels[:-1])) if labels.size else 0
    return {"overlap_decode.span_interval_pairs": len(_arg(args, kwargs, 1, "spans")) * runs}


COUNTERS = {
    "ingest.parse": _count_parse,
    "affinity.cosine_affinity": _count_cosine,
    "affinity.build_bundle": _count_bundle,
    "speaker_count.estimate": _count_estimate,
    "spectral.continuous_solve": _count_solve,
    "spectral.discretize_full": _count_discretize,
    "overlap_decode.viterbi": _count_viterbi,
    "overlap_decode.frames_to_flags": _count_flags,
}


def replace_everywhere(original, replacement) -> list:
    """Rebind every diarcut module attribute that is ``original``.

    Returns the (module, attribute) pairs changed, for undoing.
    """
    changed = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "diarcut" or mod_name.startswith("diarcut.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, request id]
        self.counts: dict = defaultdict(int)
        self.request = ""
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        """Start recording into fresh ``spans`` and ``counts``."""
        self.spans = []
        self.counts = defaultdict(int)
        for mod_name, func, layer in LAYERS:
            mod = sys.modules.get(f"diarcut.{mod_name}")
            original = getattr(mod, func, None) if mod is not None else None
            if original is None:
                continue
            wrapper = self.wrap(layer, original, COUNTERS.get(layer))
            self._undo += [(m, a, original) for m, a in replace_everywhere(original, wrapper)]

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo = []

    def wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [layer, start, end, parent, self.request]
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
                spans.append(["trace.count", end, time.perf_counter(), parent, self.request])
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> dict:
    """Per layer: summed self time (span minus its direct children) and calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: [0.0, 0])
    for (name, start, end, _, _), inner in zip(spans, child):
        out[name][0] += end - start - inner
        out[name][1] += 1
    return dict(out)


def layer_metrics(spans, counts) -> dict:
    """Per-layer metric values of one traced pass, every layer present."""
    times = self_times(spans)
    metrics = {}
    for layer in TIMED_LAYERS:
        total, calls = times.get(layer, (0.0, 0))
        metrics[f"{layer}_s"] = total
        metrics[f"{layer}_calls"] = calls
    c = defaultdict(int, counts)

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    metrics.update({
        "speaker_count.eigensolves": c["speaker_count.eigensolves"],
        "speaker_count.eigvals_computed": c["speaker_count.eigvals_computed"],
        "speaker_count.eigvals_used_ratio": ratio(
            "speaker_count.eigvals_used", "speaker_count.eigvals_computed"),
        "spectral.eigvecs_used_ratio": ratio("spectral.eigvecs_used", "spectral.eigvecs_n"),
        "spectral.rounds": c["spectral.rounds"],
        "spectral.best_restart_rounds_ratio": ratio(
            "spectral.best_restart_rounds", "spectral.rounds"),
        "affinity.nnz_per_row": ratio("affinity.nnz", "affinity.rows"),
        "affinity.dense_bytes_computed": c["affinity.dense_bytes_computed"],
        "overlap_decode.states": c["overlap_decode.states"],
        "overlap_decode.state_frames": c["overlap_decode.state_frames"],
        "overlap_decode.backptr_bytes_computed": c["overlap_decode.backptr_bytes_computed"],
        "overlap_decode.span_interval_pairs": c["overlap_decode.span_interval_pairs"],
        "ingest.bytes_read": c["ingest.bytes_read"],
    })
    return metrics
