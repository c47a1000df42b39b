import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diarcut import affinity, spectral
from diarcut.errors import DiarcutError
from diarcut.ingest import EmbeddingSequence, OverlapVector, SegmentSpan
from diarcut.pipeline import DiarizationConfig, diarize_embeddings
from diarcut.scoring import der_score
from diarcut.synth import SynthConfig, generate


class TestDiarizeEmbeddings:
    def test_no_flags_equals_zero_vector(self):
        data = generate(SynthConfig(n_speakers=3, n_segments=30, seed=1))
        a = diarize_embeddings(data.embeddings)
        b = diarize_embeddings(data.embeddings, OverlapVector.zeros(30))
        assert np.array_equal(a.assignment.matrix, b.assignment.matrix)

    def test_all_segments_flagged_falls_back_to_full_estimate(self):
        data = generate(
            SynthConfig(n_speakers=2, n_segments=16, overlap_fraction=0.5, seed=3)
        )
        flags = OverlapVector(np.ones(16, dtype=np.int8))
        out = diarize_embeddings(data.embeddings, flags)
        assert (out.assignment.matrix.sum(axis=1) == 2).all()
        assert out.num_speakers >= 2

    def test_overlap_flags_force_at_least_two_speakers(self):
        # every segment is the same speaker, one stray overlap flag: the
        # count still comes out >= 2 so the flag can be honored
        data = generate(SynthConfig(n_speakers=1, n_segments=12, seed=2))
        flags = np.zeros(12, dtype=np.int8)
        flags[4] = 1
        out = diarize_embeddings(data.embeddings, OverlapVector(flags))
        assert out.assignment.k == out.num_speakers == 2
        assert out.assignment.matrix[4].sum() == 2
        # the report keeps what the eigengap picked
        assert out.report.k_hat == 1

    def test_single_flagged_segment_keeps_one_speaker(self):
        data = generate(SynthConfig(n_speakers=1, n_segments=1, seed=2))
        out = diarize_embeddings(data.embeddings, OverlapVector(np.ones(1, dtype=np.int8)))
        assert out.num_speakers == 1
        assert out.assignment.matrix.tolist() == [[1]]

    def test_result_carries_diagnostics(self):
        data = generate(SynthConfig(n_speakers=3, n_segments=30, seed=4))
        out = diarize_embeddings(data.embeddings)
        assert out.report.p_hat in out.report.p_values
        assert len(out.discretization.phi_histories) == 3

    def test_result_keeps_no_n_by_n_matrix(self):
        data = generate(SynthConfig(n_speakers=3, n_segments=30, seed=4))
        out = diarize_embeddings(data.embeddings)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from arrays(item)
            elif hasattr(obj, "__dict__"):
                for item in vars(obj).values():
                    yield from arrays(item)

        shapes = [a.shape for a in arrays(out)]
        assert shapes and (30, 30) not in shapes

    @pytest.mark.parametrize(
        "speakers, segments, sigma, overlap, seed",
        [(4, 150, 0.1, 0.2, 1), (6, 240, 0.15, 0.15, 2), (3, 120, 0.15, 0.0, 3)],
    )
    @pytest.mark.parametrize("flags", [True, False])
    def test_sparse_graphs_give_the_same_partition(
        self, monkeypatch, speakers, segments, sigma, overlap, seed, flags
    ):
        # every graph CSR, counting and clustering by Lanczos, against dense
        data = generate(SynthConfig(n_speakers=speakers, n_segments=segments,
                                    noise_sigma=sigma, overlap_fraction=overlap, seed=seed))
        ov = data.overlap if flags else None
        dense = diarize_embeddings(data.embeddings, ov)
        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0)
        lanczos = diarize_embeddings(data.embeddings, ov)
        raw = affinity.cosine_affinity(data.embeddings)
        assert not isinstance(affinity.binarize(raw, lanczos.report.p_hat, ov), np.ndarray)
        assert (lanczos.report.p_hat, lanczos.report.k_hat) == (dense.report.p_hat, dense.report.k_hat)
        assert lanczos.timeline.entries == dense.timeline.entries
        assert lanczos.discretization.phi == pytest.approx(dense.discretization.phi, rel=1e-9)
        again = diarize_embeddings(data.embeddings, ov)
        assert np.array_equal(again.assignment.matrix, lanczos.assignment.matrix)
        assert again.discretization.phi_histories == lanczos.discretization.phi_histories

    def test_restart_and_seed_config_respected(self, monkeypatch):
        data = generate(SynthConfig(n_speakers=3, n_segments=30, noise_sigma=0.2, seed=5))
        monkeypatch.setattr(spectral, "RESTARTS", 5)
        out = diarize_embeddings(data.embeddings, config=DiarizationConfig(seed=42))
        assert len(out.discretization.phi_histories) == 5

    def test_hypothesis_scores_against_reference(self):
        data = generate(
            SynthConfig(n_speakers=4, n_segments=60, overlap_fraction=0.25, seed=6)
        )
        out = diarize_embeddings(data.embeddings, data.overlap)
        result = der_score(data.reference, out.timeline)
        assert result.der <= 10.0

    def test_peak_memory_below_two_n_by_n_arrays(self):
        # The affinity is the one N x N array: counting reads its single-speaker
        # rows in place and the graphs are built a block of rows at a time, so
        # a second N x N array (a submatrix, masked or sorted copy) fails.
        n = 1000
        data = generate(SynthConfig(n_speakers=8, n_segments=n, dim=128, noise_sigma=0.15,
                                    overlap_fraction=0.15, seed=1))
        diarize_embeddings(data.embeddings, data.overlap)  # lazy imports and caches
        tracemalloc.start()
        try:
            diarize_embeddings(data.embeddings, data.overlap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_typed_error_or_row_sums_hold(data):
    n = data.draw(st.integers(1, 8))
    dim = data.draw(st.integers(1, 3))
    component = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    vectors = data.draw(arrays(float, (n, dim), elements=component))
    flags = data.draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    spans = [SegmentSpan("rec", i, 0.75 * i, 0.75 * i + 1.5) for i in range(n)]
    try:
        out = diarize_embeddings(EmbeddingSequence(spans, vectors), OverlapVector(flags))
    except DiarcutError:
        return
    want = 1 + flags if n > 1 else np.ones(1)
    assert np.array_equal(out.assignment.matrix.sum(axis=1), want)
    raised = n > 1 and flags.any() and out.report.k_hat < 2
    assert out.num_speakers == (2 if raised else out.report.k_hat)
