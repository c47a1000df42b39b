import numpy as np

from diarcut.ingest import OverlapVector
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
        assert out.assignment.k >= 2
        assert out.assignment.matrix[4].sum() == 2

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
        assert out.bundle.binarized.shape == (30, 30)

    def test_restart_and_seed_config_respected(self):
        data = generate(SynthConfig(n_speakers=3, n_segments=30, noise_sigma=0.2, seed=5))
        cfg = DiarizationConfig(restarts=5, seed=42)
        out = diarize_embeddings(data.embeddings, config=cfg)
        assert len(out.discretization.phi_histories) == 5

    def test_hypothesis_scores_against_reference(self):
        data = generate(
            SynthConfig(n_speakers=4, n_segments=60, overlap_fraction=0.25, seed=6)
        )
        out = diarize_embeddings(data.embeddings, data.overlap)
        result = der_score(data.reference, out.timeline)
        assert result.der <= 10.0
