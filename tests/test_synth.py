import numpy as np
import pytest

from conftest import interval_union_length
from diarcut.affinity import cosine_affinity
from diarcut.errors import ConfigError
from diarcut.ingest import OverlapVector
from diarcut.pipeline import diarize_embeddings
from diarcut.scoring import der_score
from diarcut.synth import SynthConfig, generate


class TestGenerate:
    def test_labels_and_flags_consistent(self):
        cfg = SynthConfig(n_speakers=3, n_segments=40, overlap_fraction=0.25, seed=2)
        result = generate(cfg)
        for flag, lab in zip(result.overlap.flags, result.labels):
            assert len(lab) == 1 + flag

    def test_reference_equals_window_unions(self):
        cfg = SynthConfig(n_speakers=3, n_segments=30, overlap_fraction=0.2, seed=4)
        result = generate(cfg)
        spans = result.embeddings.spans
        for k in range(cfg.n_speakers):
            windows = [
                (spans[i].start, spans[i].end)
                for i, lab in enumerate(result.labels)
                if k in lab
            ]
            got = sum(
                e - s for spk, s, e in result.reference.entries if spk == f"spk{k}"
            )
            assert got == pytest.approx(interval_union_length(windows), abs=1e-9)

    def test_deterministic(self):
        cfg = SynthConfig(n_speakers=4, n_segments=50, overlap_fraction=0.1,
                          noise_sigma=0.2, seed=11)
        a, b = generate(cfg), generate(cfg)
        assert np.array_equal(a.embeddings.vectors, b.embeddings.vectors)
        assert np.array_equal(a.overlap.flags, b.overlap.flags)
        assert a.labels == b.labels
        assert a.reference == b.reference

    def test_min_angle_respected(self):
        cfg = SynthConfig(n_speakers=5, n_segments=5, min_centroid_angle=60.0, seed=0)
        c = generate(cfg).centroids
        gram = np.abs(c @ c.T) - np.eye(5)
        assert gram.max() <= np.cos(np.radians(60.0)) + 1e-12

    def test_overlap_needs_two_speakers(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_speakers=1, n_segments=10, overlap_fraction=0.2)

    @pytest.mark.parametrize("sigma", [-0.1, 1e300, float("inf"), float("nan")])
    def test_noise_sigma_outside_range_raises(self, sigma):
        # a huge sigma made every vector's norm overflow to a zero embedding
        with pytest.raises(ConfigError, match="noise_sigma"):
            SynthConfig(n_speakers=2, n_segments=4, noise_sigma=sigma)

    def test_infeasible_angle_raises(self):
        cfg = SynthConfig(n_speakers=40, n_segments=5, dim=2, min_centroid_angle=80.0)
        with pytest.raises(ConfigError, match="attempts"):
            generate(cfg)


class TestNoiselessStructure:
    def test_block_constant_affinity(self):
        cfg = SynthConfig(n_speakers=3, n_segments=24, seed=3)
        result = generate(cfg)
        aff = cosine_affinity(result.embeddings)
        labels = [lab[0] for lab in result.labels]
        for i in range(24):
            for j in range(24):
                if labels[i] == labels[j]:
                    assert aff[i, j] == pytest.approx(1.0, abs=1e-12)
        # full pipeline on the clean input is error-free
        out = diarize_embeddings(result.embeddings)
        assert der_score(result.reference, out.timeline).der == pytest.approx(0.0)

    def test_single_overlap_segment_gets_both_parents(self):
        # one mixture row is equally similar to both parent blocks, and the
        # two-peak assignment recovers exactly that pair
        cfg = SynthConfig(n_speakers=3, n_segments=30, seed=6)
        base = generate(cfg)
        vectors = base.embeddings.vectors.copy()
        mid = 0.5 * (base.centroids[0] + base.centroids[1])
        target = next(i for i, lab in enumerate(base.labels) if lab == (2,))
        vectors[target] = mid / np.linalg.norm(mid)
        flags = np.zeros(30, dtype=np.int8)
        flags[target] = 1
        seq = base.embeddings
        seq.vectors = vectors
        aff = cosine_affinity(seq)
        block0 = [i for i, lab in enumerate(base.labels) if lab == (0,) and i != target]
        block1 = [i for i, lab in enumerate(base.labels) if lab == (1,) and i != target]
        assert aff[target, block0[0]] == pytest.approx(aff[target, block1[0]], abs=1e-12)

        out = diarize_embeddings(seq, OverlapVector(flags))
        row = out.assignment.matrix[target]
        assert row.sum() == 2
        chosen = set(np.flatnonzero(row))
        col0 = int(out.assignment.matrix[block0[0]].argmax())
        col1 = int(out.assignment.matrix[block1[0]].argmax())
        assert chosen == {col0, col1}
