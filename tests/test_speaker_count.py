import numpy as np
import pytest

from conftest import block_affinity
from diarcut.errors import ContractError, IndeterminateSpeakerCountError
from diarcut.speaker_count import ZERO_SNAP, eigengap_vector, estimate
from diarcut.synth import SynthConfig, generate
from diarcut.affinity import cosine_affinity, laplacian
from oracles import p_binarize


class TestEigengapVector:
    def test_simple(self):
        assert np.array_equal(eigengap_vector(np.array([0.0, 0.0, 5.0])), [0.0, 5.0])

    def test_arithmetic(self):
        assert np.array_equal(
            eigengap_vector(np.array([0.0, 1.0, 2.0, 3.0])), [1.0, 1.0, 1.0]
        )

    def test_constant(self):
        assert np.array_equal(eigengap_vector(np.full(5, 2.0)), np.zeros(4))

    def test_unsorted_rejected(self):
        with pytest.raises(ContractError, match="ascending"):
            eigengap_vector(np.array([1.0, 0.5]))


class TestEstimateBlockDiagonal:
    def test_two_blocks_small_sweep(self):
        report = estimate(block_affinity([3, 3]), p_min=2, p_max=3)
        assert report.k_hat == 2
        assert report.p_hat in (2, 3)

    def test_three_blocks(self):
        report = estimate(block_affinity([5, 6, 7]))
        assert report.k_hat == 3

    @pytest.mark.parametrize("c", [2, 3, 4, 5, 6])
    def test_component_count_recovered(self, c):
        sizes = [10 + (i % 3) for i in range(c)]
        assert estimate(block_affinity(sizes)).k_hat == c

    def test_permutation_invariance(self, rng):
        a = block_affinity([4, 5, 6])
        perm = rng.permutation(a.shape[0])
        assert estimate(a[np.ix_(perm, perm)]).k_hat == estimate(a).k_hat


class TestEstimateSynthetic:
    def test_noisy_four_clusters(self):
        cfg = SynthConfig(n_speakers=4, n_segments=40, noise_sigma=0.1, seed=7)
        result = generate(cfg)
        report = estimate(cosine_affinity(result.embeddings))
        assert report.k_hat == 4


class TestEstimateContract:
    def test_r_nonnegative_and_argmin_exact(self, rng):
        cfg = SynthConfig(n_speakers=3, n_segments=30, noise_sigma=0.15, seed=3)
        report = estimate(cosine_affinity(generate(cfg).embeddings))
        r = np.array(report.r_values)
        assert (r[np.isfinite(r)] >= 0).all()
        # exhaustive comparison: p_hat is the first index attaining the minimum
        best = int(np.flatnonzero(r == r.min())[0])
        assert report.p_hat == report.p_values[best]

    def test_sweep_clipped_to_n_minus_one(self):
        report = estimate(block_affinity([4, 4]))
        assert report.p_values[-1] == 7

    def test_empty_sweep_rejected(self):
        with pytest.raises(ContractError, match="sweep"):
            estimate(np.eye(2), p_min=5, p_max=4)

    def test_indeterminate_affinity(self):
        # isolated pairs at every candidate p: more components than the gap
        # window for p=2, so the only swept candidate scores zero
        n = 24
        a = np.zeros((n, n))
        for i in range(0, n, 2):
            a[i, i + 1] = a[i + 1, i] = 0.9
        np.fill_diagonal(a, 1.0)
        with pytest.raises(IndeterminateSpeakerCountError):
            estimate(a, p_min=2, p_max=2)

    def test_k_hat_capped_by_max_speakers(self):
        a = block_affinity([3] * 6)
        report = estimate(a, max_speakers=4)
        assert 1 <= report.k_hat <= 4

    def test_report_serializable(self):
        import json

        report = estimate(block_affinity([4, 5]))
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["p_hat"] == report.p_hat

    def test_report_invariants_on_random_affinities(self, rng):
        for _ in range(5):
            vecs = rng.standard_normal((25, 6))
            report = estimate(cosine_affinity(EmbSeqStub(vecs)))
            assert report.p_hat in report.p_values
            assert 1 <= report.k_hat <= 25
            for lam in report.eigenvalues_per_p:
                assert lam[0] >= -1e-8
                assert (np.diff(lam) >= -1e-12).all()

    def test_sweep_spectra_match_reference_binarization(self, rng):
        a = cosine_affinity(EmbSeqStub(rng.standard_normal((30, 5))))
        report = estimate(a)
        for p, lam in zip(report.p_values, report.eigenvalues_per_p):
            want = np.linalg.eigvalsh(laplacian(p_binarize(a, p))[1])
            want[np.abs(want) < ZERO_SNAP] = 0.0
            assert np.array_equal(lam, want)


class EmbSeqStub:
    """Bare vector holder satisfying the cosine_affinity interface."""

    def __init__(self, vectors):
        self.vectors = vectors
