import logging

import numpy as np
import pytest

from conftest import block_affinity
from diarcut import affinity, speaker_count
from diarcut.errors import ContractError, IndeterminateSpeakerCountError, NumericalError
from diarcut.speaker_count import ZERO_SNAP, eigengap_vector, estimate
from diarcut.synth import SynthConfig, generate
from diarcut.affinity import cosine_affinity
from oracles import laplacian, p_binarize


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_affinity_rejected(self, bad):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(ContractError, match="finite"):
            estimate(a)

    def test_non_square_affinity_rejected(self):
        with pytest.raises(ContractError, match="square"):
            estimate(np.ones((3, 2)))

    def test_non_finite_affinity_rejected_without_a_sweep(self):
        a = np.ones((3, 3))
        a[2, 0] = np.nan
        with pytest.raises(ContractError, match="finite"):
            estimate(a, p_min=3)
        with pytest.raises(ContractError, match="finite"):
            estimate(a, p_min=2, index=[0, 2])

    def test_non_finite_value_in_the_last_row_block_rejected(self):
        n = 2 * affinity.BLOCK_ROWS + 1
        a = synth_affinity(4, n, 0.1, 1)
        a[n - 1, 3] = np.inf  # the last row, in the last block with or without the index
        index = np.delete(np.arange(n), 7)
        with pytest.raises(ContractError, match="finite"):
            estimate(a, p_max=3)
        with pytest.raises(ContractError, match="finite"):
            estimate(a, p_max=3, index=index)
        assert estimate(a, p_max=3, index=index[:-1]).p_values == [2, 3]  # the row left out

    def test_index_reads_the_submatrix(self):
        # a CSR-sized count through the index, as the pipeline runs it on the
        # single-speaker rows, against the same count on the copied submatrix
        data = generate(SynthConfig(n_speakers=5, n_segments=900, noise_sigma=0.15,
                                    overlap_fraction=0.15, seed=2))
        a = cosine_affinity(data.embeddings)
        singles = np.flatnonzero(data.overlap.flags == 0)
        assert singles.size >= affinity.SPARSE_MIN_N
        got = estimate(a, p_max=8, index=singles).to_dict()
        assert got == estimate(a[np.ix_(singles, singles)], p_max=8).to_dict()

    def test_empty_sweep_rejected(self):
        with pytest.raises(ContractError, match="sweep"):
            estimate(np.eye(2), p_min=5, p_max=4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_too_few_segments_give_one_speaker(self, n):
        report = estimate(np.ones((n, n)), p_min=n, p_max=20)
        assert report.p_values == [] and (report.p_hat, report.k_hat) == (n, 1)

    def test_indeterminate_affinity(self):
        # p=1 keeps only the diagonal: every segment is its own component, and
        # with no more segments than max_speakers the count is undetermined
        a = np.full((6, 6), 0.5)
        np.fill_diagonal(a, 1.0)
        with pytest.raises(IndeterminateSpeakerCountError):
            estimate(a, p_min=1, p_max=1)

    def test_more_components_than_the_cap_clamp(self, caplog):
        # isolated pairs at every candidate p: 12 components, more than the
        # max_speakers + 1 eigenvalues of the gap window, so every g_p is zero
        n = 24
        a = np.zeros((n, n))
        for i in range(0, n, 2):
            a[i, i + 1] = a[i + 1, i] = 0.9
        np.fill_diagonal(a, 1.0)
        with caplog.at_level(logging.WARNING, logger="diarcut.speaker_count"):
            report = estimate(a, p_min=2, p_max=2)
        assert (report.p_hat, report.k_hat) == (2, 10)
        assert report.g_values == [0.0]
        assert "clamped" in caplog.text

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
        m = report.max_speakers + 1
        for p, lam, lam_max in zip(
            report.p_values, report.eigenvalues_per_p, report.lambda_max_per_p
        ):
            want = np.linalg.eigvalsh(laplacian(p_binarize(a, p))[1])
            want[np.abs(want) < ZERO_SNAP] = 0.0
            assert np.array_equal(lam, want[:m])
            assert lam_max == want[-1]

    def test_g_recomputable_from_report(self):
        cfg = SynthConfig(n_speakers=3, n_segments=30, noise_sigma=0.15, seed=3)
        report = estimate(cosine_affinity(generate(cfg).embeddings))
        for lam, gaps, lam_max, g in zip(
            report.eigenvalues_per_p, report.gaps_per_p,
            report.lambda_max_per_p, report.g_values,
        ):
            assert np.array_equal(gaps, np.diff(lam))
            assert g == gaps.max() / (lam_max + speaker_count.EPSILON)


def synth_affinity(speakers, segments, sigma, seed):
    cfg = SynthConfig(n_speakers=speakers, n_segments=segments, noise_sigma=sigma, seed=seed)
    return cosine_affinity(generate(cfg).embeddings)


class TestClampWarning:
    def test_silent_below_the_cap(self, caplog):
        a = synth_affinity(2, 120, 0.15, 0)
        with caplog.at_level(logging.WARNING, logger="diarcut.speaker_count"):
            report = estimate(a)
        assert report.k_hat == 2
        assert "clamped" not in caplog.text

    def test_fires_at_the_cap(self, caplog):
        a = synth_affinity(10, 300, 0.02, 1)
        with caplog.at_level(logging.WARNING, logger="diarcut.speaker_count"):
            report = estimate(a)
        assert report.k_hat == report.max_speakers == 10
        assert "clamped" in caplog.text


class TestLanczosBranch:
    """The sparse branch, forced at small N, against the dense branch."""

    @pytest.fixture
    def sparse(self, monkeypatch):
        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0)

    # 9-10 speakers with little noise: several components at many p, where
    # undeflated Lanczos drops copies of the zero eigenvalue
    @pytest.mark.parametrize(
        "speakers, segments, sigma, seed",
        [(10, 300, 0.02, 1), (9, 250, 0.03, 2), (10, 400, 0.05, 3), (9, 350, 0.04, 4)],
    )
    def test_matches_dense(self, monkeypatch, speakers, segments, sigma, seed):
        a = synth_affinity(speakers, segments, sigma, seed)
        dense = estimate(a)
        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0)
        lanczos = estimate(a)
        assert lanczos.p_values == dense.p_values
        for got, want in zip(lanczos.eigenvalues_per_p, dense.eigenvalues_per_p):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=1e-9)
        assert np.allclose(lanczos.lambda_max_per_p, dense.lambda_max_per_p, rtol=1e-12, atol=0)
        r_got, r_want = np.array(lanczos.r_values), np.array(dense.r_values)
        assert np.array_equal(np.isfinite(r_got), np.isfinite(r_want))
        finite = np.isfinite(r_want)
        assert np.allclose(r_got[finite], r_want[finite], rtol=1e-9, atol=0)
        assert (lanczos.p_hat, lanczos.k_hat) == (dense.p_hat, dense.k_hat)

    def test_graph_narrower_than_basis_stays_dense(self, monkeypatch):
        a = synth_affinity(3, 30, 0.1, 2)
        want = estimate(a).to_dict()
        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0)
        assert estimate(a).to_dict() == want

    def test_deterministic(self, sparse):
        a = synth_affinity(4, 100, 0.1, 6)
        assert estimate(a).to_dict() == estimate(a).to_dict()

    def test_many_components_skip_the_solve(self, sparse, monkeypatch):
        from scipy.sparse import linalg as sla

        calls = []
        real = sla.eigsh

        def counted(*args, **kwargs):
            calls.append(kwargs["which"])
            return real(*args, **kwargs)

        monkeypatch.setattr(sla, "eigsh", counted)
        # 40 disjoint triangles: 40 zero eigenvalues, more than the 11 wanted
        from scipy import sparse

        graph = sparse.csr_matrix(np.kron(np.eye(40), np.ones((3, 3))))
        lam, lam_max = speaker_count.low_spectrum(graph, 11)
        assert np.array_equal(lam, np.zeros(11)) and lam_max == pytest.approx(3.0)
        assert calls == ["LA"]

    def test_one_component_pass_per_graph(self, sparse, monkeypatch):
        from scipy.sparse import csgraph

        calls = []
        real = csgraph.connected_components

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(csgraph, "connected_components", counted)
        report = estimate(synth_affinity(4, 100, 0.1, 6))
        # lambda_max comes from plain Lanczos; only the low end deflates
        assert calls == [(100, 100)] * len(report.p_values)

    @pytest.mark.parametrize("error", ["no-convergence", "breakdown"])
    def test_arpack_failure_is_numerical_error(self, sparse, monkeypatch, error):
        from scipy.sparse import linalg as sla

        def fail(*args, **kwargs):
            if error == "no-convergence":
                raise sla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
            raise sla.ArpackError(-9999)

        monkeypatch.setattr(sla, "eigsh", fail)
        with pytest.raises(NumericalError, match="Lanczos"):
            estimate(synth_affinity(3, 60, 0.1, 2))


class EmbSeqStub:
    """Bare vector holder satisfying the cosine_affinity interface."""

    def __init__(self, vectors):
        self.vectors = vectors
