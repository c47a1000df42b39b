import logging
import warnings

import numpy as np
import pytest

from conftest import block_units, on_circle
from diarcut import affinity, speaker_count
from diarcut.errors import ContractError, NumericalError
from diarcut.pipeline import DiarizationConfig, diarize_embeddings
from diarcut.speaker_count import ZERO_SNAP, estimate
from diarcut.synth import SynthConfig, generate
from diarcut.affinity import cosine_affinity
from oracles import full_affinity, laplacian, p_binarize


class TestEstimateBlockDiagonal:
    def test_two_blocks_small_sweep(self):
        report = estimate(block_units([3, 3]), p_min=2, p_max=3)
        assert report.k_hat == 2
        assert report.p_hat in (2, 3)

    def test_three_blocks(self):
        report = estimate(block_units([5, 6, 7]))
        assert report.k_hat == 3

    @pytest.mark.parametrize("c", [2, 3, 4, 5, 6])
    def test_component_count_recovered(self, c):
        sizes = [10 + (i % 3) for i in range(c)]
        assert estimate(block_units(sizes)).k_hat == c

    def test_permutation_invariance(self, rng):
        u = block_units([4, 5, 6])
        perm = rng.permutation(u.shape[0])
        assert estimate(u[perm]).k_hat == estimate(u).k_hat


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
        report = estimate(block_units([4, 4]))
        assert report.p_values[-1] == 7

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_affinity_rejected(self, bad):
        u = np.eye(3)
        u[0, 1] = bad
        with pytest.raises(ContractError, match="finite"):
            estimate(u)

    def test_rows_not_a_matrix_rejected(self):
        with pytest.raises(ContractError, match="2-D"):
            estimate(np.ones(3))

    def test_non_finite_affinity_rejected_without_a_sweep(self):
        u = np.eye(3)
        u[2, 1] = np.nan  # every product with row 2 is nan
        with pytest.raises(ContractError, match="finite"):
            estimate(u, p_min=3)
        with pytest.raises(ContractError, match="finite"):
            estimate(u[[0, 2]], p_min=2)
        assert estimate(u[[0, 1]], p_min=2).p_values == []

    def test_non_finite_value_in_the_last_row_block_rejected(self):
        # two rows of 1e200 multiply to inf with each other only
        n = 2 * affinity.BLOCK_ROWS + 3
        u = synth_units(4, n, 0.1, 1)
        u[[n - 2, n - 1]] = np.eye(u.shape[1])[0] * 1e200  # in the last block either way
        index = np.delete(np.arange(n), 7)
        with pytest.raises(ContractError, match="finite"):
            estimate(u, p_max=3)
        with pytest.raises(ContractError, match="finite"):
            estimate(u[index], p_max=3)
        assert estimate(u[index[:-1]], p_max=3).p_values == [2, 3]  # a row left out

    def test_index_reads_the_submatrix(self):
        # a CSR-sized count on the gathered single-speaker rows is the
        # pipeline's count on a flagged recording
        data = generate(SynthConfig(n_speakers=5, n_segments=900, noise_sigma=0.15,
                                    overlap_fraction=0.15, seed=2))
        u = cosine_affinity(data.embeddings)
        singles = np.flatnonzero(data.overlap.flags == 0)
        assert singles.size >= affinity.SPARSE_MIN_N
        run = diarize_embeddings(data.embeddings, data.overlap, DiarizationConfig(p_max=8))
        assert run.report.to_dict() == estimate(u[singles], p_max=8).to_dict()

    def test_empty_sweep_rejected(self):
        with pytest.raises(ContractError, match="sweep"):
            estimate(np.eye(2), p_min=5, p_max=4)

    def test_sweep_from_p_one_rejected(self):
        # at p = 1 a row keeps only itself: without duplicate rows the graph has no edges
        with pytest.raises(ContractError, match="2 <= p_min <= p_max, got 1:20"):
            estimate(on_circle(0.0, 1.0, 2.0), p_min=1)

    def test_zero_max_speakers_rejected(self):
        with pytest.raises(ContractError, match="max_speakers must be at least 1"):
            estimate(block_units([3, 3]), max_speakers=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_too_few_segments_give_one_speaker(self, n):
        report = estimate(np.ones((n, 1)), p_min=max(n, 2), p_max=20)
        assert report.p_values == [] and (report.p_hat, report.k_hat) == (n, 1)

    def test_more_components_than_the_cap_clamp(self, caplog):
        # isolated pairs at every candidate p: 12 components, more than the
        # max_speakers + 1 eigenvalues of the gap window, so every g_p is zero;
        # pair i holds two rows 0.45 rad apart (cosine 0.9) in its own plane
        pairs = on_circle(0.0, 0.45)
        u = np.kron(np.eye(12), pairs)
        with caplog.at_level(logging.WARNING, logger="diarcut.speaker_count"):
            report = estimate(u, p_min=2, p_max=2)
        assert (report.p_hat, report.k_hat) == (2, 10)
        assert report.g_values == [0.0]
        assert "clamped" in caplog.text

    def test_k_hat_capped_by_max_speakers(self):
        report = estimate(block_units([3] * 6), max_speakers=4)
        assert 1 <= report.k_hat <= 4

    def test_report_serializable(self):
        import json

        report = estimate(block_units([4, 5]))
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["p_hat"] == report.p_hat

    def test_report_invariants_on_random_affinities(self, rng):
        for _ in range(5):
            vecs = rng.standard_normal((25, 6))
            report = estimate(affinity.normalize_rows(vecs))
            assert report.p_hat in report.p_values
            assert 1 <= report.k_hat <= 25
            for lam in report.eigenvalues_per_p:
                assert lam[0] >= -1e-8
                assert (np.diff(lam) >= -1e-12).all()

    def test_sweep_spectra_match_reference_binarization(self, rng):
        u = affinity.normalize_rows(rng.standard_normal((30, 5)))
        report = estimate(u)
        a = full_affinity(u)
        m = report.max_speakers + 1
        for p, lam, lam_max in zip(
            report.p_values, report.eigenvalues_per_p, report.lambda_max_per_p
        ):
            want = np.linalg.eigvalsh(laplacian(p_binarize(a, p))[1])
            want[np.abs(want) < ZERO_SNAP] = 0.0
            assert np.array_equal(lam, want[:m])
            assert lam_max == want[-1]

    @pytest.mark.parametrize("kind, rows, sweep", [
        ("dense", lambda: synth_units(3, 30, 0.15, 3), {}),
        ("csr", lambda: synth_units(4, 720, 0.15, 1), {}),
        ("clamp", lambda: np.kron(np.eye(12), on_circle(0.0, 0.45)), {"p_min": 2, "p_max": 2}),
    ], ids=["dense", "csr", "clamp"])
    def test_g_recomputable_from_report(self, kind, rows, sweep):
        u = rows()
        assert (u.shape[0] >= affinity.SPARSE_MIN_N) == (kind == "csr")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = estimate(u, **sweep)
        for p, lam, gaps, lam_max, g, r in zip(
            report.p_values, report.eigenvalues_per_p, report.gaps_per_p,
            report.lambda_max_per_p, report.g_values, report.r_values,
        ):
            assert np.array_equal(gaps, np.diff(lam))
            assert g == gaps.max() / (lam_max + speaker_count.EPSILON)
            assert r == (p / g if g else float("inf"))
        r = report.r_values
        assert all(x == float("inf") for x in r) == (kind == "clamp")
        if kind == "clamp":
            assert (report.p_hat, report.k_hat) == (report.p_values[-1], report.max_speakers)
        else:
            best = r.index(min(r))
            gaps = report.gaps_per_p[best].tolist()
            assert (report.p_hat, report.k_hat) == (report.p_values[best], 1 + gaps.index(max(gaps)))


def synth_units(speakers, segments, sigma, seed):
    cfg = SynthConfig(n_speakers=speakers, n_segments=segments, noise_sigma=sigma, seed=seed)
    return cosine_affinity(generate(cfg).embeddings)


class TestClampWarning:
    def test_silent_below_the_cap(self, caplog):
        u = synth_units(2, 120, 0.15, 0)
        with caplog.at_level(logging.WARNING, logger="diarcut.speaker_count"):
            report = estimate(u)
        assert report.k_hat == 2
        assert "clamped" not in caplog.text

    def test_fires_at_the_cap(self, caplog):
        u = synth_units(10, 300, 0.02, 1)
        with caplog.at_level(logging.WARNING, logger="diarcut.speaker_count"):
            report = estimate(u)
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
        u = synth_units(speakers, segments, sigma, seed)
        dense = estimate(u)
        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0)
        lanczos = estimate(u)
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

    def test_graph_narrower_than_basis_matches_dense(self, monkeypatch):
        # 30 rows, fewer than the 36 Lanczos vectors asked for: ARPACK runs
        # with all 30, and no graph is copied into a dense array
        from scipy import sparse

        u = synth_units(3, 30, 0.1, 2)
        dense = estimate(u)
        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0)
        for cls in (sparse.csr_matrix, sparse.csr_array):
            monkeypatch.setattr(cls, "toarray", lambda *a, **kw: pytest.fail("no dense copy expected"))
        lanczos = estimate(u)
        assert (lanczos.p_hat, lanczos.k_hat) == (dense.p_hat, dense.k_hat)
        for got, want in zip(lanczos.eigenvalues_per_p, dense.eigenvalues_per_p):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(lanczos.lambda_max_per_p, dense.lambda_max_per_p, rtol=0, atol=1e-12)

    def test_graph_with_fewer_rows_than_eigenvalues_wanted(self, sparse):
        # 5 rows, 11 eigenvalues wanted: all 5 come back, as from the dense graph
        from scipy import sparse as sp

        graph = np.kron(np.eye(2), np.ones((3, 3)))[1:, 1:]  # a pair and a triangle
        lam, lam_max = speaker_count.low_spectrum(sp.csr_matrix(graph), 11)
        want, want_max = speaker_count.low_spectrum(graph, 11)
        assert lam.shape == (5,)
        assert np.allclose(lam, want, rtol=0, atol=1e-12) and lam_max == pytest.approx(want_max)

    def test_edgeless_graph_is_numerical_error(self):
        # every node links only to itself, so L = 0 and Lanczos starts from
        # L v0 = 0; no sweep builds such a graph (p >= 2), and ARPACK's refusal is typed
        from scipy import sparse as sp

        with pytest.raises(NumericalError, match="Lanczos eigensolve failed on 800 rows"):
            speaker_count.low_spectrum(sp.csr_matrix(np.eye(800)), 11)

    def test_deterministic(self, sparse):
        u = synth_units(4, 100, 0.1, 6)
        assert estimate(u).to_dict() == estimate(u).to_dict()

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
        calls = []
        real = affinity.component_labels

        def counted(mat):
            calls.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(affinity, "component_labels", counted)
        report = estimate(synth_units(4, 100, 0.1, 6))
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
            estimate(synth_units(3, 60, 0.1, 2))


def flagged_single_rows(speakers, segments, seed):
    """Unit rows of the single-speaker segments of a recording with 15 % flags."""
    data = generate(SynthConfig(n_speakers=speakers, n_segments=segments, dim=128, noise_sigma=0.15,
                                overlap_fraction=0.15, seed=seed))
    return cosine_affinity(data.embeddings)[data.overlap.flags == 0]


class TestLanczosCost:
    """Counting reads only eigenvalues, so its Lanczos solves stop at ARPACK_TOL."""

    def test_products_per_sweep_are_bounded(self, monkeypatch):
        # products are counted, not timed: 13 243 with every solve run to
        # machine precision, 9 020 at ARPACK_TOL, alike under 1 and 2 BLAS threads
        from scipy.sparse import linalg as sla

        products, real = [0], sla.eigsh

        def counted(mat, *args, **kwargs):
            op = sla.aslinearoperator(mat)

            def matvec(x):
                products[0] += 1
                return op.matvec(x)

            return real(sla.LinearOperator(op.shape, matvec=matvec, dtype=float), *args, **kwargs)

        monkeypatch.setattr(sla, "eigsh", counted)
        u = flagged_single_rows(8, 2600, 1)
        assert u.shape[0] == 2210
        report = estimate(u)
        assert (report.p_hat, report.k_hat) == (7, 8)
        assert products[0] <= 11_000, products[0]

    @pytest.mark.parametrize("p", [3, 10, 20])
    def test_meeting_sized_spectrum_matches_dense(self, p):
        u = flagged_single_rows(8, 1300, 1)
        graph = affinity.binarize(u, p)
        assert not isinstance(graph, np.ndarray)  # CSR, so the low end comes from Lanczos
        lam, lam_max = speaker_count.low_spectrum(graph, 11)
        want = np.linalg.eigvalsh(laplacian(graph.toarray())[1])
        want[np.abs(want) < ZERO_SNAP] = 0.0
        assert np.allclose(lam, want[:11], rtol=0, atol=1e-12)
        assert lam_max == pytest.approx(want[-1], rel=1e-12, abs=0)
