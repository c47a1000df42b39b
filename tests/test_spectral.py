import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import block_affinity, enumerate_assignments, random_orthonormal, traced_peak
from oracles import degree_normalize, laplacian, objective_continuous, objective_discrete
from diarcut import affinity, spectral
from diarcut.affinity import binarize, cosine_affinity, normalize_rows
from diarcut.errors import ContractError, NumericalError
from diarcut.ingest import OverlapVector, assignment_to_timeline, write_rttm
from diarcut.synth import SynthConfig, generate
from diarcut.spectral import (
    AssignmentMatrix,
    ContinuousSolution,
    assignment_distance,
    continuous_solve,
    discretize_full,
    nms_assign,
    procrustes,
)


def random_feasible_z(n, k, degree, rng):
    g = rng.standard_normal((n, k))
    gram = g.T @ (degree[:, None] * g)
    w, v = np.linalg.eigh(gram)
    return g @ (v * (1.0 / np.sqrt(w))) @ v.T


class TestContinuousSolve:
    def test_identity_contract(self):
        degree, _ = laplacian(np.eye(5))
        sol = continuous_solve(np.eye(5), 5)
        gram = sol.z_star.T @ (degree[:, None] * sol.z_star)
        assert np.abs(gram - np.eye(5)).max() < 1e-6

    def test_two_blocks_piecewise_constant(self):
        a = block_affinity([4, 5])
        sol = continuous_solve(a, 2)
        xt = sol.x_tilde_star
        # rows within a block agree; the two block directions are orthogonal
        for block in (range(4), range(4, 9)):
            rows = xt[list(block)]
            assert np.abs(rows @ rows.T - 1.0).max() < 1e-8
        assert abs(xt[0] @ xt[5]) < 1e-8

    def test_unit_row_norms(self, rng):
        a = block_affinity([4, 5], off_value=0.2)
        sol = continuous_solve(a, 3)
        assert np.abs(np.linalg.norm(sol.x_tilde_star, axis=1) - 1.0).max() < 1e-8

    def test_trace_optimality_against_random_feasible(self, rng):
        # oracle: 100 random feasible points never beat the eigenvector basis
        raw = rng.uniform(0, 1, (12, 12))
        a = 0.5 * (raw + raw.T)
        degree, _ = laplacian(a)
        k = 3
        sol = continuous_solve(a, k)
        best = objective_continuous(sol.z_star, a)
        for _ in range(100):
            z = random_feasible_z(12, k, degree, rng)
            assert objective_continuous(z, a) <= best + 1e-8

    def test_k_out_of_range(self):
        with pytest.raises(ContractError):
            continuous_solve(np.eye(3), 4)

    @pytest.mark.parametrize("k", [1, 2])
    def test_components_give_k_vectors_without_a_solve(self, monkeypatch, k):
        # two components: K = 2 takes their vectors, K = 1 a seeded frame of them
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: pytest.fail("no solve expected"))
        a = block_affinity([4, 5])
        sol = continuous_solve(a, k)
        assert np.array_equal(sol.lambda_star, np.ones(k))
        assert np.linalg.norm(sol.z_star, axis=1).min() > 0
        gram = sol.z_star.T @ (a.sum(axis=1)[:, None] * sol.z_star)
        assert np.allclose(gram, np.eye(k), rtol=0, atol=1e-12)

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(*args):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="LAPACK eigensolve failed on 9 rows"):
            continuous_solve(block_affinity([4, 5]), 3)

    def test_eigenvalues_descending(self, rng):
        a = block_affinity([5, 5], off_value=0.1)
        sol = continuous_solve(a, 4)
        assert (np.diff(sol.lambda_star) <= 1e-12).all()


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_no_row_of_z_is_zero_and_x_tilde_rows_are_unit(data):
    # X_tilde is Z with its rows scaled to unit norm, with no zero-row case:
    # up to K components Z's columns span their vectors, past K a seeded frame
    from scipy import sparse

    blocks = []
    for size in data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)):
        half = np.triu(data.draw(arrays(np.int8, (size, size), elements=st.integers(0, 2))) / 2.0)
        block = half + np.triu(half, 1).T
        chain = np.arange(size - 1)
        block[chain, chain + 1] = block[chain + 1, chain] = np.maximum(block[chain, chain + 1], 0.5)
        if size == 1:
            block[0, 0] = 1.0
        blocks.append(block)
    c, n = len(blocks), sum(len(b) for b in blocks)
    mode = data.draw(st.sampled_from(["c < K", "c = K", "c > K"]))
    if mode == "c < K":
        assume(c < n)
        k = data.draw(st.integers(c + 1, n))
    elif mode == "c = K":
        k = c
    else:
        assume(c > 1)
        k = data.draw(st.integers(1, c - 1))
    order = np.array(data.draw(st.permutations(range(n))))
    graph = sparse.block_diag(blocks).toarray()[np.ix_(order, order)]
    csr = data.draw(st.booleans())
    with pytest.MonkeyPatch.context() as mp:
        if csr:
            mp.setattr(affinity, "SPARSE_MIN_N", 0)
            graph = sparse.csr_matrix(graph)
        sol = continuous_solve(graph, k)
    assert sol.z_star.shape == (n, k)
    assert np.linalg.norm(sol.z_star, axis=1).min() > 0
    assert np.allclose(np.linalg.norm(sol.x_tilde_star, axis=1), 1.0, rtol=0, atol=1e-12)


def sparse_graph(speakers, segments, sigma, seed, p=6, overlap=0.0):
    """CSR binarized graph of a synthetic recording."""
    from scipy import sparse

    cfg = SynthConfig(n_speakers=speakers, n_segments=segments, noise_sigma=sigma,
                      overlap_fraction=overlap, seed=seed)
    data = generate(cfg)
    graph = binarize(cosine_affinity(data.embeddings), p, data.overlap)
    return sparse.csr_matrix(graph)


def components(graph) -> int:
    from scipy.sparse import csgraph

    return csgraph.connected_components(graph, directed=False)[0]


def block_graph(*parts):
    from scipy import sparse

    return sparse.block_diag(parts, format="csr")


class TestLanczosSolve:
    """The CSR branch of continuous_solve against the dense solve."""

    def _compare(self, graph, k):
        from scipy.linalg import subspace_angles

        got = continuous_solve(graph, k)
        want = continuous_solve(graph.toarray(), k)
        assert np.allclose(got.lambda_star, want.lambda_star, rtol=0, atol=1e-9)
        assert subspace_angles(got.z_star, want.z_star).max() < 1e-8
        d = np.asarray(graph.sum(axis=1)).ravel()
        assert np.allclose(got.z_star.T @ (d[:, None] * got.z_star), np.eye(k), atol=1e-9)
        return got

    @pytest.mark.parametrize(
        "speakers, segments, sigma, seed, overlap",
        [(4, 120, 0.15, 1, 0.0), (5, 200, 0.1, 2, 0.2), (7, 300, 0.15, 3, 0.15), (3, 90, 0.2, 4, 0.0)],
    )
    def test_matches_dense(self, speakers, segments, sigma, seed, overlap):
        self._compare(sparse_graph(speakers, segments, sigma, seed, overlap=overlap), speakers)

    def test_components_fewer_than_k(self):
        # two components give two eigenvalues 1; Lanczos finds the other two
        graph = block_graph(sparse_graph(2, 60, 0.15, 5), sparse_graph(2, 60, 0.15, 13))
        assert components(graph) == 2
        got = self._compare(graph, 4)
        assert np.allclose(got.lambda_star[:2], 1.0) and got.lambda_star[2] < 1 - 1e-6

    def test_components_equal_k_need_no_solve(self, monkeypatch):
        from scipy.sparse import linalg as sla

        monkeypatch.setattr(sla, "eigsh", lambda *a, **k: pytest.fail("no solve expected"))
        graph = block_graph(*[sparse_graph(1, 40, 0.15, seed) for seed in (7, 8, 9)])
        assert components(graph) == 3
        got = continuous_solve(graph, 3)
        assert np.array_equal(got.lambda_star, np.ones(3))
        # the row-normalized vectors are one unit vector per component
        labels = np.repeat([0, 1, 2], 40)
        rows = got.x_tilde_star
        assert np.allclose(rows @ rows.T, labels[:, None] == labels[None, :], rtol=0, atol=1e-12)

    def test_components_beyond_k_take_a_seeded_frame(self, monkeypatch):
        from scipy.sparse import linalg as sla

        monkeypatch.setattr(sla, "eigsh", lambda *a, **k: pytest.fail("no solve expected"))
        graph = block_graph(*[sparse_graph(1, 40, 0.15, seed) for seed in range(10, 15)])
        assert components(graph) == 5
        got = continuous_solve(graph, 3)
        assert np.array_equal(got.lambda_star, np.ones(3))
        d = np.asarray(graph.sum(axis=1)).ravel()
        assert np.allclose(got.z_star.T @ (d[:, None] * got.z_star), np.eye(3), rtol=0, atol=1e-12)
        # LAPACK's basis of the eigenvalue-1 space leaves 80 of these rows zero
        assert np.linalg.norm(got.z_star, axis=1).min() > 0
        assert np.array_equal(got.z_star, continuous_solve(graph, 3).z_star)

    def test_components_beyond_k_need_no_n_by_n_array(self):
        # 12 speakers at sigma 0 and p = 20 leave 12 components for K = 10
        n = 2000
        data = generate(SynthConfig(n_speakers=12, n_segments=n, dim=128, seed=1))
        graph = binarize(cosine_affinity(data.embeddings), 20)
        assert components(graph) == 12
        continuous_solve(graph, 10)  # lazy imports and caches
        _, peak = traced_peak(continuous_solve, graph, 10)
        assert peak < n * n * 8

    @staticmethod
    def _no_solve(monkeypatch):
        from scipy.sparse import linalg as sla

        monkeypatch.setattr(sla, "eigsh", lambda *a, **kw: pytest.fail("no solve expected"))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: pytest.fail("no solve expected"))

    def test_isolated_node_is_refused(self, monkeypatch):
        # D^-1 A does not exist with a zero degree; the binarization never builds one
        from scipy import sparse

        self._no_solve(monkeypatch)
        graph = sparse_graph(3, 100, 0.15, 15)
        n = graph.shape[0]
        # a last row and column with no link at all
        graph = sparse.csr_matrix(sparse.bmat([[graph, None], [None, sparse.csr_matrix((1, 1))]]))
        assert graph.shape == (n + 1, n + 1)
        for fmt in (graph, graph.toarray()):
            with pytest.raises(ContractError, match=f"node {n} has degree 0.0"):
                continuous_solve(fmt, 3)

    def test_deterministic(self):
        graph = sparse_graph(5, 150, 0.2, 16)
        a, b = continuous_solve(graph, 5), continuous_solve(graph, 5)
        assert np.array_equal(a.z_star, b.z_star)
        assert np.array_equal(a.lambda_star, b.lambda_star)

    def test_narrow_graph_matches_dense(self, monkeypatch):
        # 30 rows, fewer than the 36 Lanczos vectors asked for at K = 5: ARPACK
        # runs with all 30, and the graph is never copied into a dense array
        from scipy import sparse
        from scipy.linalg import subspace_angles
        from scipy.sparse import linalg as sla

        graph = sparse_graph(3, 30, 0.1, 17)
        assert components(graph) == 3
        want = continuous_solve(graph.toarray(), 5)
        ncv, real = [], sla.eigsh
        monkeypatch.setattr(sla, "eigsh", lambda *a, **kw: ncv.append(kw["ncv"]) or real(*a, **kw))
        for cls in (sparse.csr_matrix, sparse.csr_array):
            monkeypatch.setattr(cls, "toarray", lambda *a, **kw: pytest.fail("no dense copy expected"))
        got = continuous_solve(graph, 5)
        assert ncv == [30]
        assert np.allclose(got.lambda_star, want.lambda_star, rtol=0, atol=1e-12)
        assert subspace_angles(got.z_star, want.z_star).max() < 1e-8

    def test_dense_graph_takes_the_same_frame(self):
        graph = block_graph(*[sparse_graph(1, 40, 0.15, seed) for seed in range(10, 15)])
        got = continuous_solve(graph.toarray(), 3)
        assert np.array_equal(got.z_star, continuous_solve(graph, 3).z_star)
        assert np.linalg.norm(got.z_star, axis=1).min() > 0

    @pytest.mark.parametrize("k", [1, 799, 800])
    def test_graph_without_edges_is_refused(self, monkeypatch, k):
        # every degree is zero: refused before ARPACK, which breaks down on the zero matrix
        from scipy import sparse

        self._no_solve(monkeypatch)
        for graph in (sparse.csr_matrix((800, 800)), np.zeros((800, 800))):
            with pytest.raises(ContractError, match="node 0 has degree 0.0"):
                continuous_solve(graph, k)

    @pytest.mark.parametrize("n", [2, 800])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -2.0])
    def test_degree_not_positive_and_finite_is_refused(self, monkeypatch, n, bad):
        # a NaN, infinite or negative row sum would reach sqrt and the eigensolver
        from scipy import sparse

        self._no_solve(monkeypatch)
        graph = np.eye(n)
        graph[0, 1] = graph[1, 0] = 0.5
        graph[1, 1] = bad
        for fmt in (graph, sparse.csr_matrix(graph)):
            with pytest.raises(ContractError, match=f"node 1 has degree {bad + 0.5}"):
                continuous_solve(fmt, 1)


class TestNmsAssign:
    def test_single_peak(self):
        out = nms_assign(np.array([[0.8, 0.5, 0.1]]), OverlapVector.zeros(1))
        assert np.array_equal(out, [[1, 0, 0]])

    def test_two_peaks(self):
        out = nms_assign(np.array([[0.8, 0.5, 0.1]]), OverlapVector(np.array([1])))
        assert np.array_equal(out, [[1, 1, 0]])

    def test_tie_break_lower_index(self):
        out = nms_assign(np.array([[0.5, 0.5, 0.1]]), OverlapVector(np.array([1])))
        assert np.array_equal(out, [[1, 1, 0]])

    def test_k1_overlap_is_a_contract_error(self):
        # one cluster cannot give a flagged row its second label
        with pytest.raises(ContractError, match="second cluster"):
            nms_assign(np.array([[0.7]]), OverlapVector(np.array([1])))

    def test_overlap_length_mismatch_is_a_contract_error(self):
        with pytest.raises(ContractError, match="overlap vector length does not match row count"):
            nms_assign(np.zeros((3, 2)), OverlapVector.zeros(2))

    def test_row_sums_match_constraint(self, rng):
        for _ in range(20):
            n, k = int(rng.integers(2, 12)), int(rng.integers(2, 5))
            flags = rng.integers(0, 2, n)
            out = nms_assign(rng.standard_normal((n, k)), OverlapVector(flags))
            assert np.array_equal(out.sum(axis=1), 1 + flags)

    def test_exhaustive_argmin_small(self, rng):
        # the per-row NMS equals the global argmin over all feasible matrices
        for trial in range(10):
            n, k = 4, 3
            flags = rng.integers(0, 2, n)
            m = rng.standard_normal((n, k))
            out = nms_assign(m, OverlapVector(flags))
            got = float(np.sum((out - m) ** 2))
            best = min(
                float(np.sum((x - m) ** 2))
                for x in enumerate_assignments(n, k, flags)
            )
            assert got == pytest.approx(best, abs=1e-12)


class TestProcrustes:
    def test_shape_mismatch_is_a_contract_error(self):
        with pytest.raises(ContractError, match=re.escape("assignment (3, 2), continuous (3, 3)")):
            procrustes(np.eye(3)[:, :2], np.eye(3))

    def test_svd_failure_is_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError, match="SVD failed in the rotation fit"):
            procrustes(np.eye(3), np.eye(3))

    def test_self_alignment_is_identity(self, rng):
        x = np.zeros((6, 2), dtype=np.int8)
        x[np.arange(6), [0, 0, 1, 1, 0, 1]] = 1
        rot = procrustes(x, x.astype(float))
        assert np.abs(rot - np.eye(2)).max() < 1e-10

    def test_permutation_recovery(self, rng):
        # oracle: planting X_tilde = X P^T makes P the unique minimizer
        n, k = 12, 3
        x = np.zeros((n, k))
        x[np.arange(n), rng.integers(0, k, n)] = 1
        x[:k] = np.eye(k)  # every cluster non-empty
        perm = np.eye(k)[rng.permutation(k)]
        rot = procrustes(x, x @ perm.T)
        assert np.abs(rot - perm).max() < 1e-10

    def test_orthonormality(self, rng):
        for _ in range(10):
            x = (rng.uniform(size=(8, 3)) > 0.5).astype(float)
            rot = procrustes(x, rng.standard_normal((8, 3)))
            assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-8

    def test_beats_random_rotations(self, rng):
        x = (rng.uniform(size=(10, 3)) > 0.5).astype(float)
        xt = rng.standard_normal((10, 3))
        rot = procrustes(x, xt)
        best = assignment_distance(x, xt @ rot)
        for _ in range(200):
            q = random_orthonormal(3, rng)
            assert best <= assignment_distance(x, xt @ q) + 1e-9


class TestDiscretize:
    def _solution(self, xt):
        xt = np.asarray(xt, dtype=float)
        return ContinuousSolution(xt.copy(), np.ones(xt.shape[1]), xt)

    @pytest.mark.parametrize("k, seed", [(0, 0), (2, -1)])
    def test_no_cluster_or_negative_seed_is_refused(self, k, seed):
        solution = self._solution(np.eye(3)[:, :k])
        with pytest.raises(ContractError, match=f"got K={k}, seed={seed}"):
            discretize_full(solution, OverlapVector.zeros(3), seed=seed)

    def test_binary_fixed_point(self):
        flags = np.array([0, 0, 1, 0])
        xt = np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
        )
        result = discretize_full(self._solution(xt), OverlapVector(flags))
        assert result.phi == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(
            np.sort(result.assignment.matrix, axis=1), np.sort(xt, axis=1)
        )

    def test_two_blocks_recovered(self):
        a = block_affinity([4, 5])
        sol = continuous_solve(a, 2)
        out = discretize_full(sol, OverlapVector.zeros(9)).assignment
        labels = out.matrix.argmax(axis=1)
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]

    def test_phi_non_increasing(self, rng):
        for trial in range(10):
            xt = normalize_rows(rng.standard_normal((15, 3)))
            flags = rng.integers(0, 2, 15)
            result = discretize_full(self._solution(xt), OverlapVector(flags), seed=trial)
            for history in result.phi_histories:
                assert all(
                    later <= earlier + 1e-9
                    for earlier, later in zip(history, history[1:])
                )

    def test_row_sum_constraint(self, rng):
        xt = normalize_rows(rng.standard_normal((12, 4)))
        flags = rng.integers(0, 2, 12)
        out = discretize_full(self._solution(xt), OverlapVector(flags)).assignment
        assert np.array_equal(out.matrix.sum(axis=1), 1 + flags)

    def test_empty_cluster_logged_once(self, caplog):
        # two directions for three clusters: every round of every restart
        # leaves column 2 empty, but only the result is reported
        xt = np.repeat(np.eye(3)[:2], 4, axis=0)
        with caplog.at_level("INFO", logger="diarcut.spectral"):
            out = discretize_full(self._solution(xt), OverlapVector.zeros(8))
        assert sum(len(h) for h in out.phi_histories) > 1
        assert np.array_equal(out.assignment.matrix.sum(axis=0), [4, 4, 0])
        empty = [r.getMessage() for r in caplog.records if "leaves clusters" in r.getMessage()]
        assert empty == ["assignment leaves clusters [2] empty"]

    def test_column_permutation_equivariance(self, rng):
        # permuting the columns of the rotated input permutes the labels and
        # leaves the induced partition untouched
        flags = OverlapVector(rng.integers(0, 2, 10))
        m = rng.standard_normal((10, 3))
        perm = rng.permutation(3)
        base = nms_assign(m, flags)
        permuted = nms_assign(m[:, perm], flags)
        assert np.array_equal(base[:, perm], permuted)

    @pytest.mark.parametrize("relative_drop, winner", [(1e-12, 0), (1e-6, 1)])
    def test_near_tie_keeps_earlier_restart(self, monkeypatch, relative_drop, winner):
        # each restart converges after two rounds at a constant objective
        finals = [1.0, 1.0 - relative_drop]
        calls = []

        def phi(*args):
            calls.append(None)
            return finals[(len(calls) - 1) // 2]

        monkeypatch.setattr(spectral, "assignment_distance", phi)
        xt = normalize_rows(np.random.default_rng(0).standard_normal((8, 2)))
        monkeypatch.setattr(spectral, "RESTARTS", 2)
        result = discretize_full(self._solution(xt), OverlapVector.zeros(8))
        assert result.best_restart == winner

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), perm=st.permutations(range(4)))
    def test_swapped_tied_restarts_give_same_rttm(self, tmp_path_factory, seed, perm):
        # restart 1 starts from restart 0's rotation with its columns
        # permuted, so both reach one partition in two column orders with
        # equal objectives; which of them runs first must not show
        cfg = SynthConfig(n_speakers=4, n_segments=40, overlap_fraction=0.2,
                          noise_sigma=0.15, seed=seed)
        data = generate(cfg)
        sol = continuous_solve(binarize(cosine_affinity(data.embeddings), 6, data.overlap), 4)
        start = spectral._seed_rotation(sol.x_tilde_star, 4, np.random.default_rng(seed))
        out = tmp_path_factory.mktemp("restarts")
        for name, order in (("a", [start, start[:, list(perm)]]),
                            ("b", [start[:, list(perm)], start])):
            queue = list(order)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral, "_seed_rotation", lambda *args: queue.pop(0))
                mp.setattr(spectral, "RESTARTS", 2)
                result = discretize_full(sol, data.overlap)
            timeline = assignment_to_timeline(result.assignment.matrix, data.embeddings.spans)
            write_rttm(timeline, out / f"{name}.rttm")
        assert (out / "a.rttm").read_bytes() == (out / "b.rttm").read_bytes()

    def test_brute_force_reachability(self, rng):
        # enumeration gives phi*(X) = min over feasible X of the per-X optimal
        # fit; alternation must stay monotone and usually reaches the optimum
        hits = 0
        trials = 12
        for trial in range(trials):
            n, k = 6, 2
            flags = rng.integers(0, 2, n)
            xt = normalize_rows(rng.standard_normal((n, k)))
            sol = self._solution(xt)
            result = discretize_full(sol, OverlapVector(flags), seed=trial)
            best = np.inf
            for x in enumerate_assignments(n, k, flags):
                rot = procrustes(x, xt)
                best = min(best, assignment_distance(x, xt @ rot))
            assert result.phi >= best - 1e-9
            hits += result.phi <= best + 1e-9
        assert hits >= trials // 2


class TestObjectives:
    def test_zero_matrix(self):
        assert objective_continuous(np.zeros((4, 2)), np.eye(4)) == 0.0

    def test_identity_projection(self, rng):
        q = random_orthonormal(5, rng)[:, :3]
        assert objective_continuous(q, np.eye(5)) == pytest.approx(3.0)

    def test_rotation_invariance(self, rng):
        a = block_affinity([4, 4], off_value=0.3)
        sol = continuous_solve(a, 2)
        base = objective_continuous(sol.z_star, a)
        for _ in range(10):
            q = random_orthonormal(2, rng)
            assert objective_continuous(sol.z_star @ q, a) == pytest.approx(
                base, abs=1e-8
            )

    def test_scaled_equality_with_discrete_form(self, rng):
        # tr(f(X)^T A f(X)) recovers K times the link-ratio objective
        a = block_affinity([5, 4, 3], off_value=0.2)
        degree, _ = laplacian(a)
        for _ in range(10):
            x = np.zeros((12, 3))
            x[np.arange(12), rng.integers(0, 3, 12)] = 1
            x[:3] = np.eye(3)
            z = degree_normalize(x, degree)
            lhs = objective_continuous(z, a)
            rhs = 3 * objective_discrete(x, a, degree)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_row_normalize_roundtrip_argmax(self, rng):
        x = np.zeros((8, 3))
        x[np.arange(8), rng.integers(0, 3, 8)] = 1
        degree = rng.uniform(0.5, 2.0, 8)
        z = degree_normalize(x, degree)
        back = normalize_rows(z)
        assert np.array_equal(back.argmax(axis=1), x.argmax(axis=1))


class TestTypes:
    def test_assignment_validates_row_sums(self):
        with pytest.raises(ContractError, match="row 0"):
            AssignmentMatrix(np.array([[1, 1]]), OverlapVector.zeros(1))

    def test_assignment_accepts_overlap_rows(self):
        am = AssignmentMatrix(np.array([[1, 1]]), OverlapVector(np.array([1])))
        assert am.k == 2

    @pytest.mark.parametrize(
        "matrix, n_flags, message",
        [(np.array([1, 0]), 2, "assignment must be a matrix"),
         (np.array([[2, -1]]), 1, "assignment entries must be 0 or 1"),
         (np.array([[1, 0]]), 2, "overlap vector length does not match row count")],
    )
    def test_assignment_refuses_a_malformed_matrix(self, matrix, n_flags, message):
        with pytest.raises(ContractError, match=message):
            AssignmentMatrix(matrix, OverlapVector.zeros(n_flags))
