import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import block_affinity, on_circle, traced_peak
from diarcut import affinity
from diarcut.affinity import (
    binarize,
    binarize_sweep,
    build_bundle,
    cosine_affinity,
    normalize_rows,
)
from diarcut.errors import ContractError, NumericalError
from diarcut.ingest import OverlapVector
from diarcut.synth import SynthConfig, generate
from oracles import full_affinity, laplacian, overlap_aware_binarize, p_binarize


class TestCosineAffinity:
    def test_identical_vectors(self):
        u = normalize_rows([[1.0, 2.0], [1.0, 2.0]])
        assert u[0] @ u[1] == pytest.approx(1.0)

    def test_orthogonal(self):
        u = normalize_rows([[1.0, 0.0], [0.0, 1.0]])
        assert u[0] @ u[1] == pytest.approx(0.0)

    def test_closed_form(self):
        u = normalize_rows([[1.0, 0.0], [1.0, 1.0]])
        assert u[0] @ u[1] == pytest.approx(1.0 / np.sqrt(2))

    def test_unit_norm_rows(self, rng):
        u = normalize_rows(rng.standard_normal((12, 6)))
        assert u.shape == (12, 6)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_positive_rescaling_invariance(self, rng):
        vecs = rng.standard_normal((10, 4))
        scales = rng.uniform(0.1, 50.0, size=10)
        assert np.allclose(normalize_rows(vecs), normalize_rows(vecs * scales[:, None]), atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e-30, 1e30, 1e300])
    def test_extreme_scales_normalize(self, scale):
        u = normalize_rows([[scale, scale], [scale, -scale], [scale, 0.0]])
        r = 0.5**0.5
        assert np.allclose(u, [[r, r], [r, -r], [1, 0]])

    def test_in_range_rows_normalize_exactly(self, rng):
        vecs = rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-30, 30, (20, 1))
        unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
        assert np.array_equal(normalize_rows(vecs), unit)


class TestPBinarize:
    def test_keep_everything(self, rng):
        u = normalize_rows(rng.standard_normal((6, 3)))
        assert np.array_equal(binarize(u, 6), np.ones((6, 6)))

    def test_hand_enumerated(self):
        # rows 0 and 1 lie 0.45 rad apart (cosine 0.90), row 2 at -1.37 rad
        # (cosine 0.20 with row 0, -0.25 with row 1)
        u = on_circle(0.0, 0.45, -1.37)
        expected = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
        assert np.array_equal(binarize(u, 2), expected)

    def test_symmetric_output(self, rng):
        out = binarize(normalize_rows(rng.standard_normal((9, 3))), 3)
        assert np.array_equal(out, out.T)

    def test_diagonal_always_kept(self, rng):
        # the diagonal holds the row maximum, so it survives every p
        u = normalize_rows(rng.standard_normal((10, 5)))
        for p in range(1, 11):
            assert np.array_equal(np.diag(binarize(u, p)), np.ones(10))

    def test_support_monotone_in_p(self, rng):
        u = normalize_rows(rng.standard_normal((8, 4)))
        prev = binarize(u, 1) > 0
        for p in range(2, 9):
            cur = binarize(u, p) > 0
            assert (cur | prev == cur).all()
            prev = cur

    def test_tie_class_kept_whole(self):
        # rows 1 and 2 mirror each other about row 0's plane: both have cosine
        # 0.3 with row 0, and each is closer to row 3 (0.9) than to row 0
        b = 0.1**0.5
        u = np.array([[1.0, 0.0, 0.0], [0.3, b, 0.9], [0.3, -b, 0.9], [0.0, 0.0, 1.0]])
        out = binarize(u, 2)
        # row 0 keeps its whole 0.3 class; rows 1 and 2 do not select row 0
        assert out[0, 1] == 0.5 and out[0, 2] == 0.5

    def test_p_out_of_range(self):
        with pytest.raises(ContractError):
            binarize(np.eye(3), 4)
        with pytest.raises(ContractError):
            binarize(np.eye(3), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_affinity_rejected(self, bad):
        u = np.eye(3)
        u[0, 1] = bad
        with pytest.raises(ContractError, match="finite"):
            binarize(u, 2)

    def test_overflow_between_flagged_rows_rejected(self):
        # rows 0 and 1 multiply to 1e400 = inf and nothing else overflows;
        # both rows flagged, the -inf mask of flagged pairs would cover the entry
        u = np.array([[1e200, 0.0, 0.0], [1e200, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ContractError, match="finite"):
            binarize(u, 1, OverlapVector(np.array([1, 1, 0])))

    def test_rows_not_a_matrix_rejected(self):
        with pytest.raises(ContractError, match="2-D"):
            binarize(np.ones(3), 1)


class TestOverlapAwareBinarize:
    def test_no_flags_matches_plain(self, rng):
        u = normalize_rows(rng.standard_normal((8, 4)))
        ov = OverlapVector.zeros(8)
        assert np.array_equal(binarize(u, 3, ov), binarize(u, 3))

    def test_flagged_rows_avoid_flagged_columns(self, rng):
        u = normalize_rows(rng.standard_normal((10, 4)))
        flags = np.zeros(10, dtype=int)
        flags[[2, 5]] = 1
        out = binarize(u, 2, OverlapVector(flags))
        # row 2 selected nothing among flagged columns; only the averaged
        # back-edge from an unflagged row could touch (2, 5)
        assert out[2, 5] <= 0.5
        assert np.array_equal(out, out.T)


class TestLaplacian:
    def test_identity(self):
        degree, lap = laplacian(np.eye(3))
        assert np.array_equal(degree, np.ones(3))
        assert np.array_equal(lap, np.zeros((3, 3)))

    def test_two_node_clique(self):
        degree, lap = laplacian(np.ones((2, 2)))
        assert np.array_equal(degree, [2.0, 2.0])
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])
        assert sorted(np.linalg.eigvalsh(lap)) == pytest.approx([0.0, 2.0])

    def test_smallest_eigenvalue_zero(self, rng):
        # lambda_1 = 0 for any symmetric nonnegative graph (eigensolver oracle)
        for _ in range(5):
            raw = rng.uniform(0, 1, size=(12, 12))
            sym = 0.5 * (raw + raw.T)
            _, lap = laplacian(sym)
            assert abs(np.linalg.eigvalsh(lap)[0]) < 1e-8

    def test_rows_sum_to_zero_and_psd(self, rng):
        a = binarize(normalize_rows(rng.standard_normal((15, 5))), 4)
        _, lap = laplacian(a)
        assert np.abs(lap @ np.ones(15)).max() < 1e-9
        for _ in range(20):
            x = rng.standard_normal(15)
            assert x @ lap @ x >= -1e-8

    def test_asymmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ContractError, match="symmetric"):
            laplacian(bad)

    def test_block_diagonal_zero_multiplicity(self):
        _, lap = laplacian(block_affinity([3, 4]))
        lam = np.linalg.eigvalsh(lap)
        assert (np.abs(lam[:2]) < 1e-9).all() and lam[2] > 0.5


def flag_cases(n, rng):
    """None, all and random flags, plus flags leaving one single column."""
    one_single = np.ones(n, dtype=int)
    one_single[rng.integers(n)] = 0
    return [
        np.zeros(n, dtype=int),
        np.ones(n, dtype=int),
        one_single,
        rng.integers(0, 2, n),
        (rng.uniform(size=n) < 0.2).astype(int),
    ]


def same_csr(got, want: np.ndarray) -> bool:
    """Whether a CSR graph holds exactly the arrays scipy builds from ``want``."""
    from scipy import sparse

    ref = sparse.csr_matrix(want)
    return got.format == "csr" and all(
        np.array_equal(getattr(got, name), getattr(ref, name))
        for name in ("indptr", "indices", "data")
    )


class TestBinarizeMatchesReference:
    """binarize equals the seed's row-by-row binarizers entry for entry.

    The binarizers take unit rows; the references take their whole affinity.
    Each case runs twice: as built below SPARSE_MIN_N (dense), and with
    SPARSE_MIN_N forced to 0, where every graph is CSR and must hold exactly
    the arrays scipy builds from the dense reference; and each of those with
    the default row blocks and with blocks of three rows.
    """

    def _check(self, u, rng):
        n = u.shape[0]
        a = full_affinity(u)
        # three-row blocks put block edges inside these small matrices
        for csr, block_rows in itertools.product((False, True), (affinity.BLOCK_ROWS, 3)):
            same = same_csr if csr else np.array_equal
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(affinity, "BLOCK_ROWS", block_rows)
                if csr:
                    mp.setattr(affinity, "SPARSE_MIN_N", 0)
                sweep = binarize_sweep(u, range(1, n + 1))
                for p, graph in zip(range(1, n + 1), sweep):
                    want = p_binarize(a, p)
                    assert same(binarize(u, p), want)
                    assert same(graph, want)
                    for flags in flag_cases(n, rng):
                        ov = OverlapVector(flags)
                        want = overlap_aware_binarize(a, p, ov)
                        assert same(binarize(u, p, ov), want), (p, flags, csr)
                        assert same(build_bundle(u, p, ov).binarized, want)
                # budgets out of order, counts mixed with per-row counts: each
                # graph keeps its own cutoff from the loosest one's candidates
                budgets = [min(9, n), min(3, n), rng.integers(1, n + 1, n), 1]
                for budget, graph in zip(budgets, binarize_sweep(u, budgets), strict=True):
                    assert same(graph, p_binarize(a, budget)), (budget, csr)

    def test_random_affinities(self, rng):
        for n in (2, 3, 7, 16):
            self._check(normalize_rows(rng.standard_normal((n, 4))), rng)

    def test_quantized_affinities_with_ties(self, rng):
        # integer vectors in {-1, 0, 1}^3 leave many equal cosines per row,
        # equal to a few ulps, so the tie rule decides
        for n in (5, 12):
            vecs = rng.integers(-1, 2, size=(4 * n, 3))
            self._check(normalize_rows(vecs[np.abs(vecs).sum(axis=1) > 0][:n]), rng)

    def test_duplicate_vectors(self, rng):
        vecs = rng.standard_normal((4, 3))
        self._check(normalize_rows(vecs[rng.integers(0, 4, 11)]), rng)

    def test_flag_length_mismatch(self):
        with pytest.raises(ContractError, match="length"):
            binarize(np.eye(3), 1, OverlapVector.zeros(2))


def test_csr_sweep_candidates_take_int32_indices():
    # every entry of an all-ones affinity is a candidate; with int64 candidate
    # rows and columns the sweep peaks near 16 N x N float64 arrays, with int32 near 10
    n = 720
    assert n >= affinity.SPARSE_MIN_N
    ones = np.ones((n, 1))  # n equal unit rows
    next(binarize_sweep(ones, [20]))  # lazy scipy imports
    _, peak = traced_peak(lambda: next(binarize_sweep(ones, [20])))
    assert peak < 13 * n * n * 8


def test_sweep_peak_is_a_few_row_blocks():
    # a counting sweep over a CSR-sized flagged recording: a block of
    # affinities, its partitioned copy and the candidates set the peak, about
    # 5 blocks of 64 rows (6 with 128-row blocks and a masked copy of each),
    # far below the 2000 rows of one N x N array
    data = generate(SynthConfig(n_speakers=4, n_segments=2000, noise_sigma=0.15,
                                overlap_fraction=0.15, seed=1))
    u = cosine_affinity(data.embeddings)
    n = len(u)
    assert n >= affinity.SPARSE_MIN_N
    next(binarize_sweep(u, [20]))  # lazy scipy imports

    def sweep():
        for _ in binarize_sweep(u, range(1, 21), flagged=data.overlap.flags == 1):
            pass

    _, peak = traced_peak(sweep)
    assert peak < 5.5 * 64 * n * 8


B = affinity.BLOCK_ROWS


def flags_at(n, rows):
    flags = np.zeros(n, dtype=int)
    flags[list(rows)] = 1
    return OverlapVector(flags)


class TestBlockedSweep:
    """Row blocks at their real size: every graph equals the oracles' on the
    whole affinity u u^T, although each block's products are computed apart.

    Each size runs with the graphs forced dense and forced CSR; the sizes sit
    on both sides of the fourth block edge, past the eighth and on both
    sides of SPARSE_MIN_N.
    """

    @pytest.fixture(params=["dense", "csr"])
    def same(self, request, monkeypatch):
        csr = request.param == "csr"
        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0 if csr else 10**9)
        return same_csr if csr else np.array_equal

    @pytest.mark.parametrize("n", [4 * B - 1, 4 * B, 4 * B + 1, 8 * B + 1,
                                   affinity.SPARSE_MIN_N - 1, affinity.SPARSE_MIN_N])
    def test_matches_oracles(self, n, same, rng):
        u = normalize_rows(rng.standard_normal((n, 6)))
        a = full_affinity(u)
        budgets = [20, 2, rng.integers(1, 9, n)]
        for budget, graph in zip(budgets, binarize_sweep(u, budgets), strict=True):
            assert same(graph, p_binarize(a, budget))
        flag_sets = {
            "random": np.flatnonzero(rng.uniform(size=n) < 0.15),
            "first block": range(0, min(B, n), 7),
            "last block": range(n - 1, max(n - 1 - B, 0), -5),
            "across an edge": range(B - 4, min(B + 4, n)),
        }
        for name, rows in flag_sets.items():
            ov = flags_at(n, rows)
            for p in (1, 3, 20):
                assert same(binarize(u, p, ov), overlap_aware_binarize(a, p, ov)), (name, p)

    @pytest.mark.parametrize("m", [4 * B - 1, 4 * B, 4 * B + 1, 8 * B + 1,
                                   affinity.SPARSE_MIN_N + 1])
    def test_index_reads_the_submatrix(self, m, same, rng):
        # m rows gathered out of m + 7, as counting gathers the single-speaker
        # rows, against the oracle on the same rows and columns of the whole
        # affinity
        n = m + 7
        u = normalize_rows(rng.standard_normal((n, 6)))
        a = full_affinity(u)
        for index in (np.sort(rng.choice(n, m, replace=False)),  # sorted, as counting passes it
                      rng.permutation(n)[:m]):
            sub = a[np.ix_(index, index)]
            budgets = [2, 20, rng.integers(1, 9, m)]
            for budget, graph in zip(budgets, binarize_sweep(u[index], budgets), strict=True):
                assert same(graph, p_binarize(sub, budget))

    def test_diagonal_kept_when_an_index_shifts_the_blocks(self, same, rng):
        # rows of norm 0.5 multiply to at most 0.25, so a row's top value is
        # the 1 written on its diagonal only if that 1 lands in its own
        # column; the 2B + 2 gathered rows fill three blocks, the last of two
        n = 2 * B + 7
        half = 0.5 * normalize_rows(rng.standard_normal((n, 6)))
        index = rng.permutation(n)[5:]
        graphs = list(binarize_sweep(half[index], [1, 3, 20, rng.integers(1, 9, index.size)]))
        assert same(graphs[0], np.eye(index.size))
        for graph in graphs:
            diag = graph.diagonal() if hasattr(graph, "diagonal") else np.diag(graph)
            assert np.array_equal(diag, np.ones(index.size))


class TestFiniteContractPerBlock:
    """A non-finite value anywhere is refused, whichever block holds it.

    Rows of +-1e200 multiply to finite values with the unit rows, and with
    each other to +-inf, or to nan where two such terms cancel: two of them
    put a non-finite value at two entries only.
    """

    N = 2 * B + 3  # the last block holds three rows
    FIRST = [1e200, 1e200, 0.0, 0.0]
    SECOND = {np.inf: FIRST, -np.inf: [-1e200, -1e200, 0.0, 0.0],
              "nan": [1e200, -1e200, 0.0, 0.0]}

    def overflowing(self, i, j, bad, rng):
        u = normalize_rows(rng.standard_normal((self.N, 4)))
        u[i], u[j] = self.FIRST, self.SECOND[bad]
        return u

    @pytest.mark.parametrize("bad", ["nan", np.inf, -np.inf])
    def test_last_block_checked(self, bad, rng):
        u = self.overflowing(self.N - 2, self.N - 1, bad, rng)  # both in the last block
        with pytest.raises(ContractError, match="finite"):
            binarize(u, 3)
        with pytest.raises(ContractError, match="finite"):
            binarize(u, 3, flags_at(self.N, [1, 2]))
        with pytest.raises(ContractError, match="finite"):
            next(binarize_sweep(u, [3]))
        next(binarize_sweep(u[:-1], [3]))  # one such row alone is finite everywhere

    def test_nan_between_flagged_rows_checked_before_the_mask(self, rng):
        # -inf masks flagged x flagged pairs; the nan under the mask must still count
        i, j = self.N - 1, B + 3
        u = self.overflowing(i, j, "nan", rng)
        with pytest.raises(ContractError, match="finite"):
            binarize(u, 3, flags_at(self.N, [i, j]))


class TestComponentLabels:
    """Graphs of both formats label their components in numpy, numbered as
    csgraph does; csgraph stays here as the oracle."""

    @staticmethod
    def csgraph_labels(graph):
        from scipy.sparse import csgraph

        return csgraph.connected_components(graph, directed=False)[1]

    @pytest.mark.parametrize("flags", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_binarized_graphs(self, flags, seed):
        from diarcut.synth import SynthConfig, generate

        data = generate(SynthConfig(n_speakers=6, n_segments=150, noise_sigma=0.05,
                                    overlap_fraction=0.2, seed=seed))
        overlap = data.overlap if flags else None
        for p in (2, 3, 5, 9):
            graph = binarize(cosine_affinity(data.embeddings), p, overlap)
            # unflagged rows link to themselves; flagged rows pick single columns only
            loops = np.diag(graph) > 0
            assert np.array_equal(loops, ~(data.overlap.flags == 1) if flags else np.ones(150, bool))
            assert np.array_equal(affinity.component_labels(graph), self.csgraph_labels(graph))

    @pytest.mark.parametrize("self_loops", [False, True])
    def test_random_graphs_with_isolated_nodes(self, self_loops, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            upper = np.triu(rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.08), 1)
            graph = 0.5 * (upper + upper.T)
            if self_loops:
                graph[np.diag_indices(n)] = rng.integers(0, 2, n)
            assert np.array_equal(affinity.component_labels(graph), self.csgraph_labels(graph))

    def test_long_paths_in_scrambled_order(self, rng):
        n = 300
        order = rng.permutation(n)
        graph = np.zeros((n, n))
        for path in np.split(order, [100, 250]):  # three paths; the last of 50 nodes
            graph[path[:-1], path[1:]] = graph[path[1:], path[:-1]] = 1.0
        labels = affinity.component_labels(graph)
        assert np.array_equal(labels, self.csgraph_labels(graph))
        assert labels.max() == 2

    def test_csr_graphs_match_csgraph(self, monkeypatch, rng):
        from scipy import sparse
        from diarcut.synth import SynthConfig, generate

        graph = block_affinity([3, 1, 4])[::-1, ::-1]
        labels = affinity.component_labels(sparse.csr_matrix(graph))
        assert np.array_equal(labels, [0, 0, 0, 0, 1, 2, 2, 2])
        assert np.array_equal(labels, affinity.component_labels(graph))
        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0)
        data = generate(SynthConfig(n_speakers=6, n_segments=150, noise_sigma=0.05,
                                    overlap_fraction=0.2, seed=1))
        for p in (1, 2, 3, 5, 9):
            graph = binarize(cosine_affinity(data.embeddings), p, data.overlap)
            assert sparse.issparse(graph)
            assert np.array_equal(affinity.component_labels(graph), self.csgraph_labels(graph))
        for _ in range(10):
            n = int(rng.integers(3, 300))
            upper = sparse.triu(sparse.random(n, n, density=rng.uniform(0.0, 3.0 / n), rng=rng), 1)
            graph = (upper + upper.T).tocsr()
            assert np.array_equal(affinity.component_labels(graph), self.csgraph_labels(graph))

    def test_stored_zeros_are_no_edges(self):
        # two blocks of 4 whose cross entries are stored zeros: csgraph takes
        # them as edges; the dense twin cannot hold them, and the labels agree
        from scipy import sparse

        rows, cols = np.nonzero(np.kron(np.eye(2), np.ones((4, 4))))
        data = np.r_[np.ones(rows.size), 0.0, 0.0]
        graph = sparse.csr_matrix((data, (np.r_[rows, 0, 4], np.r_[cols, 4, 0])), shape=(8, 8))
        assert graph.nnz == rows.size + 2
        labels = affinity.component_labels(graph)
        assert np.array_equal(labels, [0] * 4 + [1] * 4)
        assert np.array_equal(labels, affinity.component_labels(graph.toarray()))
        assert self.csgraph_labels(graph).max() == 0


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_every_binarized_row_sums_to_at_least_a_half(data):
    # continuous_solve refuses a node without positive degree; this is why the
    # pipeline never builds one: every row keeps at least one entry
    from scipy import sparse

    n = data.draw(st.integers(1, 12))
    pool = data.draw(arrays(float, (data.draw(st.integers(1, n)), 3), elements=st.integers(-2, 2)))
    pool[~pool.any(axis=1), 0] = 1.0
    # rows drawn from a small pool repeat, so whole rows of affinities tie
    vectors = pool[data.draw(arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))]
    u = normalize_rows(vectors)
    p = data.draw(st.integers(1, n))
    mode = data.draw(st.sampled_from(["none", "random", "all but one", "all"]))
    flags = {
        "none": None,
        "random": data.draw(arrays(np.int8, n, elements=st.integers(0, 1))),
        "all but one": (np.arange(n) != data.draw(st.integers(0, n - 1))).astype(np.int8),
        "all": np.ones(n, dtype=np.int8),
    }[mode]
    csr = data.draw(st.booleans())
    with pytest.MonkeyPatch.context() as mp:
        if csr:
            mp.setattr(affinity, "SPARSE_MIN_N", 0)
        graphs = [binarize(u, p, None if flags is None else OverlapVector(flags))]
        graphs += list(binarize_sweep(u, range(1, n + 1)))
    for graph in graphs:
        assert sparse.issparse(graph) == csr
        assert np.asarray(graph.sum(axis=1)).min() >= 0.5


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_every_swept_row_links_to_another_row_from_p_two(data):
    # at p >= 2 a row keeps itself and at least one other row, so every component
    # has two or more rows and no swept Laplacian is zero; speaker counting rests on it
    n = data.draw(st.integers(2, 12))
    pool = data.draw(arrays(float, (data.draw(st.integers(1, n)), 3), elements=st.integers(-2, 2)))
    pool[~pool.any(axis=1), 0] = 1.0
    # rows drawn from a small pool repeat exactly, so whole rows of affinities tie
    vectors = pool[data.draw(arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))]
    csr = data.draw(st.booleans())
    with pytest.MonkeyPatch.context() as mp:
        if csr:
            mp.setattr(affinity, "SPARSE_MIN_N", 0)
        graphs = list(binarize_sweep(normalize_rows(vectors), range(2, n + 1)))
    for graph in graphs:
        off = graph.toarray() if csr else graph.copy()
        np.fill_diagonal(off, 0.0)
        assert (off > 0).any(axis=1).all()


def test_lanczos_is_not_asked_for_every_eigenpair():
    # ARPACK finds at most N - 1 pairs; every pipeline call deflates at least one component
    from scipy import sparse

    graph = sparse.csr_matrix(np.eye(5))
    with pytest.raises(NumericalError, match="Lanczos finds at most 4 eigenpairs of 5 rows; 5 asked"):
        affinity.graph_eigh(graph, 5, "LA")


def test_eigenvector_solves_run_to_machine_precision():
    # counting's eigenvalue-only solves stop at ARPACK_TOL; the clustering
    # solve's must not: three components, and Lanczos finds three more pairs
    from scipy import sparse

    parts = [generate(SynthConfig(n_speakers=2, n_segments=150, noise_sigma=0.15, seed=seed))
             for seed in (1, 2)]
    graph = sparse.block_diag([binarize(cosine_affinity(d.embeddings), 10) for d in parts], format="csr")
    d = np.asarray(graph.sum(axis=1)).ravel()
    sym = sparse.csr_matrix(graph.multiply(1 / np.sqrt(d)[:, None]).multiply(1 / np.sqrt(d)))
    c, values, vectors = affinity.graph_eigh(sym, 6, "LA", np.sqrt(d), -3.0, vectors=True)
    assert c == 3 and values.shape == (3,)
    lam = np.concatenate([np.ones(c), values])
    assert np.linalg.norm(sym @ vectors - vectors * lam, axis=0).max() <= 1e-12
