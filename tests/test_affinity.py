import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import block_affinity
from diarcut import affinity
from diarcut.affinity import (
    binarize,
    binarize_sweep,
    build_bundle,
    cosine_affinity,
)
from diarcut.errors import ContractError
from diarcut.ingest import EmbeddingSequence, OverlapVector, SegmentSpan
from oracles import laplacian, overlap_aware_binarize, p_binarize


def seq_from(vectors):
    vectors = np.asarray(vectors, dtype=float)
    spans = [
        SegmentSpan("rec", i, 0.75 * i, 0.75 * i + 1.5)
        for i in range(vectors.shape[0])
    ]
    return EmbeddingSequence(spans, vectors)


class TestCosineAffinity:
    def test_identical_vectors(self):
        a = cosine_affinity(seq_from([[1.0, 2.0], [1.0, 2.0]]))
        assert a[0, 1] == pytest.approx(1.0)

    def test_orthogonal(self):
        a = cosine_affinity(seq_from([[1.0, 0.0], [0.0, 1.0]]))
        assert a[0, 1] == pytest.approx(0.0)

    def test_closed_form(self):
        a = cosine_affinity(seq_from([[1.0, 0.0], [1.0, 1.0]]))
        assert a[0, 1] == pytest.approx(1.0 / np.sqrt(2))

    def test_unit_diagonal_and_symmetry(self, rng):
        a = cosine_affinity(seq_from(rng.standard_normal((12, 6))))
        assert np.array_equal(np.diag(a), np.ones(12))
        assert np.array_equal(a, a.T)

    def test_positive_rescaling_invariance(self, rng):
        vecs = rng.standard_normal((10, 4))
        a1 = cosine_affinity(seq_from(vecs))
        scales = rng.uniform(0.1, 50.0, size=10)
        a2 = cosine_affinity(seq_from(vecs * scales[:, None]))
        assert np.allclose(a1, a2, atol=1e-12)


    @pytest.mark.parametrize("scale", [1e-300, 1e-30, 1e30, 1e300])
    def test_extreme_scales_normalize(self, scale):
        a = cosine_affinity(seq_from([[scale, scale], [scale, -scale], [scale, 0.0]]))
        assert np.allclose(a, [[1, 0, 0.5**0.5], [0, 1, 0.5**0.5], [0.5**0.5, 0.5**0.5, 1]])

    def test_in_range_rows_normalize_exactly(self, rng):
        vecs = rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-30, 30, (20, 1))
        unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
        want = unit @ unit.T
        np.fill_diagonal(want, 1.0)
        assert np.array_equal(cosine_affinity(seq_from(vecs)), want)


class TestPBinarize:
    def test_keep_everything(self, rng):
        a = cosine_affinity(seq_from(rng.standard_normal((6, 3))))
        assert np.array_equal(binarize(a, 6), np.ones((6, 6)))

    def test_hand_enumerated(self):
        a = np.array([[1.0, 0.9, 0.2], [0.9, 1.0, 0.1], [0.2, 0.1, 1.0]])
        expected = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
        assert np.array_equal(binarize(a, 2), expected)

    def test_symmetric_output(self, rng):
        a = rng.uniform(-1, 1, size=(9, 9))
        out = binarize(a, 3)
        assert np.array_equal(out, out.T)

    def test_diagonal_always_kept(self, rng):
        # the diagonal holds the row maximum, so it survives every p
        a = cosine_affinity(seq_from(rng.standard_normal((10, 5))))
        for p in range(1, 11):
            assert np.array_equal(np.diag(binarize(a, p)), np.ones(10))

    def test_support_monotone_in_p(self, rng):
        a = cosine_affinity(seq_from(rng.standard_normal((8, 4))))
        prev = binarize(a, 1) > 0
        for p in range(2, 9):
            cur = binarize(a, p) > 0
            assert (cur | prev == cur).all()
            prev = cur

    def test_tie_class_kept_whole(self):
        # duplicate similarities at the cutoff all survive, independent of order
        a = np.array(
            [
                [1.0, 0.8, 0.8, 0.1],
                [0.8, 1.0, 0.9, 0.85],
                [0.8, 0.9, 1.0, 0.85],
                [0.1, 0.85, 0.85, 1.0],
            ]
        )
        out = binarize(a, 2)
        # row 0 keeps its whole 0.8 class; rows 1 and 2 do not select row 0
        assert out[0, 1] == 0.5 and out[0, 2] == 0.5

    def test_p_out_of_range(self):
        with pytest.raises(ContractError):
            binarize(np.eye(3), 4)
        with pytest.raises(ContractError):
            binarize(np.eye(3), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_affinity_rejected(self, bad):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(ContractError, match="finite"):
            binarize(a, 2)
        # both rows flagged: the -inf mask of flagged pairs would cover the entry
        with pytest.raises(ContractError, match="finite"):
            binarize(a, 1, OverlapVector(np.array([1, 1, 0])))

    def test_non_square_affinity_rejected(self):
        with pytest.raises(ContractError, match="square"):
            binarize(np.ones((2, 3)), 1)


class TestOverlapAwareBinarize:
    def test_no_flags_matches_plain(self, rng):
        a = cosine_affinity(seq_from(rng.standard_normal((8, 4))))
        ov = OverlapVector.zeros(8)
        assert np.array_equal(binarize(a, 3, ov), binarize(a, 3))

    def test_flagged_rows_avoid_flagged_columns(self, rng):
        a = cosine_affinity(seq_from(rng.standard_normal((10, 4))))
        flags = np.zeros(10, dtype=int)
        flags[[2, 5]] = 1
        out = binarize(a, 2, OverlapVector(flags))
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
        a = binarize(cosine_affinity(seq_from(rng.standard_normal((15, 5)))), 4)
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

    Each case runs twice: as built below SPARSE_MIN_N (dense), and with
    SPARSE_MIN_N forced to 0, where every graph is CSR and must hold exactly
    the arrays scipy builds from the dense reference; and each of those with
    the default row blocks and with blocks of three rows.
    """

    def _check(self, a, rng):
        n = a.shape[0]
        # three-row blocks put block edges inside these small matrices
        for csr, block_rows in itertools.product((False, True), (affinity.BLOCK_ROWS, 3)):
            same = same_csr if csr else np.array_equal
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(affinity, "BLOCK_ROWS", block_rows)
                if csr:
                    mp.setattr(affinity, "SPARSE_MIN_N", 0)
                sweep = binarize_sweep(a, range(1, n + 1))
                for p, graph in zip(range(1, n + 1), sweep):
                    want = p_binarize(a, p)
                    assert same(binarize(a, p), want)
                    assert same(graph, want)
                    for flags in flag_cases(n, rng):
                        ov = OverlapVector(flags)
                        want = overlap_aware_binarize(a, p, ov)
                        assert same(binarize(a, p, ov), want), (p, flags, csr)
                        assert same(build_bundle(a, p, ov).binarized, want)
                # budgets out of order, counts mixed with per-row counts: each
                # graph keeps its own cutoff from the loosest one's candidates
                budgets = [min(9, n), min(3, n), rng.integers(1, n + 1, n), 1]
                for budget, graph in zip(budgets, binarize_sweep(a, budgets), strict=True):
                    assert same(graph, p_binarize(a, budget)), (budget, csr)

    def test_random_affinities(self, rng):
        for n in (2, 3, 7, 16):
            self._check(cosine_affinity(seq_from(rng.standard_normal((n, 4)))), rng)

    def test_quantized_affinities_with_ties(self, rng):
        # one decimal leaves many equal values per row, so the tie rule decides
        for n in (5, 12):
            raw = np.round(rng.uniform(-1, 1, size=(n, n)), 1)
            a = 0.5 * (raw + raw.T)
            np.fill_diagonal(a, 1.0)
            self._check(a, rng)

    def test_duplicate_vectors(self, rng):
        vecs = rng.standard_normal((4, 3))
        self._check(cosine_affinity(seq_from(vecs[rng.integers(0, 4, 11)])), rng)

    def test_flag_length_mismatch(self):
        with pytest.raises(ContractError, match="length"):
            binarize(np.eye(3), 1, OverlapVector.zeros(2))


def test_csr_sweep_candidates_take_int32_indices():
    # every entry of an all-ones affinity is a candidate; with int64 candidate
    # rows and columns the sweep peaks near 16 N x N float64 arrays, with int32 near 10
    n = 720
    assert n >= affinity.SPARSE_MIN_N
    ones = np.ones((n, n))
    next(binarize_sweep(ones, [20]))  # lazy scipy imports
    tracemalloc.start()
    try:
        next(binarize_sweep(ones, [20]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13 * n * n * 8


B = affinity.BLOCK_ROWS


def flags_at(n, rows):
    flags = np.zeros(n, dtype=int)
    flags[list(rows)] = 1
    return OverlapVector(flags)


class TestBlockedSweep:
    """Row blocks at their real size: every graph equals the oracles'.

    Each size runs with the graphs forced dense and forced CSR; the sizes sit
    on both sides of one and two block edges and of SPARSE_MIN_N.
    """

    @pytest.fixture(params=["dense", "csr"])
    def same(self, request, monkeypatch):
        csr = request.param == "csr"
        monkeypatch.setattr(affinity, "SPARSE_MIN_N", 0 if csr else 10**9)
        return same_csr if csr else np.array_equal

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1,
                                   affinity.SPARSE_MIN_N - 1, affinity.SPARSE_MIN_N])
    def test_matches_oracles(self, n, same, rng):
        a = cosine_affinity(seq_from(rng.standard_normal((n, 6))))
        budgets = [20, 2, rng.integers(1, 9, n)]
        for budget, graph in zip(budgets, binarize_sweep(a, budgets), strict=True):
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
                assert same(binarize(a, p, ov), overlap_aware_binarize(a, p, ov)), (name, p)

    @pytest.mark.parametrize("n", [B + 1, 2 * B + 1, affinity.SPARSE_MIN_N + 1])
    def test_index_reads_the_submatrix(self, n, same, rng):
        a = cosine_affinity(seq_from(rng.standard_normal((n, 6))))
        for index in (np.flatnonzero(rng.uniform(size=n) < 0.85),  # sorted, as counting passes it
                      rng.permutation(n)[: n - 3]):
            sub = a[np.ix_(index, index)]
            budgets = [2, 20, rng.integers(1, 9, index.size)]
            for budget, graph in zip(budgets, binarize_sweep(a, budgets, index), strict=True):
                assert same(graph, p_binarize(sub, budget))


class TestFiniteContractPerBlock:
    """A non-finite value anywhere is refused, whichever block holds it."""

    N = 2 * B + 1  # the last block holds one row

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_last_block_checked(self, bad, rng):
        a = cosine_affinity(seq_from(rng.standard_normal((self.N, 4))))
        a[self.N - 1, 5] = bad
        with pytest.raises(ContractError, match="finite"):
            binarize(a, 3)
        with pytest.raises(ContractError, match="finite"):
            binarize(a, 3, flags_at(self.N, [1, 2]))
        with pytest.raises(ContractError, match="finite"):
            next(binarize_sweep(a, [3]))

    def test_nan_between_flagged_rows_checked_before_the_mask(self, rng):
        # -inf masks flagged x flagged pairs; the NaN under the mask must still count
        a = cosine_affinity(seq_from(rng.standard_normal((self.N, 4))))
        i, j = self.N - 1, B + 3
        a[i, j] = a[j, i] = np.nan
        with pytest.raises(ContractError, match="finite"):
            binarize(a, 3, flags_at(self.N, [i, j]))
