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
        want = 0.5 * (want + want.T)
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
    the arrays scipy builds from the dense reference.
    """

    def _check(self, a, rng):
        n = a.shape[0]
        for csr in (False, True):
            same = same_csr if csr else np.array_equal
            with pytest.MonkeyPatch.context() as mp:
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
