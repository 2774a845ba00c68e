import numpy as np
import pytest

from structcov import (
    BandedSpec,
    InfeasibleConstraintError,
    InvalidInputError,
    MMSettings,
    NumericalFailureError,
    SampleSet,
    banded_inner_update,
    diagonal_spread,
    estimate_banded_toeplitz,
    estimate_linear,
    estimate_toeplitz,
    sample_elliptical,
    toeplitz_basis,
    tyler_cost,
    tyler_unconstrained,
)
from structcov.linalg import dft_matrix
from structcov.rankone import _weights
from structcov.simulate import ar_cov, banded_ar_cov, nmse
from structcov.toeplitz import build_embedding
from structcov.tyler import TERMINATION_CONVERGED, Iterate
from support import barrier_equality_solve, nonincreasing


class TestEmbedding:
    def test_k1(self):
        emb = build_embedding(1, 1)
        assert np.allclose(emb.a_matrix, [[1.0]])

    def test_k2_l3_rows_of_dft(self):
        emb = build_embedding(2)
        assert emb.l == 3
        assert np.allclose(emb.a_matrix, dft_matrix(3)[:2, :], atol=1e-15)

    @pytest.mark.parametrize("k,l", [(2, 3), (8, 15), (5, 12)])
    def test_column_conjugacy(self, k, l):
        emb = build_embedding(k, l)
        A = emb.a_matrix
        for j in range(1, l):
            assert np.allclose(A[:, j], A[:, l - j].conj(), atol=1e-12)

    def test_symmetric_powers_give_toeplitz(self):
        rng = np.random.default_rng(0)
        emb = build_embedding(8, 15)
        p = emb.unfold(rng.uniform(0.0, 2.0, size=8))
        R = emb.assemble(p)
        assert diagonal_spread(R) <= 1e-12
        assert np.max(np.abs(R.imag)) <= 1e-12

    def test_any_nonnegative_powers_give_toeplitz(self):
        rng = np.random.default_rng(1)
        emb = build_embedding(6)
        p = rng.uniform(0.0, 1.0, size=emb.l)
        assert diagonal_spread(emb.assemble(p)) <= 1e-12

    def test_too_small_embedding_rejected(self):
        with pytest.raises(InvalidInputError):
            build_embedding(5, 8)

    def test_fold_unfold_roundtrip(self):
        # unfold maps folded variables to a symmetric power vector, and the
        # variable transform itself is p~_0 = p_0 / sqrt(2), p~_j = p_j
        rng = np.random.default_rng(2)
        for k in (4, 5, 6):
            emb = build_embedding(k)
            folded = rng.uniform(0.1, 1.0, size=emb.n_folded)
            p = emb.unfold(folded)
            for j in range(1, emb.l):
                assert p[j] == p[emb.l - j]
            refolded_vars = np.r_[p[0] / np.sqrt(2.0), p[1 : emb.n_folded]]
            assert np.allclose(refolded_vars, folded)


class TestSurrogateSymmetry:
    def test_weights_symmetric_on_real_data(self):
        # conjugate-pair symmetry of w and d, checked along a few iterations
        emb = build_embedding(6)
        d_obj = emb.a_matrix
        X = sample_elliptical(ar_cov(6, 0.6), 60, seed=3)
        p = np.ones(emb.l)
        for _ in range(5):
            R = emb.assemble(p)
            tr = np.trace(R).real
            R = R / tr
            p = p / tr
            it = Iterate.at(R, X)
            w, d = _weights(d_obj, p, it)
            for j in range(1, emb.l):
                assert abs(w[j] - w[emb.l - j]) <= 1e-10 * max(1.0, abs(w[j]))
                assert abs(d[j] - d[emb.l - j]) <= 1e-10 * max(1.0, abs(d[j]))
            p = np.sqrt(d / w)


def _pair_sums(full, l, self_paired):
    """Half-dictionary values from full-spectrum ones: the pair sums, and
    ``self_paired`` applied at index 0 and an even-L midpoint."""
    j = np.arange(l // 2 + 1)
    partner = (l - j) % l
    return np.where(partner == j, self_paired(full[j]), full[j] + full[partner])


class TestHalfDictionary:
    @pytest.mark.parametrize("l", [11, 12])
    def test_weights_are_pair_sums_of_the_full_weights(self, l):
        # at the same iterate, w~ and d~ of B are the folded w and d of A
        emb = build_embedding(6, l)
        X = sample_elliptical(ar_cov(6, 0.6), 40, seed=l)
        p_half = np.random.default_rng(l).uniform(0.2, 2.0, emb.n_folded)
        p = emb.unfold(p_half)
        R = emb.assemble(p)
        assert np.max(np.abs(R.imag)) <= 1e-14
        w, d = _weights(emb.a_matrix, p, Iterate.at(R, X))
        w_half, d_half = _weights(emb.half_matrix, p_half, Iterate.at(R.real, X))
        assert np.allclose(w_half, _pair_sums(w, l, lambda v: np.sqrt(2.0) * v), rtol=1e-13)
        assert np.allclose(d_half, _pair_sums(d, l, lambda v: v / np.sqrt(2.0)), rtol=1e-13)

    @pytest.mark.parametrize("k,l", [(6, 11), (6, 12), (15, 29), (15, 30)])
    def test_real_assembly_equals_the_full_assembly(self, k, l):
        emb = build_embedding(k, l)
        p_half = np.random.default_rng(k + l).uniform(0.0, 2.0, emb.n_folded)
        B = emb.half_matrix
        R_half = ((B * p_half) @ B.conj().T).real
        assert np.max(np.abs(R_half - emb.assemble(emb.unfold(p_half)))) <= 1e-14
        # the identity spectrum assembles I, so the ridge eps*I stays eps*I
        ident = emb.identity_spectrum
        assert np.max(np.abs(((B * ident) @ B.conj().T).real - np.eye(k))) <= 1e-14
        assert np.array_equal(emb.unfold(ident), np.ones(l))

    @pytest.mark.parametrize("l", [None, 16])
    @pytest.mark.parametrize(
        "fit",
        [estimate_toeplitz, lambda X, **kw: estimate_banded_toeplitz(X, 3, **kw)],
        ids=["toeplitz", "banded"],
    )
    def test_real_fits_are_real_with_a_symmetric_spectrum(self, fit, l):
        X = sample_elliptical(ar_cov(8, 0.8), 60, seed=5)
        res = fit(X, embedding_size=l)
        emb = build_embedding(8, l)
        assert res.scatter.dtype == np.float64
        assert res.params.shape == (emb.l,)
        assert np.array_equal(res.params, res.params[-np.arange(emb.l) % emb.l])
        assert np.all(res.params >= 0.0)
        R = emb.assemble(res.params)
        assert np.allclose(R.real, res.scatter, rtol=0.0, atol=1e-14)
        assert res.details["embedding_size"] == emb.l


class TestEstimateToeplitz:
    def test_gaussian_identity_recovery(self):
        X = sample_elliptical(np.eye(5), 5000, seed=4, tau_dof=None)
        res = estimate_toeplitz(X)
        assert np.linalg.norm(res.scatter - np.eye(5) / 5) <= 0.05
        assert res.termination == "converged"

    def test_output_is_toeplitz_and_descends(self):
        X = sample_elliptical(ar_cov(7, 0.7), 70, seed=5)
        res = estimate_toeplitz(X)
        assert diagonal_spread(res.scatter) <= 1e-10
        assert nonincreasing(res.objective_trace)
        assert abs(np.trace(res.scatter) - 1.0) <= 1e-12
        assert not np.iscomplexobj(res.scatter)

    def test_matches_linear_structure_objective(self):
        X = sample_elliptical(ar_cov(8, 0.6), 100, seed=6)
        settings = MMSettings(tol=1e-9, max_iter=3000)
        res_ce = estimate_toeplitz(X, settings)
        res_lin = estimate_linear(toeplitz_basis(8), X, settings)
        obj_ce = tyler_cost(res_ce.scatter, X)
        obj_lin = tyler_cost(res_lin.scatter, X)
        assert obj_ce >= obj_lin - 1e-9  # the embedded set is a subset
        assert abs(obj_ce - obj_lin) <= 1e-3 * abs(obj_lin)

    def test_complex_data_gives_hermitian_toeplitz(self):
        rng = np.random.default_rng(7)
        R0 = ar_cov(5, 0.5).astype(complex)
        X = sample_elliptical(R0, 60, seed=8)
        res = estimate_toeplitz(X)
        assert np.iscomplexobj(res.scatter)
        assert diagonal_spread(res.scatter) <= 1e-10
        assert np.linalg.norm(res.scatter - res.scatter.conj().T) <= 1e-12

    def test_k1_trivial(self):
        X = SampleSet.from_array(np.random.default_rng(9).standard_normal((5, 1)))
        res = estimate_toeplitz(X)
        assert np.allclose(res.scatter, [[1.0]])


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "fit",
    [estimate_toeplitz, lambda X: estimate_banded_toeplitz(X, 0)],
    ids=["toeplitz", "banded"],
)
def test_k1_scatter_follows_sample_field(fit, complex_):
    rng = np.random.default_rng(14)
    data = rng.standard_normal((5, 1))
    if complex_:
        data = data + 1j * rng.standard_normal((5, 1))
    X = SampleSet.from_array(data)
    res = fit(X)
    assert res.scatter.dtype == tyler_unconstrained(X).scatter.dtype
    assert np.array_equal(res.scatter, [[1.0]])
    assert res.termination == TERMINATION_CONVERGED


class TestBandedInner:
    def test_no_constraints_reduces_to_closed_form(self):
        emb = build_embedding(5)
        spec = BandedSpec.from_embedding(emb, 4)  # k = K-1: no rows
        assert spec.constraint_matrix.shape[0] == 0
        w = np.array([2.0, 1.0, 4.0, 1.0, 2.0])
        d = np.array([8.0, 4.0, 1.0, 4.0, 2.0])
        p = banded_inner_update(spec, w, d)
        assert np.allclose(p, np.sqrt(d / w))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_banding_rows_are_orthogonal(self, complex_):
        # the rows are cosines (and, for a complex fit, sines) at distinct
        # frequencies below L/2, all of one norm: they always have full rank
        for k in range(1, 13):
            for l in sorted({2 * k - 1, 2 * k, 2 * k + 1, 3 * k, 4 * k}):
                emb = build_embedding(k, l)
                for bandwidth in range(k):
                    C = BandedSpec.from_embedding(emb, bandwidth, complex_).constraint_matrix
                    assert C.shape[0] == (1 + complex_) * (k - 1 - bandwidth)
                    G = C @ C.T
                    if G.size:
                        assert np.abs(G - G[0, 0] * np.eye(len(G))).max() <= 1e-12 * G[0, 0]

    def test_infeasible_constraints_detected(self):
        spec = BandedSpec(bandwidth=0, constraint_matrix=np.ones((1, 4)))
        with pytest.raises(InfeasibleConstraintError):
            banded_inner_update(spec, np.ones(4), np.ones(4))

    def test_zero_d_indices_fixed_at_zero(self):
        emb = build_embedding(4)
        spec = BandedSpec.from_embedding(emb, 2)
        w = np.ones(emb.n_folded)
        d = np.array([1.0, 0.0, 1.0, 0.5])
        p = banded_inner_update(spec, w, d)
        assert p[1] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_barrier_oracle(self, seed):
        # random feasible instance: dimension 9, 2 constraints built to be
        # orthogonal to a strictly positive vector
        rng = np.random.default_rng(40 + seed)
        dim, rows = 9, 2
        x0 = rng.uniform(0.5, 2.0, size=dim)
        G = rng.standard_normal((rows, dim))
        A = G - np.outer(G @ x0, x0) / (x0 @ x0)
        w = rng.uniform(0.5, 3.0, size=dim)
        d = rng.uniform(0.1, 2.0, size=dim)
        spec = BandedSpec(bandwidth=0, constraint_matrix=A)
        p_dual = banded_inner_update(spec, w, d)
        p_oracle = barrier_equality_solve(A, w, d, x0)
        f_dual = w @ p_dual + np.sum(d / p_dual)
        f_oracle = w @ p_oracle + np.sum(d / p_oracle)
        assert abs(f_dual - f_oracle) <= 1e-6
        assert np.linalg.norm(A @ p_dual) <= 1e-8 * (1 + np.linalg.norm(p_dual))

    @pytest.mark.parametrize("seed", range(3))
    def test_dual_primal_relation(self, seed):
        rng = np.random.default_rng(50 + seed)
        dim, rows = 7, 2
        x0 = rng.uniform(0.5, 2.0, size=dim)
        G = rng.standard_normal((rows, dim))
        A = G - np.outer(G @ x0, x0) / (x0 @ x0)
        w = rng.uniform(0.5, 3.0, size=dim)
        d = rng.uniform(0.1, 2.0, size=dim)
        spec = BandedSpec(bandwidth=0, constraint_matrix=A)
        p, lam = banded_inner_update(spec, w, d, return_dual=True)
        c = w + A.T @ lam
        assert np.all(c > 0)
        assert np.allclose(p, np.sqrt(d / c), atol=1e-8)


class TestEstimateBanded:
    def test_full_bandwidth_matches_plain_toeplitz(self):
        X = sample_elliptical(ar_cov(6, 0.6), 60, seed=10)
        res_t = estimate_toeplitz(X)
        res_b = estimate_banded_toeplitz(X, 5)
        assert np.linalg.norm(res_b.scatter - res_t.scatter) <= 1e-6

    def test_bandwidth_zero_gives_identity(self):
        X = sample_elliptical(ar_cov(6, 0.6), 60, seed=11)
        res = estimate_banded_toeplitz(X, 0)
        assert np.linalg.norm(res.scatter - np.eye(6) / 6) <= 1e-10

    def test_zero_pattern_beyond_bandwidth(self):
        X = sample_elliptical(ar_cov(8, 0.5), 90, seed=12)
        res = estimate_banded_toeplitz(X, 3)
        r = res.scatter[0]
        assert np.max(np.abs(r[4:])) <= 1e-8
        assert diagonal_spread(res.scatter) <= 1e-10
        assert nonincreasing(res.objective_trace)

    def test_banded_truth_beats_plain_toeplitz(self):
        # bandwidth-3 truth at K=15, N=30: the banded estimator wins on average
        R0 = banded_ar_cov(15, 0.4, 3)
        settings = MMSettings(tol=1e-6, max_iter=400, record_trace=False)
        banded, plain = [], []
        for trial in range(100):
            X = sample_elliptical(R0, 30, np.random.SeedSequence([60, 30, trial, 1]))
            banded.append(nmse([estimate_banded_toeplitz(X, 3, settings).scatter], R0))
            plain.append(nmse([estimate_toeplitz(X, settings).scatter], R0))
        assert np.mean(banded) < np.mean(plain)

    def test_even_embedding_keeps_the_band(self):
        # an even L has a self-conjugate midpoint power, constrained like the rest
        X = sample_elliptical(ar_cov(8, 0.5), 30, seed=4)
        res = estimate_banded_toeplitz(X, 3, embedding_size=16)
        assert np.max(np.abs(res.scatter[0][4:])) <= 1e-10
        again = estimate_banded_toeplitz(X, 3, embedding_size=16)
        assert np.array_equal(res.scatter, again.scatter)

    def test_complex_data_gives_hermitian_banded_toeplitz(self):
        # complex correlations beyond the band vanish in real and imaginary part
        R0 = ar_cov(6, 0.5) * np.exp(0.4j * np.subtract.outer(np.arange(6), np.arange(6)))
        X = sample_elliptical(R0, 80, seed=15)
        res = estimate_banded_toeplitz(X, 2)
        r = res.scatter[0]
        assert np.max(np.abs(r[3:])) <= 1e-10
        assert np.max(np.abs(r[1:3].imag)) > 1e-3
        assert diagonal_spread(res.scatter) <= 1e-10
        assert np.linalg.norm(res.scatter - res.scatter.conj().T) <= 1e-12
        assert res.params.shape == (11,)
        assert nonincreasing(res.objective_trace)

    def test_bad_bandwidth(self):
        X = sample_elliptical(ar_cov(4, 0.4), 30, seed=13)
        with pytest.raises(InvalidInputError):
            estimate_banded_toeplitz(X, 4)
        with pytest.raises(InvalidInputError):
            estimate_banded_toeplitz(X, -1)


class TestBoundedNewtonStep:
    """Each map of a Toeplitz fit is one Newton step on the powers, bounded at p >= 0."""

    # AR(0.95) and AR(0.99) truths with N barely above K: the optimum has
    # zero powers on every one of these draws, so the bound binds
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("beta", [0.95, 0.99])
    def test_the_bound_binds_at_near_singular_truths(self, beta, complex_, seed):
        R0 = ar_cov(15, beta)
        X = sample_elliptical(R0.astype(complex) if complex_ else R0, 16, seed)
        res = estimate_toeplitz(X)
        refit = estimate_toeplitz(X, MMSettings(tol=1e-12, max_iter=20000))
        assert res.termination == refit.termination == TERMINATION_CONVERGED
        assert np.all(res.params >= 0.0) and np.any(res.params == 0.0)
        assert diagonal_spread(res.scatter) <= 1e-15 * np.max(np.abs(res.scatter))
        assert abs(tyler_cost(res.scatter, X) - tyler_cost(refit.scatter, X)) <= 1e-9
        assert nonincreasing(res.objective_trace)
        assert res.details["newton_fallbacks"] == 0

    def test_failed_line_searches_take_the_papers_step(self, monkeypatch):
        # with no halving allowed every map falls back to the separable point,
        # which is the paper's map: the fit of a full bandwidth, whose dual
        # has no constraint, takes the same maps
        import structcov.linear

        X = sample_elliptical(ar_cov(8, 0.8), 30, seed=3)
        monkeypatch.setattr(structcov.linear, "_BOUNDED_HALVINGS", 0)
        res = estimate_toeplitz(X)
        paper = estimate_banded_toeplitz(X, 7)
        assert res.details["newton_fallbacks"] == res.iterations == paper.iterations
        assert np.max(np.abs(res.scatter - paper.scatter)) <= 1e-12
        assert nonincreasing(res.objective_trace)

    def test_fallbacks_count_only_their_own_fit(self, monkeypatch):
        # a fit whose every map falls back leaves nothing behind in the
        # cached structure: the next fit counts none and equals one run before
        import structcov.linear

        X = sample_elliptical(ar_cov(8, 0.8), 30, seed=3)
        before = estimate_toeplitz(X)
        with monkeypatch.context() as patch:
            patch.setattr(structcov.linear, "_BOUNDED_HALVINGS", 0)
            fallen = estimate_toeplitz(X)
        after = estimate_toeplitz(X)
        assert fallen.details["newton_fallbacks"] == fallen.iterations > 0
        assert before.details["newton_fallbacks"] == after.details["newton_fallbacks"] == 0
        assert before.iterations == after.iterations
        assert before.termination == after.termination
        assert before.details == after.details
        for key in ("scatter", "params", "objective_trace"):
            assert np.array_equal(getattr(before, key), getattr(after, key))

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_a_wide_embedding_takes_the_papers_step(self, complex_):
        # at L > 2K - 1 the atoms' outer products are dependent: no Newton step
        R0 = ar_cov(4, 0.5)
        X = sample_elliptical(R0.astype(complex) if complex_ else R0, 30, seed=3)
        res = estimate_toeplitz(X, embedding_size=9)
        assert res.details["newton_fallbacks"] == res.iterations > 0
        assert res.details["embedding_size"] == 9
        fit = estimate_toeplitz(X)
        assert fit.details["newton_fallbacks"] == 0
        assert fit.iterations < res.iterations
