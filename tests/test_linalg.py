import numpy as np
import pytest

from dfls.linalg import (
    DegenerateSetError,
    clamp_singular_values,
    linear_fit,
    orthogonal_complement_direction,
    qr_append_column,
    random_orthonormal,
    repair_level,
    solve_min_norm,
    solve_regression,
)


class TestSolveRegression:
    def test_identity_system(self):
        z = solve_regression(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(z, [1.0, 2.0, 3.0], atol=1e-14)

    def test_recovers_affine_function_exactly(self):
        # 4 sample points of c + g.x in R^2: consistent overdetermined system.
        rng = np.random.default_rng(0)
        c, g = 0.7, np.array([1.5, -2.0])
        pts = rng.standard_normal((4, 2))
        W = np.hstack([np.ones((4, 1)), pts])
        b = c + pts @ g
        z = solve_regression(W, b)
        np.testing.assert_allclose(z, [c, *g], atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        z = solve_regression(W, b)
        oracle = np.linalg.inv(W.T @ W) @ (W.T @ b)
        np.testing.assert_allclose(z, oracle, atol=1e-9)

    def test_rank_deficient_raises(self):
        W = np.ones((5, 3))  # all columns identical up to scaling
        W[:, 1] = 2.0
        W[:, 2] = W[:, 0] + W[:, 1]
        with pytest.raises(DegenerateSetError, match="degenerate interpolation set"):
            solve_regression(W, np.ones(5))

    def test_normal_equations_residual_property(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p1 = rng.integers(3, 12)
            n1 = rng.integers(1, p1 + 1)
            W = rng.standard_normal((p1, n1))
            b = rng.standard_normal(p1)
            z = solve_regression(W, b)
            lhs = np.linalg.norm(W.T @ (W @ z - b))
            assert lhs <= 1e-8 * max(np.linalg.norm(W.T @ b), 1e-12)


def min_norm(W, B):
    """The solution z = Q[:, :q] Y that solve_min_norm returns in factors."""
    Q, Y, _ = solve_min_norm(W, B)
    return Q[:, :np.shape(W)[0]] @ Y


class TestSolveMinNorm:
    def test_forced_component_is_zero(self):
        # One off-base point along e1: the e2 model component must vanish.
        W = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        z = min_norm(W, np.array([0.0, 1.0]))
        np.testing.assert_allclose(z, [0.0, 1.0, 0.0], atol=1e-12)

    def test_zero_rhs_gives_zero(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((2, 5))
        z = min_norm(W, np.zeros(2))
        np.testing.assert_allclose(z, 0.0, atol=1e-14)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((3, 7))
        b = rng.standard_normal(3)
        z = min_norm(W, b)
        oracle = W.T @ np.linalg.inv(W @ W.T) @ b
        np.testing.assert_allclose(z, oracle, atol=1e-9)

    def test_row_rank_deficient_raises(self):
        W = np.vstack([np.ones(5), np.ones(5)])
        with pytest.raises(DegenerateSetError):
            solve_min_norm(W, np.array([1.0, 1.0]))

    def test_solution_lies_in_row_space(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p1 = rng.integers(1, 5)
            n1 = rng.integers(p1 + 1, p1 + 6)
            W = rng.standard_normal((p1, n1))
            b = rng.standard_normal(p1)
            z = min_norm(W, b)
            proj = W.T @ np.linalg.inv(W @ W.T) @ (W @ z)
            assert np.linalg.norm(z - proj) <= 1e-8 * max(np.linalg.norm(z), 1e-12)

    def test_complement_columns_span_the_null_space(self):
        rng = np.random.default_rng(12)
        W = rng.standard_normal((3, 7))
        Q, Y, d = solve_min_norm(W, rng.standard_normal((3, 2)))
        np.testing.assert_allclose(Q.T @ Q, np.eye(7), atol=1e-12)
        np.testing.assert_allclose(W @ Q[:, 3:], 0.0, atol=1e-12)
        assert Y.shape == (3, 2)
        # d = |diag R| for W^T = Q_3 R.
        np.testing.assert_allclose(d, np.abs(np.diag(Q[:, :3].T @ W.T)), rtol=1e-12)


def repaired(C, r, Q):
    """J + level U N^T for J = C Q_p^T, with U from a complete QR of C and N = Q[:, p:].

    Returns (J_rep, level, y): the explicit rank repair that clamp_singular_values
    describes in factors, over the k = min(m, n) - p complement columns.
    """
    (m, p), n = C.shape, Q.shape[0]
    k = min(m, n) - p
    gram, Qc, Rc = clamp_singular_values(C, k)
    level, y = repair_level(Rc), Qc[:, p:p + k].T @ r
    np.testing.assert_allclose(gram, C.T @ C, atol=1e-12 * max(1.0, np.abs(C).max()) ** 2)
    np.testing.assert_allclose(Qc.T @ Qc, np.eye(m), atol=1e-12)
    np.testing.assert_allclose(Qc[:, :p] @ Rc, C, atol=1e-12 * max(1.0, np.abs(C).max()))
    U = np.linalg.qr(C, mode="complete")[0][:, p:p + k]
    return C @ Q[:, :p].T + level * (U @ Q[:, p:p + k].T), level, y


class TestClampSingularValues:
    def test_diagonal_case(self):
        # J = diag(2, 1, 0) = C Q_p^T with Q = I.
        C = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        out, level, _ = repaired(C, np.ones(3), np.eye(3))
        assert level == 1.0
        np.testing.assert_allclose(np.linalg.svd(out, compute_uv=False), [2.0, 1.0, 1.0],
                                   atol=1e-12)

    def test_smallest_value_raised_to_sigma_p(self):
        rng = np.random.default_rng(6)
        n = 4
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        J = U @ np.diag([3.0, 1.2, 0.5, 0.0]) @ V.T
        out, level, _ = repaired(J @ V[:, :n - 1], rng.standard_normal(n), V)
        assert abs(level - 0.5) < 1e-12
        sv = np.linalg.svd(out, compute_uv=False)
        assert abs(sv[-1] - 0.5) < 1e-10

    def test_rank_and_leading_triplets_preserved(self):
        rng = np.random.default_rng(7)
        m, n, p = 8, 5, 3
        B = rng.standard_normal((p, n))
        J = rng.standard_normal((m, p)) @ B
        Q = np.linalg.qr(B.T, mode="complete")[0]  # Q_p spans the rows of J
        out, _, _ = repaired(J @ Q[:, :p], rng.standard_normal(m), Q)
        assert np.linalg.matrix_rank(out, tol=1e-8) == n
        U1, s1, V1t = np.linalg.svd(J)
        s2 = np.linalg.svd(out, compute_uv=False)
        np.testing.assert_allclose(s1[:p], s2[:p], rtol=1e-10)
        # The operator is unchanged on the leading right singular subspace
        # (the clamped values tie with sigma_p, so comparing the output's own
        # singular vectors would be ill-posed).
        np.testing.assert_allclose(out @ V1t[:p].T, J @ V1t[:p].T, atol=1e-8 * s1[0])
        # Directions orthogonal to it are amplified to exactly sigma_p.
        for w in V1t[p:]:
            assert abs(np.linalg.norm(out @ w) - s1[p - 1]) < 1e-8 * s1[0]

    def test_idempotent(self):
        # Restricting the repaired J to the span of Q_p and repairing again
        # gives the same matrix: the restriction is C again.
        rng = np.random.default_rng(8)
        B = rng.standard_normal((2, 4))
        J = rng.standard_normal((6, 2)) @ B
        Q = np.linalg.qr(B.T, mode="complete")[0]
        r = rng.standard_normal(6)
        once, _, _ = repaired(J @ Q[:, :2], r, Q)
        twice, _, _ = repaired(once @ Q[:, :2], r, Q)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_zero_matrix_fallback(self):
        # All-zero input: the clamped directions get unit scale, the leading
        # (zero) triplet is left alone.
        out, level, _ = repaired(np.zeros((3, 1)), np.ones(3), np.eye(3))
        assert level == 1.0
        sv = np.sort(np.linalg.svd(out, compute_uv=False))
        np.testing.assert_allclose(sv, [0.0, 1.0, 1.0], atol=1e-12)

    def test_y_holds_the_complement_coordinates_of_r(self):
        # y = U^T r, read off the returned Qc, holds r's coordinates along the
        # first k complement columns of C's complete QR, for any k.
        rng = np.random.default_rng(13)
        for m, p in ((9, 3), (4, 3), (12, 1)):
            C = rng.standard_normal((m, p))
            r = rng.standard_normal(m)
            full = np.linalg.qr(C, mode="complete")[0].T @ r
            for k in range(1, m - p + 1):
                y = clamp_singular_values(C, k)[1][:, p:p + k].T @ r
                np.testing.assert_allclose(y, full[p:p + k], atol=1e-12)

    def test_needs_room_for_the_complement(self):
        with pytest.raises(ValueError):
            clamp_singular_values(np.ones((3, 2)), 2)


class TestQrAppendColumn:
    @pytest.mark.parametrize("N, p", [(2, 1), (5, 5), (7, 4), (30, 29)])
    def test_appended_columns_give_the_householder_qr(self, N, p):
        # Column by column from Q = I, the factors are LAPACK's complete QR of
        # the whole matrix: the same reflectors, in the same sign convention.
        A = np.random.default_rng(21 + N).standard_normal((N, p))
        Q, R = np.eye(N), np.zeros((p, p))
        for j in range(p):
            before = Q.copy()
            Q, R[:j + 1, j] = qr_append_column(Q, j, A[:, j])
            np.testing.assert_array_equal(Q[:, :j], before[:, :j])
        Qf, Rf = np.linalg.qr(A, mode="complete")
        np.testing.assert_allclose(Q, Qf, rtol=0, atol=1e-12)
        np.testing.assert_allclose(R, Rf[:p], rtol=0, atol=1e-12)

    def test_leaves_its_input_alone(self):
        Q = np.linalg.qr(np.random.default_rng(22).standard_normal((6, 6)))[0]
        kept = Q.copy()
        qr_append_column(Q, 2, np.arange(6.0))
        np.testing.assert_array_equal(Q, kept)


class TestLinearFit:
    def test_exact_line(self):
        points = [(k, 2.0 * k + 1.0) for k in range(10)]
        fit = linear_fit(points)
        assert abs(fit.slope - 2.0) < 1e-12
        assert abs(fit.correlation - 1.0) < 1e-12

    def test_constant_values(self):
        fit = linear_fit([(k, 5.0) for k in range(8)])
        assert fit.slope == 0.0
        assert fit.correlation == 0.0

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(9)
        k = np.arange(30.0)
        v = 0.3 * k + rng.standard_normal(30)
        fit = linear_fit(zip(k, v))
        # Textbook formulas.
        slope = np.sum((k - k.mean()) * (v - v.mean())) / np.sum((k - k.mean()) ** 2)
        corr = np.corrcoef(k, v)[0, 1]
        assert abs(fit.slope - slope) < 1e-10
        assert abs(fit.correlation - corr) < 1e-10

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(10)
        k = np.arange(20.0)
        v = rng.standard_normal(20)
        base = linear_fit(zip(k, v))
        shifted = linear_fit(zip(k, v + 100.0))
        assert abs(shifted.slope - base.slope) < 1e-10
        assert abs(shifted.correlation - base.correlation) < 1e-10
        scaled = linear_fit(zip(k, -3.0 * v))
        assert abs(scaled.slope + 3.0 * base.slope) < 1e-10
        assert abs(abs(scaled.correlation) - abs(base.correlation)) < 1e-10


class TestRandomOrthonormal:
    def test_one_dimensional(self):
        q = random_orthonormal(1, 1, np.random.default_rng(0))
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-14

    def test_full_square_is_orthogonal(self):
        Q = random_orthonormal(5, 5, np.random.default_rng(1))
        np.testing.assert_allclose(Q @ Q.T, np.eye(5), atol=1e-12)

    def test_reproducible_with_seed(self):
        a = random_orthonormal(10, 4, np.random.default_rng(42))
        b = random_orthonormal(10, 4, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_unit_norms_and_orthogonality(self):
        Q = random_orthonormal(7, 3, np.random.default_rng(2))
        gram = Q @ Q.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_orthogonal_complement_direction():
    rng = np.random.default_rng(11)
    D = rng.standard_normal((3, 6))
    Q = np.linalg.qr(D.T)[0]
    v = orthogonal_complement_direction(Q, rng)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    np.testing.assert_allclose(D @ v, 0.0, atol=1e-10)


def test_orthogonal_complement_of_a_spanning_basis_draws_nothing():
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    with pytest.raises(DegenerateSetError):
        orthogonal_complement_direction(np.eye(4), rng)
    assert rng.bit_generator.state == state
