import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sympeps import symplectic as sy
from sympeps.suite import ellipsoid_batch, random_ellipsoid


def test_defect_identity_is_zero():
    for n in (1, 2, 4):
        assert sy.defect(np.eye(2 * n)) == 0.0


def test_defect_worked_fixture():
    phi = sy.asymmetric_defect_map(0.1, 2.0)
    assert sy.defect(phi) == pytest.approx(0.1, abs=1e-12)
    assert sy.defect(phi.T) == pytest.approx(0.2, abs=1e-12)
    assert sy.defect(np.linalg.inv(phi)) == pytest.approx(0.2, abs=1e-12)


def _exact_defect_sq(phi) -> Fraction:
    """||Phi^T J Phi - J||_F^2 / 2 in exact arithmetic on the float entries."""
    dim = phi.shape[0]
    P = [[Fraction(float(x)) for x in row] for row in phi]
    J = sy.standard_J(dim // 2)
    JP = [[sum(Fraction(int(J[i, k])) * P[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
    total = Fraction(0)
    for i in range(dim):
        for j in range(dim):
            entry = sum(P[k][i] * JP[k][j] for k in range(dim)) - int(J[i, j])
            total += entry * entry
    return total / 2


def test_defect_forward_error_against_exact_oracle():
    # defect_rounding_bound derives the bound.  The maps s S (I + t N) are
    # built without defect itself, with s in {1e-3, 1, 1e3} and t leaning
    # small (a tenth below 1e-4): at s = 1 a defect that cancels, such as one
    # expanding the square, misses the bound.  The largest ratio of error to
    # bound measured on these maps is 0.25, at n = 1.
    rng = np.random.default_rng(91)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 5))
        seen.add(n)
        S = sy.random_symplectic(n, rng)
        t = float(rng.uniform()) ** 4
        phi = S @ (np.eye(2 * n) + t * rng.standard_normal((2 * n, 2 * n)))
        phi = phi * 10.0 ** (3 * int(rng.integers(-1, 2)))
        got = sy.defect(phi)
        bound = sy.defect_rounding_bound(phi)
        exact_sq = _exact_defect_sq(phi)
        lo, hi = Fraction(max(got - bound, 0.0)), Fraction(got + bound)
        assert lo * lo <= exact_sq <= hi * hi, (n, got, bound, math.sqrt(exact_sq))
    assert seen == {1, 2, 3, 4}


def test_defect_odd_dimension_rejected():
    for func in (sy.defect, sy.standard_form):
        with pytest.raises(ValueError, match="even"):
            func(np.eye(3))


def test_empty_matrix_rejected():
    for func in (sy.defect, sy.symplectic_spectrum, sy.standard_form):
        with pytest.raises(ValueError, match="half-dimension must be >= 1, got 0"):
            func(np.zeros((0, 0)))


@pytest.mark.parametrize("call, n", [
    (lambda: sy.standard_J(0), 0),
    (lambda: sy.standard_J(-1), -1),
    (lambda: sy._as_even_matrix(np.zeros((0, 0))), 0),
    (lambda: sy.rho(0.1, 0), 0),
    (lambda: sy.rigidity_bound(0.1, 0), 0),
    (lambda: sy.omega0_covector(0), 0),
], ids=["standard_J-0", "standard_J-minus-1", "as_even_matrix-empty", "rho", "rigidity_bound", "omega0_covector"])
def test_every_half_dimension_refusal_names_n(call, n):
    with pytest.raises(ValueError, match=f"^half-dimension must be >= 1, got {n}$"):
        call()


def test_standard_form_rejects_non_square():
    for phi in (np.zeros((2, 4)), np.zeros((2, 2, 2)), np.zeros(4)):
        with pytest.raises(ValueError, match="square"):
            sy.standard_form(phi)


def _reconstruct(sf) -> np.ndarray:
    """Skew matrix of sum_j lambda_j^2 alpha_j ^ beta_j, plane by plane."""
    W = np.zeros((sf.u.shape[0],) * 2)
    for lam2, uj, vj in zip(sf.lambda_sq, sf.u.T, sf.v.T):
        W += lam2 * (np.outer(vj, uj) - np.outer(uj, vj))
    return W


def test_standard_form_of_reference_structure():
    sf = sy.standard_form(np.eye(2))
    assert len(sf.lambda_sq) == 1
    np.testing.assert_allclose(sf.lambda_sq, [1.0])
    np.testing.assert_allclose(sf.u[:, 0], [1.0, 0.0])
    np.testing.assert_allclose(sf.v[:, 0], [0.0, 1.0])


def test_standard_form_single_plane():
    # a map of rank 2 pulls omega0 back to one plane and a 2-dim kernel
    eps = 0.37
    sf = sy.standard_form(np.diag([1.0, eps, 0.0, 0.0]))
    assert len(sf.lambda_sq) == 1 and sf.u.shape == sf.v.shape == (4, 1)
    assert sf.lambda_sq[0] == pytest.approx(eps, rel=1e-14)


def test_standard_form_reconstructs_random_skew():
    # M = Phi^T J Phi of a random map Phi
    rng = np.random.default_rng(77)
    for _ in range(100):
        dim = 2 * int(rng.integers(1, 6))
        phi = rng.normal(size=(dim, dim))
        M = sy._pullback_matrix(phi)
        sf = sy.standard_form(phi)
        rel = np.linalg.norm(_reconstruct(sf) - M, "fro") / np.linalg.norm(M, "fro")
        assert rel <= 1e-8
        B = np.hstack([sf.u, sf.v])
        assert len(sf.lambda_sq) == dim // 2
        assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 1e-9
        # v_j parallel to M u_j with omega(u_j, v_j) = lambda_j^2 > 0
        for lam2, uj, vj in zip(sf.lambda_sq, sf.u.T, sf.v.T):
            assert vj @ (M @ uj) == pytest.approx(lam2, rel=1e-9)


def test_standard_form_zero_matrix():
    # the zero map pulls omega0 back to the zero form, which has no planes
    sf = sy.standard_form(np.zeros((4, 4)))
    assert len(sf.lambda_sq) == 0 and sf.u.shape == sf.v.shape == (4, 0)


def _planes_map(lambda_sq, rng) -> np.ndarray:
    """Phi = plane_scaling(sqrt(lambda^2)) Q^T with Q a random orthogonal
    matrix: Phi^T J Phi = Q S Q^T, where S acts on its j-th coordinate plane
    as lambda_j^2 times the reference structure."""
    q, _ = np.linalg.qr(rng.normal(size=(2 * len(lambda_sq),) * 2))
    return sy.plane_scaling(np.sqrt(lambda_sq)) @ q.T


def test_standard_form_near_degenerate_pairs():
    # spectral pairs separated by less than the eigensolver can resolve must
    # still reconstruct: each positive eigenvalue of iM is one plane, however
    # close to the next.  The reconstruction error of a backward stable
    # eigensolver with an orthonormal basis is a small multiple of dim * u;
    # measured at most 2.1 dim u over 200 seeds of this fixture, bound 8 dim u.
    u = np.finfo(float).eps / 2
    rng = np.random.default_rng(8)
    for gap in (0.0, 1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3):
        phi = _planes_map([1.0, 1.0 + gap, 1.7], rng)
        M = sy._pullback_matrix(phi)
        sf = sy.standard_form(phi)
        rel = np.linalg.norm(_reconstruct(sf) - M, "fro") / np.linalg.norm(M, "fro")
        assert rel <= 8 * 6 * u, f"gap={gap}: rel={rel}"


def test_standard_form_basis_orthonormal_near_degenerate_pairs_with_kernel():
    # Two planes with relative gap 0 to 1e-3, a third plane and a 2-dim
    # kernel in dim 8 (a map that scales its last plane by 0).  Eigenvectors
    # of iM for lambda and -lambda are separated by 2 lambda, so every
    # (u, v) plane basis is orthonormal to rounding whatever the gap.
    # Squaring M instead mixes the eigenvectors of a pair that the solver of
    # -M^2 only just resolves.  Measured over 200 seeds of this fixture: at
    # most 2.4e-15 from orthonormal, and lambda^2 within 9.2e-16 relative.
    rng = np.random.default_rng(1)
    for gap in (0.0, 1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-3):
        sf = sy.standard_form(_planes_map([1.0, 1.0 + gap, 1.7, 0.0], rng))
        assert len(sf.lambda_sq) == 3
        B = np.hstack([sf.u, sf.v])
        assert np.max(np.abs(B.T @ B - np.eye(6))) <= 1e-12, f"gap={gap}"
        np.testing.assert_allclose(sf.lambda_sq, [1.0, 1.0 + gap, 1.7], rtol=1e-14)


def test_pullback_lambdas_equal_image_spectrum():
    # the spectral values of Phi^* omega0 are the symplectic spectrum of Phi B_1
    for seed in range(5):
        phi = sy.random_eps_symplectic(2, 0.3, seed=seed)
        rep = sy.lambda_mu_invariants(phi)
        np.testing.assert_allclose(rep.lambdas, sy.symplectic_spectrum(phi), atol=1e-12)


def test_spectrum_identity_and_plane_diagonal():
    np.testing.assert_allclose(sy.symplectic_spectrum(np.eye(8)), np.ones(4), atol=1e-12)
    np.testing.assert_allclose(
        sy.symplectic_spectrum(sy.plane_scaling([2.0, 3.0])), [2.0, 3.0], atol=1e-12
    )


def test_spectrum_forward_error_against_plane_diagonal_oracle():
    # A = U diag(r_j, r_j) V with U, V unitary-symplectic has the exact
    # spectrum r and kappa(A) = r_max / r_min.  Standard first-order normwise
    # bounds, each with the dimension factor dim (u the unit roundoff):
    #   - rounding A: U and V are unitary to dim u and the two products add
    #     dim u sigma_max each, so ||dA|| <= 4 dim u sigma_max and
    #     A^T J A moves by at most 2 ||dA|| sigma_max = 8 dim u sigma_max^2;
    #   - forming A^T (J A), J A exact: dim u sigma_max^2;
    #   - the Hermitian eigensolver's backward error: dim u ||M|| <= dim u sigma_max^2.
    # So |r_j^2 error| <= 10 dim u sigma_max^2, and since r_j >= sigma_min the
    # relative error of r_j is at most 5 dim u kappa^2, plus u for the square
    # root.  Measured at most 0.6 dim u kappa^2 here.
    u = np.finfo(float).eps / 2
    n, dim = 3, 6
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = np.sort(np.exp(rng.uniform(math.log(0.01), math.log(100.0), size=n)))
        A = sy._random_unitary_factor(n, rng) @ sy.plane_scaling(r) @ sy._random_unitary_factor(n, rng)
        kappa = r[-1] / r[0]
        err = np.max(np.abs(sy.symplectic_spectrum(A) - r) / r)
        assert err <= (5 * dim * kappa**2 + 1) * u, (r, err)


def test_spectrum_finite_near_the_singular_threshold():
    # kappa(A) = 1e10 passes SINGULAR_RTOL, but r_1^2 / ||A^T J A|| = 1e-20 is
    # below the eigensolver's resolution: the n-th eigenvalue of i A^T J A
    # can come out negative (about one draw in ten), and the spectrum clips it
    # to 0 rather than return NaN.
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = sy._random_unitary_factor(2, rng) @ sy.plane_scaling([1e-5, 1e5]) @ sy._random_unitary_factor(2, rng)
        spectrum = sy.symplectic_spectrum(A)
        assert np.all(np.isfinite(spectrum)) and np.all(spectrum >= 0.0)
        assert spectrum[1] == pytest.approx(1e5, rel=1e-9)


def test_spectrum_conformal_scaling():
    rng = np.random.default_rng(15)
    A = random_ellipsoid(rng, 3)
    base = sy.symplectic_spectrum(A)
    for a in (0.5, 2.0, 7.0):
        np.testing.assert_allclose(sy.symplectic_spectrum(a * A), a * base, atol=1e-10)
    np.testing.assert_allclose(sy.symplectic_spectrum(3.0 * np.eye(4)), [3.0, 3.0], atol=1e-12)


def test_spectrum_rejects_singular():
    bad = np.diag([1.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="singular"):
        sy.symplectic_spectrum(bad)


def test_spectrum_symplectic_invariance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        psi = sy.random_symplectic(n, rng)
        A = random_ellipsoid(rng, n)
        base = sy.symplectic_spectrum(A)
        np.testing.assert_allclose(sy.symplectic_spectrum(psi @ A), base, rtol=1e-8)
        anti = sy.standard_antisymplectic(n) @ psi
        np.testing.assert_allclose(sy.symplectic_spectrum(anti @ A), base, rtol=1e-8)


def test_lambda_mu_symplectic_map():
    rng = np.random.default_rng(31)
    rep = sy.lambda_mu_invariants(sy.random_symplectic(2, rng))
    np.testing.assert_allclose(rep.lambdas, np.ones(2), atol=1e-9)
    np.testing.assert_allclose(rep.mus, np.ones(2), atol=1e-9)
    assert list(rep.signs) == [1, 1]
    assert rep.classification == "symplectic-like"


def test_lambda_mu_anti_symplectic_map():
    rep = sy.lambda_mu_invariants(sy.standard_antisymplectic(3))
    assert list(rep.signs) == [-1, -1, -1]
    assert rep.classification == "anti-symplectic-like"


def test_lambda_mu_plane_scaling():
    rep = sy.lambda_mu_invariants(sy.plane_scaling([2.0, 0.5]))
    np.testing.assert_allclose(rep.lambdas, [0.5, 2.0], atol=1e-12)
    np.testing.assert_allclose(rep.mus, [1.0, 1.0], atol=1e-12)
    assert rep.classification == "symplectic-like"


def test_lambda_mu_singular_flagged_not_raised():
    rep = sy.lambda_mu_invariants(np.diag([1.0, 1.0, 1.0, 0.0]))
    assert rep.classification == "singular"
    assert rep.lambdas.size == 0


def test_classification_flips_under_plane_swap():
    rng = np.random.default_rng(41)
    for seed in range(5):
        phi = sy.random_eps_symplectic(2, 0.03, seed=seed)
        assert sy.lambda_mu_invariants(phi).classification == "symplectic-like"
        flipped = sy.standard_antisymplectic(2) @ phi
        assert sy.lambda_mu_invariants(flipped).classification == "anti-symplectic-like"


def test_defect_decomposition_identity_map():
    check = sy.defect_decomposition_check(np.eye(6))
    assert check.lhs == pytest.approx(0.0, abs=1e-15)
    assert check.rhs == pytest.approx(0.0, abs=1e-12)


def test_defect_decomposition_worked_fixture():
    check = sy.defect_decomposition_check(sy.asymmetric_defect_map(0.1, 2.0))
    assert check.lhs == pytest.approx(0.01, abs=1e-12)
    assert check.rhs == pytest.approx(0.01, abs=1e-10)
    assert check.rel_error <= 1e-8


def test_defect_decomposition_random_maps():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        phi = sy.random_defective(n, float(rng.uniform(0.01, 0.98)), rng)
        assert sy.defect_decomposition_check(phi).rel_error <= 1e-8


def test_lambda_mu_mus_never_exceed_one():
    # |omega0(u, v)| <= 1 on orthonormal pairs, so every mu_j <= 1
    rng = np.random.default_rng(56)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        phi = sy.random_defective(n, float(rng.uniform(0.01, 0.98)), rng)
        rep = sy.lambda_mu_invariants(phi)
        assert np.all(rep.mus <= 1.0 + 1e-9)


def test_defect_decomposition_mixed_signs():
    # reflecting a single plane flips that plane's sign; the signed identity
    # still holds exactly (here both sides equal 4)
    refl = np.eye(4)
    refl[0, 0] = refl[1, 1] = 0.0
    refl[0, 1] = refl[1, 0] = 1.0
    rep = sy.lambda_mu_invariants(refl)
    assert sorted(rep.signs) == [-1, 1]
    assert rep.classification == "mixed"
    check = sy.defect_decomposition_check(refl)
    assert check.lhs == check.rhs == 4.0


def test_defect_decomposition_zero_signs():
    # swapping y_1 with x_2 pairs the pullback planes in directions on which
    # the reference form vanishes: every mu_j = 0 and both sides equal 4
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[2, 1] = perm[1, 2] = perm[3, 3] = 1.0
    rep = sy.lambda_mu_invariants(perm)
    np.testing.assert_allclose(rep.mus, [0.0, 0.0], atol=1e-12)
    assert list(rep.signs) == [0, 0]
    check = sy.defect_decomposition_check(perm)
    assert check.lhs == check.rhs == 4.0


def _scaled_map(k: int) -> np.ndarray:
    """2^k Phi, exact in floats, for a map Phi of condition 2.69."""
    return 2.0**k * sy.random_symplectic(2, np.random.default_rng(4)) @ sy.plane_scaling([1.1, 0.95])


def _lost_plane_maps():
    """Nonsingular maps whose Phi^T J Phi loses a plane below the eigensolver's
    resolution: condition 1e6 (lambda^2 ratio 1e-12), and a map of condition
    2.69 whose squares underflow at scale 2^-540."""
    return {"cond-1e6": sy.plane_scaling([1e-3, 1e3]), "scale-2^-540": _scaled_map(-540)}


@pytest.mark.parametrize("name", ["cond-1e6", "scale-2^-540"])
def test_lambda_mu_refuses_a_lost_plane(name):
    phi = _lost_plane_maps()[name]
    conditioning = sy._conditioning(phi)
    assert not conditioning.singular
    cond = f"{float(conditioning.cond):.3e}"
    for func in (sy.lambda_mu_invariants, sy.defect_decomposition_check):
        with pytest.raises(ValueError) as exc:
            func(phi)
        assert "a plane of Phi^T J Phi was lost" in str(exc.value)
        assert f"condition number {cond}" in str(exc.value)
        assert "not resolved" in str(exc.value)


def test_standard_form_refuses_a_plane_whose_image_underflows():
    # At scale 2^-536 the entries of Phi^T J Phi are subnormal: M u rounds to
    # 0 on a plane that the eigensolver kept, v = M u / ||M u|| is NaN, and
    # the reconstruction check must refuse NaN as it refuses a large error.
    phi = _scaled_map(-536)
    with np.errstate(all="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="reconstruction failed"):
            sy.standard_form(phi)
        with pytest.raises(ValueError, match="reconstruction failed"):
            sy.lambda_mu_invariants(phi)


def _exact_lambdas_n2(phi) -> list:
    """lambda_1 <= lambda_2 of Phi^* omega0 on R^4, from the exact
    Phi^T J Phi of the float entries: the lambda_j^4 are the roots of
    t^2 - p t + q, p the sum of its squared upper entries, q its squared
    Pfaffian."""
    from decimal import Decimal, localcontext

    P = [[Fraction(float(x)) for x in row] for row in phi]
    # (Phi^T J Phi)_ij = sum_k P[2k+1][i] P[2k][j] - P[2k][i] P[2k+1][j]
    M = [[sum(P[2 * k + 1][i] * P[2 * k][j] - P[2 * k][i] * P[2 * k + 1][j] for k in range(2))
          for j in range(4)] for i in range(4)]
    p = sum(M[i][j] ** 2 for i in range(4) for j in range(i + 1, 4))
    q = (M[0][1] * M[2][3] - M[0][2] * M[1][3] + M[0][3] * M[1][2]) ** 2
    with localcontext() as ctx:
        ctx.prec = 60
        p, q = (Decimal(x.numerator) / Decimal(x.denominator) for x in (p, q))
        root = (p * p - 4 * q).sqrt()
        return [float(((p + s * root) / 2).sqrt().sqrt()) for s in (-1, 1)]


def test_lambda_mu_where_the_product_rounds_non_skew():
    # U diag(r, 1/r, a, b) V with U, V symplectic and condition 1e8 to 1e10:
    # Phi^T J Phi is skew only to rounding, often by more than 1e-9
    # relative.  Its planes still give lambda to u cond: the error is that
    # of forming the product, measured at most 0.11 u cond on 300 such maps
    # against this oracle.
    u = 2.0**-53
    rng = np.random.default_rng(12)
    non_skew = 0
    for _ in range(30):
        r = 10.0 ** rng.uniform(4, 5)
        d = np.diag([r, 1 / r, rng.uniform(0.5, 2), rng.uniform(0.5, 2)])
        phi = sy.random_symplectic(2, rng) @ d @ sy.random_symplectic(2, rng)
        M = sy._pullback_matrix(phi)
        non_skew += np.linalg.norm(M + M.T) > 1e-9 * np.linalg.norm(M)
        rep = sy.lambda_mu_invariants(phi)
        cond = float(rep.condition)
        np.testing.assert_allclose(rep.lambdas, _exact_lambdas_n2(phi), rtol=u * cond, atol=0)
    assert non_skew >= 10


def test_defect_decomposition_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        sy.defect_decomposition_check(np.diag([1.0, 0.0, 1.0, 1.0]))


def test_rho_values():
    assert sy.rho(0.0, 3) == 1.0
    assert sy.rho(0.0, 3, linear_case=True) == 1.0
    assert sy.rho(0.1, 2) == pytest.approx((1 - math.sqrt(2) * 0.1) ** 2, rel=1e-15)
    assert sy.rho(0.1, 2) == pytest.approx(0.7371572875, abs=1e-9)
    eps = 1 / (2 * math.sqrt(2))
    assert sy.rho(eps, 1, linear_case=True) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    with pytest.raises(ValueError, match="eps"):
        sy.rho(0.75, 2)
    with pytest.raises(ValueError, match="eps"):
        sy.rho(-0.1, 2)


def test_squeezing_params_identity():
    for eps in (0.0, 0.1, 0.3):
        params = sy.squeezing_params(np.eye(4), eps)
        rho_val = math.sqrt(1.0 - eps)
        assert params.r_A == pytest.approx(1.0)
        assert params.s_A == pytest.approx(rho_val, rel=1e-12)
        if rho_val > 0.5:
            assert params.e_A == pytest.approx(rho_val / (2 * rho_val - 1), rel=1e-12)
    params = sy.squeezing_params(np.eye(4), 0.0)
    assert params.s_A == 1.0 and params.e_A == 1.0


def test_squeezing_params_diagonal():
    params = sy.squeezing_params(sy.plane_scaling([2.0, 3.0]), 0.1)
    assert params.r_A == pytest.approx(3.0)
    assert params.inv_norm == pytest.approx(0.5)


def test_squeezing_params_e_undefined_for_thin_ellipsoids():
    # large condition number pushes ||A^-1|| (1/rho - 1) r_A past 1
    A = sy.plane_scaling([0.01, 10.0])
    params = sy.squeezing_params(A, 0.5)
    assert params.e_A is None


def test_certificates_pass_for_symplectic_map_at_zero():
    rng = np.random.default_rng(61)
    psi = sy.random_symplectic(2, rng)
    batch = [np.eye(4), sy.plane_scaling([0.5, 2.0])] + [random_ellipsoid(rng, 2) for _ in range(10)]
    sq = sy.check_eps_nonsqueezing(psi, 0.0, batch)
    exp = sy.check_eps_nonexpanding(psi, 0.0, batch)
    cap = sy.capacity_preservation_check(psi, 0.0, batch)
    assert sq.passed and exp.passed and cap.passed
    widths = sy.width_certificates(psi, 0.0, batch).widths
    assert len(widths["r1"]) == len(widths["R1"]) == len(batch)
    for r1, R1 in zip(widths["r1"], widths["R1"]):  # equality r1 = R1 at eps = 0
        assert R1 == pytest.approx(r1, rel=1e-9)


def test_certificates_pass_for_eps_symplectic_maps():
    rng = np.random.default_rng(62)
    for seed in range(10):
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.0, 0.2))
        phi = sy.random_eps_symplectic(n, eps, seed=seed)
        batch = [random_ellipsoid(rng, n) for _ in range(10)]
        eps_prime = math.sqrt(2.0) * eps
        assert sy.check_eps_nonsqueezing(phi, eps_prime, batch).passed
        assert sy.check_eps_nonexpanding(phi, eps_prime, batch).passed
        assert sy.capacity_preservation_check(phi, eps_prime, batch).passed


def test_nonsqueezing_fails_for_plane_crush():
    phi = sy.plane_scaling([0.1, 1.0])
    report = sy.check_eps_nonsqueezing(phi, 0.0, [np.eye(4)])
    assert not report.passed
    assert sy.width_certificates(phi, 0.0, [np.eye(4)]).widths["R1"][0] == pytest.approx(0.1, abs=1e-9)


def test_capacity_lower_bound_fails_for_plane_crush():
    phi = sy.plane_scaling([0.1, 1.0])
    report = sy.capacity_preservation_check(phi, 0.0, [np.eye(4)])
    assert not report.passed
    assert report.records[0]["lower_pass"] is False
    R1 = sy.width_certificates(phi, 0.0, [np.eye(4)]).widths["R1"][0]
    assert math.pi * R1**2 == pytest.approx(math.pi * 0.01, rel=1e-9)  # the image capacity


def test_nonexpanding_ball_clause_fails_for_dilation():
    eps = 0.19
    rho_val = math.sqrt(1.0 - eps)
    c = 1.1 / rho_val  # exceeds the allowed width growth 1/rho
    phi = c * np.eye(4)
    report = sy.check_eps_nonexpanding(phi, eps, [])
    assert not report.passed
    assert any(not b["pass"] for b in report.ball_checks)


def test_nonexpanding_skips_ineligible_ellipsoids():
    phi = np.eye(4)
    certs = sy.width_certificates(phi, 0.5, [sy.plane_scaling([0.01, 10.0])])
    assert certs.widths["e_A"][0] is None  # skipped
    assert certs.nonexpanding.records[0] == {"margin": None, "pass": True}
    assert certs.nonexpanding.passed  # skipped records do not fail the certificate


def test_certificates_fail_unconditionally_for_singular_map():
    singular = np.diag([0.0, 1.0, 1.0, 1.0])
    for checker in (
        sy.check_eps_nonsqueezing,
        sy.check_eps_nonexpanding,
        sy.capacity_preservation_check,
    ):
        report = checker(singular, 0.1, [np.eye(4)])
        assert not report.passed
        assert "singular" in report.note
    assert sy.width_certificates(singular, 0.1, [np.eye(4)]).widths is None  # no table


def test_certificate_report_serializes():
    report = sy.check_eps_nonsqueezing(np.eye(4), 0.0, [np.eye(4), 2.0 * np.eye(4)])
    data = json.loads(json.dumps(report.to_dict()))
    assert data["kind"] == "nonsqueezing"
    assert data["passed"] is True
    # record i is ellipsoid i: it holds only the certificate's own fields
    assert [list(rec) for rec in data["records"]] == [["margin", "pass"]] * 2


def test_random_symplectic_is_symplectic():
    rng = np.random.default_rng(81)
    for n in (1, 2, 3):
        psi = sy.random_symplectic(n, rng)
        assert sy.defect(psi) <= 1e-12


def test_random_eps_symplectic_hits_requested_defect():
    for seed in (0, 1, 2):
        phi = sy.random_eps_symplectic(2, 0.05, seed=seed)
        assert abs(sy.defect(phi) - 0.05) <= 1e-9
    assert sy.defect(sy.random_eps_symplectic(3, 0.0, seed=4)) <= 1e-12


def test_random_eps_symplectic_deterministic():
    a = sy.random_eps_symplectic(2, 0.07, seed=123)
    b = sy.random_eps_symplectic(2, 0.07, seed=123)
    np.testing.assert_array_equal(a, b)


def test_random_eps_symplectic_domain():
    with pytest.raises(ValueError, match="eps"):
        sy.random_eps_symplectic(2, 0.8, seed=0)


def _reference_random_eps_symplectic(n, eps, seed):
    # The body random_eps_symplectic had before it delegated to
    # random_defective, kept verbatim as the bit-for-bit reference.
    if not 0.0 <= eps < sy.EPS_LIMIT:
        raise ValueError(f"eps must lie in [0, 1/sqrt(2)), got {eps}")
    rng = np.random.default_rng(seed)
    S = sy.random_symplectic(n, rng)
    if eps == 0.0:
        return S
    N = rng.standard_normal((2 * n, 2 * n))
    N = N / np.linalg.norm(N, 2)
    eye = np.eye(2 * n)

    def g(t: float) -> float:
        return sy.defect(S @ (eye + t * N))

    hi = max(eps, 1e-3)
    for _ in range(80):
        if g(hi) >= eps:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the requested defect")
    t = sy._bisect(lambda t: g(t) < eps, 0.0, hi)
    phi = S @ (eye + t * N)
    achieved = sy.defect(phi)
    if abs(achieved - eps) > 1e-9:
        raise RuntimeError(f"defect tuning failed: requested {eps}, achieved {achieved}")
    return phi


def test_random_eps_symplectic_is_unchanged_bit_for_bit():
    rng = np.random.default_rng(2024)
    cases = [(2, 0.68, 4), (2, 0.65, 3), (3, 0.0, 4), (2, 0.1, 3)]
    for _ in range(300):
        n = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.0, sy.EPS_LIMIT))
        cases.append((n, eps, int(rng.integers(2**32))))
    for n, eps, seed in cases:
        np.testing.assert_array_equal(
            sy.random_eps_symplectic(n, eps, seed), _reference_random_eps_symplectic(n, eps, seed)
        )


def test_random_defective_hits_any_target():
    for n in (1, 2, 3, 4):
        for i, target in enumerate(np.linspace(0.0, 0.98, 15)):
            phi = sy.random_defective(n, float(target), np.random.default_rng(100 * n + i))
            assert abs(sy.defect(phi) - target) <= 1e-9
            assert np.linalg.cond(phi) < 1e6
            again = sy.random_defective(n, float(target), np.random.default_rng(100 * n + i))
            np.testing.assert_array_equal(phi, again)


@pytest.mark.parametrize("target", [-0.1, float("nan"), float("inf")])
def test_random_defective_refuses_bad_targets(target):
    with pytest.raises(ValueError, match=f"target defect must be finite and >= 0, got {target}"):
        sy.random_defective(2, target, np.random.default_rng(0))


def test_J_and_the_plane_swap_fill_the_interleaved_slots():
    # byte for byte against one 2 x 2 block per plane: kron writes -0.0 off the
    # blocks, which + 0.0 clears, and J and R hold +0.0 in every empty slot
    for n in (1, 2, 5):
        for got, block in ((sy.standard_J(n), [[0.0, -1.0], [1.0, 0.0]]),
                           (sy.standard_antisymplectic(n), [[0.0, 1.0], [1.0, 0.0]])):
            want = np.kron(np.eye(n), block) + 0.0
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # J is one cached array per n, so no caller may write it; R is a fresh array
        assert not sy.standard_J(n).flags.writeable
        assert sy.standard_antisymplectic(n).flags.writeable


def test_matrix_text_round_trip(tmp_path):
    phi = sy.asymmetric_defect_map(0.1, 2.0)
    path = tmp_path / "phi.txt"
    sy.save_matrix(path, phi)
    np.testing.assert_array_equal(sy.load_matrix(path), phi)
    # each entry is the repr of its float: a signed zero, a subnormal and the extremes keep their bits
    edge = [[-0.0, 5e-324], [0.1, 1.7976931348623157e308]]
    sy.save_matrix(path, edge)
    assert path.read_text() == "n 1\n-0.0 5e-324\n0.1 1.7976931348623157e+308\n"
    assert sy.load_matrix(path).tobytes() == np.array(edge).tobytes()


def test_matrix_json_round_trip(tmp_path):
    phi = sy.plane_scaling([0.5, 2.0])
    path = tmp_path / "phi.json"
    sy.save_matrix(path, phi)
    np.testing.assert_array_equal(sy.load_matrix(path), phi)
    assert path.read_text() == json.dumps({"n": 2, "rows": phi.tolist()}) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_save_matrix_refuses_non_finite_json(tmp_path, value):
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        sy.save_matrix(path, [[value, 0.0], [0.0, 1.0]])
    assert not path.exists()


def test_matrix_json_refuses_a_non_number_entry():
    with pytest.raises(ValueError, match="malformed matrix JSON: 'rows' must hold numbers"):
        sy.matrix_from_json_dict({"n": 1, "rows": [[{}, 0], [0, 1]]})
    with pytest.raises(ValueError, match="'rows' must hold numbers: '1.5' is a str, not a number"):
        sy.matrix_from_json_dict({"n": 1, "rows": [["1.5", 0], [0, 1]]})
    with pytest.raises(ValueError, match="'rows' must hold numbers: False is a bool, not a number"):
        sy.matrix_from_json_dict({"n": 1, "rows": [[1, 0], [False, 1]]})


def test_matrix_text_parse_errors():
    with pytest.raises(ValueError, match="header"):
        sy.parse_matrix_text("2\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="rows"):
        sy.parse_matrix_text("n 1\n1 0\n")
    with pytest.raises(ValueError, match="entries"):
        sy.parse_matrix_text("n 1\n1 0\n0 1 0\n")
    with pytest.raises(ValueError, match="empty"):
        sy.parse_matrix_text("")


# -- the stacked width table ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_spectrum_equals_per_slice_calls(n):
    rng = np.random.default_rng(70 + n)
    stack = np.array([random_ellipsoid(rng, n) for _ in range(6)])
    spectra = sy.symplectic_spectrum(stack)
    assert spectra.shape == (6, n)
    for A, row in zip(stack, spectra):
        assert np.array_equal(sy.symplectic_spectrum(A), row)
    grid = sy.symplectic_spectrum(stack.reshape(2, 3, 2 * n, 2 * n))
    assert np.array_equal(grid.reshape(6, n), spectra)
    assert sy.symplectic_spectrum(stack[:0]).shape == (0, n)


def test_stacked_spectrum_names_the_first_singular_matrix():
    stack = np.array([np.eye(4), np.diag([1.0, 1.0, 1e-13, 1.0]), np.zeros((4, 4))])
    with pytest.raises(ValueError) as exc:
        sy.symplectic_spectrum(stack)
    assert str(exc.value) == "singular matrix (condition number 1.000e+13)"


# r1 of POW_DIFFERS * I is POW_DIFFERS, whose square by libm pow (as Python
# floats square) differs in the last bit from POW_DIFFERS * POW_DIFFERS, and
# so does pi times it; about 0.1% of floats are like this.
POW_DIFFERS = 1.8903560604397107


def _scalar_records(phi, eps_prime, A):
    """The records of the three certificates for one ellipsoid, by the scalar
    formulas of a per-ellipsoid loop, in the schema-2 layout: each record
    repeats the widths it reads.  A margin may fall below zero by CERT_TOL
    times min(1, r1) for a width and min(1, pi r1^2) for a capacity."""
    params = sy.squeezing_params(A, eps_prime)
    r1 = float(sy.symplectic_spectrum(A)[0])
    R1 = float(sy.symplectic_spectrum(phi @ A)[0])
    s_A, e_A = params.s_A, params.e_A
    tol = sy.CERT_TOL * min(1.0, r1)
    margin = R1 - s_A * r1
    sq = {"r1": r1, "R1": R1, "s_A": s_A, "margin": margin, "pass": margin >= -tol}
    ex = {"r1": r1, "R1": R1, "e_A": e_A, "skipped": True, "pass": True, "margin": None}
    if e_A is not None:
        margin = e_A * r1 - R1
        ex.update({"skipped": False, "pass": margin >= -tol, "margin": margin})
    cap, cap_img = math.pi * r1**2, math.pi * R1**2
    cap_tol = sy.CERT_TOL * min(1.0, cap)
    lower = cap_img - s_A**2 * cap
    upper = None if e_A is None else e_A**2 * cap - cap_img
    upper_pass = None if upper is None else upper >= -cap_tol
    capacity = {
        "capacity": cap,
        "image_capacity": cap_img,
        "s_A": s_A,
        "e_A": e_A,
        "lower_margin": lower,
        "lower_pass": lower >= -cap_tol,
        "upper_margin": upper,
        "upper_pass": upper_pass,
        "pass": lower >= -cap_tol and upper_pass is not False,
    }
    return sq, ex, capacity


# The fields that each schema-3 record keeps, in order.
SLIM_KEYS = (
    ("margin", "pass"),
    ("margin", "pass"),
    ("lower_margin", "lower_pass", "upper_margin", "upper_pass", "pass"),
)


def _capacity(width):
    """pi width^2, None for an undefined width (NaN, from an overflowing batch)."""
    return None if width is None else math.pi * width**2


def _schema3(sq, ex, cap):
    """The width table and the slim records that schema 3 writes, from the
    schema-2 records of the three certificates, once every value that schema
    3 drops is checked to follow, bit for bit, from what it keeps: the index
    is the position, the widths repeated across certificates agree, skipped
    is whether e_A is undefined, and the capacities are pi r1^2 and pi R1^2."""
    assert len(sq) == len(ex) == len(cap)
    widths = {"r1": [], "R1": [], "s_A": [], "e_A": []}
    for i, (a, b, c) in enumerate(zip(sq, ex, cap)):
        assert a["index"] == b["index"] == c["index"] == i
        assert repr((b["r1"], b["R1"], c["s_A"], c["e_A"])) == repr((a["r1"], a["R1"], a["s_A"], b["e_A"]))
        assert b["skipped"] is (b["e_A"] is None)
        assert repr((c["capacity"], c["image_capacity"])) == repr((_capacity(a["r1"]), _capacity(a["R1"])))
        for key, value in zip(widths, (a["r1"], a["R1"], a["s_A"], b["e_A"])):
            widths[key].append(value)
    rows = [[{k: rec[k] for k in keys} for rec in records] for records, keys in zip((sq, ex, cap), SLIM_KEYS)]
    return widths, rows


def _schema3_reports(reports):
    """(widths, the three report dicts) of schema 3 from three schema-2
    reports; a singular map's reports have no records and no table."""
    dicts = [report.to_dict() for report in reports]
    if dicts[0]["note"]:
        return None, dicts
    widths, rows = _schema3(*(d["records"] for d in dicts))
    return widths, [{**d, "records": r} for d, r in zip(dicts, rows)]


def _view(certs):
    """What the report of one certificate pass carries: (widths, the three
    report dicts)."""
    return certs.widths, [report.to_dict() for report in certs[:3]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [0, 1, 9])
def test_certificate_widths_equal_per_ellipsoid_calls(n, size):
    rng = np.random.default_rng(80 + 10 * n + size)
    phi = sy.random_eps_symplectic(n, 0.1, seed=n)
    batch = [random_ellipsoid(rng, n) for _ in range(size)]
    if size > 1:
        batch[1] = np.diag(np.linspace(0.05, 1.0, 2 * n))  # thin: e_A undefined
        batch[2] = POW_DIFFERS * np.eye(2 * n)
        r1 = float(sy.symplectic_spectrum(batch[2])[0])
        assert math.pi * r1**2 != math.pi * (r1 * r1)
    eps_prime = math.sqrt(2.0) * 0.1
    certs = sy.width_certificates(phi, eps_prime, batch)
    sq, ex, cap = certs[:3]
    assert len(sq.records) == len(ex.records) == len(cap.records) == size
    scalar = [_scalar_records(phi, eps_prime, A) for A in batch]
    expected = _schema3(*([{"index": i, **rows[k]} for i, rows in enumerate(scalar)] for k in range(3)))
    # repr compares key order, types and float bits (0.0 against -0.0 too)
    assert repr(certs.widths) == repr(expected[0])
    assert repr([sq.records, ex.records, cap.records]) == repr(expected[1])
    assert certs.widths["e_A"].count(None) == (1 if size > 1 else 0)
    for report in (sq, ex, cap):
        assert report.passed is all(rec["pass"] for rec in report.records + report.ball_checks)


def _worst_from_records(report, keys):
    margins = [(rec[k], i) for i, rec in enumerate(report.records) for k in keys if rec[k] is not None]
    if not margins:
        return None
    margin, index = min(margins)
    return {"index": index, "margin": margin}


def test_certificate_worst_is_the_smallest_record_margin():
    rng = np.random.default_rng(90)
    thin = sy.plane_scaling([0.01, 10.0])  # e_A undefined at eps 0.5
    cases = {
        "random": (
            sy.random_eps_symplectic(2, 0.1, seed=5),
            [random_ellipsoid(rng, 2) for _ in range(12)] + [thin],
        ),
        "fails": (sy.plane_scaling([0.1, 1.0]), [np.eye(4), thin, random_ellipsoid(rng, 2)]),
        "tie": (sy.plane_scaling([0.5, 2.0]), [0.25 * np.eye(4)] + [np.eye(4)] * 3),
        "thin only": (np.eye(4), [thin, thin]),
        "empty": (np.eye(4), []),
    }
    checkers = {
        "nonsqueezing": (sy.check_eps_nonsqueezing, ("margin",)),
        "nonexpanding": (sy.check_eps_nonexpanding, ("margin",)),
        "capacity": (sy.capacity_preservation_check, ("lower_margin", "upper_margin")),
    }
    reports = {}
    for case, (phi, batch) in cases.items():
        for kind, (checker, keys) in checkers.items():
            report = reports[case, kind] = checker(phi, 0.5, batch)
            assert report.worst == _worst_from_records(report, keys)
            assert report.to_dict()["worst"] == report.worst
    worst = {key: report.worst for key, report in reports.items()}
    assert worst["fails", "nonsqueezing"]["margin"] < 0
    tie = [rec["margin"] for rec in reports["tie", "nonsqueezing"].records]
    assert tie[1] == tie[2] == tie[3] < tie[0]
    assert worst["tie", "nonsqueezing"]["index"] == 1  # ties go to the first index
    assert worst["thin only", "nonexpanding"] is None  # every record skipped
    assert worst["thin only", "capacity"] is not None  # the lower margin is always defined
    assert all(worst["empty", kind] is None for kind in checkers)
    singular = sy.check_eps_nonsqueezing(np.diag([0.0, 1.0, 1.0, 1.0]), 0.1, [np.eye(4)])
    assert singular.worst is None and singular.to_dict()["worst"] is None


def _verdicts(certs):
    """Every pass field of the three reports: per record, then the ball clause."""
    return [
        ([[v for k, v in rec.items() if k.endswith("pass")] for rec in report.records],
         [ball["pass"] for ball in report.ball_checks], report.passed)
        for report in certs[:3]
    ]


def test_certificate_verdicts_do_not_depend_on_the_ellipsoid_scale():
    # Margins scale with the ellipsoid (widths as s, capacities as s^2), and
    # so does the tolerance below 1: each verdict of a batch is the verdict
    # of the batch scaled by 2^k, for every k in [-500, 500].  An absolute
    # tolerance passed the plane crushes below s = 2^-33.
    rng = np.random.default_rng(95)
    for n in (1, 2):
        dim = 2 * n
        base = [random_ellipsoid(rng, n) for _ in range(4)]
        base += [np.eye(dim), np.diag(np.linspace(0.05, 1.0, dim)), POW_DIFFERS * np.eye(dim)]
        maps = [
            (sy.random_eps_symplectic(n, 0.1, seed=n), math.sqrt(2.0) * 0.1),  # passes
            (0.5 * np.eye(dim), 0.01),  # halves every width: fails below
            (sy.plane_scaling([0.5] + [2.0] * (n - 1)), 0.3),
            (2.0 * np.eye(dim), 0.3),  # fails nonexpanding and the ball clause
        ]
        scales = range(-500, 501)
        batch = [np.ldexp(A, k) for k in scales for A in base]
        for phi, eps in maps:
            at_one = _verdicts(sy.width_certificates(phi, eps, base))
            scaled = _verdicts(sy.width_certificates(phi, eps, batch))
            for (records, balls, _), (want, want_balls, _) in zip(scaled, at_one):
                assert balls == want_balls
                assert records == want * len(scales)
        assert not any(rec[-1] for rec in _verdicts(sy.width_certificates(0.5 * np.eye(dim), 0.01, base))[0][0])
    # the plane crush of one plane at s = 1e-10: 0.5 s against s_A s, s_A = 0.995
    certs = sy.width_certificates(0.5 * np.eye(2), 0.01, [1e-10 * np.eye(2)])
    assert certs.nonsqueezing.records == [{"margin": certs.nonsqueezing.records[0]["margin"], "pass": False}]
    assert -5e-11 < certs.nonsqueezing.worst["margin"] < -4.9e-11
    assert not certs.nonsqueezing.passed and not certs.capacity.passed and certs.nonexpanding.passed


def test_ball_clause_widths_equal_per_radius_calls():
    phi = sy.random_eps_symplectic(2, 0.1, seed=3)
    report = sy.check_eps_nonexpanding(phi, 0.1, [np.eye(4)])
    assert [b["radius"] for b in report.ball_checks] == list(sy.BALL_RADII)
    for r, ball in zip(sy.BALL_RADII, report.ball_checks):
        assert ball["image_width"] == float(sy.symplectic_spectrum(phi @ (r * np.eye(4)))[0])


def test_certificates_name_the_first_singular_ellipsoid():
    batch = [np.eye(4)] * 3 + [np.diag([1.0, 1.0, 1e-13, 1.0]), np.zeros((4, 4))]
    for checker in (sy.check_eps_nonsqueezing, sy.check_eps_nonexpanding, sy.capacity_preservation_check):
        with pytest.raises(ValueError) as exc:
            checker(np.eye(4), 0.1, batch)
        assert str(exc.value) == "singular ellipsoid matrix (condition number 1.000e+13)"
    # phi A singular (condition 1e14) before any singular A
    phi = np.diag([1e7, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError) as exc:
        sy.check_eps_nonsqueezing(phi, 0.1, [np.eye(4), phi, np.zeros((4, 4))])
    assert str(exc.value) == "singular matrix (condition number 1.000e+14)"


def test_certificates_name_a_misshapen_ellipsoid():
    batch = [np.eye(4), np.eye(4), np.eye(2)]
    for checker in (sy.check_eps_nonsqueezing, sy.check_eps_nonexpanding, sy.capacity_preservation_check):
        with pytest.raises(ValueError, match=r"ellipsoid 2 has shape \(2, 2\), expected \(4, 4\)"):
            checker(np.eye(4), 0.1, batch)



# The three certificates as separate passes, each validating phi and building
# its own width table by the SVD of every A and every phi A, and its records
# from the float arrays, in the schema-2 layout (every record names its index
# and repeats its widths): the reference that one shared pass must reproduce
# once _schema3_reports maps it to the one table and the slim records.


def _reference_width_table(phi, rho_val, ellipsoids):
    dim = phi.shape[0]
    mats = [np.asarray(A, dtype=float) for A in ellipsoids]
    for i, A in enumerate(mats):
        if A.shape != (dim, dim):
            raise ValueError(f"ellipsoid {i} has shape {A.shape}, expected ({dim}, {dim})")
    stack = np.array(mats).reshape(len(mats), dim, dim)
    image = phi @ stack
    own, img = sy._conditioning(stack), sy._conditioning(image)
    first = np.flatnonzero(own.singular | img.singular)[:1]
    own.at(first).require_nonsingular("ellipsoid matrix")
    img.at(first).require_nonsingular("matrix")
    _, _, s_A, e_A = sy._squeeze_bounds(own.svals, rho_val)
    return sy._Widths(sy._spectrum(stack)[:, 0], sy._spectrum(image)[:, 0], s_A, e_A)


def _reference_records(columns):
    rows = zip(*(c.tolist() for c in columns.values()))
    return [
        {"index": i, **{k: None if v != v else v for k, v in zip(columns, row)}}  # v != v: NaN
        for i, row in enumerate(rows)
    ]


def _reference_width_certificate(phi, eps, ellipsoids, kind):
    phi, n = sy._as_even_matrix(phi)
    singular = sy._conditioning(phi).singular
    report = sy.CertificateReport(kind, eps, sy._width_rho(eps))
    if singular:
        report.passed = False
        report.note = "singular map: fails unconditionally (arbitrarily thin image ellipsoids)"
        return phi, report, None
    return phi, report, _reference_width_table(phi, report.rho, ellipsoids)


def _reference_nonsqueezing(phi, eps, ellipsoids):
    phi, report, t = _reference_width_certificate(phi, eps, ellipsoids, "nonsqueezing")
    if t is None:
        return report
    margin = t.R1 - t.s_A * t.r1
    ok = margin >= -sy.CERT_TOL * np.minimum(1.0, t.r1)
    report.records = _reference_records({"r1": t.r1, "R1": t.R1, "s_A": t.s_A, "margin": margin, "pass": ok})
    report.passed = bool(ok.all())
    report.worst = sy._worst(margin)
    return report


def _reference_nonexpanding(phi, eps, ellipsoids):
    phi, report, t = _reference_width_certificate(phi, eps, ellipsoids, "nonexpanding")
    if t is None:
        return report
    margin = t.e_A * t.r1 - t.R1  # NaN where e_A is undefined
    skipped = np.isnan(t.e_A)
    ok = skipped | (margin >= -sy.CERT_TOL * np.minimum(1.0, t.r1))
    report.records = _reference_records(
        {"r1": t.r1, "R1": t.R1, "e_A": t.e_A, "skipped": skipped, "pass": ok, "margin": margin}
    )
    radii = list(sy.BALL_RADII)
    balls = np.multiply.outer(np.asarray(radii, dtype=float), np.eye(phi.shape[0]))
    ball_widths = sy.symplectic_spectrum(phi @ balls)[:, 0]
    bounds = np.asarray(radii, dtype=float) / report.rho
    ball_ok = bounds - ball_widths >= -sy.CERT_TOL * np.minimum(1.0, radii)
    report.ball_checks = [
        {"radius": r, "image_width": w, "bound": b, "pass": p}
        for r, w, b, p in zip(radii, ball_widths.tolist(), bounds.tolist(), ball_ok.tolist())
    ]
    report.passed = bool(ok.all() and ball_ok.all())
    report.worst = sy._worst(margin)
    return report


def _reference_capacity(phi, eps, ellipsoids):
    phi, report, t = _reference_width_certificate(phi, eps, ellipsoids, "capacity")
    if t is None:
        return report
    cap = math.pi * sy._squares(t.r1)
    cap_img = math.pi * sy._squares(t.R1)
    lower = cap_img - sy._squares(t.s_A) * cap
    upper = sy._squares(t.e_A) * cap - cap_img  # NaN where e_A is undefined
    undefined = np.isnan(upper)
    lower_ok = lower >= -sy.CERT_TOL * np.minimum(1.0, cap)
    upper_ok = upper >= -sy.CERT_TOL * np.minimum(1.0, cap)
    ok = lower_ok & (upper_ok | undefined)
    report.records = _reference_records({
        "capacity": cap, "image_capacity": cap_img, "s_A": t.s_A, "e_A": t.e_A,
        "lower_margin": lower, "lower_pass": lower_ok,
        "upper_margin": upper, "upper_pass": np.where(undefined, None, upper_ok),
        "pass": ok,
    })
    report.passed = bool(ok.all())
    report.worst = sy._worst(np.fmin(lower, upper))
    return report


def _reference_reports(phi, eps, batch):
    return (
        _reference_nonsqueezing(phi, eps, batch),
        _reference_nonexpanding(phi, eps, batch),
        _reference_capacity(phi, eps, batch),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_width_certificates_equal_three_separate_passes(n):
    rng = np.random.default_rng(100 + n)
    dim = 2 * n
    phi = sy.random_eps_symplectic(n, 0.1, seed=20 + n)
    thin = np.diag(np.linspace(0.05, 1.0, dim))  # e_A undefined
    mixed = [random_ellipsoid(rng, n) for _ in range(6)] + [thin, POW_DIFFERS * np.eye(dim)]
    crush = np.eye(dim)
    crush[0, 0] = 0.1
    singular = np.eye(dim)
    singular[0, 0] = 0.0
    cases = [
        (phi, 0.1 * math.sqrt(2.0), [random_ellipsoid(rng, n) for _ in range(9)]),
        (phi, 0.5, mixed),
        (phi, 0.1, []),
        (phi, 0.1 * math.sqrt(2.0), ellipsoid_batch(n, 3, n)),  # the canonical grid, as certify's stack
        (crush, 0.0, mixed),
        (1.3 * np.eye(dim), 0.1, mixed),  # fails the ball clause
        (singular, 0.1, mixed),
    ]
    for phi_case, eps, batch in cases:
        certs = sy.width_certificates(phi_case, eps, batch)
        # repr compares key order, types and float bits (0.0 against -0.0 too)
        assert repr(_view(certs)) == repr(_schema3_reports(_reference_reports(phi_case, eps, batch)))
        selected = (
            sy.check_eps_nonsqueezing(phi_case, eps, batch),
            sy.check_eps_nonexpanding(phi_case, eps, batch),
            sy.capacity_preservation_check(phi_case, eps, batch),
        )
        assert [repr(r.to_dict()) for r in selected] == [repr(r.to_dict()) for r in certs[:3]]


def _raised(call):
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_width_certificates_raise_as_three_separate_passes(n):
    dim = 2 * n
    eye = np.eye(dim)
    singular = np.diag([0.0] + [1.0] * (dim - 1))
    thin_phi = np.diag([1e7] + [1.0] * (dim - 1))
    cases = [
        (eye, 0.1, [eye, eye, np.diag([1.0] * (dim - 1) + [1e-13]), np.zeros((dim, dim))]),
        (thin_phi, 0.1, [eye, thin_phi]),  # phi A singular
        (eye, 0.1, [eye, np.eye(dim + 2)]),  # misshapen
        (eye, 1.0, [eye]),  # eps out of range
        (eye, -0.1, [eye]),
        (singular, 1.5, [eye]),  # the range error comes before the singular-map verdict
    ]
    for phi, eps, batch in cases:
        raised = _raised(lambda: sy.width_certificates(phi, eps, batch))
        assert raised[0] is ValueError
        for reference in (_reference_nonsqueezing, _reference_nonexpanding, _reference_capacity):
            assert _raised(lambda: reference(phi, eps, batch)) == raised


def _conditioned(rng, n, cond, k):
    """U diag(sigma) V with U, V random orthogonal and sigma from 2^k down to
    2^k / cond, geometrically spaced."""
    dim = 2 * n
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    V, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    sigma = np.ldexp(np.geomspace(1.0, 1.0 / cond, dim), k)
    return (U * sigma) @ V


def _outcome(call):
    """repr of what call returns, or the (type, message) raised."""
    try:
        with np.errstate(all="ignore"):
            return repr(call())
    except Exception as exc:  # LinAlgError too: an infinite image fails in the eigensolver
        return type(exc), str(exc)


# kappa(phi) kappa(A) < 5e11 clears phi A of singularity without its SVD: the
# conditions straddle that margin and 1e12, and the scales 2^k its range guard
BOUND_CONDS = (1.0, 1e5, 2.4e11, 4e11, 9e11, 2e12)
BOUND_SCALES = (-1000, -560, -500, 0, 500, 560)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_width_certificates_by_the_bound_equal_the_svd_of_every_image(n):
    rng = np.random.default_rng(300 + n)
    grid = list(itertools.product(BOUND_CONDS, BOUND_SCALES))
    tiny = np.ldexp(np.eye(2 * n), -664)  # phi A underflows to 0, yet kappa(phi) kappa(A) = 1
    cases = [(tiny, [np.eye(2 * n), tiny])]
    if n == 2:  # kappa(phi) = 4e11 on the canonical grid: phi diag(0.5, 0.5, 2, 2) is singular
        cases.append((sy.plane_scaling([1e-6, 4e5]), ellipsoid_batch(2, 0, 0)))
    for cond, k in grid:
        phi = _conditioned(rng, n, cond, k)
        for _ in range(3):
            picks = rng.integers(len(grid), size=3)
            cases.append((phi, [_conditioned(rng, n, *grid[i]) for i in picks]))
    refused = []
    for phi, batch in cases:
        got = _outcome(lambda: _view(sy.width_certificates(phi, 0.1, batch)))
        assert got == _outcome(lambda: _schema3_reports(_reference_reports(phi, 0.1, batch)))
        if isinstance(got, tuple):
            refused.append(got)
    assert len(cases) == 1 + (n == 2) + 3 * len(grid)
    assert (ValueError, "singular matrix (condition number inf)") in refused
    if n == 2:
        assert (ValueError, "singular matrix (condition number 1.600e+12)") in refused


def test_image_bound_margin_and_range():
    def cleared(phi, A):
        return sy._image_cleared(sy._conditioning(phi), sy._conditioning(A[None])).tolist() == [True]

    # kappa(phi) kappa(A) below 5e11 clears phi A up to dimension 76; from 78
    # the rounding of the product and of the SVDs narrows the margin
    for dim in (4, 76, 78):
        phi = np.diag([4.9e11] + [1.0] * (dim - 1))
        assert cleared(phi, np.eye(dim)) is (dim < 78)
    assert not cleared(np.diag([5e11, 1.0, 1.0, 1.0]), np.eye(4))
    assert not cleared(np.diag([2.5e11, 1.0, 1.0, 1.0]), np.diag([2.0, 1.0, 1.0, 1.0]))
    # the range guard: sigma_max(phi) sigma_max(A) below 2^500 and
    # sigma_min(phi) sigma_min(A) above 2^-500; an overflowing product is not cleared
    for k, ok in ((-250, False), (-249, True), (249, True), (250, False), (600, False)):
        assert cleared(np.ldexp(np.eye(4), k), np.ldexp(np.eye(4), k)) is ok


def _lapack_extremes(stack):
    """sigma_max, sigma_min and r_1 of each matrix of a stack, by LAPACK."""
    svals = np.linalg.svd(stack, compute_uv=False)
    return svals[:, [0, -1]], sy._spectrum(stack)[:, 0]


def _plane_diagonal_stacks():
    """The canonical grid for n = 1..4, the three balls for n = 5..8, and
    2,000 seeded plane-diagonal matrices, n = 1..8, with radii in
    [2^-100, 2^100] (the endpoints among them)."""
    stacks = [ellipsoid_batch(n, 0, 0) for n in range(1, 9)]
    rng = np.random.default_rng(17)
    for n in range(1, 9):
        radii = np.ldexp(rng.uniform(0.5, 1.0, (250, n)), rng.integers(-99, 101, (250, n)))
        radii[:2, 0] = 2.0**-100, 2.0**100
        stacks.append(np.repeat(radii, 2, axis=1)[:, :, None] * np.eye(2 * n))
    return stacks


def test_plane_diagonal_closed_form_equals_lapack():
    counted = 0
    for stack in _plane_diagonal_stacks():
        rows, extremes = sy._plane_diagonal(stack)
        assert rows.all()
        svals, r1 = _lapack_extremes(stack)
        assert np.array_equal(extremes, svals)
        assert np.array_equal(extremes[:, 1], r1)
        counted += len(stack)
    assert counted == sum(3**n for n in range(1, 5)) + 4 * 3 + 2000


def test_plane_diagonal_rows_outside_its_reach_take_lapack(monkeypatch):
    def diag(*entries):
        return np.diag(np.array(entries, dtype=float))

    kept = [diag(0.5, 0.5, 2.0, 2.0), np.ldexp(np.eye(4), -100), np.ldexp(np.eye(4), 100)]
    refused = [
        np.ldexp(np.eye(4), -101),  # radii below 2^-100
        np.ldexp(np.eye(4), 101),  # above 2^100
        diag(1.0, 2.0, 1.0, 1.0),  # unequal radii in a plane
        diag(-1.0, -1.0, 1.0, 1.0),  # a negative radius
        diag(0.0, 0.0, 1.0, 1.0),  # singular
        np.eye(4) + np.ldexp(np.eye(4, k=1), -1074),  # one off-diagonal entry
    ]
    stack = np.array(kept + refused)
    rows, extremes = sy._plane_diagonal(stack)
    assert rows.tolist() == [True] * len(kept) + [False] * len(refused)
    assert extremes.tolist() == [[2.0, 0.5], [2.0**-100, 2.0**-100], [2.0**100, 2.0**100]]
    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda A, *args, **kwargs: svds.append(A) or svd(A, *args, **kwargs))
    lapack = np.array(refused[:4])
    widths = sy.width_certificates(np.eye(4), 0.1, np.array(kept + refused[:4])).widths
    assert len(svds) == 2 and np.array_equal(svds[1], lapack)  # after phi's, only the refused rows
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert widths["r1"] == [0.5, 2.0**-100, 2.0**100] + _lapack_extremes(lapack)[1].tolist()


# -- finite or refused ---------------------------------------------------------


def test_defect_refuses_overflow():
    # entries overflow in Phi^T J Phi, and (at 1e100) in the norm of a finite difference
    for scale in (1e308, 1e100):
        with pytest.raises(ValueError, match="overflows"):
            sy.defect(scale * np.eye(2))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_parse_rejects_non_finite_entries(token):
    with pytest.raises(ValueError, match=r"non-finite entry .* at row 2, column 1"):
        sy.parse_matrix_text(f"n 1\n1 0\n{token} 1\n")
    with pytest.raises(ValueError, match=r"non-finite entry .* at row 1, column 2"):
        sy.matrix_from_json_dict({"n": 1, "rows": [[1.0, float(token)], [0.0, 1.0]]})
