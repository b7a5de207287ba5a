import json
import math

import numpy as np
import pytest

from sympeps import symplectic as sy
from sympeps.suite import random_defective, random_ellipsoid


def test_defect_identity_is_zero():
    for n in (1, 2, 4):
        assert sy.defect(np.eye(2 * n)) == 0.0


def test_defect_worked_fixture():
    phi = sy.asymmetric_defect_map(0.1, 2.0)
    assert sy.defect(phi) == pytest.approx(0.1, abs=1e-12)
    assert sy.defect(phi.T) == pytest.approx(0.2, abs=1e-12)
    assert sy.defect(np.linalg.inv(phi)) == pytest.approx(0.2, abs=1e-12)


def test_defect_odd_dimension_rejected():
    with pytest.raises(ValueError, match="even"):
        sy.defect(np.eye(3))


def test_empty_matrix_rejected():
    for func in (sy.defect, sy.symplectic_spectrum):
        with pytest.raises(ValueError, match="half-dimension n must be >= 1"):
            func(np.zeros((0, 0)))


def test_two_form_rejects_non_skew():
    with pytest.raises(ValueError, match="skew"):
        sy.TwoForm(np.eye(4))


def test_standard_form_of_reference_structure():
    sf = sy.standard_form(sy.standard_J(1))
    assert sf.rank == 2
    np.testing.assert_allclose(sf.lambda_sq, [1.0])
    np.testing.assert_allclose(sf.u[:, 0], [1.0, 0.0])
    np.testing.assert_allclose(sf.v[:, 0], [0.0, 1.0])


def test_standard_form_single_plane():
    eps = 0.37
    M = np.zeros((4, 4))
    M[1, 0], M[0, 1] = eps, -eps
    sf = sy.standard_form(M)
    assert sf.rank == 2
    assert sf.lambda_sq[0] == pytest.approx(eps, rel=1e-14)
    assert sf.kernel.shape == (4, 2)


def test_standard_form_reconstructs_random_skew():
    rng = np.random.default_rng(77)
    for _ in range(100):
        dim = int(rng.integers(2, 11))
        A = rng.normal(size=(dim, dim))
        M = A - A.T
        sf = sy.standard_form(M)
        rel = np.linalg.norm(sf.reconstruct() - M, "fro") / np.linalg.norm(M, "fro")
        assert rel <= 1e-8
        B = sf.basis_matrix()
        assert np.max(np.abs(B.T @ B - np.eye(dim))) <= 1e-9
        # v_j parallel to M u_j with omega(u_j, v_j) = lambda_j^2 > 0
        for lam2, uj, vj in zip(sf.lambda_sq, sf.u.T, sf.v.T):
            assert vj @ (M @ uj) == pytest.approx(lam2, rel=1e-9)


def test_standard_form_zero_matrix():
    sf = sy.standard_form(np.zeros((4, 4)))
    assert sf.rank == 0 and sf.kernel.shape == (4, 4)


def test_standard_form_near_degenerate_pairs():
    # spectral pairs separated by less than the eigensolver can resolve must
    # still reconstruct; the deflation merges them into one cluster
    rng = np.random.default_rng(8)
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    for gap in (0.0, 1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3):
        skew = np.zeros((6, 6))
        skew[:2, :2] = block
        skew[2:4, 2:4] = (1.0 + gap) * block
        skew[4:, 4:] = 1.7 * block
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        M = q @ skew @ q.T
        M = (M - M.T) / 2.0
        sf = sy.standard_form(M)
        rel = np.linalg.norm(sf.reconstruct() - M, "fro") / np.linalg.norm(M, "fro")
        assert rel <= 2e-8, f"gap={gap}: rel={rel}"


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
        phi = random_defective(rng, n, 0.01, 0.98)
        assert sy.defect_decomposition_check(phi).rel_error <= 1e-8


def test_lambda_mu_mus_never_exceed_one():
    # |omega0(u, v)| <= 1 on orthonormal pairs, so every mu_j <= 1
    rng = np.random.default_rng(56)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        phi = random_defective(rng, n, 0.01, 0.98)
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
    for rec in sq.records:  # equality r1 = R1 at eps = 0
        assert rec["R1"] == pytest.approx(rec["r1"], rel=1e-9)


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
    assert report.records[0]["R1"] == pytest.approx(0.1, abs=1e-9)


def test_capacity_lower_bound_fails_for_plane_crush():
    phi = sy.plane_scaling([0.1, 1.0])
    report = sy.capacity_preservation_check(phi, 0.0, [np.eye(4)])
    assert not report.passed
    assert report.records[0]["image_capacity"] == pytest.approx(math.pi * 0.01, rel=1e-9)


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
    report = sy.check_eps_nonexpanding(phi, 0.5, [sy.plane_scaling([0.01, 10.0])])
    assert report.records[0]["skipped"] is True
    assert report.passed  # skipped records do not fail the certificate


def test_certificates_nonlinear_width_factor():
    # the weaker nonlinear factor (1 - eps)^sqrt(2n) shrinks s_A, so an
    # eps-symplectic map still passes
    rng = np.random.default_rng(63)
    phi = sy.random_eps_symplectic(2, 0.05, seed=8)
    batch = [random_ellipsoid(rng, 2) for _ in range(5)]
    eps_prime = math.sqrt(2.0) * 0.05
    linear = sy.squeezing_params(np.eye(4), eps_prime, linear_case=True)
    nonlinear = sy.squeezing_params(np.eye(4), eps_prime, linear_case=False)
    assert nonlinear.rho < linear.rho
    assert nonlinear.s_A < linear.s_A
    assert sy.check_eps_nonsqueezing(phi, eps_prime, batch, linear_case=False).passed


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


def test_certificate_report_serializes():
    report = sy.check_eps_nonsqueezing(np.eye(4), 0.0, [np.eye(4)])
    data = json.loads(report.to_json())
    assert data["kind"] == "nonsqueezing"
    assert data["passed"] is True
    assert data["records"][0]["A"] == np.eye(4).tolist()


def test_ellipsoid_capacity():
    assert sy.ellipsoid_capacity(np.eye(4)) == pytest.approx(math.pi, rel=1e-12)
    assert sy.ellipsoid_capacity(3.0 * np.eye(4)) == pytest.approx(9.0 * math.pi, rel=1e-12)
    assert sy.ellipsoid_capacity(sy.plane_scaling([2.0, 3.0])) == pytest.approx(
        4.0 * math.pi, rel=1e-12
    )


def test_hyperplane_squeeze_is_symplectic_and_squeezes():
    rng = np.random.default_rng(71)
    J = sy.standard_J(3)
    for _ in range(10):
        u = rng.normal(size=6)
        bound = float(rng.uniform(0.5, 2.0))
        R = float(rng.uniform(0.1, 1.0))
        psi = sy.hyperplane_squeeze(u, bound, R)
        assert np.linalg.norm(psi.T @ J @ psi - J, "fro") <= 1e-9
        uhat = u / np.linalg.norm(u)
        vhat = J @ uhat
        # random slab points: orthogonal to u, bounded projection onto J u
        basis = np.linalg.svd(np.vstack([uhat, vhat]))[2][2:]
        for _ in range(20):
            x = float(rng.uniform(-bound, bound)) * vhat + basis.T @ rng.normal(size=4)
            y = psi @ x
            assert math.hypot(y[0], y[1]) <= R + 1e-9


def test_hyperplane_squeeze_preserves_spectra():
    rng = np.random.default_rng(72)
    psi = sy.hyperplane_squeeze(rng.normal(size=4), 1.3, 0.2)
    for _ in range(5):
        A = random_ellipsoid(rng, 2)
        np.testing.assert_allclose(
            sy.symplectic_spectrum(psi @ A), sy.symplectic_spectrum(A), rtol=1e-8
        )


def test_hyperplane_squeeze_standard_normal_is_plane_rescale():
    psi = sy.hyperplane_squeeze(np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 1.0)
    x = np.array([0.3, -0.7, 0.0, 0.0])
    np.testing.assert_allclose(psi @ x, x, atol=1e-12)


def test_hyperplane_squeeze_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero normal"):
        sy.hyperplane_squeeze(np.zeros(4), 1.0, 1.0)


def test_hyperplane_squeeze_single_plane():
    psi = sy.hyperplane_squeeze(np.array([2.0, 0.0]), bound=0.5, R=1.0)
    J = sy.standard_J(1)
    assert np.linalg.norm(psi.T @ J @ psi - J, "fro") <= 1e-9


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


def test_split_interleaved_conversions():
    n = 3
    J_split = np.block(
        [[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]]
    )
    np.testing.assert_array_equal(sy.split_to_interleaved(J_split), sy.standard_J(n))
    np.testing.assert_array_equal(sy.interleaved_to_split(sy.standard_J(n)), J_split)


def test_matrix_text_round_trip(tmp_path):
    phi = sy.asymmetric_defect_map(0.1, 2.0)
    path = tmp_path / "phi.txt"
    sy.save_matrix(path, phi)
    np.testing.assert_array_equal(sy.load_matrix(path), phi)


def test_matrix_json_round_trip(tmp_path):
    phi = sy.plane_scaling([0.5, 2.0])
    path = tmp_path / "phi.json"
    sy.save_matrix(path, phi)
    np.testing.assert_array_equal(sy.load_matrix(path), phi)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [0, 1, 9])
def test_certificate_widths_equal_per_ellipsoid_calls(n, size):
    rng = np.random.default_rng(80 + 10 * n + size)
    phi = sy.random_eps_symplectic(n, 0.1, seed=n)
    batch = [random_ellipsoid(rng, n) for _ in range(size)]
    if size > 1:
        batch[1] = np.diag(np.linspace(0.05, 1.0, 2 * n))  # thin: e_A undefined
    eps_prime = math.sqrt(2.0) * 0.1
    sq = sy.check_eps_nonsqueezing(phi, eps_prime, batch)
    ex = sy.check_eps_nonexpanding(phi, eps_prime, batch)
    cap = sy.capacity_preservation_check(phi, eps_prime, batch)
    assert len(sq.records) == len(ex.records) == len(cap.records) == size
    undefined = 0
    for A, rs, rx, rc in zip(batch, sq.records, ex.records, cap.records):
        params = sy.squeezing_params(A, eps_prime)
        r1 = float(sy.symplectic_spectrum(A)[0])
        R1 = float(sy.symplectic_spectrum(phi @ A)[0])
        assert rs["A"] == rx["A"] == rc["A"] == A.tolist()
        assert (rs["r1"], rs["R1"], rs["s_A"]) == (r1, R1, params.s_A)
        assert (rx["r1"], rx["R1"], rx["e_A"]) == (r1, R1, params.e_A)
        assert (rc["capacity"], rc["image_capacity"]) == (math.pi * r1**2, math.pi * R1**2)
        assert (rc["s_A"], rc["e_A"]) == (params.s_A, params.e_A)
        undefined += params.e_A is None
    assert undefined == (1 if size > 1 else 0)


def test_ball_clause_widths_equal_per_radius_calls():
    phi = sy.random_eps_symplectic(2, 0.1, seed=3)
    for radii in ((0.5, 1.0, 2.0), (1, 3), ()):
        report = sy.check_eps_nonexpanding(phi, 0.1, [np.eye(4)], ball_radii=radii)
        assert [b["radius"] for b in report.ball_checks] == list(radii)
        for r, ball in zip(radii, report.ball_checks):
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
