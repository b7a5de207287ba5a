import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from sympeps import moser as mo
from sympeps import polyform as pf
from sympeps import symplectic as sy


def test_flow_config_validation():
    with pytest.raises(ValueError, match="step size"):
        mo.FlowConfig(step_size=0.05)
    with pytest.raises(ValueError, match="step size"):
        mo.FlowConfig(step_size=0.0)
    with pytest.raises(ValueError, match=r"step size must lie in \[1e-4, 1e-2\], got 1e-05"):
        mo.FlowConfig(step_size=1e-5)
    assert mo.FlowConfig(step_size=2e-3).n_steps == 500
    assert mo.FlowConfig(step_size=1e-4).n_steps == 10000
    data = mo.symplectify(np.eye(2), 0.0, mo.FlowConfig(step_size=1e-2)).to_dict()
    assert (data["method"], data["max_defect_tol"]) == ("rk4-classical", 1e-6)


def _field(phi, t):
    """C(t) of the linear correction field of phi, from M = Phi^T J Phi - J."""
    phi = np.asarray(phi, dtype=float)
    J = sy.standard_J(phi.shape[0] // 2)
    return mo._flow_field(phi.T @ J @ phi - J, J, np.array([t]))[0]


def test_field_vanishes_for_symplectic_input():
    rng = np.random.default_rng(1)
    psi = sy.random_symplectic(2, rng)
    for t in (0.0, 0.3, 1.0):
        assert np.max(np.abs(_field(psi, t))) <= 1e-12


def test_field_closed_form_for_plane_scaling():
    c = 1.2
    phi = sy.plane_scaling([c, c])
    for t in (0.0, 0.5, 1.0):
        C = _field(phi, t)
        expected = -0.5 * (c**2 - 1.0) / (1.0 + t * (c**2 - 1.0)) * np.eye(4)
        np.testing.assert_allclose(C, expected, atol=1e-12)


def test_field_at_time_zero():
    phi = sy.asymmetric_defect_map(0.2, 3.0)
    J = sy.standard_J(2)
    M = phi.T @ J @ phi - J
    np.testing.assert_allclose(
        _field(phi, 0.0), -0.5 * np.linalg.solve(J, M), atol=1e-13
    )


def test_degenerate_field_names_its_time():
    # phi = 0 pulls omega0 back to zero, so J + t M = (1 - t) J degenerates at t = 1
    with pytest.raises(ValueError, match=r"interpolated two-form degenerates at t=1\.0"):
        _field(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError, match=r"interpolated two-form degenerates at t=1\.0"):
        mo._integrate_matrix_flow(-sy.standard_J(1), sy.standard_J(1), 10)


def test_field_series_about_a_time():
    # C' = 2 C^2, so C(t + tau) = C(t) (I - 2 tau C(t))^-1 on either side of t
    for n, eps, seed in ((1, 0.3, 0), (2, 0.6, 1), (3, 0.7, 2)):
        phi = sy.random_eps_symplectic(n, eps, seed=seed)
        for t, tau in ((0.0, 0.01), (0.3, 0.2), (0.9, 0.1), (0.5, -0.4)):
            C = _field(phi, t)
            series = C @ np.linalg.inv(np.eye(2 * n) - 2.0 * tau * C)
            np.testing.assert_allclose(_field(phi, t + tau), series, rtol=0, atol=1e-13)


def test_symplectify_report_layout():
    data = mo.symplectify(sy.plane_scaling([1.01]), 0.03, mo.FlowConfig(step_size=1e-2)).to_dict()
    assert list(data) == [
        "psi", "eps", "rho", "input_defect", "residual_defect", "residual_ok", "displacement",
        "displacement_bound", "displacement_margin", "displacement_ok", "column_displacements",
        "sv_min", "sv_max", "sandwich_margin_lower", "sandwich_margin_upper", "sandwich_ok", "steps",
        "step_size", "effective_step", "method", "max_defect_tol", "passed",
    ]
    assert type(data["psi"]) is list and {type(row) for row in data["psi"]} == {list}
    assert {type(data[key]) for key in ("residual_ok", "displacement_ok", "sandwich_ok", "passed")} == {bool}
    assert {type(v) for v in data["column_displacements"]} == {float}
    assert (type(data["steps"]), data["steps"]) == (int, 100)


def test_symplectify_identity():
    rep = mo.symplectify(np.eye(4), 0.0)
    np.testing.assert_allclose(rep.psi, np.eye(4), atol=1e-13)
    assert rep.residual_defect <= 1e-13
    assert rep.passed


def test_symplectify_plane_scaling_analytic_oracle():
    # the flow inverts each plane factor: psi = diag(1/c_j) up to integrator error
    for factors in ([0.8, 1.25], [1.1, 0.9], [0.85, 1.2, 1.05]):
        phi = sy.plane_scaling(factors)
        eps = sy.defect(phi)
        rep = mo.symplectify(phi, eps + 1e-12)
        oracle = sy.plane_scaling([1.0 / c for c in factors])
        assert np.max(np.abs(rep.psi - oracle)) <= 1e-6
        assert rep.residual_defect <= 1e-6
        assert rep.passed


def test_symplectify_random_eps_maps():
    for seed in range(10):
        phi = sy.random_eps_symplectic(2, 0.05, seed=seed)
        rep = mo.symplectify(phi, 0.05)
        assert rep.residual_defect <= 1e-6
        assert rep.displacement_margin >= -1e-6
        assert rep.sandwich_margin_lower >= -1e-6
        assert rep.sandwich_margin_upper >= -1e-6
        assert rep.passed


def test_symplectify_composition_is_symplectic():
    phi = sy.random_eps_symplectic(3, 0.15, seed=5)
    rep = mo.symplectify(phi, 0.15)
    assert sy.defect(phi @ rep.psi) == pytest.approx(rep.residual_defect, abs=1e-15)
    assert rep.residual_defect <= 1e-6


def test_symplectify_preconditions():
    phi = sy.asymmetric_defect_map(0.3, 2.0)
    with pytest.raises(mo.DefectAboveBudget, match="exceeds eps"):
        mo.symplectify(phi, 0.1)
    with pytest.raises(ValueError, match="sqrt"):
        mo.symplectify(np.eye(4), 0.8)


def test_step_halving_is_fourth_order():
    phi = sy.random_eps_symplectic(2, 0.68, seed=4)
    psis = [
        mo.symplectify(phi, 0.68, mo.FlowConfig(step_size=s)).psi
        for s in (0.01, 0.005, 0.0025)
    ]
    ratio = np.linalg.norm(psis[0] - psis[1], "fro") / np.linalg.norm(
        psis[1] - psis[2], "fro"
    )
    assert abs(ratio - 16.0) <= 2.0


def _rk4_reference_flow(M, J, n_steps):
    """Stage-by-stage classical RK4 for Y' = C(t) Y, one step at a time."""
    C = mo._flow_field(M, J, np.linspace(0.0, 1.0, 2 * n_steps + 1))
    h = 1.0 / n_steps
    Y = np.eye(M.shape[0])
    for i in range(n_steps):
        c0, cm, c1 = C[2 * i], C[2 * i + 1], C[2 * i + 2]
        k1 = c0 @ Y
        k2 = cm @ (Y + (0.5 * h) * k1)
        k3 = cm @ (Y + (0.5 * h) * k2)
        k4 = c1 @ (Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Y


def _symplectic_polar(phi, max_iter=20):
    """The exact time-1 map of the linear flow, psi = (Phi^* Phi)^(-1/2) with
    Phi^* = J^-1 Phi^T J: Newton X <- (X + J^-1 X^-T J) / 2 from X = Phi
    converges to the symplectic polar factor Phi psi."""
    J = sy.standard_J(phi.shape[0] // 2)
    X = phi
    for _ in range(max_iter):
        step = 0.5 * (np.linalg.solve(J, np.linalg.inv(X).T @ J) - X)
        X = X + step
        if np.max(np.abs(step)) <= 1e-14 * np.max(np.abs(X)):
            return np.linalg.solve(phi, X)
    raise AssertionError(f"Newton did not converge in {max_iter} iterations")


def test_symplectic_polar_oracle():
    for factors in ([0.8, 1.25], [0.85, 1.2, 1.05]):
        psi = _symplectic_polar(sy.plane_scaling(factors))
        np.testing.assert_allclose(psi, sy.plane_scaling([1.0 / c for c in factors]), rtol=0, atol=1e-15)
    phi = sy.random_eps_symplectic(3, 0.69, seed=3)
    assert sy.defect(phi @ _symplectic_polar(phi)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symplectify_matches_the_symplectic_polar_factor(n):
    # measured over 400 maps: at most 2.5e-14 at step 1e-3 and 2.4e-10 at 1e-2
    for seed, eps in enumerate((0.0, 0.05, 0.3, 0.6, 0.69, 0.69)):
        phi = sy.random_eps_symplectic(n, eps, seed=seed)
        exact = _symplectic_polar(phi)
        for step, bound in ((1e-3, 1e-12), (1e-2, 1e-8)):
            psi = mo.symplectify(phi, eps, mo.FlowConfig(step)).psi
            assert np.max(np.abs(psi - exact)) <= bound * np.max(np.abs(exact)), (eps, step)


def _defect_matrix(n, eps, seed):
    phi = sy.random_eps_symplectic(n, eps, seed=seed)
    J = sy.standard_J(n)
    return phi, phi.T @ J @ phi - J, J


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_flow_matches_stepwise_rk4(n):
    for seed, eps in enumerate((0.0, 0.05, 0.3, 0.6, 0.68)):
        _, M, J = _defect_matrix(n, eps, seed)
        for n_steps in (1, 2, 3, 7, 100, 101, 333, 1000):
            stacked = mo._integrate_matrix_flow(M, J, n_steps)
            reference = _rk4_reference_flow(M, J, n_steps)
            assert np.max(np.abs(stacked - reference)) <= 1e-13, (eps, n_steps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_flow_residual_defect(n):
    for seed, eps in enumerate((0.0, 0.1, 0.3, 0.45, 0.6)):
        phi, M, J = _defect_matrix(n, eps, 100 + seed)
        psi = mo._integrate_matrix_flow(M, J, mo.FlowConfig().n_steps)
        assert sy.defect(phi @ psi) <= 1e-13, eps


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grid_field_matches_the_per_time_solve(n):
    J = sy.standard_J(n)
    for seed, eps in enumerate((0.0, 0.1, 0.4, 0.7, sy.EPS_LIMIT - 1e-9)):
        phi = sy.random_eps_symplectic(n, eps, seed=seed)
        M = phi.T @ J @ phi - J
        for n_steps in (100, 333, 1000, 10000):
            solved = mo._flow_field(M, J, np.linspace(0.0, 1.0, 2 * n_steps + 1))
            bound = 16 * np.finfo(float).eps * np.linalg.norm(solved, 2, axis=(1, 2)).max()
            assert np.max(np.abs(mo._grid_field(M, J, n_steps) - solved)) <= bound, (eps, n_steps)


def test_grid_field_solves_at_anchor_times_only(monkeypatch):
    solved_times, flow_field = [], mo._flow_field

    def recording(M, J, ts):
        solved_times.append(ts)
        return flow_field(M, J, ts)

    monkeypatch.setattr(mo, "_flow_field", recording)
    _, M, J = _defect_matrix(3, 0.7, 7)
    n_steps = mo.FlowConfig().n_steps
    mo._integrate_matrix_flow(M, J, n_steps)
    (anchors,) = solved_times
    assert len(anchors) <= 101 and anchors[0] == 0.0 and anchors[-1] == 1.0
    assert np.diff(anchors).max() <= 0.01 + 1e-15
    assert np.isin(anchors, np.linspace(0.0, 1.0, 2 * n_steps + 1)).all()
    # D >= 1/sqrt(2): the series bound fails, so every grid time is solved for
    J = sy.standard_J(2)
    phi = sy.random_defective(2, 0.75, np.random.default_rng(8))
    assert sy.defect(phi) >= sy.EPS_LIMIT
    M = phi.T @ J @ phi - J
    for n_steps in (50, 333):
        solved_times.clear()
        grid = mo._grid_field(M, J, n_steps)
        (times,) = solved_times
        assert np.array_equal(times, np.linspace(0.0, 1.0, 2 * n_steps + 1))
        assert np.array_equal(grid, flow_field(M, J, times))


def test_report_serializes():
    rep = mo.symplectify(np.eye(4), 0.0)
    data = rep.to_dict()
    assert data["passed"] is True
    assert data["steps"] == 1000
    assert np.asarray(data["psi"]).shape == (4, 4)


def test_polymap_pullback_of_linear_map_matches_matrix_route():
    phi = sy.asymmetric_defect_map(0.25, 2.0)
    pm = mo.PolyMap.from_matrix(phi)
    beta = pm.pullback_omega0()
    J = sy.standard_J(2)
    M = phi.T @ J @ phi
    for (i, j), poly in beta.terms.items():
        assert set(poly) == {(0, 0, 0, 0)}  # linear map: constant coefficients
        assert float(poly[(0, 0, 0, 0)]) == pytest.approx(M[j - 1, i - 1], abs=1e-15)


def test_pointwise_identity_map_constant_trajectories():
    pm = mo.PolyMap.identity(4)
    pts = [np.array([0.3, -0.2, 0.1, 0.4]), np.zeros(4)]
    rep = mo.symplectify_polynomial_pointwise(pm, pts, 0.0, mo.FlowConfig(step_size=1e-2))
    for p, fin in zip(rep.points, rep.finals):
        np.testing.assert_allclose(fin, p, atol=1e-14)
    assert rep.passed


def test_pointwise_matches_matrix_flow_for_linear_maps():
    phi = sy.random_eps_symplectic(2, 0.1, seed=9)
    eps = 0.1
    cfg = mo.FlowConfig(step_size=1e-3)
    matrix_rep = mo.symplectify(phi, eps, cfg)
    pm = mo.PolyMap.from_matrix(phi)
    pts = [np.array([0.5, 0.1, -0.3, 0.2]), np.array([0.0, 0.7, 0.1, -0.1])]
    point_rep = mo.symplectify_polynomial_pointwise(pm, pts, eps, cfg)
    for p, fin in zip(pts, point_rep.finals):
        np.testing.assert_allclose(fin, matrix_rep.psi @ p, atol=1e-8)
    assert point_rep.passed


def test_pointwise_plane_scaling_rescales_by_inverse_factors():
    factors = [Fraction(4, 5), Fraction(5, 4)]
    pm = mo.PolyMap.plane_scaling(factors)
    linear = sy.plane_scaling([float(f) for f in factors])
    eps = sy.defect(linear) + 1e-12
    pts = [np.array([0.3, 0.1, -0.2, 0.4]), np.array([0.5, 0.0, 0.0, 0.0])]
    rep = mo.symplectify_polynomial_pointwise(pm, pts, eps, mo.FlowConfig(step_size=1e-3))
    oracle = sy.plane_scaling([float(1 / f) for f in factors])
    for p, fin in zip(pts, rep.finals):
        np.testing.assert_allclose(fin, oracle @ p, atol=1e-6)
    assert rep.passed


def test_pointwise_rejects_defect_above_budget():
    pm = mo.PolyMap.plane_scaling([Fraction(2), Fraction(1)])
    with pytest.raises(mo.DefectAboveBudget, match="exceeds eps"):
        mo.symplectify_polynomial_pointwise(pm, [np.zeros(4)], 0.01)


def test_correction_realizes_width_inclusion():
    # the geometry behind the width certificates: the correction psi maps the
    # shrunken ellipsoid E(s_A A) into E(A), so the symplectic map phi @ psi
    # carries E(s_A A) into phi E(A)
    rng = np.random.default_rng(33)
    eps = 0.1
    eps_prime = math.sqrt(2.0) * eps
    phi = sy.random_eps_symplectic(2, eps, seed=11)
    psi = mo.symplectify(phi, eps).psi
    for _ in range(5):
        A = np.linalg.qr(rng.normal(size=(4, 4)))[0] @ sy.plane_scaling(
            rng.uniform(0.6, 1.6, size=2)
        )
        params = sy.squeezing_params(A, eps_prime)
        A_inv = np.linalg.inv(A)
        for _ in range(50):
            w = rng.normal(size=4)
            x = params.s_A * (A @ (w / np.linalg.norm(w)))  # boundary of E(s_A A)
            assert np.linalg.norm(A_inv @ (psi @ x)) <= 1.0 + 1e-6


def _pointwise_reference(phi, points, eps, config=None):
    """The per-point flow before stacking: one RK4 loop per point, kept as the
    reference for ``symplectify_polynomial_pointwise`` (lists in a namespace)."""
    config = config or mo.FlowConfig()
    if not 0.0 <= eps < sy.EPS_LIMIT:
        raise ValueError(f"eps must lie in [0, 1/sqrt(2)), got {eps}")
    n = phi.m // 2
    J = sy.standard_J(n)
    beta = phi.pullback_omega0() - mo.omega0_polyform(n)
    sigma = pf.h(beta)
    beta_table = pf.MonomialTable(beta)
    sigma_table = pf.MonomialTable(sigma)
    rows, cols = np.array(beta_table.indices, dtype=int).reshape(-1, 2).T - 1
    slots = np.array(sigma_table.indices, dtype=int).reshape(-1) - 1

    def vector_field(t: float, x: np.ndarray) -> np.ndarray:
        rhs = np.zeros(phi.m)
        rhs[slots] = -sigma_table.values(x[None, :])[0]
        if not rhs.any():
            return rhs
        B = np.zeros((phi.m, phi.m))
        B[cols, rows] = beta_table.values(x[None, :])[0]
        B[rows, cols] = -B[cols, rows]
        try:
            return np.linalg.solve(J + t * B, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"interpolated two-form degenerates at t={t}, x={x.tolist()}") from exc

    n_steps = config.n_steps
    hstep = 1.0 / n_steps
    root = math.sqrt(2 * n)
    shrink = 1.0 - math.sqrt(2.0) * eps

    report = SimpleNamespace(
        eps=float(eps),
        n=n,
        points=[],
        finals=[],
        trajectories=[],
        point_defects=[],
        radius_margins=[],
        radius_ok=[],
        displacements=[],
        displacement_bounds=[],
        displacement_ok=[],
        steps=n_steps,
        passed=True,
    )
    for point in points:
        x0 = np.asarray(point, dtype=float)
        if x0.shape != (phi.m,):
            raise ValueError(f"point dimension {x0.shape} does not match m={phi.m}")
        local_defect = float(beta_table.norms(x0[None, :])[0])
        if local_defect > eps + 1e-9:
            raise mo.DefectAboveBudget(
                f"defect {local_defect:.6e} at point {x0.tolist()} exceeds eps {eps:.6e}"
            )
        traj = np.empty((n_steps + 1, phi.m))
        traj[0] = x0
        x = x0.copy()
        r0 = float(np.linalg.norm(x0))
        worst_margin = math.inf
        for i in range(n_steps):
            t = i * hstep
            k1 = vector_field(t, x)
            k2 = vector_field(t + 0.5 * hstep, x + 0.5 * hstep * k1)
            k3 = vector_field(t + 0.5 * hstep, x + 0.5 * hstep * k2)
            k4 = vector_field(t + hstep, x + hstep * k3)
            x = x + (hstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            traj[i + 1] = x
            tt = (i + 1) * hstep
            factor = (1.0 - math.sqrt(2.0) * eps * tt) ** root
            radius = float(np.linalg.norm(x))
            worst_margin = min(worst_margin, radius - r0 * factor, r0 / factor - radius)
        displacement = float(np.linalg.norm(x - x0))
        disp_bound = r0 * (shrink**-root - 1.0)
        radius_ok = worst_margin >= -mo.BOUND_TOL
        disp_ok = displacement <= disp_bound + mo.BOUND_TOL
        report.points.append([float(v) for v in x0])
        report.finals.append([float(v) for v in x])
        report.trajectories.append(traj)
        report.point_defects.append(local_defect)
        report.radius_margins.append(worst_margin if worst_margin < math.inf else 0.0)
        report.radius_ok.append(radius_ok)
        report.displacements.append(displacement)
        report.displacement_bounds.append(disp_bound)
        report.displacement_ok.append(disp_ok)
        report.passed = report.passed and radius_ok and disp_ok
    return report


def _quadratic_map(m, seed):
    """Identity plus seeded quadratic terms with coefficients in {-3..3}/30:
    a nonlinear map whose defect form has non-constant coefficients."""
    rng = np.random.default_rng(seed)
    comps = []
    for i in range(1, m + 1):
        poly = pf.poly_var(m, i)
        for _ in range(2):
            j, k = (int(v) for v in rng.integers(1, m + 1, size=2))
            quad = pf.poly_mul(pf.poly_var(m, j), pf.poly_var(m, k))
            poly = pf.poly_add(poly, pf.poly_scale(quad, Fraction(int(rng.integers(-3, 4)), 30)))
        comps.append(poly)
    return mo.PolyMap(m, tuple(comps))


def _plane_case(factors):
    eps = sy.defect(sy.plane_scaling([float(c) for c in factors])) + 1e-12
    return mo.PolyMap.plane_scaling(factors), eps


POINTWISE_CASES = {
    "linear-m2": (mo.PolyMap.from_matrix(sy.random_eps_symplectic(1, 0.1, seed=1)), 0.1, 1e-2),
    "linear-m4": (mo.PolyMap.from_matrix(sy.random_eps_symplectic(2, 0.1, seed=2)), 0.1, 1e-2),
    "linear-m6": (mo.PolyMap.from_matrix(sy.random_eps_symplectic(3, 0.1, seed=3)), 0.1, 1e-2),
    "plane-m4": (*_plane_case([Fraction(4, 5), Fraction(5, 4)]), 1e-2),
    "plane-m6": (*_plane_case([Fraction(9, 10), Fraction(1), Fraction(11, 10)]), 1e-2),
    "quadratic-m2": (_quadratic_map(2, 2), 0.6, 1e-2),
    "quadratic-m4": (_quadratic_map(4, 4), 0.6, 1e-2),
    "quadratic-m6": (_quadratic_map(6, 6), 0.6, 1e-2),
    "quadratic-m4-step2e-3": (_quadratic_map(4, 2), 0.6, 2e-3),
}


@pytest.mark.parametrize("case", sorted(POINTWISE_CASES))
def test_pointwise_flow_matches_per_point_reference(case):
    pm, eps, step = POINTWISE_CASES[case]
    rng = np.random.default_rng(len(case))
    pts = [np.zeros(pm.m)] + list(rng.normal(size=(4, pm.m)) * 0.5)
    cfg = mo.FlowConfig(step_size=step)
    got = mo.symplectify_polynomial_pointwise(pm, pts, eps, cfg)
    ref = _pointwise_reference(pm, pts, eps, cfg)
    assert np.array_equal(got.points, ref.points)
    assert np.array_equal(got.finals, ref.finals)
    assert np.array_equal(got.trajectories, np.stack(ref.trajectories, axis=1))
    assert np.array_equal(got.point_defects, ref.point_defects)
    assert np.array_equal(got.displacement_bounds, ref.displacement_bounds)
    # axis norms along the trajectories may differ from 1-D norms in the last bit
    assert np.max(np.abs(got.radius_margins - ref.radius_margins)) <= 1e-15
    assert np.max(np.abs(got.displacements - ref.displacements)) <= 1e-15
    assert got.radius_ok.tolist() == ref.radius_ok
    assert got.displacement_ok.tolist() == ref.displacement_ok
    assert got.passed is ref.passed is True
    assert list(got.to_dict()) == [
        "eps", "n", "steps", "passed", "points", "finals", "point_defects", "radius_margins",
        "radius_ok", "displacements", "displacement_bounds", "displacement_ok",
    ]


def test_pointwise_refuses_inputs_like_the_reference():
    identity = mo.PolyMap.identity(4)
    short = [np.zeros(4), np.array([0.1, 0.0, 0.0])]
    quad = _quadratic_map(4, 2)
    steep = [np.full(4, 0.1), np.full(4, 3.0), np.full(4, 4.0)]
    messages = []
    for run in (mo.symplectify_polynomial_pointwise, _pointwise_reference):
        with pytest.raises(ValueError, match=r"point dimension \(3,\) does not match m=4"):
            run(identity, short, 0.1)
        with pytest.raises(mo.DefectAboveBudget) as info:
            run(quad, steep, 0.3, mo.FlowConfig(1e-2))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "at point [3.0, 3.0, 3.0, 3.0]" in messages[0]


def test_pointwise_flow_of_no_points_passes():
    rep = mo.symplectify_polynomial_pointwise(_quadratic_map(4, 2), [], 0.6, mo.FlowConfig(1e-2))
    assert rep.trajectories.shape == (101, 0, 4)
    assert rep.to_dict()["finals"] == [] and rep.passed


def _jacobian(pm, x):
    """D phi at x from the exact component differentials."""
    D = np.zeros((pm.m, pm.m))
    for i in range(pm.m):
        table = pf.MonomialTable(pm.component_differential(i + 1))
        D[i, [j - 1 for (j,) in table.indices]] = table.values(x[None, :])[0]
    return D


@pytest.mark.parametrize("m, seed", [(4, 2), (6, 3)])
def test_nonlinear_flow_against_jacobian_oracle(m, seed):
    # psi corrects phi where its differential is not symplectic: the product
    # D phi(psi(x0)) D psi(x0) is.  D psi comes from central differences of
    # the flow at x0 +- delta e_i, integrated in the same call as x0; their
    # truncation error is about delta^2 / 6 |psi'''|.
    pm = _quadratic_map(m, seed)
    x0 = np.random.default_rng(seed).normal(size=m) * 0.5
    delta = 1e-3
    shifts = delta * np.eye(m)
    rep = mo.symplectify_polynomial_pointwise(pm, np.vstack([x0, x0 + shifts, x0 - shifts]), 0.6)
    finals = rep.finals
    d_psi = (finals[1:m + 1] - finals[m + 1:]).T / (2.0 * delta)
    assert sy.defect(_jacobian(pm, x0)) > 1e-2
    assert sy.defect(_jacobian(pm, finals[0]) @ d_psi) <= 1e-8
    assert rep.passed
