import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sympeps import exact
from sympeps import moser as mo
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
        mo._integrate_matrix_flow(-sy.standard_J(1), sy.standard_J(1), 100)


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


@pytest.mark.parametrize("step", [1e-2, 3e-3, 1e-3])
def test_symplectify_report_holds_its_step_size(step):
    config = mo.FlowConfig(step_size=step)
    rep = mo.symplectify(sy.plane_scaling([1.01]), 0.03, config)
    assert rep.step_size == config.step_size == step
    data = rep.to_dict()
    names = [f.name for f in dataclasses.fields(rep)]
    assert names[-2:] == ["steps", "step_size"]
    assert list(data) == names + ["effective_step", "method", "max_defect_tol", "passed"]
    assert (data["step_size"], data["effective_step"]) == (step, 1.0 / config.n_steps)


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
    # the eps range is checked first: an invalid budget is an input error, never a verdict
    for phi, eps in ((np.eye(4), -0.1), (sy.asymmetric_defect_map(0.9, 2.0), 0.8)):
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1/sqrt\(2\)\)") as info:
            mo.symplectify(phi, eps)
        assert not isinstance(info.value, mo.DefectAboveBudget)
    # one range check: each entry that takes a defect bound refuses 1/sqrt(2) in the same words
    messages = set()
    limit = 1 / math.sqrt(2)
    for call in (lambda: sy.rho(limit, 2), lambda: mo.symplectify(np.eye(4), limit),
                 lambda: sy.random_eps_symplectic(2, limit, seed=0)):
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {f"eps must lie in [0, 1/sqrt(2)), got {limit}"}


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
        for n_steps in (100, 101, 333, 1000):
            stacked = mo._integrate_matrix_flow(M, J, n_steps)
            reference = _rk4_reference_flow(M, J, n_steps)
            assert np.max(np.abs(stacked - reference)) <= 1e-13, (eps, n_steps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_flow_residual_defect(n):
    for seed, eps in enumerate((0.0, 0.1, 0.3, 0.45, 0.6)):
        phi, M, J = _defect_matrix(n, eps, 100 + seed)
        psi = mo._integrate_matrix_flow(M, J, mo.FlowConfig().n_steps)
        assert sy.defect(phi @ psi) <= 1e-13, eps


def test_flow_refuses_fewer_steps_than_anchors():
    # the series' tail bound is derived from MIN_STEPS steps up; with fewer, a
    # segment grows towards 1 / FIELD_ANCHORS, past that bound.  --step 1e-2,
    # the coarsest FlowConfig accepts, gives MIN_STEPS steps
    assert mo.FlowConfig(step_size=1e-2).n_steps == mo.MIN_STEPS == 100
    assert mo.FIELD_ANCHORS == 20
    _, M, J = _defect_matrix(2, 0.3, 0)
    for n_steps in (1, 2, 3, 7, 19, 20, 21, 99):
        with pytest.raises(ValueError, match=rf"^the flow needs at least 100 steps, got {n_steps}$"):
            mo._integrate_matrix_flow(M, J, n_steps)


def _rk4_reference_segments(M, J, n_steps, m):
    """The increment of each segment of m steps (the last one may be shorter):
    stage-by-stage classical RK4 in long double from Y = I at the segment's
    start, with C solved at every stage time, and the increment carried apart
    from I."""
    C = mo._flow_field(M, J, np.linspace(0.0, 1.0, 2 * n_steps + 1)).astype(np.longdouble)
    h, segments = np.longdouble(1) / n_steps, -(-n_steps // m)
    zeros = np.zeros((segments * m - n_steps, *M.shape), dtype=np.longdouble)  # zero field: the padding steps are I
    c0, cm, c1 = (np.concatenate([c, zeros]).reshape(segments, m, *M.shape) for c in (C[0:-1:2], C[1::2], C[2::2]))
    E = np.zeros((segments, *M.shape), dtype=np.longdouble)
    for i in range(m):
        Y = np.eye(M.shape[0], dtype=np.longdouble) + E
        k1 = c0[:, i] @ Y
        k2 = cm[:, i] @ (Y + (h / 2) * k1)
        k3 = cm[:, i] @ (Y + (h / 2) * k2)
        k4 = c1[:, i] @ (Y + h * k3)
        E = E + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return E


def _maps_up_to_the_largest_defect(n):
    phis = [sy.random_eps_symplectic(n, eps, seed=seed) for seed, eps in enumerate((0.0, 0.1, 0.4, 0.7, sy.EPS_LIMIT - 1e-9))]
    # the largest defect that symplectify accepts, eps + 1e-12 with eps the float
    # just below 1/sqrt(2): the first draw whose exact defect is within it
    eps = 0.7071067811865474
    assert eps == np.nextafter(sy.EPS_LIMIT, 0.0)
    budget = eps + 1e-12
    draws = (sy.random_defective(n, budget, np.random.default_rng(seed)) for seed in range(8))
    phis.append(next(phi for phi in draws if exact.defect_within(phi, sy.defect(phi), budget)))
    assert sy.EPS_LIMIT < sy.defect(phis[-1]) and exact.defect_within(phis[-1], sy.defect(phis[-1]), budget)
    return phis


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_segment_form_matches_a_per_step_product(n, monkeypatch):
    # the oracle rounds through up to 500 steps per segment: in float64 that
    # alone is about 50 u, so it is taken in long double, which must be wider
    assert np.finfo(np.longdouble).nmant > 52
    # the last _compose call of a flow composes its segments' increments
    composed, compose = [], mo._compose
    monkeypatch.setattr(mo, "_compose", lambda D: composed.append(D) or compose(D))
    J = sy.standard_J(n)
    for phi in _maps_up_to_the_largest_defect(n):
        M = phi.T @ J @ phi - J
        for n_steps in (100, 101, 333, 1000, 10000):
            mo._integrate_matrix_flow(M, J, n_steps)
            reference = _rk4_reference_segments(M, J, n_steps, -(-n_steps // mo.FIELD_ANCHORS))
            # measured at most 2.7 u scale (1.3 u at defect 0); 3.3 u with 100 anchors of degree 14
            bound = 8 * np.finfo(float).eps * float(np.max(np.abs(reference)))
            assert float(np.max(np.abs(composed[-1] - reference))) <= bound, (sy.defect(phi), n_steps)


def test_series_tail_bound_holds_at_every_step_count():
    # ||x||_2 <= D / (2 (1 - D)) at the largest defect D that symplectify accepts
    D = sy.EPS_LIMIT + 1e-12
    assert D / (2.0 * (1.0 - D)) < 1.21
    n_steps = np.arange(mo.MIN_STEPS, mo.FlowConfig(step_size=1e-4).n_steps + 1)
    lengths = -(-n_steps // mo.FIELD_ANCHORS) / n_steps  # m / n_steps, the longest segment
    # the docstring's longest segment, 6 steps of 1/101
    assert (lengths.max(), n_steps[lengths.argmax()]) == (6 / 101, 101)
    r = 2.0 * lengths * 1.21
    assert r.max() < 0.1438
    tail = r ** (mo.SERIES_DEGREE + 1) / (2.0 * (1.0 - r))
    assert tail.max() < 1e-20


def test_series_degree_leaves_psi_unchanged(monkeypatch):
    # four more terms move psi by at most 2 u, at the largest defect symplectify
    # accepts and the longest segment (6 steps of 1/101) and at 10000 steps;
    # measured 0 at degree 23 for n = 1..4, and 7.6 u at degree 14 (n = 1, 101 steps)
    cases = []
    for n in (1, 2, 3, 4):
        phi, J = _maps_up_to_the_largest_defect(n)[-1], sy.standard_J(n)
        cases += [(phi.T @ J @ phi - J, J, n_steps) for n_steps in (101, 10000)]
    psis = []
    try:
        for degree in (mo.SERIES_DEGREE, mo.SERIES_DEGREE + 4):
            monkeypatch.setattr(mo, "SERIES_DEGREE", degree)
            mo._segment_series.cache_clear()  # the series are cached per step count only
            psis.append([mo._integrate_matrix_flow(*case) for case in cases])
    finally:
        mo._segment_series.cache_clear()
    for (M, _, n_steps), psi, finer in zip(cases, *psis):
        assert np.max(np.abs(psi - finer)) <= 2 * np.finfo(float).eps * np.max(np.abs(finer)), (len(M), n_steps)


def test_segment_series_is_built_on_first_use_and_read_only():
    code = (
        "from sympeps import cli, moser; assert moser._segment_series.cache_info().currsize == 0; "
        "q = moser._segment_series(10, 1000); assert moser._segment_series(10, 1000) is q; "
        "assert not q.flags.writeable and q[0] == 0.0 and len(q) == moser.SERIES_DEGREE + 1"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


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
    assert len(anchors) <= 21 and anchors[0] == 0.0 and anchors[-1] == 1.0
    assert np.diff(anchors).max() <= 1.0 / mo.FIELD_ANCHORS + 1e-15
    assert np.isin(anchors, np.linspace(0.0, 1.0, 2 * n_steps + 1)).all()


def test_report_serializes():
    rep = mo.symplectify(np.eye(4), 0.0)
    data = rep.to_dict()
    assert data["passed"] is True
    assert data["steps"] == 1000
    assert np.asarray(data["psi"]).shape == (4, 4)


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
