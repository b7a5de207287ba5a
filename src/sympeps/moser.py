"""Moser-flow correction of nearly symplectic maps.

For a linear map phi with pullback defect eps < 1/sqrt(2), the interpolated
two-forms omega_t = omega0 + t (phi^* omega0 - omega0) stay non-degenerate,
and the time-dependent field X_t solving iota_{X_t} omega_t = -sigma (sigma
the exact radial primitive of the defect two-form) flows the identity to a
map psi with (phi o psi)^* omega0 = omega0.  The field is linear, so the
whole correction is obtained from one matrix ODE, integrated with the
classical fixed-step fourth-order one-step method.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np

from .symplectic import EPS_LIMIT, _as_even_matrix, _standard_J, defect, rho

BOUND_TOL = 1e-6
METHOD = "rk4-classical"
MAX_DEFECT_TOL = 1e-6  # bound on the residual defect of phi @ psi
FIELD_ANCHORS = 100  # a grid time lies less than 1 / FIELD_ANCHORS after its anchor
FIELD_TERMS = 11  # terms of the field's series about an anchor


class DefectAboveBudget(ValueError):
    """The map's defect exceeds the budget eps: a verdict, not an input error."""


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step integrator settings for the correction flow."""

    step_size: float = 1e-3

    def __post_init__(self) -> None:
        # below 1e-4 psi no longer moves above roundoff, while the grid still grows
        if not 1e-4 <= self.step_size <= 1e-2:
            raise ValueError(f"step size must lie in [1e-4, 1e-2], got {self.step_size}")

    @property
    def n_steps(self) -> int:
        return int(round(1.0 / self.step_size))


def _flow_field(M: np.ndarray, J: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """C(t) = -1/2 (J + t M)^-1 M for each t of ts, as a (len(ts), 2n, 2n) stack:
    the matrix of the linear correction field X_t(x) = C(t) x, with
    M = Phi^T J Phi - J.  The inverse exists whenever the defect is below one."""
    stacked = J + ts[:, None, None] * M
    try:
        return -0.5 * np.linalg.solve(stacked, np.broadcast_to(M, stacked.shape))
    except np.linalg.LinAlgError as exc:
        t = ts[np.linalg.slogdet(stacked)[0] == 0.0][0]
        raise ValueError(f"interpolated two-form degenerates at t={t}") from exc


def _grid_field(M: np.ndarray, J: np.ndarray, n_steps: int) -> np.ndarray:
    """C(t) at the RK4 stage times t = k / (2 n_steps), k = 0..2 n_steps.

    C(t) = 1/2 (I - t K)^-1 K with K = J M, so C' = 2 C^2 and, about an anchor
    time a, C(a + tau) = C(a) (I - 2 tau C(a))^-1 = sum_k tau^k C(a) (2 C(a))^k.
    M is skew, so ||K||_2 = ||M||_2 <= ||M||_F / sqrt(2) = D, and
    ||C(t)||_2 <= D / (2 (1 - D)) < 1.21 when D < 1/sqrt(2).  The field is then
    solved at no more than FIELD_ANCHORS + 1 anchor grid times, and every grid
    time sums the series from the last anchor, less than 0.01 before it: the
    ratio 2 tau ||C|| stays below 0.0242, and FIELD_TERMS terms leave a
    remainder below ||C|| 0.0242^11 / 0.976, about 2e-18.  The caller keeps D
    below 1/sqrt(2) + 1e-12, where the same bounds hold: ``symplectify``
    accepts no larger defect.
    """
    ts = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    stride = -(-2 * n_steps // FIELD_ANCHORS)  # ceil(2 n_steps / FIELD_ANCHORS)
    C = _flow_field(M, J, ts[::stride])
    powers, twice = [C], 2.0 * C
    for _ in range(FIELD_TERMS - 1):
        powers.append(powers[-1] @ twice)
    P = np.stack(powers, axis=1).reshape(len(C), FIELD_TERMS, -1)
    weights = ts[:stride, None] ** np.arange(FIELD_TERMS)  # tau^k for tau = 0, h/2, ...
    return (weights @ P).reshape(-1, *M.shape)[: len(ts)]


def _integrate_matrix_flow(M: np.ndarray, J: np.ndarray, n_steps: int) -> np.ndarray:
    """Y(1) of Y' = C(t) Y, Y(0) = I, by n_steps classical RK4 steps.

    The field is linear, so step i is the fixed matrix I + D_i: its stages run
    on Y = I, for all steps at once.  The steps are then multiplied in time
    order by pairing neighbours, (I + A)(I + B) = I + (A + B + A B) with A the
    later one, in about log2(n_steps) stacked levels.  Carrying the increments
    D rather than I + D spares their small entries a rounding against the unit
    diagonal.
    """
    C = _grid_field(M, J, n_steps)  # t_0, t_0 + h/2, t_1, ...
    h = 1.0 / n_steps
    c0, cm, c1 = C[0:-1:2], C[1::2], C[2::2]
    k2 = cm + (0.5 * h) * (cm @ c0)
    k3 = cm + (0.5 * h) * (cm @ k2)
    k4 = c1 + h * (c1 @ k3)
    D = (h / 6.0) * (c0 + 2.0 * k2 + 2.0 * k3 + k4)
    while len(D) > 1:
        even = len(D) - len(D) % 2
        earlier, later = D[0:even:2], D[1:even:2]
        D = np.concatenate([later + earlier + later @ earlier, D[even:]])
    return np.eye(M.shape[0]) + D[0]


@dataclass
class SymplectifyReport:
    """Correction map psi together with every verified bound.

    residual_defect is defect(phi @ psi); the displacement bound compares the
    operator norm of psi - I against 1/rho - 1, and the sandwich confines the
    singular values of psi to [rho, 1/rho], with rho = sqrt(1 - sqrt(2) eps).
    """

    psi: np.ndarray
    eps: float
    rho: float
    input_defect: float
    residual_defect: float
    residual_ok: bool
    displacement: float
    displacement_bound: float
    displacement_margin: float
    displacement_ok: bool
    column_displacements: List[float]
    sv_min: float
    sv_max: float
    sandwich_margin_lower: float
    sandwich_margin_upper: float
    sandwich_ok: bool
    steps: int
    config: FlowConfig

    @property
    def passed(self) -> bool:
        return bool(self.residual_ok and self.displacement_ok and self.sandwich_ok)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "config"}
        data["psi"] = self.psi.tolist()
        data.update(
            step_size=self.config.step_size,
            effective_step=1.0 / self.steps,
            method=METHOD,
            max_defect_tol=MAX_DEFECT_TOL,
            passed=self.passed,
        )
        return data


def symplectify(
    phi,
    eps: float,
    config: Optional[FlowConfig] = None,
) -> SymplectifyReport:
    """Integrate the correction flow and verify its bounds.

    Requires eps in [0, 1/sqrt(2)) (else ValueError, checked first) and
    defect(phi) <= eps (else DefectAboveBudget).
    Returns psi = Y(1) of the matrix ODE Y' = C(t) Y, Y(0) = I, with the
    residual defect of phi @ psi and the displacement / sandwich margins at
    tolerance 1e-6.
    """
    config = config or FlowConfig()
    phi, n = _as_even_matrix(phi)
    if not 0.0 <= eps < EPS_LIMIT:
        raise ValueError(f"eps must lie in [0, 1/sqrt(2)), got {eps}")
    d0 = defect(phi)
    if d0 > eps + 1e-12:
        raise DefectAboveBudget(f"defect {d0:.6e} exceeds eps {eps:.6e}")
    J = _standard_J(n)
    M = phi.T @ J @ phi - J
    psi = _integrate_matrix_flow(M, J, config.n_steps)
    rho_val = rho(eps, n, linear_case=True)
    residual = defect(phi @ psi)
    svals = np.linalg.svd(psi, compute_uv=False)
    eye = np.eye(2 * n)
    displacement = float(np.linalg.norm(psi - eye, 2))
    disp_bound = 1.0 / rho_val - 1.0
    disp_margin = disp_bound - displacement
    lower_margin = float(svals[-1]) - rho_val
    upper_margin = 1.0 / rho_val - float(svals[0])
    return SymplectifyReport(
        psi=psi,
        eps=float(eps),
        rho=rho_val,
        input_defect=d0,
        residual_defect=residual,
        residual_ok=residual <= MAX_DEFECT_TOL,
        displacement=displacement,
        displacement_bound=disp_bound,
        displacement_margin=disp_margin,
        displacement_ok=disp_margin >= -BOUND_TOL,
        column_displacements=[float(v) for v in np.linalg.norm(psi - eye, axis=0)],
        sv_min=float(svals[-1]),
        sv_max=float(svals[0]),
        sandwich_margin_lower=lower_margin,
        sandwich_margin_upper=upper_margin,
        sandwich_ok=(lower_margin >= -BOUND_TOL and upper_margin >= -BOUND_TOL),
        steps=config.n_steps,
        config=config,
    )
