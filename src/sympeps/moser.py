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
from functools import lru_cache
from typing import List, Optional

import numpy as np

from .exact import defect_within
from .symplectic import _as_even_matrix, _pullback_matrix, _require_eps, defect, rho, standard_J

METHOD = "rk4-classical"
# The exact psi, the symplectic polar factor, has margins >= 0 and residual 0.
# RK4's psi was off it by at most 2.5e-14 at step 1e-3 and 2.4e-10 at 1e-2 (400
# maps, n = 1..4, defect up to 0.69): 1e-6 is four orders above the coarsest
# step's error and still fails a psi wrong in its sixth digit.
BOUND_TOL = 1e-6
MAX_DEFECT_TOL = 1e-6  # bound on the residual defect of phi @ psi
MIN_STEPS = 100  # the series' tail bound holds from this many steps up
FIELD_ANCHORS = 20  # at most this many segments, each with the field solved at its start
SERIES_DEGREE = 23  # degree of a segment's map as a series in the field at its start


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


def _compose(D: np.ndarray) -> np.ndarray:
    """The increment of the product of the maps I + D[i], D in time order.

    Neighbours are paired, (I + A)(I + B) = I + (A + B + A B) with A the later
    one, in about log2(len(D)) stacked levels.  Carrying the increments rather
    than I + D spares their small entries a rounding against the unit diagonal.
    """
    while len(D) > 1:
        even = len(D) - len(D) % 2
        earlier, later = D[0:even:2], D[1:even:2]
        D = np.concatenate([later + earlier + later @ earlier, D[even:]])
    return D[0]


@lru_cache(maxsize=None)
def _segment_series(steps: int, n_steps: int) -> np.ndarray:
    """q_0..q_d, read-only: `steps` RK4 steps of size 1 / n_steps from a time a
    are the map I + sum_j q_j x^j of x = C(a).

    C(t) = 1/2 (I - t K)^-1 K with K = J M, so C' = 2 C^2 and
    C(a + tau) = x (I - 2 tau x)^-1 = sum_j (2 tau)^j x^(j+1): every stage is a
    series in x with scalar coefficients.  A series cut after degree d is its
    lower-triangular Toeplitz matrix in the shift S, so the stages below are
    RK4's matrix algebra, and the coefficients are the first column.
    """
    h = 1.0 / n_steps
    shifts = np.stack([np.eye(SERIES_DEGREE + 1, k=-j) for j in range(1, SERIES_DEGREE + 1)])
    twice_taus = np.arange(2 * steps + 1) * h  # 2 tau at the stage times after a
    C = np.tensordot(twice_taus[:, None] ** np.arange(SERIES_DEGREE), shifts, 1)
    c0, cm, c1 = C[0:-1:2], C[1::2], C[2::2]
    k2 = cm + (0.5 * h) * (cm @ c0)
    k3 = cm + (0.5 * h) * (cm @ k2)
    k4 = c1 + h * (c1 @ k3)
    q = _compose((h / 6.0) * (c0 + 2.0 * k2 + 2.0 * k3 + k4))[:, 0]
    q.setflags(write=False)
    return q


def _integrate_matrix_flow(M: np.ndarray, J: np.ndarray, n_steps: int) -> np.ndarray:
    """Y(1) of Y' = C(t) Y, Y(0) = I, by n_steps >= MIN_STEPS RK4 steps.

    The field is linear, so the m = ceil(n_steps / FIELD_ANCHORS) steps from
    an anchor a (fewer in the last segment) are I + q(x), x = C(a), evaluated
    by Horner on the stack of anchors; the segments are then composed.  The
    exact segment map is (I - 2 L x)^(-1/2), L = m / n_steps, whose degree-j
    term is at most (2 L ||x||)^j / 2, as RK4's are (measured).  Over n_steps
    in [MIN_STEPS, 10000] the longest segment is L = 6/101 < 0.0595, at 101
    steps.  M is skew, so ||K||_2 <= ||M||_F / sqrt(2) = D and ||x||_2 <=
    D / (2 (1 - D)) < 1.21 for D < 1/sqrt(2) + 1e-12, the most `symplectify`
    accepts.  So 2 L ||x|| < 0.1438, and the terms past SERIES_DEGREE sum to
    below 1e-20.  With fewer steps a segment grows towards 1 / FIELD_ANCHORS,
    where that bound no longer holds.
    """
    if n_steps < MIN_STEPS:
        raise ValueError(f"the flow needs at least {MIN_STEPS} steps, got {n_steps}")
    dim = M.shape[0]
    m = -(-n_steps // FIELD_ANCHORS)
    starts = np.arange(0, n_steps, m)
    # the anchors are linspace's step times; t = 1 is solved too, since the
    # last stage reads C(1), so that a degenerate end is refused by name
    x = _flow_field(M, J, np.append(starts * (1.0 / n_steps), 1.0))[:-1]
    Q = np.tile(_segment_series(m, n_steps), (len(starts), 1))
    Q[-1] = _segment_series(n_steps - starts[-1], n_steps)
    D = Q[:, -1, None, None] * x
    for j in range(SERIES_DEGREE - 1, 0, -1):  # D = x (q_1 + x (q_2 + ... + x q_d))
        D.reshape(len(D), -1)[:, ::dim + 1] += Q[:, j, None]  # + q_j I, on the diagonal in place
        D = x @ D
    return np.eye(dim) + _compose(D)


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
    step_size: float

    @property
    def passed(self) -> bool:
        return bool(self.residual_ok and self.displacement_ok and self.sandwich_ok)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["psi"] = self.psi.tolist()
        data.update(effective_step=1.0 / self.steps, method=METHOD, max_defect_tol=MAX_DEFECT_TOL, passed=self.passed)
        return data


def symplectify(phi, eps: float, config: Optional[FlowConfig] = None) -> SymplectifyReport:
    """Integrate the correction flow and verify its bounds.

    Requires eps in [0, 1/sqrt(2)) (else ValueError, checked first) and an
    exact defect of at most eps + 1e-12 (else DefectAboveBudget), which
    ``exact.defect_within`` decides in integers where defect(phi) is within
    its rounding bound of that.
    Returns psi = Y(1) of the matrix ODE Y' = C(t) Y, Y(0) = I, with the
    residual defect of phi @ psi and the displacement / sandwich margins at
    tolerance 1e-6.
    """
    config = config or FlowConfig()
    phi, n = _as_even_matrix(phi)
    _require_eps(eps)
    d0 = defect(phi)
    # The flow needs D below 1/sqrt(2) + 1e-12, where its series bound holds;
    # a map drawn at defect eps may land a few units in the last place above it.
    if not defect_within(phi, d0, eps + 1e-12):
        raise DefectAboveBudget(f"defect {d0:.6e} exceeds eps {eps:.6e}")
    J = standard_J(n)
    M = _pullback_matrix(phi) - J
    psi = _integrate_matrix_flow(M, J, config.n_steps)
    rho_val = rho(eps, n, linear_case=True)
    residual = defect(phi @ psi)
    svals = np.linalg.svd(psi, compute_uv=False)
    increment = psi - np.eye(2 * n)
    displacement = float(np.linalg.norm(increment, 2))
    disp_bound = 1.0 / rho_val - 1.0
    disp_margin = disp_bound - displacement
    lower_margin = float(svals[-1]) - rho_val
    upper_margin = 1.0 / rho_val - float(svals[0])
    return SymplectifyReport(
        psi=psi, eps=float(eps), rho=rho_val, input_defect=d0,
        residual_defect=residual, residual_ok=residual <= MAX_DEFECT_TOL,
        displacement=displacement, displacement_bound=disp_bound, displacement_margin=disp_margin,
        displacement_ok=disp_margin >= -BOUND_TOL,
        column_displacements=[float(v) for v in np.linalg.norm(increment, axis=0)],
        sv_min=float(svals[-1]), sv_max=float(svals[0]),
        sandwich_margin_lower=lower_margin, sandwich_margin_upper=upper_margin,
        sandwich_ok=(lower_margin >= -BOUND_TOL and upper_margin >= -BOUND_TOL),
        steps=config.n_steps, step_size=config.step_size,
    )
