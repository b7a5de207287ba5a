"""Symplectic linear algebra on R^(2n) in interleaved coordinates
(x_1, y_1, ..., x_n, y_n).

The module measures how far a linear map is from being symplectic (the
pullback defect), computes symplectic spectra of ellipsoids and the
orthonormal standard form of a map's pullback Phi^* omega0, extracts the
lambda/mu conformality invariants, runs quantitative non-squeezing /
non-expanding / capacity certificates on batches of ellipsoids, evaluates the
cubic constants and the explicit error bound K behind the rigidity estimates,
and provides seeded random (eps-)symplectic generators for property testing.

Conventions.  The reference complex structure J maps (x, y) |-> (-y, x) on
each coordinate plane, so the reference two-form is omega0(v, w) = <J v, w>.
A linear map Phi pulls omega0 back to the two-form with matrix Phi^T J Phi,
and its defect is the coefficient Euclidean norm of Phi^T J Phi - J, i.e.
sqrt(1/2) times the Frobenius norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exterior import Covector, json_int, json_loads, json_numbers

SINGULAR_RTOL = 1e-12     # sigma_min below this times sigma_max counts as singular
KERNEL_RTOL = 1e-10       # lambda^2 below this times the largest counts as kernel
CERT_TOL = 1e-10          # additive tolerance on certified inequalities
SIGN_TOL = 1e-12
BALL_RADII = (0.5, 1.0, 2.0)

EPS_LIMIT = 1.0 / math.sqrt(2.0)   # defect bound of the eps-symplectic theory


def _half_dimension(n: int) -> int:
    """n, once it is at least 1: every refusal of a half-dimension is this one."""
    if n < 1:
        raise ValueError(f"half-dimension must be >= 1, got {n}")
    return n


@lru_cache(maxsize=None)
def standard_J(n: int) -> np.ndarray:
    """Block-diagonal complex structure, each block mapping (x, y) to (-y, x); read-only, one per n."""
    J = np.zeros((2 * _half_dimension(n), 2 * n))
    # the slot diagonals alone: assigning -np.eye(n) would write -0.0 off them
    np.fill_diagonal(J[0::2, 1::2], -1.0)
    np.fill_diagonal(J[1::2, 0::2], 1.0)
    J.setflags(write=False)
    return J


def _as_even_matrix(A, what: str = "matrix", stacked: bool = False) -> Tuple[np.ndarray, int]:
    """A as a float array of shape (2n, 2n), or (..., 2n, 2n) if stacked, and n."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or (A.ndim > 2 and not stacked) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {A.shape}")
    if A.shape[-1] % 2:
        raise ValueError(f"{what} must have even dimension, got {A.shape[-1]}")
    return A, _half_dimension(A.shape[-1] // 2)


def _pullback_matrix(A: np.ndarray) -> np.ndarray:
    """A^T J A, the matrix of omega0 pulled back by A, or by each A of a stack."""
    return A.swapaxes(-1, -2) @ standard_J(A.shape[-1] // 2) @ A


def omega0_covector(n: int) -> Covector:
    """The reference two-form sum_j dx_j ^ dy_j as a sparse covector."""
    return Covector(2 * _half_dimension(n), 2, {(2 * j - 1, 2 * j): 1.0 for j in range(1, n + 1)})


def plane_scaling(radii) -> np.ndarray:
    """diag(r_1, r_1, ..., r_n, r_n): scaling by r_j on the j-th plane, and +0.0
    off the diagonal.  Radii of shape (..., n) give a stack (..., 2n, 2n)."""
    r = np.repeat(np.asarray(radii, dtype=float), 2, axis=-1)
    return np.where(np.eye(r.shape[-1], dtype=bool), r[..., None], 0.0)


def standard_antisymplectic(n: int) -> np.ndarray:
    """Plane-wise swap (x, y) |-> (y, x); pulls omega0 back to -omega0."""
    return np.abs(standard_J(n))


def asymmetric_defect_map(eps: float, K: float, n: int = 2) -> np.ndarray:
    """Linear map with defect |eps| whose inverse and transpose have defect |K*eps|.

    Acts on the first two coordinate planes as
    (x1, y1, x2, y2) |-> (x1, y1 + eps*x2, -x2/K, -K*y2) and as the identity
    elsewhere; the standard worked fixture for defect asymmetry.
    """
    if n < 2:
        raise ValueError("needs at least two coordinate planes")
    if K == 0:
        raise ValueError("K must be nonzero")
    Phi = np.eye(2 * n)
    Phi[1, 2] = eps
    Phi[2, 2] = -1.0 / K
    Phi[3, 3] = -float(K)
    return Phi


# ---------------------------------------------------------------------------
# Defect and two-form normal form
# ---------------------------------------------------------------------------


def defect(phi) -> float:
    """Coefficient Euclidean norm of Phi^T J Phi - J; a ValueError when it is
    not finite (the product overflows)."""
    phi, n = _as_even_matrix(phi)
    J = standard_J(n)
    with np.errstate(over="ignore", invalid="ignore"):
        M = _pullback_matrix(phi) - J
        value = float(np.linalg.norm(M, "fro") / math.sqrt(2.0))
    if not math.isfinite(value):
        raise ValueError("Phi^T J Phi - J overflows: the defect is not finite")
    return value


def defect_rounding_bound(phi) -> float:
    """|defect(phi) - exact defect| <= k u (||Phi||_F^2 + sqrt(2n)) / sqrt(2),
    k = 2n^2 + 2n + 4, to first order in u (1 / (1 - k u) covers the rest).

    Phi^T J is exact; the length-2n inner products of (Phi^T J) Phi add
    2n u ||Phi||_F^2, and subtracting J adds u (||Phi||_F^2 + sqrt(2n)).  The
    norm, the root of one dot product of 4n^2 squares (4n^2 u relative in any
    order), and the division by the rounded sqrt(2) add (2n^2 + 3) u relative.
    """
    phi, n = _as_even_matrix(phi)
    k, u = 2 * n * n + 2 * n + 4, 2.0**-53
    fro2 = float(np.vdot(phi, phi))  # inf, with no warning, where it overflows
    return k * u / (1.0 - k * u) * (fro2 + math.sqrt(2 * n)) / math.sqrt(2.0)


class StandardForm(NamedTuple):
    """Orthonormal plane decomposition of Phi^* omega0: columns of ``u`` and
    ``v`` pair up into planes on which it acts with spectral coefficient
    lambda_sq[j] = w(u_j, v_j) > 0 (ascending); v_j is parallel to M u_j."""

    lambda_sq: np.ndarray   # (p,) ascending positive
    u: np.ndarray           # (dim, p)
    v: np.ndarray           # (dim, p)


def standard_form(phi) -> StandardForm:
    """Orthonormal planes of the pullback of omega0 by the map phi, the
    two-form w(v, u) = <M v, u> with M = Phi^T J Phi.

    Route: the Hermitian matrix iM has the eigenvalues +-lambda_j^2 and 0.  An
    eigenvector a + ib of a positive eigenvalue lambda^2 is one plane, with
    M a = lambda^2 b and M b = -lambda^2 a; set u = a / ||a|| and
    v = M u / ||M u||.  Orthonormal eigenvectors w, w' of positive
    eigenvalues give orthogonal planes, since w is also orthogonal to the
    conjugate of w', an eigenvector of a negative one; so planes with equal
    lambda need no pairing.
    """
    phi, _ = _as_even_matrix(phi)
    M = _pullback_matrix(phi)
    scale = max(float(np.linalg.norm(M, "fro")), 1e-300)
    evals, vecs = np.linalg.eigh(1j * M)
    planes = vecs[:, evals > KERNEL_RTOL * np.abs(evals).max()]
    # Fix the phase of each eigenvector: its largest-magnitude entry is real
    # and positive.
    top = np.abs(planes).argmax(axis=0)
    peak = planes[top, np.arange(planes.shape[1])]
    a = (planes * (peak.conj() / np.abs(peak))).real
    u = a / np.linalg.norm(a, axis=0)
    Mu = M @ u
    v = Mu / np.linalg.norm(Mu, axis=0)
    lam2 = np.einsum("ij,ij->j", v, Mu)
    order = np.argsort(lam2, kind="stable")
    lam2, u, v = lam2[order], u[:, order], v[:, order]
    # M = sum_j lambda_j^2 (v_j u_j^T - u_j v_j^T)
    rel = np.linalg.norm((v * lam2) @ u.T - (u * lam2) @ v.T - M, "fro") / scale
    if not rel <= 1e-6:  # NaN too: a plane whose M u underflowed to 0
        raise np.linalg.LinAlgError(f"standard form reconstruction failed (relative error {rel:.3e})")
    return StandardForm(lam2, u, v)


class _Conditioning(NamedTuple):
    """Per matrix of a stack (..., m, m); 0-d fields for a single matrix."""

    svals: np.ndarray     # descending along the last axis
    cond: np.ndarray
    singular: np.ndarray  # sigma_min <= SINGULAR_RTOL * sigma_max

    def at(self, index) -> "_Conditioning":
        return _Conditioning(self.svals[index], self.cond[index], self.singular[index])

    def require_nonsingular(self, what: str) -> np.ndarray:
        """The singular values; a ValueError naming the first singular matrix."""
        bad = np.flatnonzero(self.singular)
        if bad.size:
            raise ValueError(f"singular {what} (condition number {self.cond.flat[bad[0]]:.3e})")
        return self.svals


def _conditioning(A: np.ndarray) -> _Conditioning:
    """Singular values and condition number of A, or of each matrix of a
    stack, and whether it counts as singular at SINGULAR_RTOL."""
    return _conditioned(np.linalg.svd(A, compute_uv=False))


def _conditioned(svals: np.ndarray) -> _Conditioning:
    """The conditioning that singular values give, descending along the last
    axis; only the first and the last are read."""
    top, low = svals[..., 0], svals[..., -1]
    cond = np.divide(top, low, out=np.full_like(top, np.inf), where=low != 0.0)
    singular = (top == 0.0) | (low <= SINGULAR_RTOL * top)
    return _Conditioning(svals, cond, singular)


def symplectic_spectrum(A) -> np.ndarray:
    """Ascending tuple (r_1, ..., r_n) with r_j^2 the absolute eigenvalue pairs
    of A^T J A; r_1 is the linear symplectic width of the ellipsoid A B_1.

    A stack of shape (..., 2n, 2n) gives the spectra stacked the same way.
    """
    A, _ = _as_even_matrix(A, stacked=True)
    _conditioning(A).require_nonsingular("matrix")
    return _spectrum(A)


def _spectrum(A: np.ndarray) -> np.ndarray:
    """symplectic_spectrum of A, or of each matrix of a stack, without the
    singularity check: for callers that hold the conditioning already."""
    n = A.shape[-1] // 2
    M = _pullback_matrix(A)
    # iM is Hermitian with the eigenvalues +-r_j^2, so its top n are the
    # squared spectrum, ascending.  Near SINGULAR_RTOL, r_1^2 / ||M|| falls
    # below the solver's resolution and the n-th can come out negative: clip.
    return np.sqrt(np.clip(np.linalg.eigvalsh(1j * M)[..., n:], 0.0, None))


@dataclass
class LambdaMuReport:
    """Conformality invariants of the pullback two-form of a linear map.

    lambda_j are the spectral values of Phi^* omega0 (equal to the symplectic
    spectrum of the image ellipsoid Phi B_1), mu_j = sqrt(|omega0(u_j, v_j)|)
    measure the failure of the decomposition planes to be complex lines, and
    sign_j records the orientation of each plane against omega0.
    """

    lambdas: np.ndarray
    mus: np.ndarray
    signs: np.ndarray
    classification: str   # symplectic-like | anti-symplectic-like | mixed | singular
    condition: float


def lambda_mu_invariants(phi) -> LambdaMuReport:
    phi, n = _as_even_matrix(phi)
    _, cond, singular = _conditioning(phi)
    cond = float(cond)
    empty = np.zeros(0)
    if singular:
        return LambdaMuReport(empty, empty, empty.astype(int), "singular", cond)
    try:
        sf = standard_form(phi)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{exc} at condition number {cond:.3e}, so the lambda/mu invariants "
                         f"are not resolved") from exc
    if len(sf.lambda_sq) < n:
        # The lambda_j^2 are the singular values of Phi^T J Phi, so their ratio is at least
        # cond^-2: conditioning loses a plane only above cond 1e5; underflow at any cond.
        raise ValueError(f"a plane of Phi^T J Phi was lost to conditioning or underflow (condition "
                         f"number {cond:.3e}), so the lambda/mu invariants are not resolved")
    om = np.einsum("ij,ij->j", standard_J(n) @ sf.u, sf.v)  # omega0(u_j, v_j)
    signs = np.where(np.abs(om) <= SIGN_TOL, 0, np.sign(om)).astype(int)
    if np.all(signs == 1):
        classification = "symplectic-like"
    elif np.all(signs == -1):
        classification = "anti-symplectic-like"
    else:
        classification = "mixed"
    return LambdaMuReport(np.sqrt(sf.lambda_sq), np.sqrt(np.abs(om)), signs, classification, cond)


class DecompositionCheck(NamedTuple):
    lhs: float
    rhs: float
    rel_error: float


def defect_decomposition_check(dft: float, rep: LambdaMuReport) -> DecompositionCheck:
    """Compare a map's squared defect dft**2 with the lambda/mu decomposition
    sum_j (lambda_j^2 - sign_j mu_j^2)^2 + n - sum_j mu_j^4 of its invariants
    rep; a singular map has none, and is refused."""
    if rep.classification == "singular":
        raise ValueError(f"singular matrix (condition number {rep.condition:.3e})")
    lhs = dft**2
    lam2 = rep.lambdas**2
    mu2 = rep.mus**2
    rhs = float(np.sum((lam2 - rep.signs * mu2) ** 2) + len(rep.lambdas) - np.sum(mu2**2))
    rel = abs(lhs - rhs) / max(lhs, abs(rhs), 1e-12)
    return DecompositionCheck(lhs, rhs, rel)


# ---------------------------------------------------------------------------
# Quantitative non-squeezing certificates
# ---------------------------------------------------------------------------


def _require_eps(eps: float) -> None:
    """Refuse a defect bound outside [0, 1/sqrt(2)), where the eps-symplectic
    theory holds."""
    if not 0.0 <= eps < EPS_LIMIT:
        raise ValueError(f"eps must lie in [0, 1/sqrt(2)), got {eps}")


def rho(eps: float, n: int, linear_case: bool = False) -> float:
    """Radius factor of the symplectifying correction of an eps-symplectic map:
    (1 - sqrt(2) eps)^sqrt(2n), or its square root power sqrt(1 - sqrt(2) eps)
    in the linear case."""
    _require_eps(eps)
    width_eps = math.sqrt(2.0) * eps
    linear = _width_rho(width_eps)  # also refuses width_eps outside [0, 1)
    return linear if linear_case else (1.0 - width_eps) ** math.sqrt(2 * _half_dimension(n))


def _width_rho(eps: float) -> float:
    """Width-inequality radius factor sqrt(1 - eps); an eps0-symplectic map
    satisfies the width inequalities with eps = sqrt(2) * eps0."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"width parameter eps must lie in [0, 1), got {eps}")
    return math.sqrt(1.0 - eps)


@dataclass(frozen=True)
class SqueezeParams:
    """Per-ellipsoid width-inequality constants: s_A <= 1 and e_A >= 1
    (undefined when the correction can push boundary points across the
    center) bracket the admissible widths."""

    rho: float
    s_A: float
    e_A: Optional[float]


def _squeeze_bounds(svals: np.ndarray, rho_val: float) -> Tuple[np.ndarray, np.ndarray]:
    """s_A and e_A (NaN where undefined) of SqueezeParams from the singular
    values of A, or of each matrix of a stack, descending along the last
    axis."""
    q = (1.0 / svals[..., -1]) * (1.0 / rho_val - 1.0) * svals[..., 0]
    s_A = 1.0 / (1.0 + q)
    e_A = np.divide(1.0, 1.0 - q, out=np.full_like(q, np.nan), where=q < 1.0)
    return s_A, e_A


def squeezing_params(A, eps: float) -> SqueezeParams:
    A, _ = _as_even_matrix(A, "ellipsoid matrix")
    svals = _conditioning(A).require_nonsingular("ellipsoid matrix")
    rho_val = _width_rho(eps)
    s_A, e_A = _squeeze_bounds(svals, rho_val)
    e_A = float(e_A)
    return SqueezeParams(rho_val, float(s_A), None if math.isnan(e_A) else e_A)


@dataclass
class CertificateReport:
    """Pass/fail record of a width or capacity inequality over ellipsoid batches.

    Record i is the verdict of ellipsoid i of the batch: True, False, or None
    where the record is skipped.  Its margins are not held: each follows from
    the batch's one table, ``WidthCertificates.widths``, by the formulas of
    ``width_certificates``.  ``worst`` is the index and value of the smallest
    certified margin, or None when no margin is defined (an empty batch,
    every record skipped, a singular map).
    """

    kind: str
    eps: float
    rho: float
    passed: bool = True
    note: str = ""
    worst: Optional[dict] = None
    records: List[Optional[bool]] = field(default_factory=list)
    ball_checks: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Widths(NamedTuple):
    """Per ellipsoid A of a batch: the linear symplectic widths r1 of A B_1
    and R1 of phi(A B_1), and s_A and e_A (NaN where undefined)."""

    r1: np.ndarray
    R1: np.ndarray
    s_A: np.ndarray
    e_A: np.ndarray


def _image_cleared(phi_cond: _Conditioning, own: _Conditioning) -> np.ndarray:
    """Per matrix A of a stack, from the conditioning of phi and of the stack:
    whether phi A is certainly nonsingular at SINGULAR_RTOL, by
    kappa(phi A) <= kappa(phi) kappa(A).

    The margin (d = dim, u = 2^-53, top = sigma_max(phi) sigma_max(A) and
    low = sigma_min(phi) sigma_min(A)): the computed product is phi A + E with
    ||E|| <= ||E||_F <= gamma_d ||phi||_F ||A||_F ~ d^2 u top, and its SVD
    adds about d u ||phi A||; the SVDs of phi and A give their sigma_min to
    about d u times their condition numbers.  With
    delta = (d^2 + 3d) u kappa(phi) kappa(A), the computed condition number of
    phi A is at most kappa(phi) kappa(A) (1 + delta) / (1 - delta), which stays
    below 1 / SINGULAR_RTOL while kappa(phi) kappa(A) < 0.5 / SINGULAR_RTOL
    and delta <= 1/3; the second bites only from d = 78.  The range guard,
    top < 2^500 and low > 2^-500, keeps phi A and its SVD away from overflow
    and from underflow, where rounding is absolute rather than relative:
    (1e-200 I, 1e-200 I) has kappa 1, yet phi A is the zero matrix."""
    d = phi_cond.svals.shape[-1]
    limit = min(0.5 / SINGULAR_RTOL, 1.0 / (3.0 * (d * d + 3 * d) * 2.0**-53))
    with np.errstate(over="ignore"):  # an infinite product is not cleared
        top = phi_cond.svals[0] * own.svals[..., 0]
        low = phi_cond.svals[-1] * own.svals[..., -1]
        return (top < 2.0**500) & (low > 2.0**-500) & (phi_cond.cond * own.cond < limit)


def _plane_diagonal(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Which matrices of a stack (k, 2n, 2n) are diag(r_1, r_1, ..., r_n, r_n)
    with every r_j in [2^-100, 2^100], and for those the rows
    (sigma_max, sigma_min) = (max r_j, min r_j); min r_j is also r_1.

    Such an A has singular values |r_j| and A^T J A = diag(r_j^2 J_j), so its
    symplectic spectrum is r_j too.  In that range LAPACK returns the radii
    bit for bit; its own rescaling first moved a value at |log2 r| ~ 208 for
    the spectrum and ~ 459 for the SVD, so the closed form changes no value."""
    radii = stack.diagonal(axis1=1, axis2=2)[:, 0::2]
    in_range = ((radii >= 2.0**-100) & (radii <= 2.0**100)).all(axis=1)
    rows = (stack == plane_scaling(radii)).all(axis=(1, 2)) & in_range
    radii = radii[rows]
    return rows, np.stack([radii.max(axis=1), radii.min(axis=1)], axis=1)


def _width_table(
    phi: np.ndarray, phi_cond: _Conditioning, rho_val: float, ellipsoids: Sequence, balls: np.ndarray
) -> Tuple[_Widths, np.ndarray]:
    """The widths of a batch of ellipsoids, computed on the stack of them;
    phi_cond is the conditioning of phi.  A float stack of shape (k, dim, dim)
    is read as it is.  The widths of balls, a stack of nonsingular matrices,
    are taken in the same spectrum call and returned second."""
    dim = phi.shape[0]
    stack = ellipsoids
    if not (isinstance(stack, np.ndarray) and stack.dtype == float and stack.shape[1:] == (dim, dim)):
        mats = [np.asarray(A, dtype=float) for A in ellipsoids]
        for i, A in enumerate(mats):
            if A.shape != (dim, dim):
                raise ValueError(f"ellipsoid {i} has shape {A.shape}, expected ({dim}, {dim})")
        stack = np.array(mats).reshape(len(mats), dim, dim)
    image = phi @ stack
    # The plane-diagonal ellipsoids take sigma_max, sigma_min and r1 in closed
    # form; only the others get an SVD and, once all are nonsingular, a spectrum.
    plane, extremes = _plane_diagonal(stack)
    lapack = ~plane
    other = stack[lapack]
    svals = np.empty((len(stack), 2))
    svals[plane], svals[lapack] = extremes, np.linalg.svd(other, compute_uv=False)[:, [0, -1]]
    own = _conditioned(svals)
    # Only the images that the bound leaves open get an SVD; every singular A
    # is among them.  Fail as a loop over the batch would: at the first
    # ellipsoid with a singular A or phi A, checking A first.
    rest = np.flatnonzero(~_image_cleared(phi_cond, own))
    if rest.size:
        img = _conditioning(image[rest])
        first = np.flatnonzero(own.singular[rest] | img.singular)[:1]
        own.at(rest[first]).require_nonsingular("ellipsoid matrix")
        img.at(first).require_nonsingular("matrix")
    s_A, e_A = _squeeze_bounds(svals, rho_val)
    r1 = svals[:, 1].copy()
    widths = _spectrum(np.concatenate([other, image, balls]))[:, 0]
    r1[lapack], R1, ball_widths = np.split(widths, [len(other), len(other) + len(image)])
    return _Widths(r1, R1, s_A, e_A), ball_widths


def _squares(x: np.ndarray) -> np.ndarray:
    """x**2 per entry as a Python float computes it (libm pow), which can
    differ in the last bit from numpy's x * x; the certificates keep the bits
    of their scalar formulas."""
    return np.array([v**2 for v in x.tolist()], dtype=float)


def _column(x: np.ndarray) -> list:
    """A float column as Python floats, None where an entry is NaN (undefined)."""
    values = x.tolist()
    if np.isnan(x).any():
        values = [None if v != v else v for v in values]  # v != v: NaN
    return values


def _worst(margins: np.ndarray) -> Optional[dict]:
    """Index and value of the smallest margin, NaN (undefined) ignored and
    ties to the first index; None when no margin is defined."""
    defined = np.flatnonzero(~np.isnan(margins))
    if not defined.size:
        return None
    i = int(defined[np.argmin(margins[defined])])
    return {"index": i, "margin": float(margins[i])}


class WidthCertificates(NamedTuple):
    """The three reports of one certificate pass over a batch of ellipsoids,
    and the width table they read: ``widths`` maps r1, R1, s_A and e_A to
    one list of Python floats each, in batch order, with None where a value
    is undefined (e_A of a thin ellipsoid); it is None for a singular map."""

    nonsqueezing: CertificateReport
    nonexpanding: CertificateReport
    capacity: CertificateReport
    widths: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.nonsqueezing.passed and self.nonexpanding.passed and self.capacity.passed


def _holds(margin: np.ndarray, scale) -> np.ndarray:
    """margin >= -CERT_TOL min(1, scale): the tolerance shrinks with what
    the margin compares, so a verdict does not change when the ellipsoid is
    scaled down, and it is never looser than CERT_TOL.  False where the
    margin is NaN (undefined)."""
    return margin >= -CERT_TOL * np.minimum(1.0, scale)


def width_certificates(phi, eps: float, ellipsoids: Sequence) -> WidthCertificates:
    """Three views of one width table of the batch, ``widths``: per ellipsoid
    A, r1 and R1 (the linear symplectic widths of A B_1 and of phi(A B_1)),
    s_A and e_A.  Each report's records are one verdict per ellipsoid, in
    batch order: margin >= -CERT_TOL min(1, s).  The margins, in Python
    floats from ``widths`` (x**2 is libm pow, as ``_squares`` takes it):

    - nonsqueezing: R1 - s_A*r1, with s = r1;
    - nonexpanding: e_A*r1 - R1, with s = r1, where e_A is defined; elsewhere
      the record is skipped and its verdict is None.  The report also checks
      width(phi B_r) <= r / rho, with s = r, for each r in BALL_RADII;
    - capacity: pi*R1**2 - s_A**2*(pi*r1**2) and, where e_A is defined,
      e_A**2*(pi*r1**2) - pi*R1**2, with s = pi*r1**2; the verdict holds
      both.

    A NaN margin (an overflowing width) fails.  ``worst`` is the smallest
    defined margin and its index.  A singular phi fails all three
    unconditionally, with no table."""
    phi, _ = _as_even_matrix(phi)
    phi_cond = _conditioning(phi)
    rho_val = _width_rho(eps)
    if phi_cond.singular:
        note = "singular map: fails unconditionally (arbitrarily thin image ellipsoids)"
        fail = (CertificateReport(kind, eps, rho_val, passed=False, note=note) for kind in WidthCertificates._fields[:3])
        return WidthCertificates(*fail, widths=None)
    radii = np.array(BALL_RADII)
    # The balls, phi times powers of two, are as well-conditioned as phi.
    balls = phi @ np.multiply.outer(radii, np.eye(phi.shape[0]))
    t, ball_widths = _width_table(phi, phi_cond, rho_val, ellipsoids, balls)
    squeeze = t.R1 - t.s_A * t.r1
    squeeze_ok = _holds(squeeze, t.r1)
    skipped = np.isnan(t.e_A)
    expand = t.e_A * t.r1 - t.R1  # NaN where e_A is undefined
    expand_ok = skipped | _holds(expand, t.r1)
    bounds = radii / rho_val
    ball_ok = _holds(bounds - ball_widths, radii)
    cap = math.pi * _squares(t.r1)
    cap_img = math.pi * _squares(t.R1)
    lower = cap_img - _squares(t.s_A) * cap
    upper = _squares(t.e_A) * cap - cap_img  # NaN where e_A is undefined
    cap_ok = _holds(lower, cap) & (skipped | _holds(upper, cap))
    return WidthCertificates(
        CertificateReport(
            "nonsqueezing", eps, rho_val, bool(squeeze_ok.all()), worst=_worst(squeeze), records=squeeze_ok.tolist(),
        ),
        CertificateReport(
            "nonexpanding", eps, rho_val, bool(expand_ok.all() and ball_ok.all()), worst=_worst(expand),
            records=np.where(skipped, None, expand_ok).tolist(),
            ball_checks=[
                {"radius": r, "image_width": w, "bound": b, "pass": p}
                for r, w, b, p in zip(BALL_RADII, ball_widths.tolist(), bounds.tolist(), ball_ok.tolist())
            ],
        ),
        CertificateReport(
            "capacity", eps, rho_val, bool(cap_ok.all()), worst=_worst(np.fmin(lower, upper)), records=cap_ok.tolist(),
        ),
        dict(zip(t._fields, map(_column, t))),
    )


def check_eps_nonsqueezing(phi, eps: float, ellipsoids: Sequence) -> CertificateReport:
    """The nonsqueezing report of ``width_certificates``."""
    return width_certificates(phi, eps, ellipsoids).nonsqueezing


def check_eps_nonexpanding(phi, eps: float, ellipsoids: Sequence) -> CertificateReport:
    """The nonexpanding report of ``width_certificates``."""
    return width_certificates(phi, eps, ellipsoids).nonexpanding


def capacity_preservation_check(phi, eps: float, ellipsoids: Sequence) -> CertificateReport:
    """The capacity report of ``width_certificates``."""
    return width_certificates(phi, eps, ellipsoids).capacity


# ---------------------------------------------------------------------------
# Rigidity constants
# ---------------------------------------------------------------------------


def _bisect(root_above: Callable[[float], bool], lo: float, hi: float) -> float:
    """Midpoint of the bracket [lo, hi] after halving it until its midpoint
    is an endpoint (at most 200 halvings); ``root_above(mid)`` says whether
    the root lies above mid."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if root_above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cubic_z0() -> Tuple[float, float]:
    """Root of z^3 + (27/4) z = 27/4 in (0, 1): (bisection value, closed form).

    The closed form is (3/2) ((1 + sqrt(2))^(1/3) + (1 - sqrt(2))^(1/3)) with
    the real cube root of the negative term.
    """

    def f(z: float) -> float:
        return z * z * z + 6.75 * z - 6.75

    root = _bisect(lambda z: f(z) < 0.0, 0.0, 1.0)
    s2 = math.sqrt(2.0)
    closed = 1.5 * ((1.0 + s2) ** (1.0 / 3.0) - (s2 - 1.0) ** (1.0 / 3.0))
    return root, closed


def squeeze_eps_threshold() -> float:
    """1 - z0^2: the width-parameter range on which the rigidity bound applies."""
    z0 = cubic_z0()[1]
    return 1.0 - z0 * z0


def c_rho(rho_val: float) -> float:
    """Unique root in (2/3, 1] of c^3 - c^2 + rho^(-3) (1 - rho) = 0.

    Monotone nondecreasing in rho; defined for rho large enough that
    a^(3/2) - rho a + 1 - rho is negative at its minimum a = 4 rho^2 / 9.
    """
    if not 0.0 < rho_val <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho_val}")
    if rho_val == 1.0:
        return 1.0
    fmin = -(4.0 / 27.0) * rho_val**3 + 1.0 - rho_val
    if fmin >= 0.0:
        raise ValueError(f"rho={rho_val} outside the admissible regime (needs rho > z0 ~ 0.8941)")
    s = (1.0 - rho_val) / rho_val**3

    def g(c: float) -> float:
        return c * c * c - c * c + s

    # g(2/3) = s - 4/27 < 0, g(1) = s > 0
    return _bisect(lambda c: g(c) < 0.0, 2.0 / 3.0, 1.0)


def rigidity_bound(eps: float, n: int) -> float:
    """Explicit error bound K(eps): a map with the quantitative width
    inequalities at parameter eps is K(eps)-symplectic or -anti-symplectic.

    Composes the worst-case spectral bounds lambda_max = min(1/c_rho, rho^-2)
    and mu_min = min(sqrt(1 - 2 lambda_max^2 (1/rho - 1)), sqrt(2 rho - 1))
    into K = sqrt(n [max((lambda_max^2 - mu_min^2)^2, (1 - rho^2)^2)
    + (1 - mu_min^4)]); monotone with K(0) = 0.
    """
    _half_dimension(n)
    threshold = squeeze_eps_threshold()
    if not 0.0 <= eps < threshold:
        raise ValueError(f"eps must lie in [0, {threshold:.6f}), got {eps}")
    rho_val = _width_rho(eps)
    lam = 1.0 / c_rho(rho_val)
    if eps < 1.0 - 0.5**0.25:
        lam = min(lam, rho_val**-2)
    gap = 1.0 / rho_val - 1.0
    mu_sq = min(1.0 - 2.0 * lam * lam * gap, 2.0 * rho_val - 1.0)
    mu = math.sqrt(min(1.0, max(0.0, mu_sq)))
    spread = max((lam * lam - mu * mu) ** 2, (1.0 - rho_val**2) ** 2)
    return math.sqrt(n * (spread + (1.0 - mu**4)))


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def _embed_unitary(U: np.ndarray) -> np.ndarray:
    n = U.shape[0]
    A = np.zeros((2 * n, 2 * n))
    A[0::2, 0::2] = U.real
    A[0::2, 1::2] = -U.imag
    A[1::2, 0::2] = U.imag
    A[1::2, 1::2] = U.real
    return A


def _random_unitary_factor(n: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, Rm = np.linalg.qr(Z)
    phases = np.diagonal(Rm).copy()
    phases = phases / np.abs(phases)
    return _embed_unitary(Q * phases.conj()[None, :])


def _random_shear_factor(n: int, rng: np.random.Generator) -> np.ndarray:
    B = rng.standard_normal((n, n)) * 0.3
    B = (B + B.T) / 2.0
    S = np.eye(2 * n)
    if rng.integers(2):
        S[0::2, 1::2] = B  # x_j += sum_i B_ji y_i
    else:
        S[1::2, 0::2] = B  # y_j += sum_i B_ji x_i
    return S


def _random_plane_diagonal_factor(n: int, rng: np.random.Generator) -> np.ndarray:
    d = np.exp(rng.normal(0.0, 0.25, size=n))
    return np.diag(np.column_stack([d, 1.0 / d]).ravel())


def random_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded random symplectic matrix: a product of unitary rotations,
    symplectic shears, and plane rescalings with moderate conditioning."""
    A = _random_unitary_factor(n, rng)
    for _ in range(4):
        kind = rng.integers(3)
        if kind == 0:
            A = A @ _random_unitary_factor(n, rng)
        elif kind == 1:
            A = A @ _random_shear_factor(n, rng)
        else:
            A = A @ _random_plane_diagonal_factor(n, rng)
    return A @ _random_unitary_factor(n, rng)


def random_defective(n: int, target: float, rng: np.random.Generator) -> np.ndarray:
    """Random matrix Phi = S (I + t N) with S random symplectic and t tuned by
    bisection so that defect(Phi) equals target (any finite target >= 0) to
    within 1e-9."""
    if not 0.0 <= target < math.inf:
        raise ValueError(f"target defect must be finite and >= 0, got {target}")
    S = random_symplectic(n, rng)
    if target == 0.0:
        return S
    N = rng.standard_normal((2 * n, 2 * n))
    N = N / np.linalg.norm(N, 2)
    eye = np.eye(2 * n)

    def g(t: float) -> float:
        return defect(S @ (eye + t * N))

    hi = max(target, 1e-3)
    for _ in range(80):
        if g(hi) >= target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the requested defect")
    t = _bisect(lambda t: g(t) < target, 0.0, hi)
    phi = S @ (eye + t * N)
    achieved = defect(phi)
    if abs(achieved - target) > 1e-9:
        raise RuntimeError(f"defect tuning failed: requested {target}, achieved {achieved}")
    return phi


def random_eps_symplectic(n: int, eps: float, seed: int) -> np.ndarray:
    """random_defective(n, eps, default_rng(seed)) with eps in [0, 1/sqrt(2))."""
    _require_eps(eps)
    return random_defective(n, eps, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Matrix file formats
# ---------------------------------------------------------------------------


def _require_finite(A: np.ndarray) -> np.ndarray:
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"non-finite entry {float(A[r, c])} at row {r + 1}, column {c + 1}")
    return A


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the text format: a header line ``n <int>`` followed by 2n rows
    of 2n whitespace-separated floats."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2 or head[0].lower() != "n":
        raise ValueError(f"expected header 'n <int>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ValueError(f"invalid half-dimension in header: {head[1]!r}") from exc
    dim = 2 * _half_dimension(n)
    if len(lines) - 1 != dim:
        raise ValueError(f"expected {dim} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        values = [float(tok) for tok in ln.split()]
        if len(values) != dim:
            raise ValueError(f"expected {dim} entries per row, got {len(values)}")
        rows.append(values)
    return _require_finite(np.array(rows))


def matrix_from_json_dict(data) -> np.ndarray:
    if not isinstance(data, dict) or "n" not in data or "rows" not in data:
        raise ValueError("matrix JSON must have keys 'n' and 'rows'")
    n = _half_dimension(json_int(data["n"], "n"))
    try:
        A = np.array(json_numbers(data["rows"]), dtype=float)
    except TypeError as exc:
        raise ValueError(f"malformed matrix JSON: 'rows' must hold numbers: {exc}") from exc
    if A.shape != (2 * n, 2 * n):
        raise ValueError(f"rows have shape {A.shape}, expected ({2*n}, {2*n})")
    return _require_finite(A)


def read_matrix(text: str, path) -> np.ndarray:
    """The matrix in a file's text: JSON if path ends in .json or text starts with '{', else text format."""
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        return matrix_from_json_dict(json_loads(text))
    return parse_matrix_text(text)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return read_matrix(fh.read(), path)


def save_matrix(path, A) -> None:
    """Write A as JSON when path ends in .json, else in the text format, each
    entry the repr of its float.  A non-finite entry has no JSON form:
    ValueError, and no file is written."""
    A, n = _as_even_matrix(A)
    if str(path).endswith(".json"):
        text = json.dumps({"n": n, "rows": A.tolist()}, allow_nan=False) + "\n"
    else:
        lines = [f"n {n}"] + [" ".join(map(repr, row)) for row in A.tolist()]
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
