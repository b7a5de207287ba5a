"""Seeded property suites tying all modules together.

Each suite draws its randomness from a child of one seed sequence, runs a
batch of invariant checks, and returns a JSON-serializable summary with the
worst observed margins.  The ``smoke`` scale keeps the whole run under a
minute; ``full`` matches the acceptance-grade batch sizes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict

import numpy as np

from . import exterior, moser, polyform, symplectic

SCALES: Dict[str, Dict[str, int]] = {
    "smoke": {
        "covectors": 300,
        "comass_trials": 16,
        "spectrum_pairs": 100,
        "decomposition": 100,
        "prop_maps": 12,
        "prop_ellipsoids": 8,
        "homotopy_forms": 60,
        "bound_forms": 10,
        "bound_points": 20,
        "moser_maps": 5,
        "classification": 20,
        "grid": 40,
    },
    "full": {
        "covectors": 10_000,
        "comass_trials": 24,
        "spectrum_pairs": 1000,
        "decomposition": 1000,
        "prop_maps": 500,
        "prop_ellipsoids": 50,
        "homotopy_forms": 500,
        "bound_forms": 100,
        "bound_points": 100,
        "moser_maps": 100,
        "classification": 50,
        "grid": 100,
    },
}


# -- random object generators -------------------------------------------------


def random_covector(rng: np.random.Generator) -> exterior.Covector:
    """Random k-covector on R^m with m in 2..8, k in 1..min(4, m), 1-4 terms."""
    m = int(rng.integers(2, 9))
    k = int(rng.integers(1, min(4, m) + 1))
    n_slots = math.comb(m, k)
    n_terms = int(rng.integers(1, min(4, n_slots) + 1))
    all_indices = list(itertools.combinations(range(1, m + 1), k))
    chosen = rng.choice(len(all_indices), size=n_terms, replace=False)
    coeffs = {all_indices[i]: float(rng.normal()) for i in chosen}
    return exterior.Covector(m, k, coeffs)


def random_polyform(
    rng: np.random.Generator,
    max_m: int = 5,
    max_k: int = 3,
    max_degree: int = 4,
) -> polyform.PolyForm:
    m = int(rng.integers(2, max_m + 1))
    k = int(rng.integers(1, min(max_k, m - 1) + 1))
    all_indices = list(itertools.combinations(range(1, m + 1), k))
    n_terms = int(rng.integers(1, min(3, len(all_indices)) + 1))
    chosen = rng.choice(len(all_indices), size=n_terms, replace=False)
    terms = {}
    for i in chosen:
        poly: polyform.Poly = {}
        for _ in range(int(rng.integers(1, 4))):
            exp = [0] * m
            for _ in range(int(rng.integers(0, max_degree + 1))):
                exp[int(rng.integers(m))] += 1
            num = int(rng.integers(-9, 10))
            den = int(rng.integers(1, 10))
            if num == 0:
                continue
            key = tuple(exp)
            poly[key] = poly.get(key, Fraction(0)) + Fraction(num, den)
        if poly:
            terms[all_indices[i]] = poly
    if not terms:
        terms = {all_indices[0]: polyform.poly_const(m, 1)}
    return polyform.PolyForm(m, k, terms)


def random_ellipsoids(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """A (count, 2n, 2n) stack of random non-singular matrices q1 diag(s) q2,
    q1 and q2 orthogonal and s in [1/2, 2].  Each matrix draws its two
    Gaussian matrices and then log s, in that order and in place, so the stack
    does not depend on how many matrices one call makes; log s is
    uniform(-log 2, log 2)'s own low + (high - low) u."""
    dim = 2 * n
    gauss = np.empty((count, 2, dim, dim))
    u = np.empty((count, 1, dim))
    for i in range(count):
        rng.standard_normal(out=gauss[i])
        rng.random(out=u[i, 0])
    q, _ = np.linalg.qr(gauss)
    return (q[:, 0] * np.exp(2.0 * math.log(2.0) * u - math.log(2.0))) @ q[:, 1]


def random_ellipsoid(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random non-singular matrix with singular values in [1/2, 2]."""
    return random_ellipsoids(rng, n, 1)[0]


def ellipsoid_batch(n: int, trials: int, seed: int) -> np.ndarray:
    """The batch that ``certify`` checks, as one (count, 2n, 2n) stack: the
    unit ball, then the other plane-diagonal ellipsoids whose plane radii
    are each 0.5, 1 or 2 (every combination for n <= 4, the three balls
    beyond), then ``trials`` random ellipsoids from ``default_rng(seed)``."""
    radii = (0.5, 1.0, 2.0)
    combos = itertools.product(radii, repeat=n) if n <= 4 else ((r,) * n for r in radii)
    planes = sorted(combos, key=lambda c: c != (1.0,) * n)  # the unit ball first
    grid = symplectic.plane_scaling(planes)
    return np.concatenate([grid, random_ellipsoids(np.random.default_rng(seed), n, trials)])


# -- individual suites ---------------------------------------------------------


def norm_suite(rng: np.random.Generator, n_covectors: int, trials: int) -> dict:
    """Comass sandwich / basis-witness / interior-bound / pullback checks."""
    worst_sandwich = math.inf
    worst_witness = math.inf
    worst_interior = math.inf
    worst_functorial = 0.0
    worst_composition = math.inf
    identity_dev = 0.0
    for _ in range(n_covectors):
        c = random_covector(rng)
        hi = exterior.norm2(c)
        lo, hi2 = exterior.comass(c, trials=trials, seed=int(rng.integers(2**32)))
        worst_sandwich = min(worst_sandwich, hi2 - lo)
        witness = exterior.comass_basis_witness(c).value
        bound = math.sqrt(math.comb(c.m, c.k))
        worst_witness = min(worst_witness, bound * witness - hi)
        if c.k in (1, c.m - 1):
            identity_dev = max(identity_dev, abs(exterior.comass_exact(c) - hi))
        v = rng.normal(size=c.m)
        contracted = exterior.interior(v, c)
        cap = math.sqrt(c.k) * float(np.linalg.norm(v)) * hi
        worst_interior = min(worst_interior, cap - exterior.norm2(contracted))
        if c.k == 2:
            L = rng.normal(size=(c.m, c.m))
            pulled = exterior.pullback(L, c)
            cap2 = float(np.linalg.norm(L, 2)) ** 2 * hi
            worst_composition = min(worst_composition, cap2 - exterior.norm2(pulled))
            L2 = rng.normal(size=(c.m, c.m))
            once = exterior.pullback(L2, exterior.pullback(L, c))
            both = exterior.pullback(L @ L2, c)
            scale = max(exterior.norm2(both), 1e-12)
            worst_functorial = max(worst_functorial, exterior.norm2(once - both) / scale)
    omega_dev = 0.0
    for n in range(1, 6):
        om = symplectic.omega0_covector(n)
        omega_dev = max(omega_dev, abs(exterior.comass_exact(om) - 1.0))
        omega_dev = max(omega_dev, abs(exterior.norm2(om) - math.sqrt(n)))
    passed = (
        worst_sandwich >= -1e-12
        and worst_witness >= -1e-9
        and worst_interior >= -1e-9
        and worst_composition >= -1e-9
        and worst_functorial <= 1e-10
        and identity_dev <= 1e-12
        and omega_dev <= 1e-10
    )
    return {
        "name": "norms",
        "count": n_covectors,
        "worst_sandwich_gap": worst_sandwich,
        "worst_witness_margin": worst_witness,
        "worst_interior_margin": worst_interior,
        "worst_composition_margin": worst_composition,
        "worst_functoriality_rel": worst_functorial,
        "exact_comass_identity_dev": identity_dev,
        "omega_norm_dev": omega_dev,
        "passed": bool(passed),
    }


def spectrum_suite(rng: np.random.Generator, pairs: int) -> dict:
    """Symplectic/anti-symplectic invariance and the scaling law of spectra."""
    worst_invariance = 0.0
    worst_anti = 0.0
    worst_scaling = 0.0
    for _ in range(pairs):
        n = int(rng.integers(1, 5))
        psi = symplectic.random_symplectic(n, rng)
        A = random_ellipsoid(rng, n)
        base = symplectic.symplectic_spectrum(A)
        moved = symplectic.symplectic_spectrum(psi @ A)
        worst_invariance = max(worst_invariance, float(np.max(np.abs(moved - base) / base)))
        anti = symplectic.standard_antisymplectic(n) @ psi
        flipped = symplectic.symplectic_spectrum(anti @ A)
        worst_anti = max(worst_anti, float(np.max(np.abs(flipped - base) / base)))
        a = float(rng.uniform(0.2, 5.0))
        scaled = symplectic.symplectic_spectrum(a * A)
        worst_scaling = max(worst_scaling, float(np.max(np.abs(scaled - a * base))))
    passed = worst_invariance <= 1e-8 and worst_anti <= 1e-8 and worst_scaling <= 1e-10
    return {
        "name": "spectrum",
        "count": pairs,
        "worst_invariance_rel": worst_invariance,
        "worst_anti_invariance_rel": worst_anti,
        "worst_scaling_abs": worst_scaling,
        "passed": bool(passed),
    }


def decomposition_suite(rng: np.random.Generator, count: int) -> dict:
    """Defect-decomposition identity on random maps with defect below one."""
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 4))
        target = float(rng.uniform(0.01, 0.98))
        phi = symplectic.random_defective(n, target, rng)
        check = symplectic.defect_decomposition_check(phi)
        worst = max(worst, check.rel_error)
    return {
        "name": "decomposition",
        "count": count,
        "worst_rel_error": worst,
        "passed": bool(worst <= 1e-8),
    }


def nonsqueezing_suite(rng: np.random.Generator, maps: int, ellipsoids: int) -> dict:
    """Eps-symplectic maps pass the three width certificates at eps' = sqrt(2) eps."""
    failures = 0
    for _ in range(maps):
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.0, 0.2))
        phi = symplectic.random_defective(n, eps, rng)
        batch = random_ellipsoids(rng, n, ellipsoids)
        eps_prime = math.sqrt(2.0) * eps
        failures += not symplectic.width_certificates(phi, eps_prime, batch).passed
    return {
        "name": "nonsqueezing",
        "count": maps,
        "ellipsoids": ellipsoids,
        "failures": failures,
        "passed": failures == 0,
    }


def classification_suite(rng: np.random.Generator, count: int) -> dict:
    """Small defects classify as symplectic-like; composing with the plane swap
    flips the classification."""
    ok = True
    for _ in range(count):
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.0, 0.05))
        phi = symplectic.random_defective(n, eps, rng)
        rep = symplectic.lambda_mu_invariants(phi)
        ok = ok and rep.classification == "symplectic-like"
        anti = symplectic.standard_antisymplectic(n) @ phi
        rep2 = symplectic.lambda_mu_invariants(anti)
        ok = ok and rep2.classification == "anti-symplectic-like"
    return {"name": "classification", "count": count, "passed": bool(ok)}


def homotopy_suite(rng: np.random.Generator, forms: int) -> dict:
    """Exact homotopy identity, factorization agreement, degree bookkeeping,
    and dilation equivariance on random polynomial forms."""
    identity_ok = True
    factor_ok = True
    degree_ok = True
    dilation_ok = True
    for _ in range(forms):
        f = random_polyform(rng)
        hf = polyform.h(f)  # iota_X o alpha, checked against alpha o iota_X where that is defined
        identity_ok = identity_ok and polyform.homotopy_identity_check(f, hf)
        factor_ok = factor_ok and (f.k == 1 or hf == polyform.alpha(polyform.iota_radial(f)))
        degree_ok = degree_ok and hf.k == f.k - 1
        if not hf.is_zero():
            # at most +1: top-degree monomials can cancel across terms
            degree_ok = degree_ok and hf.coefficient_degree() <= f.coefficient_degree() + 1
        r = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        dilation_ok = dilation_ok and polyform.h(polyform.dilate(f, r)) == polyform.dilate(hf, r)
    passed = identity_ok and factor_ok and degree_ok and dilation_ok
    return {
        "name": "homotopy",
        "count": forms,
        "identity_exact": bool(identity_ok),
        "factorizations_agree": bool(factor_ok),
        "degree_bookkeeping": bool(degree_ok),
        "dilation_equivariance": bool(dilation_ok),
        "passed": bool(passed),
    }


def hbound_suite(rng: np.random.Generator, forms: int, points: int) -> dict:
    """Norm bound of the homotopy operator on constant-coefficient two-forms."""
    worst = math.inf
    for _ in range(forms):
        n = int(rng.integers(1, 5))
        m = 2 * n
        all_indices = list(itertools.combinations(range(1, m + 1), 2))
        terms = {}
        for idx in all_indices:
            val = rng.normal()
            if abs(val) > 0.3:
                terms[idx] = polyform.poly_const(m, Fraction(val))
        if not terms:
            terms = {(1, 2): polyform.poly_const(m, 1)}
        f = polyform.PolyForm(m, 2, terms)
        pts = rng.normal(size=(points, m)) * 0.5
        report = polyform.h_bound_check(f, pts)
        worst = min(worst, min(report.ray_margins))
    return {
        "name": "hbound",
        "count": forms,
        "points": points,
        "worst_ray_margin": worst,
        "passed": bool(worst >= -1e-9),
    }


def moser_suite(rng: np.random.Generator, maps: int) -> dict:
    """Residual defect, displacement and sandwich bounds of the correction flow,
    plus the fourth-order step-halving ratio and the plane-scaling oracle."""
    worst_residual = 0.0
    bounds_ok = True
    for _ in range(maps):
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.0, 0.2))
        phi = symplectic.random_defective(n, eps, rng)
        rep = moser.symplectify(phi, max(eps, symplectic.defect(phi)))
        worst_residual = max(worst_residual, rep.residual_defect)
        bounds_ok = bounds_ok and rep.displacement_ok and rep.sandwich_ok

    # defect sqrt(sum (c_j^2 - 1)^2) <= sqrt(2) * 0.44 ~ 0.622 < 1/sqrt(2)
    factors = [float(rng.uniform(0.8, 1.2)) for _ in range(2)]
    phi = symplectic.plane_scaling(factors)
    budget = symplectic.defect(phi) + 1e-12
    rep = moser.symplectify(phi, budget)
    oracle = symplectic.plane_scaling([1.0 / c for c in factors])
    scaling_err = float(np.max(np.abs(rep.psi - oracle)))

    # Frozen strong-field fixture: the step-halving differences must sit well
    # above roundoff for the order measurement to mean anything.
    phi_c = symplectic.random_eps_symplectic(2, 0.68, seed=4)
    psis = []
    for step in (0.01, 0.005, 0.0025):
        cfg = moser.FlowConfig(step_size=step)
        psis.append(moser.symplectify(phi_c, 0.68, cfg).psi)
    diffs = [np.linalg.norm(psis[0] - psis[1], "fro"), np.linalg.norm(psis[1] - psis[2], "fro")]
    ratio = float(diffs[0] / diffs[1]) if diffs[1] > 0 else math.inf
    passed = (
        worst_residual <= 1e-6
        and bounds_ok
        and scaling_err <= 1e-6
        and abs(ratio - 16.0) <= 3.0
    )
    return {
        "name": "moser",
        "count": maps,
        "worst_residual": worst_residual,
        "bounds_ok": bool(bounds_ok),
        "plane_scaling_error": scaling_err,
        "halving_ratio": ratio,
        "passed": bool(passed),
    }


def constants_suite(grid: int) -> dict:
    """Cubic constants and monotonicity/limits of the rigidity bound."""
    z0_bisect, z0_closed = symplectic.cubic_z0()
    z0_dev = abs(z0_bisect - z0_closed)
    residual = abs(z0_closed**3 + 6.75 * z0_closed - 6.75)
    threshold = symplectic.squeeze_eps_threshold()
    c1 = symplectic.c_rho(1.0)
    k0 = symplectic.rigidity_bound(0.0, 3)
    eps_grid = np.linspace(0.0, threshold * 0.999, grid)
    ks = [symplectic.rigidity_bound(float(e), 3) for e in eps_grid]
    monotone = all(b >= a - 1e-10 for a, b in zip(ks, ks[1:]))
    crhos = [symplectic.c_rho(math.sqrt(1.0 - float(e))) for e in eps_grid]
    c_monotone = all(a >= b - 1e-10 for a, b in zip(crhos, crhos[1:]))
    small = all(
        symplectic.rigidity_bound(e, n) < 1.0 for e in (0.001, 0.005, 0.01) for n in range(1, 6)
    )
    passed = (
        z0_dev <= 1e-12
        and residual <= 1e-12
        and abs(threshold - 0.2006) <= 1e-3
        and c1 == 1.0
        and k0 == 0.0
        and monotone
        and c_monotone
        and small
    )
    return {
        "name": "constants",
        "z0": z0_closed,
        "z0_bisect_dev": z0_dev,
        "z0_residual": residual,
        "threshold": threshold,
        "c_rho_at_1": c1,
        "K_at_0": k0,
        "K_monotone": bool(monotone),
        "c_rho_monotone": bool(c_monotone),
        "K_small_for_small_eps": bool(small),
        "grid": grid,
        "passed": bool(passed),
    }


def limit_suite(rng: np.random.Generator) -> dict:
    """Defect continuity along sequences of eps_k-symplectic maps, eps_k -> eps."""
    n = 2
    seed = int(rng.integers(2**32))
    child = np.random.default_rng(seed)
    S = symplectic.random_symplectic(n, child)
    N = child.standard_normal((2 * n, 2 * n))
    N = N / np.linalg.norm(N, 2)
    eye = np.eye(2 * n)

    # t = 0.05 halved 11 times; dividing by a power of two is exact, so these
    # are the bits of repeated halving.
    ts = [0.05 / 2**k for k in range(12)]

    # Sequence converging to a symplectic matrix: eps_k -> 0.
    eps_seq = [symplectic.defect(S @ (eye + t * N)) for t in ts]
    margin_zero = symplectic.defect(S) - min(eps_seq)

    # Sequence converging to a fixed eps-symplectic matrix.
    phi_inf = symplectic.random_eps_symplectic(n, 0.1, seed)
    eps_seq2 = [symplectic.defect(phi_inf @ (eye + t * N)) for t in ts]
    liminf = min(eps_seq2[-3:])
    margin_fixed = symplectic.defect(phi_inf) - liminf
    passed = margin_zero <= 1e-8 and margin_fixed <= 1e-8
    return {
        "name": "limit",
        "margin_zero_limit": margin_zero,
        "margin_fixed_limit": margin_fixed,
        "passed": bool(passed),
    }


def run_suite(seed: int, scale: str = "smoke") -> dict:
    """Run every property suite at the requested scale; deterministic per seed."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    sizes = SCALES[scale]
    children = np.random.SeedSequence(seed).spawn(9)
    rngs = [np.random.default_rng(c) for c in children]
    suites = [
        norm_suite(rngs[0], sizes["covectors"], sizes["comass_trials"]),
        spectrum_suite(rngs[1], sizes["spectrum_pairs"]),
        decomposition_suite(rngs[2], sizes["decomposition"]),
        nonsqueezing_suite(rngs[3], sizes["prop_maps"], sizes["prop_ellipsoids"]),
        classification_suite(rngs[4], sizes["classification"]),
        homotopy_suite(rngs[5], sizes["homotopy_forms"]),
        hbound_suite(rngs[6], sizes["bound_forms"], sizes["bound_points"]),
        moser_suite(rngs[7], sizes["moser_maps"]),
        constants_suite(sizes["grid"]),
        limit_suite(rngs[8]),
    ]
    return {
        "seed": seed,
        "scale": scale,
        "suites": suites,
        "passed": bool(all(s["passed"] for s in suites)),
    }
