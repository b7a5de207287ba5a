"""Differential forms with exact rational polynomial coefficients on R^m.

Provides the exterior derivative and the explicit radial homotopy operator
h = iota_X o alpha (equivalently alpha o iota_X) that inverts d on star-shaped
domains: h(d f) + d(h f) = f identically.  Here X is the radial vector field
sum_i x_i d/dx_i and alpha rescales each coefficient monomial of total degree
p on a degree-k form by 1/(k + p).

Polynomials are sparse dicts mapping exponent tuples (one entry per variable)
to Fraction coefficients; zero terms are never stored, so dict equality is
exact polynomial identity.  Floats enter in one place: a ``MonomialTable``
evaluates a form at points, for ``evaluate``, the norm-bound checks and the
pointwise Moser flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .exterior import Covector, check_multi_index, contraction_sign, json_int, json_list, json_numbers, merge_sign, norm2

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, Fraction]
MultiIndex = Tuple[int, ...]


# -- sparse polynomial helpers ----------------------------------------------


def poly_const(m: int, value) -> Poly:
    coeff = Fraction(value)
    if coeff == 0:
        return {}
    return {(0,) * m: coeff}


def poly_var(m: int, i: int) -> Poly:
    """The variable x_i (1-based)."""
    if not 1 <= i <= m:
        raise ValueError(f"variable index {i} out of range 1..{m}")
    exp = [0] * m
    exp[i - 1] = 1
    return {tuple(exp): Fraction(1)}


def _canonical(p: Poly) -> Poly:
    return {e: c for e, c in p.items() if c != 0}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _canonical(out)


def _add_term(p: Poly, e: Exponent, c: Fraction) -> None:
    """p[e] += c in place.  A term that cancels is removed, so that p keeps
    the key order poly_add would give: a table of p sums its monomials in
    that order, and the float norms reach stdout."""
    if e not in p:
        p[e] = c
        return
    total = p[e] + c
    if total:
        p[e] = total
    else:
        del p[e]


def poly_neg(a: Poly) -> Poly:
    return {e: -c for e, c in a.items()}


def poly_scale(a: Poly, s) -> Poly:
    s = Fraction(s)
    if s == 0:
        return {}
    return {e: c * s for e, c in a.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return _canonical(out)


def poly_total_degree(a: Poly) -> int:
    """Max total degree, or -1 for the zero polynomial."""
    if not a:
        return -1
    return max(sum(e) for e in a)


# -- polynomial differential forms ------------------------------------------


@dataclass(frozen=True)
class PolyForm:
    """Degree-k form sum_sigma f_sigma dx_sigma with polynomial coefficients."""

    m: int
    k: int
    terms: Mapping[MultiIndex, Poly] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.m < 1 or not 0 <= self.k <= self.m:
            raise ValueError(f"invalid degree k={self.k} for ambient dimension m={self.m}")
        clean: Dict[MultiIndex, Poly] = {}
        for index, poly in self.terms.items():
            idx = check_multi_index(index, self.m, self.k)
            for e in poly:
                if len(e) != self.m or any(p < 0 for p in e):
                    raise ValueError(f"exponent tuple {e} invalid for m={self.m}")
            # a Fraction is kept as it is; anything else ("0", 0.5) is
            # converted before the zero test, so "0" is dropped
            canon = _canonical({e: c if type(c) is Fraction else Fraction(c) for e, c in poly.items()})
            if canon:
                clean[idx] = canon
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, m: int, k: int) -> "PolyForm":
        return cls(m, k, {})

    @classmethod
    def term(cls, m: int, index: Sequence[int], poly: Poly) -> "PolyForm":
        idx = tuple(int(i) for i in index)
        return cls(m, len(idx), {idx: poly})

    @classmethod
    def basis(cls, m: int, index: Sequence[int]) -> "PolyForm":
        """dx_{i_1} ^ ... ^ dx_{i_k} with constant coefficient 1."""
        idx = tuple(int(i) for i in index)
        return cls(m, len(idx), {idx: poly_const(m, 1)})

    @classmethod
    def function(cls, m: int, poly: Poly) -> "PolyForm":
        return cls(m, 0, {(): poly})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if not isinstance(other, PolyForm):
            return NotImplemented
        if (self.m, self.k) != (other.m, other.k):
            raise ValueError("form degree/dimension mismatch in addition")
        out = {idx: dict(p) for idx, p in self.terms.items()}
        for idx, p in other.terms.items():
            out[idx] = poly_add(out.get(idx, {}), p)
        return PolyForm(self.m, self.k, out)

    def __neg__(self) -> "PolyForm":
        return PolyForm(self.m, self.k, {idx: poly_neg(p) for idx, p in self.terms.items()})

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def scale(self, s) -> "PolyForm":
        return PolyForm(self.m, self.k, {idx: poly_scale(p, s) for idx, p in self.terms.items()})

    def coefficient_degree(self) -> int:
        if not self.terms:
            return -1
        return max(poly_total_degree(p) for p in self.terms.values())

    def has_constant_coefficients(self) -> bool:
        return all(poly_total_degree(p) <= 0 for p in self.terms.values())

    def to_json_dict(self) -> dict:
        terms = []
        for idx in sorted(self.terms):
            poly = self.terms[idx]
            entries = [
                {"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in sorted(poly.items())
            ]
            terms.append({"index": list(idx), "poly": entries})
        return {"m": self.m, "k": self.k, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PolyForm":
        """Inverse of to_json_dict.  List fields follow ``json_list`` and
        integer fields ``json_int``; a malformed value or layout raises
        ValueError."""
        if not isinstance(data, Mapping):
            raise ValueError(f"polyform JSON must be an object, got {type(data).__name__}")
        try:
            m = json_int(data["m"], "m")
            k = json_int(data["k"], "k")
            terms: Dict[MultiIndex, Poly] = {}
            for term in json_list(data.get("terms", []), "terms"):
                idx = check_multi_index([json_int(i, "index") for i in json_list(term["index"], "index")], m, k)
                poly: Poly = {}
                for entry in json_list(term["poly"], "poly"):
                    e = tuple(json_int(p, "exp") for p in json_list(entry["exp"], "exp"))
                    den = json_int(entry["den"], "den")
                    if den == 0:
                        raise ValueError("JSON field 'den' must be nonzero")
                    coeff = Fraction(json_int(entry["num"], "num"), den)
                    poly[e] = poly.get(e, Fraction(0)) + coeff
                terms[idx] = poly_add(terms.get(idx, {}), poly)
        except KeyError as exc:
            raise ValueError(f"malformed polyform JSON: missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed polyform JSON: {exc}") from exc
        return cls(m, k, terms)


def pf_wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    if a.m != b.m:
        raise ValueError(f"ambient dimension mismatch: {a.m} vs {b.m}")
    k = a.k + b.k
    if k > a.m:
        raise ValueError(f"degree overflow: {a.k} + {b.k} > {a.m}")
    out: Dict[MultiIndex, Poly] = {}
    for ia, pa in a.terms.items():
        seen = set(ia)
        for ib, pb in b.terms.items():
            if seen.intersection(ib):
                continue
            merged = tuple(sorted(ia + ib))
            prod = poly_mul(pa, pb)
            if merge_sign(ia, ib) < 0:
                prod = poly_neg(prod)
            out[merged] = poly_add(out.get(merged, {}), prod)
    return PolyForm(a.m, k, out)


# -- exterior derivative and the radial homotopy operator --------------------


def d(f: PolyForm) -> PolyForm:
    """Exterior derivative with exact coefficients; d(d(f)) = 0."""
    if f.k >= f.m:
        raise ValueError(f"exterior derivative of a top-degree form (k={f.k}, m={f.m})")
    out: Dict[MultiIndex, Poly] = {}
    for index, poly in f.terms.items():
        members = set(index)
        for i in range(1, f.m + 1):
            if i in members:
                continue
            target = out.setdefault(tuple(sorted(index + (i,))), {})
            negate = merge_sign((i,), index) < 0
            for e, c in poly.items():
                power = e[i - 1]
                if power:
                    lowered = e[:i - 1] + (power - 1,) + e[i:]
                    _add_term(target, lowered, -c * power if negate else c * power)
    return PolyForm(f.m, f.k + 1, out)


def alpha(f: PolyForm) -> PolyForm:
    """Radial averaging: each monomial of total degree p scales by 1/(k + p)."""
    out: Dict[MultiIndex, Poly] = {}
    for index, poly in f.terms.items():
        scaled: Poly = {}
        for e, c in poly.items():
            weight = f.k + sum(e)
            if weight == 0:
                raise ValueError("radial averaging diverges on constants of degree-0 forms")
            scaled[e] = c / weight
        out[index] = scaled
    return PolyForm(f.m, f.k, out)


def iota_radial(f: PolyForm) -> PolyForm:
    """Contraction with the radial field sum_i x_i d/dx_i."""
    if f.k < 1:
        raise ValueError("radial contraction needs degree k >= 1")
    out: Dict[MultiIndex, Poly] = {}
    for index, poly in f.terms.items():
        for j, i in enumerate(index):
            target = out.setdefault(index[:j] + index[j + 1:], {})
            negate = contraction_sign(j) < 0
            for e, c in poly.items():
                _add_term(target, e[:i - 1] + (e[i - 1] + 1,) + e[i:], -c if negate else c)
    return PolyForm(f.m, f.k - 1, out)


def h(f: PolyForm) -> PolyForm:
    """Radial homotopy operator; h(d f) + d(h f) = f for 1 <= k < m.

    Computed as iota_X o alpha; the factorization alpha o iota_X agrees
    exactly (asserted by the test suite).
    """
    if f.k < 1:
        raise ValueError("homotopy operator needs degree k >= 1")
    return iota_radial(alpha(f))


def homotopy_identity_check(f: PolyForm, hf: Optional[PolyForm] = None) -> bool:
    """Exact check of h(d f) + d(h f) == f (rational arithmetic, no tolerance).

    ``hf`` is h(f) when the caller has it already; omitted, it is computed.
    """
    if not 1 <= f.k < f.m:
        raise ValueError(f"identity check needs 1 <= k < m, got k={f.k}, m={f.m}")
    if hf is None:
        hf = h(f)
    return (h(d(f)) + d(hf)) == f


def dilate(f: PolyForm, r) -> PolyForm:
    """Exact pullback by the dilation x |-> r x: coefficients pick up r^(k+p)."""
    r = Fraction(r)
    out = {
        idx: _canonical({e: c * r ** (f.k + sum(e)) for e, c in poly.items()})
        for idx, poly in f.terms.items()
    }
    return PolyForm(f.m, f.k, out)


class MonomialTable:
    """A form's monomials as float arrays, built once and evaluated at many points.

    The indices are sorted; the monomials of index j are rows starts[j] up to
    starts[j + 1] of the integer exponent matrix and of the coefficients.
    ``degree`` is the largest exponent and ``used`` pairs each variable that
    occurs with its exponent column.
    """

    def __init__(self, f: PolyForm):
        self.indices: List[MultiIndex] = sorted(f.terms)
        polys = [f.terms[idx] for idx in self.indices]
        self.starts = np.cumsum([0] + [len(p) for p in polys[:-1]])
        self.exps = np.array([e for p in polys for e in p], dtype=int).reshape(-1, f.m)
        self.coeffs = np.array([float(c) for p in polys for c in p.values()])
        self.degree = int(self.exps.max(initial=0))
        self.used = [(i, column) for i, column in enumerate(self.exps.T) if column.any()]

    def values(self, X: np.ndarray) -> np.ndarray:
        """Coefficient values at the points X, shape (T, m) -> (T, len(indices)).

        Each monomial is its coefficient times x_1^e_1, x_2^e_2, ... in turn,
        with powers by repeated multiplication; each index sums its monomials
        in order.  Overflow gives inf or nan without a warning.
        """
        X = np.asarray(X, dtype=float)
        if not self.indices:
            return np.zeros((len(X), 0))
        with np.errstate(over="ignore", invalid="ignore"):
            powers = [np.ones_like(X.T)]
            for _ in range(self.degree):
                powers.append(powers[-1] * X.T)
            powers = np.array(powers)  # (degree + 1, m, T)
            mono = np.repeat(self.coeffs[:, None], len(X), axis=1)
            for i, column in self.used:
                mono *= powers[column, i]
            return np.add.reduceat(mono, self.starts, axis=0).T

    def norms(self, X: np.ndarray) -> np.ndarray:
        """Euclidean norm of the coefficient values at each point of X."""
        total = np.zeros(len(X))
        with np.errstate(over="ignore", invalid="ignore"):
            for column in self.values(X).T:
                total += column * column
        return np.sqrt(total)


def point_block(points: Sequence[Sequence[float]], m: int) -> np.ndarray:
    """The points as one (P, m) float array; the first point of another
    shape, or a point that holds a non-number, is refused by name."""
    try:
        xs = [np.asarray(json_numbers(p), dtype=float) for p in points]
    except TypeError as exc:
        raise ValueError(f"points must hold numbers: {exc}") from exc
    for x in xs:
        if x.shape != (m,):
            raise ValueError(f"point dimension {x.shape} does not match m={m}")
    return np.array(xs).reshape(len(xs), m)


def evaluate(f: PolyForm, x: Sequence[float]) -> Covector:
    """Floating-point covector of coefficient values at the point x."""
    table = MonomialTable(f)
    return Covector(f.m, f.k, dict(zip(table.indices, table.values(point_block([x], f.m))[0])))


@dataclass
class HBoundReport:
    """Per-point margins of the homotopy-operator norm bounds.

    The general bound compares ||h f (x)|| against
    ||x|| sqrt(k C(m, k-1)) / (k-1) * max_t ||f(t x)|| for k > 1 (and
    ||x|| sqrt(m) * max_t for k = 1); the ray bound ||x|| / sqrt(k) * ||f(x)||
    applies when all coefficients are constant.  The max over the ray is
    estimated by dense sampling, which can only under-estimate the right-hand
    side, so a nonnegative margin is conservative.
    """

    m: int
    k: int
    s: float
    t_samples: int
    rhs_sampled: bool
    ray_constant: bool
    points: List[List[float]]
    lhs: List[float]
    rhs: List[float]
    margins: List[float]
    ray_rhs: Optional[List[float]]
    ray_margins: Optional[List[float]]

    @property
    def passed(self) -> bool:
        return min(self.margins + (self.ray_margins or []), default=0.0) >= -1e-9

    def to_dict(self) -> dict:
        keys = ("m", "k", "s", "t_samples", "rhs_sampled", "ray_constant", "passed",
                "points", "lhs", "rhs", "margins", "ray_rhs", "ray_margins")
        return {key: getattr(self, key) for key in keys}


def h_bound_check(
    f: PolyForm,
    points: Sequence[Sequence[float]],
    s: float,
    t_samples: int = 1000,
    hf: Optional[PolyForm] = None,
) -> HBoundReport:
    """Evaluate both sides of the homotopy-operator norm bounds at each point.

    ``hf`` is h(f) when the caller has it already; omitted, it is computed.
    """
    if f.k < 1:
        raise ValueError("norm bounds apply to degrees k >= 1")
    X = point_block(points, f.m)
    with np.errstate(over="ignore"):  # an infinite norm is refused below, naming the point
        # 1-D norms: the axis form can differ in the last bit, and radii reach stdout
        radii = np.array([np.linalg.norm(x) for x in X])
    outside = np.flatnonzero(radii > s + 1e-12)
    if outside.size:
        r = float(radii[outside[0]])
        raise ValueError(f"point with norm {r} outside the star-shaped domain of radius {s}")
    if f.k > 1:
        factor = math.sqrt(f.k * math.comb(f.m, f.k - 1)) / (f.k - 1)
    else:
        factor = math.sqrt(f.m)
    lhs = MonomialTable(h(f) if hf is None else hf).norms(X)
    ray_case = f.has_constant_coefficients()
    if ray_case:
        # constant coefficients: ||f(t x)|| is the same at every t and x
        max_beta = np.full(len(X), norm2(evaluate(f, np.zeros(f.m))))
    else:
        f_table = MonomialTable(f)
        ts = np.linspace(0.0, 1.0, t_samples)
        max_beta = np.array([np.max(f_table.norms(ts[:, None] * x)) for x in X])
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = radii * factor * max_beta
    bad = np.flatnonzero(~(np.isfinite(lhs) & np.isfinite(rhs)))
    if bad.size:
        raise ValueError(f"norm bounds at point {X[bad[0]].tolist()} overflow")
    ray_rhs = radii / math.sqrt(f.k) * max_beta  # at most rhs, so finite
    return HBoundReport(
        m=f.m,
        k=f.k,
        s=float(s),
        t_samples=t_samples,
        rhs_sampled=not ray_case,
        ray_constant=ray_case,
        points=X.tolist(),
        lhs=lhs.tolist(),
        rhs=rhs.tolist(),
        margins=(rhs - lhs).tolist(),
        ray_rhs=ray_rhs.tolist() if ray_case else None,
        ray_margins=(ray_rhs - lhs).tolist() if ray_case else None,
    )
