"""Differential forms with exact rational polynomial coefficients on R^m.

Provides the exterior derivative and the explicit radial homotopy operator
h = iota_X o alpha (equivalently alpha o iota_X) that inverts d on star-shaped
domains: h(d f) + d(h f) = f identically.  Here X is the radial vector field
sum_i x_i d/dx_i and alpha rescales each coefficient monomial of total degree
p on a degree-k form by 1/(k + p).

Polynomials are sparse dicts mapping exponent tuples (one entry per variable)
to Fraction coefficients; zero terms are never stored, so dict equality is
exact polynomial identity.  d and iota_X also run on bare term dicts of any
coefficient type: the identity check scales each multidegree block to
integers and applies them there.  Floats enter in one place: a
``MonomialTable`` evaluates a form at points, for ``evaluate`` and the
norm-bound checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

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
    def basis(cls, m: int, index: Sequence[int]) -> "PolyForm":
        """dx_{i_1} ^ ... ^ dx_{i_k} with constant coefficient 1."""
        idx = tuple(int(i) for i in index)
        return cls(m, len(idx), {idx: poly_const(m, 1)})

    def is_zero(self) -> bool:
        return not self.terms

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
                    poly[e] = poly[e] + coeff if e in poly else coeff
                terms[idx] = poly_add(terms[idx], poly) if idx in terms else _canonical(poly)
        except KeyError as exc:
            raise ValueError(f"malformed polyform JSON: missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed polyform JSON: {exc}") from exc
        return cls(m, k, terms)


# -- exterior derivative and the radial homotopy operator --------------------


def _d_terms(terms: Mapping[MultiIndex, Mapping], m: int, out: dict) -> dict:
    """Add d of the terms {index: {exponent: coefficient}} on R^m into out, per
    target index in place, and return out; any coefficient type will do."""
    for index, poly in terms.items():
        members = set(index)
        for i in range(1, m + 1):
            if i in members:
                continue
            target = out.setdefault(tuple(sorted(index + (i,))), {})
            negate = merge_sign((i,), index) < 0
            for e, c in poly.items():
                power = e[i - 1]
                if power:
                    lowered = e[:i - 1] + (power - 1,) + e[i:]
                    _add_term(target, lowered, -c * power if negate else c * power)
    return out


def d(f: PolyForm) -> PolyForm:
    """Exterior derivative with exact coefficients; d(d(f)) = 0."""
    if f.k >= f.m:
        raise ValueError(f"exterior derivative of a top-degree form (k={f.k}, m={f.m})")
    return PolyForm(f.m, f.k + 1, _d_terms(f.terms, f.m, {}))


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


def _iota_terms(terms: Mapping[MultiIndex, Mapping], out: dict) -> dict:
    """Add iota_X of the terms {index: {exponent: coefficient}} into out, per
    target index in place, and return out; any coefficient type will do."""
    for index, poly in terms.items():
        for j, i in enumerate(index):
            target = out.setdefault(index[:j] + index[j + 1:], {})
            negate = contraction_sign(j) < 0
            for e, c in poly.items():
                _add_term(target, e[:i - 1] + (e[i - 1] + 1,) + e[i:], -c if negate else c)
    return out


def iota_radial(f: PolyForm) -> PolyForm:
    """Contraction with the radial field sum_i x_i d/dx_i."""
    if f.k < 1:
        raise ValueError("radial contraction needs degree k >= 1")
    return PolyForm(f.m, f.k - 1, _iota_terms(f.terms, {}))


def h(f: PolyForm) -> PolyForm:
    """Radial homotopy operator; h(d f) + d(h f) = f for 1 <= k < m.

    Computed as iota_X o alpha; the factorization alpha o iota_X agrees
    exactly (asserted by the test suite).
    """
    if f.k < 1:
        raise ValueError("homotopy operator needs degree k >= 1")
    return iota_radial(alpha(f))


def homotopy_identity_check(f: PolyForm, hf: Optional[PolyForm] = None) -> bool:
    """Exact check of h(d f) + d(h f) == f, in integers, with no tolerance.

    ``hf`` is h(f) when the caller has it already; omitted, it is computed.
    """
    if not 1 <= f.k < f.m:
        raise ValueError(f"identity check needs 1 <= k < m, got k={f.k}, m={f.m}")
    if hf is None:
        hf = h(f)
    if (hf.m, hf.k) != (f.m, f.k - 1):
        raise ValueError(f"h(f) must have m={f.m} and k={f.k - 1}, got m={hf.m}, k={hf.k}")
    # d, iota_X and alpha keep the multidegree v = e + 1_I of a term x^e dx_I, and alpha
    # divides block v by |v| = k + |e|; so alpha commutes with d, and h(d f) = iota_X(d(alpha f)).
    # Scale block v by l_v |v|, with l_v the lcm of the denominators of f and hf in that block:
    # then l_v |v| alpha f = l_v f, l_v |v| hf and l_v |v| f have integer coefficients.  As d and
    # iota_X are linear and keep the blocks, the identity holds iff it holds on each block, iff
    # iota_X(d(l_v f)) + d(l_v |v| hf) == l_v |v| f there: the rational identity times positive
    # integers (a constant of hf has |v| = 0 and no d).  One lcm for the whole form would make
    # every integer as long as all the denominators together.
    rows, lcm = [], {}
    for form in (f, hf):
        keyed = []
        for index, poly in form.terms.items():
            ones = [1 if i in index else 0 for i in range(1, f.m + 1)]
            for e, c in poly.items():
                v = tuple(map(operator.add, e, ones))
                lcm[v] = math.lcm(lcm.get(v, 1), c.denominator)
                keyed.append((index, e, c, v))
        rows.append(keyed)
    f_scaled, hf_scaled, target = {}, {}, {}
    for index, e, c, v in rows[0]:
        scaled = c.numerator * (lcm[v] // c.denominator)
        f_scaled.setdefault(index, {})[e] = scaled
        target.setdefault(index, {})[e] = scaled * sum(v)
    for index, e, c, v in rows[1]:
        hf_scaled.setdefault(index, {})[e] = c.numerator * (lcm[v] // c.denominator) * sum(v)
    lhs = _d_terms(hf_scaled, f.m, _iota_terms(_d_terms(f_scaled, f.m, {}), {}))
    return {index: poly for index, poly in lhs.items() if poly} == target


def dilate(f: PolyForm, r) -> PolyForm:
    """Exact pullback by the dilation x |-> r x: coefficients pick up r^(k+p)."""
    r = Fraction(r)
    out = {
        idx: _canonical({e: c * r ** (f.k + sum(e)) for e, c in poly.items()})
        for idx, poly in f.terms.items()
    }
    return PolyForm(f.m, f.k, out)


# Largest exponent that a MonomialTable evaluates: it holds every power up to it of each
# variable the form uses, at every point; h_bound_check's rays evaluate the monomials only
# at their end points, so 1001 x 200 powers at 8 points (13 MB) for a form on R^200.
MAX_TABLE_EXPONENT = 1000

# Points per ray at which h_bound_check samples ||f(t x)||, t evenly spaced in [0, 1].
T_SAMPLES = 1000


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
        if self.degree > MAX_TABLE_EXPONENT:
            variable = int(np.argmax(self.exps.max(axis=0))) + 1
            raise ValueError(
                f"exponent {self.degree} of x{variable} exceeds {MAX_TABLE_EXPONENT}, "
                "the largest that is evaluated at points"
            )
        self.used = [(i, column) for i, column in enumerate(self.exps.T) if column.any()]

    def _monomials(self, X: np.ndarray) -> np.ndarray:
        """Monomial values at the points X, shape (T, m) -> (monomials, T): each is
        its coefficient times x_i^e_i for each variable x_i that the form uses, in
        turn, with powers by repeated multiplication.  Overflow gives inf or nan."""
        base = X.T[[i for i, _ in self.used]]
        powers = np.empty((self.degree + 1,) + base.shape)  # (degree + 1, len(used), T)
        powers[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for e in range(self.degree):
                np.multiply(powers[e], base, out=powers[e + 1])
            mono = np.repeat(self.coeffs[:, None], len(X), axis=1)
            for j, (_, column) in enumerate(self.used):
                mono *= powers[column, j]
        return mono

    def values(self, X: np.ndarray) -> np.ndarray:
        """Coefficient values at the points X, shape (T, m) -> (T, len(indices));
        each index sums its monomials in order.  Overflow gives no warning."""
        X = np.asarray(X, dtype=float)
        if not self.indices:
            return np.zeros((len(X), 0))
        with np.errstate(over="ignore", invalid="ignore"):
            return np.add.reduceat(self._monomials(X), self.starts, axis=0).T

    def ray_norms(self, X: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """||f(t x)|| for each point x of X and each t of ts, shape (P, len(ts)), for a form
        with an index.  A monomial of total degree p is t^p times its value at x, so each
        index sums its monomials at X per total degree and is evaluated by Horner in t,
        with t^g for each gap g between the degrees; the squares are summed over the
        indices in order.  It holds indices x P x len(ts) floats.  Overflow gives inf or nan."""
        total = self.exps.sum(axis=1)
        degrees = sorted(set(total.tolist()))
        index = np.searchsorted(self.starts, np.arange(len(total)), side="right") - 1
        graded = np.zeros((len(degrees), len(self.indices), len(X)))
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(graded, (np.searchsorted(degrees, total), index), self._monomials(X))
            ray = np.repeat(graded[-1, :, :, None], len(ts), axis=2)  # (indices, P, len(ts))
            for gap, part in zip(np.diff(degrees)[::-1], graded[-2::-1]):
                ray *= ts ** float(gap)
                ray += part[:, :, None]
            if degrees[0]:
                ray *= ts ** float(degrees[0])
            np.square(ray, out=ray)
            squares = ray[0]
            for row in ray[1:]:
                squares += row
        return np.sqrt(squares)

    def norms(self, X: np.ndarray) -> np.ndarray:
        """Euclidean norm of the coefficient values at each point of X."""
        total = np.zeros(len(X))
        with np.errstate(over="ignore", invalid="ignore"):
            for column in self.values(X).T:
                total += column * column
        return np.sqrt(total)


def point_block(points: Sequence[Sequence[float]], m: int) -> np.ndarray:
    """The points as one (P, m) array of finite floats; a point of another
    shape, or an entry that is not a finite number, is refused by name."""
    try:
        xs = [np.asarray(json_numbers(p), dtype=float) for p in points]
    except TypeError as exc:
        raise ValueError(f"points must hold numbers: {exc}") from exc
    for x in xs:
        if x.shape != (m,):
            raise ValueError(f"point dimension {x.shape} does not match m={m}")
    X = np.array(xs).reshape(len(xs), m)
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"non-finite entry {X[i, j]} at point {i + 1}, coordinate {j + 1}")
    return X


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
    side up to the rounding of the samples, gamma u times sum_e |c_e (t x)^e|
    with gamma a small multiple of the degree and the monomial count, so a
    nonnegative margin is conservative up to that rounding.
    """

    m: int
    k: int
    s: float
    t_samples: ClassVar[int] = T_SAMPLES
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
        ts = np.linspace(0.0, 1.0, T_SAMPLES)
        # the rays of as many points at once as fit in 2^20 floats (8 MB), at least one, so
        # that memory does not grow with the number of points
        block = max(1, 2**20 // (len(f_table.indices) * T_SAMPLES))
        max_beta = np.empty(len(X))
        for i in range(0, len(X), block):
            max_beta[i:i + block] = np.max(f_table.ray_norms(X[i:i + block], ts), axis=1)
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
        rhs_sampled=not ray_case,
        ray_constant=ray_case,
        points=X.tolist(),
        lhs=lhs.tolist(),
        rhs=rhs.tolist(),
        margins=(rhs - lhs).tolist(),
        ray_rhs=ray_rhs.tolist() if ray_case else None,
        ray_margins=(ray_rhs - lhs).tolist() if ray_case else None,
    )
