"""Differential forms with exact rational polynomial coefficients on R^m.

Provides the exterior derivative and the explicit radial homotopy operator
h = iota_X o alpha (equivalently alpha o iota_X) that inverts d on star-shaped
domains: h(d f) + d(h f) = f identically.  Here X is the radial vector field
sum_i x_i d/dx_i and alpha rescales each coefficient monomial of total degree
p on a degree-k form by 1/(k + p).

A term x^e dx_I lies in the block v = e + 1_I (1_I is 1 at the positions in
I).  d, iota_X and alpha keep blocks, and alpha divides block v by |v|.  So a
form stores, per index, its nonzero integer numerators keyed by block in the
order the terms were added, over one positive denominator per block: d and
iota_X move and sign numerators, and alpha changes only denominators.
``Fraction``s are made only when ``terms`` is read, and floats only in a
``MonomialTable``, which evaluates a form at points.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import InitVar, dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# norm2 is unused here, but perfbench/selftest.py and tests/test_benchmark_bindings.py bind polyform.norm2
from .exterior import Covector, check_multi_index, contraction_sign, json_int, json_list, json_numbers, merge_sign, norm2

Exponent = Tuple[int, ...]
Block = Tuple[int, ...]
Poly = Dict[Exponent, Fraction]
MultiIndex = Tuple[int, ...]
Numerators = Dict[MultiIndex, Dict[Block, int]]


def poly_const(m: int, value) -> Poly:
    coeff = Fraction(value)
    if coeff == 0:
        return {}
    return {(0,) * m: coeff}


def _shift(t: Sequence[int], index: MultiIndex, step: int) -> List[int]:
    """t + step 1_I: the block of the exponent t at the index I for step 1, the exponent for -1."""
    out = list(t)
    for i in index:
        out[i - 1] += step
    return out


def _block(e: Sequence[int], index: MultiIndex, m: int) -> Block:
    """The block of the exponent e at the index I; one of another length or with a negative entry is refused."""
    if len(e) != m or min(e, default=0) < 0:
        raise ValueError(f"exponent tuple {tuple(e)} invalid for m={m}")
    return tuple(_shift(e, index, 1))


def _add_term(p: dict, v: Block, n: int) -> None:
    """p[v] += n in place.  A term that cancels is removed, and one that comes
    back is appended: a table of p sums its monomials in this order, and the
    float norms reach stdout."""
    total = p.get(v, 0) + n
    if total:
        p[v] = total
    else:
        p.pop(v, None)


def _scaled(num: Numerators, scale: Mapping[Block, int]) -> Numerators:
    """The numerators of block v times scale[v]."""
    return {idx: {v: n * scale[v] for v, n in row.items()} for idx, row in num.items()}


def _over_blocks(rows: Sequence[Tuple[MultiIndex, List[Tuple[Block, int, int]]]]) -> Tuple[Numerators, Dict[Block, int]]:
    """Terms [(index, [(block, n, q), ...]), ...], q > 0, as numerators over the lcm of each block's q.
    An entry list sums its repeated entries in place, zeros kept; a repeated index adds those sums
    term by term, so one that cancels comes back at the end."""
    den: Dict[Block, int] = {}
    for _, row in rows:
        for v, _, q in row:
            den[v] = math.lcm(den.get(v, 1), q)
    num: Numerators = {}
    for idx, row in rows:
        poly: Dict[Block, int] = {}
        for v, n, q in row:
            poly[v] = poly.get(v, 0) + n * (den[v] // q)
        merged = num.setdefault(idx, {})
        for v, n in poly.items():
            _add_term(merged, v, n)
    return num, den


# -- polynomial differential forms ------------------------------------------


@dataclass(frozen=True, eq=False)
class PolyForm:
    """Degree-k form sum_sigma f_sigma dx_sigma with polynomial coefficients.

    Built from {index: {exponent: c}}, c anything ``Fraction`` reads, or with
    ``denominators`` {block: int > 0} from {index: {block: int}}, the layout of
    ``num`` and ``den``.  ``==`` is exact polynomial identity.
    """

    m: int
    k: int
    coefficients: InitVar[Optional[Mapping]] = None
    denominators: InitVar[Optional[Mapping[Block, int]]] = None
    num: Numerators = field(init=False)
    den: Dict[Block, int] = field(init=False)

    def __post_init__(self, coefficients, denominators) -> None:
        m = self.m
        if m < 1 or not 0 <= self.k <= m:
            raise ValueError(f"invalid degree k={self.k} for ambient dimension m={m}")
        if denominators is None:
            rows = []
            for index, poly in (coefficients or {}).items():
                idx = check_multi_index(index, m, self.k)
                rows.append((idx, [(_block(e, idx, m), c.numerator, c.denominator)
                                     for e, c in zip(poly, map(Fraction, poly.values()))]))
            coefficients, denominators = _over_blocks(rows)
        num: Numerators = {}
        for index, row in coefficients.items():
            kept = {v: n for v, n in row.items() if n}
            if kept:
                num[check_multi_index(index, m, self.k)] = kept
        den = {v: denominators.get(v, 0) for row in num.values() for v in row}
        if not (all(len(v) == m and min(v) >= 0 and type(q) is int and q > 0 for v, q in den.items())
                and all(min(map(operator.itemgetter(i - 1), row)) for idx, row in num.items() for i in idx)):
            raise ValueError(f"blocks {den} must have m={m} entries >= 0, >= 1 where their index is, over ints > 0")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def terms(self) -> Dict[MultiIndex, Poly]:
        """{index: {exponent: Fraction}}, each index's monomials in the order they were added."""
        return {idx: {tuple(_shift(v, idx, -1)): Fraction(n, self.den[v]) for v, n in row.items()}
                for idx, row in self.num.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (self.m, self.k, self.terms) == (other.m, other.k, other.terms)

    @classmethod
    def basis(cls, m: int, index: Sequence[int]) -> "PolyForm":
        """dx_{i_1} ^ ... ^ dx_{i_k} with constant coefficient 1."""
        return cls(m, len(index), {tuple(map(int, index)): poly_const(m, 1)})

    def is_zero(self) -> bool:
        return not self.num

    def coefficient_degree(self) -> int:
        """Max total degree of a coefficient, or -1 for the zero form."""
        return max(map(sum, self.den), default=self.k - 1) - self.k

    def to_json_dict(self) -> dict:
        terms = []
        for idx in sorted(self.num):
            entries = []
            for v, n in sorted(self.num[idx].items()):  # in the order of the exponents v - 1_I
                q = self.den[v]
                g = math.gcd(n, q)
                try:
                    entries.append({"exp": _shift(v, idx, -1), "num": str(n // g), "den": str(q // g)})
                except ValueError:  # more digits than str writes, so than from_json_dict reads
                    big = max(abs(n), q) // g
                    d = int(math.log10(big))  # the digit count less 1, to within one: 10^d settles it
                    digits = d + (big >= 10 ** d) + (big >= 10 ** (d + 1))
                    raise ValueError(f"coefficient at index {list(idx)}, exponent {_shift(v, idx, -1)} has a "
                                     f"numerator or denominator of {digits} digits, more than the "
                                     f"{sys.get_int_max_str_digits()} that are written") from None
            terms.append({"index": list(idx), "poly": entries})
        return {"m": self.m, "k": self.k, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PolyForm":
        """Inverse of to_json_dict.  List fields follow ``json_list`` and integer fields ``json_int``;
        a malformed value or layout raises ValueError.  Repeated entries add up as in ``_over_blocks``."""
        if not isinstance(data, Mapping):
            raise ValueError(f"polyform JSON must be an object, got {type(data).__name__}")
        try:
            m, k = json_int(data["m"], "m"), json_int(data["k"], "k")
            rows = []
            for term in json_list(data.get("terms", []), "terms"):
                idx = check_multi_index([json_int(i, "index") for i in json_list(term["index"], "index")], m, k)
                row = []
                for entry in json_list(term["poly"], "poly"):
                    v = _block([json_int(p, "exp") for p in json_list(entry["exp"], "exp")], idx, m)
                    q = json_int(entry["den"], "den")
                    if q == 0:
                        raise ValueError("JSON field 'den' must be nonzero")
                    n = json_int(entry["num"], "num")
                    g = math.gcd(n, q) if q > 0 else -math.gcd(n, q)
                    row.append((v, n // g, q // g))
                rows.append((idx, row))
        except KeyError as exc:
            raise ValueError(f"malformed polyform JSON: missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed polyform JSON: {exc}") from exc
        return cls(m, k, *_over_blocks(rows))


# -- exterior derivative and the radial homotopy operator --------------------


def _d_terms(terms: Numerators, m: int, out: dict) -> dict:
    """Add d of the numerators {index: {block: n}} on R^m into out, per target index in place, and
    return out: for i not in I, x_i^p dx_I gives p x_i^(p-1) dx_i ^ dx_I in the same block, p = v_i."""
    for index, row in terms.items():
        members = set(index)
        for i in range(1, m + 1):
            if i in members:
                continue
            target = out.setdefault(tuple(sorted(index + (i,))), {})
            negate = merge_sign((i,), index) < 0
            for v, n in row.items():
                power = v[i - 1]
                if power:
                    _add_term(target, v, -n * power if negate else n * power)
    return out


def d(f: PolyForm) -> PolyForm:
    """Exterior derivative with exact coefficients; d(d(f)) = 0."""
    if f.k >= f.m:
        raise ValueError(f"exterior derivative of a top-degree form (k={f.k}, m={f.m})")
    return PolyForm(f.m, f.k + 1, _d_terms(f.num, f.m, {}), f.den)


def _alpha_den(f: PolyForm) -> Dict[Block, int]:
    """The block denominators of alpha f: block v divided by |v|."""
    if f.k == 0 and (0,) * f.m in f.den:
        raise ValueError("radial averaging diverges on constants of degree-0 forms")
    return {v: q * sum(v) for v, q in f.den.items()}


def alpha(f: PolyForm) -> PolyForm:
    """Radial averaging: each monomial of total degree p scales by 1/(k + p)."""
    return PolyForm(f.m, f.k, f.num, _alpha_den(f))


def _iota_terms(terms: Numerators, out: dict) -> dict:
    """Add iota_X of the numerators {index: {block: n}} into out, per target index in place, and
    return out: x^e dx_I gives the signed x_i x^e dx_(I - i), in the same block."""
    for index, row in terms.items():
        for j in range(len(index)):
            target = out.setdefault(index[:j] + index[j + 1:], {})
            negate = contraction_sign(j) < 0
            for v, n in row.items():
                _add_term(target, v, -n if negate else n)
    return out


def iota_radial(f: PolyForm) -> PolyForm:
    """Contraction with the radial field sum_i x_i d/dx_i."""
    if f.k < 1:
        raise ValueError("radial contraction needs degree k >= 1")
    return PolyForm(f.m, f.k - 1, _iota_terms(f.num, {}), f.den)


def h(f: PolyForm) -> PolyForm:
    """Radial homotopy operator; h(d f) + d(h f) = f for 1 <= k < m.  Computed as iota_X o alpha:
    iota_X moves the numerators and alpha sets the denominators.  The factorization alpha o iota_X
    agrees exactly (asserted by the test suite)."""
    if f.k < 1:
        raise ValueError("homotopy operator needs degree k >= 1")
    return PolyForm(f.m, f.k - 1, _iota_terms(f.num, {}), _alpha_den(f))


def homotopy_identity_check(f: PolyForm, hf: Optional[PolyForm] = None) -> bool:
    """Exact check of h(d f) + d(h f) == f, in integers, with no tolerance.  ``hf`` is h(f)
    when the caller has it already; omitted, it is computed."""
    if not 1 <= f.k < f.m:
        raise ValueError(f"identity check needs 1 <= k < m, got k={f.k}, m={f.m}")
    hf = h(f) if hf is None else hf
    if (hf.m, hf.k) != (f.m, f.k - 1):
        raise ValueError(f"h(f) must have m={f.m} and k={f.k - 1}, got m={hf.m}, k={hf.k}")
    # alpha commutes with d, so h(d f) = iota_X(d(alpha f)).  Let f and hf be N_f / D_v and N_h / H_v
    # on block v (D_v = 1 or H_v = 1 where a form has no terms), and scale the block by D_v H_v |v|.
    # As d and iota_X are linear and keep blocks, the identity holds iff, on every block,
    # iota_X(d(H_v N_f)) + d(D_v |v| N_h) == H_v |v| N_f (a constant of hf has |v| = 0 and no d).
    fd, hd = f.den, hf.den
    f_scaled = _scaled(f.num, {v: hd.get(v, 1) for v in fd})
    hf_scaled = _scaled(hf.num, {v: fd.get(v, 1) * sum(v) for v in hd})
    lhs = _d_terms(hf_scaled, f.m, _iota_terms(_d_terms(f_scaled, f.m, {}), {}))
    return {index: row for index, row in lhs.items() if row} == _scaled(f_scaled, {v: sum(v) for v in fd})


def dilate(f: PolyForm, r) -> PolyForm:
    """Exact pullback by the dilation x |-> r x: coefficients pick up r^(k+p) = r^|v|
    on block v, so for r = a / b its numerators take a^|v| and its denominator b^|v|."""
    r = Fraction(r)
    return PolyForm(f.m, f.k, _scaled(f.num, {v: r.numerator ** sum(v) for v in f.den}),
                    {v: q * r.denominator ** sum(v) for v, q in f.den.items()})


# Largest exponent that a MonomialTable evaluates: it holds every power up to it of each
# variable the form uses, at every point; h_bound_check's rays evaluate the monomials only
# at their end points, so 1001 x 200 powers at 8 points (13 MB) for a form on R^200.
MAX_TABLE_EXPONENT = 1000

# Points per ray at which h_bound_check samples ||f(t x)||, t evenly spaced in [0, 1].
T_SAMPLES = 1000
_T_GRID = np.linspace(0.0, 1.0, T_SAMPLES)
_T_GRID.flags.writeable = False


class MonomialTable:
    """A form's monomials as float arrays, built once and evaluated at many points.

    The indices are sorted; the monomials of index j are rows starts[j] up to
    starts[j + 1] of the integer exponent matrix and of the coefficients.
    ``degree`` is the largest exponent and ``used`` holds the 0-based
    variables that occur, in order.
    """

    def __init__(self, f: PolyForm):
        self.indices: List[MultiIndex] = sorted(f.num)
        rows = [f.num[idx] for idx in self.indices]
        self.starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
        self.exps = np.array([_shift(v, idx, -1) for idx, row in zip(self.indices, rows) for v in row],
                             dtype=int).reshape(-1, f.m)
        try:
            # Python's int / int is correctly rounded, as float(Fraction) is
            self.coeffs = np.array([n / f.den[v] for row in rows for v, n in row.items()])
        except OverflowError:
            # |n / q| rounds to inf iff it is at least 2^1024 - 2^970, halfway past the largest float
            index, v = next((i, v) for i, row in zip(self.indices, rows) for v, n in row.items()
                            if abs(n) >= (2**1024 - 2**970) * f.den[v])
            raise ValueError(f"coefficient at index {list(index)}, exponent {_shift(v, index, -1)} "
                             "is outside the float range") from None
        self.degree = int(self.exps.max(initial=0))
        if self.degree > MAX_TABLE_EXPONENT:
            variable = int(np.argmax(self.exps.max(axis=0))) + 1
            raise ValueError(f"exponent {self.degree} of x{variable} exceeds {MAX_TABLE_EXPONENT}, "
                             "the largest that is evaluated at points")
        # no array of size m; np.unique would import numpy.ma on its first call
        self.used = np.array(sorted(set(self.exps.nonzero()[1].tolist())), dtype=np.intp)

    def _monomials(self, X: np.ndarray) -> np.ndarray:
        """Monomial values at the points X, shape (T, m) -> (monomials, T): each is
        its coefficient times x_i^e_i for each variable x_i that the form uses, in
        turn, with powers by repeated multiplication.  Overflow gives inf or nan."""
        base = X.T[self.used]
        powers = np.empty((self.degree + 1,) + base.shape)  # (degree + 1, len(used), T)
        powers[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for e in range(self.degree):
                np.multiply(powers[e], base, out=powers[e + 1])
            mono = np.repeat(self.coeffs[:, None], len(X), axis=1)
            for j, i in enumerate(self.used):
                mono *= powers[self.exps[:, i], j]
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
        X = np.array(json_numbers(points), dtype=float)
    except (TypeError, ValueError):
        X = None
    if X is None or X.shape != (len(points), m):  # point by point, to name the one refused
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
    nonnegative margin is conservative up to that rounding.  ``s`` is the
    largest norm of the points, or 1.0 with none; no bound reads it.
    """

    m: int
    k: int
    s: float
    t_samples: int
    rhs_sampled: bool
    ray_constant: bool
    passed: bool
    points: List[List[float]]
    lhs: List[float]
    rhs: List[float]
    margins: List[float]
    ray_rhs: Optional[List[float]]
    ray_margins: Optional[List[float]]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def h_bound_check(f: PolyForm, points: Sequence[Sequence[float]], hf: Optional[PolyForm] = None) -> HBoundReport:
    """Evaluate both sides of the homotopy-operator norm bounds at each point.

    The bounds at x read only ||x|| and f on the segment [0, x].  ``hf`` is
    h(f) when the caller has it already; omitted, it is computed.
    """
    if f.k < 1:
        raise ValueError("norm bounds apply to degrees k >= 1")
    X = point_block(points, f.m)
    with np.errstate(over="ignore"):  # an infinite norm is refused below, naming the point
        # sqrt(x.x) is the 1-D np.linalg.norm; the axis form can differ in the last bit, and radii reach stdout
        radii = np.array([math.sqrt(x.dot(x)) for x in X])
    factor = math.sqrt(f.k * math.comb(f.m, f.k - 1)) / (f.k - 1) if f.k > 1 else math.sqrt(f.m)
    lhs = MonomialTable(h(f) if hf is None else hf).norms(X)
    f_table = MonomialTable(f)
    ray_case = f_table.degree == 0
    if ray_case:
        # constant coefficients: ||f(t x)|| is the same at every t and x
        max_beta = f_table.norms(X)
    else:
        # the rays of as many points at once as fit in 2^20 floats (8 MB), at least one, so
        # that memory does not grow with the number of points
        block = max(1, 2**20 // (len(f_table.indices) * T_SAMPLES))
        max_beta = np.empty(len(X))
        for i in range(0, len(X), block):
            max_beta[i:i + block] = np.max(f_table.ray_norms(X[i:i + block], _T_GRID), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = radii * factor * max_beta
    bad = np.flatnonzero(~(np.isfinite(lhs) & np.isfinite(rhs)))
    if bad.size:
        raise ValueError(f"norm bounds at point {X[bad[0]].tolist()} overflow")
    ray_rhs = radii / math.sqrt(f.k) * max_beta  # at most rhs, so finite
    margins = (rhs - lhs).tolist()
    ray_margins = (ray_rhs - lhs).tolist() if ray_case else None
    return HBoundReport(m=f.m, k=f.k, s=float(radii.max()) if len(radii) else 1.0, t_samples=T_SAMPLES,
                        rhs_sampled=not ray_case, ray_constant=ray_case,
                        passed=min(margins + (ray_margins or []), default=0.0) >= -1e-9, points=X.tolist(),
                        lhs=lhs.tolist(), rhs=rhs.tolist(), margins=margins,
                        ray_rhs=ray_rhs.tolist() if ray_case else None, ray_margins=ray_margins)
