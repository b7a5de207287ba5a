"""Coefficient-level exterior algebra on R^m.

A k-covector is stored sparsely as a map from strictly increasing 1-based
multi-indices (i_1 < ... < i_k) to real coefficients.  Two norms are
provided:

* ``norm2`` -- the Euclidean norm of the coefficient vector, which is
  invariant under orthonormal changes of frame;
* the comass -- the supremum of the covector over unit simple k-vectors:
  ``comass_exact`` for k in {0, 1, 2, m-1, m} (at k = 2 the top singular
  value of the associated skew matrix, its top spectral coefficient), and
  ``comass``, between a randomized lower bound and ``norm2``, at any k.

Interior multiplication and pullback by a square matrix (via k x k
minors) round out the toolkit.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

MultiIndex = Tuple[int, ...]

DEFAULT_COMASS_TRIALS = 10_000


def check_multi_index(index: Sequence[int], m: int, k: int) -> MultiIndex:
    """Validate and canonicalize a strictly increasing 1-based index tuple of
    degree k."""
    idx = tuple(map(int, index))
    if len(idx) != k:
        raise ValueError(f"index {idx} does not have degree {k}")
    if idx and not 1 <= min(idx) <= max(idx) <= m:
        raise ValueError(f"index {idx} out of range 1..{m}")
    if not all(map(operator.lt, idx, idx[1:])):
        raise ValueError(f"index {idx} is not strictly increasing")
    return idx


def json_loads(text: str):
    """json.loads(text), with an integer literal of more digits than ``int`` converts refused by its count and
    place: json's own ValueError names neither, so only a failed parse looks for it."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        limit = sys.get_int_max_str_digits()
        for token in re.finditer(r'"(?:[^"\\]|\\.)*"|[-+.0-9eE]+', text):  # each string and number, in order
            digits = token.group().lstrip("-")
            if digits.isdigit() and len(digits) > limit:
                raise json.JSONDecodeError(f"integer {token.group()[:20]}... of {len(digits)} digits, more than "
                                           f"the {limit} that are read", text, token.start()) from None
        raise


def json_int(value, key: str) -> int:
    """An integer read from the JSON field ``key``: an integer, or a string of
    one.  A float (even 2.0) or a boolean is refused by name, not truncated, and
    so is a string of more digits than ``int`` converts (``sys.get_int_max_str_digits``)."""
    if type(value) is int:
        return value
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", value):  # int's own grammar: only the length is refused
                raise ValueError(f"JSON field {key!r} holds an integer of {sum(map(str.isdecimal, value))} digits, "
                                 f"more than the {sys.get_int_max_str_digits()} that are read: "
                                 f"{value.strip()[:20]}...") from None
    raise ValueError(f"JSON field {key!r} must hold integers, got {value!r:.20}{'...' if len(repr(value)) > 20 else ''}")


def json_list(value, key: str) -> list:
    """The JSON list read from the field ``key``.  A string or an object is
    refused by name, not iterated; the TypeError is the parsers' malformed
    layout error."""
    if not isinstance(value, list):
        raise TypeError(f"JSON field {key!r} must be a list, got {type(value).__name__}")
    return value


def json_numbers(value):
    """``value``, once no entry of its nested lists is a string or a boolean:
    numpy would read "1.5" as 1.5 and true as 1.0.  Such an entry raises the
    parsers' malformed layout TypeError, naming it."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"{value!r} is a {type(value).__name__}, not a number")
    if isinstance(value, (list, tuple)):
        for item in value:
            json_numbers(item)
    return value


def merge_sign(first: MultiIndex, second: MultiIndex) -> int:
    """Sign of the permutation that sorts ``first + second`` (disjoint
    increasing indices): dx_first ^ dx_second = sign * dx_sorted."""
    inversions = sum(1 for x in first for y in second if x > y)
    return -1 if inversions % 2 else 1


def contraction_sign(position: int) -> int:
    """Sign picked up by the slot at 0-based ``position`` of a multi-index
    when a vector is contracted into it: moving the slot to the front takes
    ``position`` transpositions."""
    return -1 if position % 2 else 1


@dataclass(frozen=True)
class Covector:
    """Sparse k-covector sum_sigma f_sigma dx_sigma on R^m.

    ``coeffs`` maps strictly increasing 1-based multi-indices of length k to
    nonzero coefficients; exact zeros are dropped on construction.
    """

    m: int
    k: int
    coeffs: Mapping[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.m < 0 or not 0 <= self.k <= self.m:
            raise ValueError(f"invalid degree k={self.k} for ambient dimension m={self.m}")
        clean: Dict[MultiIndex, float] = {}
        for index, coeff in self.coeffs.items():
            idx = check_multi_index(index, self.m, self.k)
            value = float(coeff)
            if value != 0.0:
                clean[idx] = value
        object.__setattr__(self, "coeffs", clean)

    def __add__(self, other: "Covector") -> "Covector":
        if not isinstance(other, Covector):
            return NotImplemented
        if (self.m, self.k) != (other.m, other.k):
            raise ValueError("covector degree/dimension mismatch in addition")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0.0) + c
        return Covector(self.m, self.k, out)

    def __neg__(self) -> "Covector":
        return Covector(self.m, self.k, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "Covector") -> "Covector":
        return self + (-other)


def _evaluate_frames(c: Covector, frames: np.ndarray) -> np.ndarray:
    """Values of ``c`` on a stack of frames of shape (T, m, k), columns = vectors."""
    total = np.zeros(frames.shape[0])
    for index, coeff in c.coeffs.items():
        rows = [i - 1 for i in index]
        total += coeff * np.linalg.det(frames[:, rows, :])
    return total


def norm2(c: Covector) -> float:
    """Euclidean norm of the coefficient vector.  The coefficients are divided by 2^e, the
    power of two of the largest one, so that no square overflows or underflows to zero; a
    power-of-two scaling is exact, so the bits are those of the unscaled sum wherever neither
    form leaves the normal floats."""
    _, e = math.frexp(max(map(abs, c.coeffs.values()), default=0.0))
    return math.ldexp(math.sqrt(sum(w * w for w in (math.ldexp(v, -e) for v in c.coeffs.values()))), e)


def comass_exact(c: Covector) -> float:
    """The comass of ``c`` at degrees 0 and m (the absolute coefficient), 1 and m-1 (``norm2``) and 2
    (the top singular value of the skew matrix W with c(v, w) = <W v, w>)."""
    if c.k in (0, c.m):
        return abs(next(iter(c.coeffs.values()), 0.0))
    if c.k in (1, c.m - 1):
        return norm2(c)
    if c.k != 2:
        raise ValueError(f"exact comass is only available for k in {{0, 1, 2, m-1, m}}, got k={c.k}, m={c.m}")
    W = np.zeros((c.m, c.m))
    for (i, j), f in c.coeffs.items():
        W[j - 1, i - 1], W[i - 1, j - 1] = f, -f
    return float(np.linalg.svd(W, compute_uv=False)[0])


def comass(c: Covector, trials: int = DEFAULT_COMASS_TRIALS, seed: int = 0) -> Tuple[float, float]:
    """Interval [lo, hi] holding the comass of ``c`` at any degree: lo the best of ``trials``
    evaluations on random orthonormal k-frames, hi ``norm2``."""
    hi = norm2(c)
    if hi == 0.0 or trials <= 0:
        return (0.0, hi)
    gauss = np.random.default_rng(seed).standard_normal((int(trials), c.m, c.k))
    q, _ = np.linalg.qr(gauss)
    lo = float(np.max(np.abs(_evaluate_frames(c, q))))
    return (min(lo, hi), hi)


def interior(v: Sequence[float], c: Covector) -> Covector:
    """Contraction c(v, . , ..., . ); degree drops by one."""
    if c.k < 1:
        raise ValueError("interior multiplication needs degree k >= 1")
    vec = np.asarray(v, dtype=float)
    if vec.shape != (c.m,):
        raise ValueError(f"vector dimension {vec.shape} does not match m={c.m}")
    out: Dict[MultiIndex, float] = {}
    for index, coeff in c.coeffs.items():
        for j, i in enumerate(index):
            reduced = index[:j] + index[j + 1:]
            out[reduced] = out.get(reduced, 0.0) + contraction_sign(j) * coeff * vec[i - 1]
    return Covector(c.m, c.k - 1, out)


def pullback(L: np.ndarray, c: Covector) -> Covector:
    """(L^* c)(v_1, ..., v_k) = c(L v_1, ..., L v_k), computed via k x k minors."""
    mat = np.asarray(L, dtype=float)
    if mat.shape != (c.m, c.m):
        raise ValueError(f"matrix shape {mat.shape} does not match ambient dimension {c.m}")
    combos = list(itertools.combinations(range(c.m), c.k))
    # Frame j holds the columns combos[j] of L: its value is the coefficient (Covector drops zeros).
    acc = _evaluate_frames(c, mat[:, np.array(combos, dtype=int)].transpose(1, 0, 2))
    return Covector(c.m, c.k, {tuple(i + 1 for i in combo): val for combo, val in zip(combos, acc)})
