"""Benchmark-owned input generators.

Every map, form and point set the benchmark feeds to ``sympeps`` is made here
from the workload seed with numpy's PCG64 and plain rational arithmetic, and
never through ``sympeps.suite`` or ``sympeps.symplectic.random_eps_symplectic``:
a change to the program's own generators cannot change what is measured.
Coordinates are interleaved ``(x_1, y_1, ..., x_n, y_n)`` as the program
expects; the defect is ``||Phi^T J Phi - J||_F / sqrt(2)`` and does not depend
on the sign convention of ``J``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)


def complex_structure(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    for j in range(n):
        J[2 * j, 2 * j + 1] = -1.0
        J[2 * j + 1, 2 * j] = 1.0
    return J


def defect(phi: np.ndarray) -> float:
    """||Phi^T J Phi - J||_F / sqrt(2), computed independently of the program."""
    J = complex_structure(phi.shape[0] // 2)
    return float(np.linalg.norm(phi.T @ J @ phi - J) / SQRT2)


def _interleave(M: np.ndarray) -> np.ndarray:
    """Conjugate from split (x_1..x_n, y_1..y_n) to interleaved coordinates."""
    n = M.shape[0] // 2
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n) + n
    return M[np.ix_(perm, perm)]


def _symplectic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Lower shear x upper shear x dilation, all moderately conditioned.

    In split coordinates [[I, B], [0, I]] and [[I, 0], [C, I]] are symplectic
    for symmetric B, C, and so is diag(A, A^-T) for invertible A.
    """
    eye = np.eye(n)
    B = rng.normal(0.0, 0.3, (n, n))
    C = rng.normal(0.0, 0.3, (n, n))
    A = eye + rng.normal(0.0, 0.2, (n, n))
    upper = np.block([[eye, (B + B.T) / 2], [np.zeros((n, n)), eye]])
    lower = np.block([[eye, np.zeros((n, n))], [(C + C.T) / 2, eye]])
    dilation = np.block([[A, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(A).T]])
    return _interleave(lower @ upper @ dilation)


def eps_symplectic(rng: np.random.Generator, n: int, eps: float) -> np.ndarray:
    """Phi = S (I + t N) with S symplectic, |N|_2 = 1 and t bisected so that
    defect(Phi) is within 1e-10 of eps."""
    S = _symplectic(rng, n)
    while defect(S) > 1e-12:  # a nearly singular dilation: about one draw in 10^5
        S = _symplectic(rng, n)
    N = rng.standard_normal((2 * n, 2 * n))
    N /= np.linalg.norm(N, 2)
    eye = np.eye(2 * n)
    lo, hi = 0.0, 1.0
    while defect(S @ (eye + hi * N)) < eps:
        hi *= 2.0
    for _ in range(50):  # the bracket is at most a few units wide: 2^-50 of it is far below 1e-10
        mid = 0.5 * (lo + hi)
        if defect(S @ (eye + mid * N)) < eps:
            lo = mid
        else:
            hi = mid
    phi = S @ (eye + 0.5 * (lo + hi) * N)
    if abs(defect(phi) - eps) > 1e-10 or np.linalg.cond(phi) > 1e6:
        raise RuntimeError(f"map generation failed for n={n} eps={eps}")
    return phi


def round_up(x: float, digits: int = 6) -> float:
    """The defect rounded up to ``digits`` decimals: a budget the map meets."""
    scale = 10**digits
    return math.ceil(x * scale) / scale


def matrix_text(phi: np.ndarray) -> str:
    rows = [" ".join(repr(float(v)) for v in row) for row in phi]
    return f"n {phi.shape[0] // 2}\n" + "\n".join(rows) + "\n"


def load_matrix_text(path: str) -> np.ndarray:
    """Read the program's text matrix format with no help from the program."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    n = int(lines[0].split()[1])
    phi = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if phi.shape != (2 * n, 2 * n):
        raise ValueError(f"{path}: matrix shape {phi.shape} does not match n={n}")
    return phi


def random_form_shape(rng: np.random.Generator, m: int, k: int) -> list:
    """The coefficient-free part of a polynomial k-form on R^m: 1 to 6 index
    slots, each with 3 to 6 distinct monomial exponents of total degree <= 5,
    as ``[(index, [exponent, ...]), ...]``."""
    subsets = list(itertools.combinations(range(1, m + 1), k))
    slots = int(rng.integers(1, min(6, len(subsets)) + 1))
    chosen = sorted(rng.choice(len(subsets), size=slots, replace=False).tolist())
    shape = []
    for i in chosen:
        exps: set = set()
        target = int(rng.integers(3, 7))
        while len(exps) < target:
            exp = [0] * m
            for _ in range(int(rng.integers(0, 6))):
                exp[int(rng.integers(m))] += 1
            exps.add(tuple(exp))
        shape.append((subsets[i], sorted(exps)))
    return shape


def random_form(rng: np.random.Generator, m: int, k: int, shape: list) -> dict:
    """A form of the given shape in the program's JSON layout, with fresh
    coefficients +-[1..19]/[1..12]."""
    terms = []
    for index, exps in shape:
        poly = []
        for exp in exps:
            sign = 1 if rng.integers(2) else -1
            c = Fraction(sign * int(rng.integers(1, 20)), int(rng.integers(1, 13)))
            poly.append({"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)})
        terms.append({"index": list(index), "poly": poly})
    return {"m": m, "k": k, "terms": terms}


def random_points(rng: np.random.Generator, m: int, count: int) -> list:
    """``count`` points in R^m drawn from N(0, 0.4^2) per coordinate."""
    return rng.normal(0.0, 0.4, (count, m)).tolist()


class InputSet:
    """Files written under one directory with names that depend only on the
    item, plus a sha256 over every byte written (the input digest)."""

    def __init__(self, root: str):
        self.root = root
        self._digest = hashlib.sha256()
        os.makedirs(root, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        data = text.encode("utf-8")
        self._digest.update(name.encode("utf-8") + b"\0" + data + b"\0")
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def note(self, text: str) -> None:
        """Fold an input that is not a file (an argv value) into the digest."""
        self._digest.update(text.encode("utf-8") + b"\0")

    def digest(self) -> str:
        return self._digest.hexdigest()


def write_json(inputs: InputSet, name: str, obj) -> str:
    return inputs.write(name, json.dumps(obj, indent=1) + "\n")
