"""Exact decisions on the defect of a float matrix.

Phi is N 2^-k for an integer matrix N (``np.frexp`` gives every entry's
integer mantissa and exponent), so 2 D^2 = ||Phi^T J Phi - J||_F^2 is the
exact dyadic rational ||N^T J N - 4^k J||_F^2 / 16^k, computed here in Python
integers.  ``defect_within`` compares the defect with a budget, and reads it
only where ``defect(phi)`` lies within ``defect_rounding_bound(phi)`` of the
budget, where the float comparison cannot decide.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .symplectic import _as_even_matrix, defect_rounding_bound, standard_J


def defect_squared(phi) -> Fraction:
    """D^2 = ||Phi^T J Phi - J||_F^2 / 2 of the float matrix phi, exactly."""
    phi, n = _as_even_matrix(phi)
    mant, exps = np.frexp(phi)
    nonzero = mant != 0
    exps = exps - 53  # phi = (mant 2^53) 2^exps, and mant 2^53 is an integer
    k = -int(exps[nonzero].min(initial=0))
    ints = np.ldexp(mant, 53).astype(np.int64).tolist()
    shifts = np.where(nonzero, exps + k, 0).tolist()
    N = np.array([[v << s for v, s in zip(row, by)] for row, by in zip(ints, shifts)], dtype=object)
    J = standard_J(n).astype(int).astype(object)
    R = N.T @ J @ N - J * (1 << 2 * k)
    return Fraction(int((R * R).sum()), 2 << 4 * k)


def defect_within(phi, dft: float, budget: float) -> bool:
    """Whether the exact defect of phi is at most budget, given its computed
    defect dft: read from dft where the two differ by more than
    defect_rounding_bound(phi), and decided by defect_squared inside that."""
    if abs(dft - budget) > defect_rounding_bound(phi):
        return dft <= budget
    return budget >= 0.0 and defect_squared(phi) <= Fraction(budget) ** 2
