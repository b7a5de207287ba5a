import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sympeps import cli
from sympeps import exact
from sympeps import symplectic as sy


def _reference_defect_squared(phi):
    """||Phi^T J Phi - J||_F^2 / 2 in Fractions of the entries."""
    F = [[Fraction(x) for x in row] for row in np.asarray(phi, dtype=float).tolist()]
    dim = len(F)
    J = [[Fraction(int(x)) for x in row] for row in sy.standard_J(dim // 2).tolist()]
    JF = [[sum(J[r][c] * F[c][b] for c in range(dim)) for b in range(dim)] for r in range(dim)]
    total = Fraction(0)
    for a in range(dim):
        for b in range(dim):
            entry = sum(F[r][a] * JF[r][b] for r in range(dim)) - J[a][b]
            total += entry * entry
    return total / 2


def _straddled_maps():
    """One map per n = 1..4 whose float defect and exact defect straddle:
    among eps at the float defect and 1 and 2 ulps either side, the exact
    answer is yes for some and no for others."""
    return [sy.random_eps_symplectic(n, 0.3, seed=n) for n in range(1, 5)]


def _ulps_around(x):
    below = [math.nextafter(x, -math.inf)]
    below.append(math.nextafter(below[0], -math.inf))
    above = [math.nextafter(x, math.inf)]
    above.append(math.nextafter(above[0], math.inf))
    return below[::-1] + [x] + above


def _run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_defect_squared_equals_the_fraction_reference():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        for i in range(12):
            phi = sy.random_eps_symplectic(n, float(rng.uniform(0.0, 0.7)), seed=i)
            phi = np.ldexp(phi, int(rng.integers(-300, 300)))
            if i % 3 == 0:
                phi[rng.integers(2 * n), rng.integers(2 * n)] = 0.0
            if i % 4 == 0:
                phi[0, 0] = 5e-324  # the smallest subnormal
            assert exact.defect_squared(phi) == _reference_defect_squared(phi)
    assert exact.defect_squared(np.zeros((4, 4))) == 2
    assert exact.defect_squared(np.eye(6)) == 0
    assert exact.defect_squared(sy.plane_scaling([2.0])) == 9


def test_analyze_within_eps_is_exact_at_a_tie(capsys, tmp_path):
    # the float defect equals eps, but the exact D^2 - eps^2 is +1.9e-17
    path = tmp_path / "phi.txt"
    sy.save_matrix(path, sy.random_eps_symplectic(2, 0.3, seed=0))
    phi = sy.load_matrix(path)
    assert sy.defect(phi) == 0.2999999999999999
    assert 1.8e-17 < exact.defect_squared(phi) - Fraction(0.2999999999999999) ** 2 < 2e-17
    code, out, _ = _run(capsys, "analyze", path, "--eps", "0.2999999999999999")
    assert code == 0
    assert json.loads(out)["within_eps"] is False


def test_analyze_straddles_match_the_fraction_reference(capsys, tmp_path):
    answers = set()
    for n, phi in enumerate(_straddled_maps(), start=1):
        path = tmp_path / f"phi{n}.txt"
        sy.save_matrix(path, phi)
        reference = _reference_defect_squared(phi)
        for eps in _ulps_around(sy.defect(phi)):
            code, out, _ = _run(capsys, "analyze", path, "--eps", repr(eps))
            want = reference <= Fraction(eps) ** 2
            assert (code, json.loads(out)["within_eps"]) == (0, want), (n, eps)
            answers.add(want)
    assert answers == {True, False}


def test_symplectify_straddles_exit_one_exactly_past_the_budget(capsys, tmp_path):
    # symplectify accepts an exact defect up to eps + 1e-12: eps is set so
    # that eps + 1e-12 lands at the float defect and 1 and 2 ulps either side
    outcomes = set()
    for n, phi in enumerate(_straddled_maps(), start=1):
        path = tmp_path / f"phi{n}.txt"
        sy.save_matrix(path, phi)
        reference = _reference_defect_squared(phi)
        d0 = sy.defect(phi)
        for target in _ulps_around(d0):
            eps = target - 1e-12
            code, out, err = _run(capsys, "symplectify", path, "--eps", repr(eps), "--out", tmp_path / "psi.txt")
            over = reference > Fraction(eps + 1e-12) ** 2
            if over:
                assert (code, out, err) == (1, "", f"defect {d0:.6e} exceeds eps {eps:.6e}\n"), (n, eps)
            else:
                assert code == 0 and json.loads(out)["report"]["input_defect"] == d0, (n, eps)
            outcomes.add(over)
    assert outcomes == {True, False}


@pytest.mark.parametrize("budget", [-0.0, -1e-300])
def test_defect_within_a_zero_or_negative_budget(budget):
    # D = 0 meets the budget -0.0, as 0.0 <= -0.0 does; no D meets a negative one
    assert exact.defect_within(np.eye(4), 0.0, budget) is (budget == 0.0)
