import math

import numpy as np
import pytest

from sympeps import exterior, suite


# Seeds whose first plane-scaling draw in moser_suite had a defect past
# 1/sqrt(2) when the factors came from [0.8, 1.25]; from [0.8, 1.2] every
# draw stays below that limit.
@pytest.mark.parametrize("seed", [543367333, 575395341, 687693369, 1161222629, 1406605627])
def test_moser_suite_redraws_plane_scaling_past_the_defect_limit(seed):
    # the generator run_suite hands to moser_suite
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(9)[7])
    result = suite.moser_suite(rng, suite.SCALES["smoke"]["moser_maps"])
    assert result["passed"] is True
    assert result["plane_scaling_error"] <= 1e-6


def _norm_suite(seed):
    """norm_suite at smoke scale on the generator that run_suite hands it."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(9)[0])
    return suite.norm_suite(rng, suite.SCALES["smoke"]["covectors"], suite.SCALES["smoke"]["comass_trials"])


def test_norm_suite_finds_an_exact_comass_outside_the_sandwich(monkeypatch):
    exact = exterior.comass_exact

    def third_singular_value(c):
        """comass_exact with its degree-2 SVD branch reading the third singular value."""
        if c.k != 2 or c.m < 4:
            return exact(c)
        W = np.zeros((c.m, c.m))
        for (i, j), f in c.coeffs.items():
            W[j - 1, i - 1], W[i - 1, j - 1] = f, -f
        return float(np.linalg.svd(W, compute_uv=False)[2])

    result = _norm_suite(7)
    assert result["passed"] is True
    assert 0.0 <= result["exact_comass_identity_dev"] <= 1e-12
    monkeypatch.setattr(exterior, "comass_exact", third_singular_value)
    result = _norm_suite(7)
    assert result["passed"] is False
    assert result["exact_comass_identity_dev"] > 1e-3



def _random_ellipsoid_loop(rng, n):
    """The per-matrix generator that random_ellipsoids replaced: the reference."""
    dim = 2 * n
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    svals = np.exp(rng.uniform(-math.log(2.0), math.log(2.0), size=dim))
    return q1 @ np.diag(svals) @ q2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 32])
def test_random_ellipsoids_match_the_per_matrix_loop_bit_for_bit(n, count):
    rng, ref_rng = np.random.default_rng(11 * n + count), np.random.default_rng(11 * n + count)
    stack = suite.random_ellipsoids(rng, n, count)
    expected = np.array([_random_ellipsoid_loop(ref_rng, n) for _ in range(count)]).reshape(count, 2 * n, 2 * n)
    assert stack.shape == expected.shape
    assert np.array_equal(stack, expected)
    # both leave the generator in the same state
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(suite.random_ellipsoid(rng, n), _random_ellipsoid_loop(ref_rng, n))
