import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympeps import exterior as ex
from sympeps import symplectic as sy
from sympeps.suite import random_covector


def test_wedge_basis_covectors():
    m = 4
    dx1 = ex.Covector.basis(m, (1,))
    dx2 = ex.Covector.basis(m, (2,))
    assert ex.wedge(dx1, dx2).coeffs == {(1, 2): 1.0}
    assert ex.wedge(dx2, dx1).coeffs == {(1, 2): -1.0}


def test_wedge_bilinearity_example():
    m = 4
    dx1 = ex.Covector.basis(m, (1,))
    dx2 = ex.Covector.basis(m, (2,))
    assert ex.wedge(dx1 + dx2, dx2).coeffs == {(1, 2): 1.0}


def test_wedge_errors():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ex.wedge(ex.Covector.basis(3, (1,)), ex.Covector.basis(4, (1,)))
    with pytest.raises(ValueError, match="degree overflow"):
        ex.wedge(ex.Covector.basis(3, (1, 2)), ex.Covector.basis(3, (1, 3)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 5),
    st.lists(st.integers(-5, 5), min_size=5, max_size=5),
    st.lists(st.integers(-5, 5), min_size=5, max_size=5),
)
def test_wedge_anticommutes_on_one_forms(m, a_coeffs, b_coeffs):
    a = ex.Covector(m, 1, {(i,): c for i, c in zip(range(1, m + 1), a_coeffs)})
    b = ex.Covector(m, 1, {(i,): c for i, c in zip(range(1, m + 1), b_coeffs)})
    ab = ex.wedge(a, b)
    ba = ex.wedge(b, a)
    assert (ab + ba).coeffs == {}


def test_norm2_reference_form():
    for n in range(1, 6):
        assert sy.omega0_covector(n).coeffs == {
            (2 * j + 1, 2 * j + 2): 1.0 for j in range(n)
        }
        assert ex.norm2(sy.omega0_covector(n)) == pytest.approx(math.sqrt(n), abs=1e-15)


def test_norm2_basics():
    assert ex.norm2(ex.Covector.zero(5, 2)) == 0.0
    c = ex.Covector(3, 2, {(1, 2): 3.0, (1, 3): 4.0})
    assert ex.norm2(c) == pytest.approx(5.0, abs=1e-15)


def test_comass_exact_reference_form():
    for n in range(1, 6):
        lo, hi = ex.comass(sy.omega0_covector(n), "exact")
        assert lo == hi == pytest.approx(1.0, abs=1e-12)


def test_comass_exact_one_covector_is_norm2():
    c = ex.Covector(5, 1, {(1,): 1.0, (3,): -2.0, (5,): 0.5})
    lo, hi = ex.comass(c, "exact")
    assert lo == hi == pytest.approx(ex.norm2(c), abs=1e-15)


def test_comass_exact_codegree_one_is_norm2():
    c = ex.Covector(4, 3, {(1, 2, 3): 1.0, (1, 2, 4): -1.0, (2, 3, 4): 2.0})
    lo, hi = ex.comass(c, "exact")
    assert lo == hi == pytest.approx(ex.norm2(c), abs=1e-15)


def test_comass_exact_two_form_top_spectral_value():
    c = ex.Covector(4, 2, {(1, 2): 2.0, (3, 4): 1.0})
    lo, hi = ex.comass(c, "exact")
    assert lo == hi == pytest.approx(2.0, abs=1e-12)
    # independent check: randomized simple-vector search approaches the value
    rand_lo, rand_hi = ex.comass(c, "sandwich", trials=20000, seed=5)
    assert rand_lo <= 2.0 + 1e-12
    assert rand_lo >= 2.0 - 0.1
    assert rand_hi == pytest.approx(math.sqrt(5.0), abs=1e-15)


def test_comass_exact_two_form_matches_standard_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        c = ex.Covector(
            m, 2, {(1, 2): float(rng.normal()), **(
                {(1, min(3, m)): float(rng.normal())} if m >= 3 else {}
            )}
        )
        if not c.coeffs:
            continue
        exact = ex.comass(c, "exact")[0]
        sf = sy.standard_form(ex.covector_to_skew(c))
        assert exact == pytest.approx(float(sf.lambda_sq[-1]), rel=1e-12)


def test_comass_exact_unsupported_degree():
    c = ex.Covector.basis(6, (1, 2, 3))
    with pytest.raises(ValueError, match="exact comass"):
        ex.comass(c, "exact")


def test_comass_sandwich_brackets_and_is_deterministic():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = random_covector(rng)
        lo, hi = ex.comass(c, "sandwich", trials=64, seed=11)
        assert 0.0 <= lo <= hi + 1e-15
        assert ex.comass(c, "sandwich", trials=64, seed=11) == (lo, hi)


def test_comass_zero_and_degree_zero():
    assert ex.comass(ex.Covector.zero(4, 2), "sandwich") == (0.0, 0.0)
    c = ex.Covector(3, 0, {(): -2.5})
    assert ex.comass(c, "exact") == (2.5, 2.5)
    assert ex.comass(c, "sandwich", trials=8, seed=0) == (2.5, 2.5)
    top = ex.Covector(3, 3, {(1, 2, 3): -1.5})
    assert ex.comass(top, "exact") == (1.5, 1.5)
    assert ex.comass(top, "sandwich", trials=8, seed=0) == (1.5, 1.5)


def test_basis_witness_single_term():
    c = ex.Covector.basis(4, (1, 2))
    witness = ex.comass_basis_witness(c, np.eye(4))
    assert witness.value == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(witness.vectors, np.eye(4)[:2])
    assert witness.value >= ex.norm2(c) / math.sqrt(math.comb(4, 2)) - 1e-12


def test_basis_witness_reference_form():
    c = sy.omega0_covector(2)
    witness = ex.comass_basis_witness(c, np.eye(4))
    assert witness.value == pytest.approx(1.0, abs=1e-15)
    assert witness.value >= math.sqrt(2.0) / math.sqrt(6.0) - 1e-12


def test_basis_witness_random_bases_meet_lower_bound():
    rng = np.random.default_rng(42)
    for _ in range(100):
        c = random_covector(rng)
        q, _ = np.linalg.qr(rng.normal(size=(c.m, c.m)))
        witness = ex.comass_basis_witness(c, q.T)
        bound = ex.norm2(c) / math.sqrt(math.comb(c.m, c.k))
        assert witness.value >= bound - 1e-9
        # the witness evaluation is itself a comass lower bound
        assert witness.value <= ex.norm2(c) + 1e-12


def test_basis_witness_sign_applied_to_first_vector():
    c = ex.Covector(3, 2, {(1, 2): -2.0})
    witness = ex.comass_basis_witness(c, np.eye(3))
    assert witness.value == pytest.approx(2.0)
    assert c.evaluate(witness.vectors) == pytest.approx(2.0)


def test_basis_witness_rejects_non_orthonormal():
    c = ex.Covector.basis(3, (1, 2))
    with pytest.raises(ValueError, match="orthonormal"):
        ex.comass_basis_witness(c, 2.0 * np.eye(3))


def test_interior_reference_form():
    om = sy.omega0_covector(2)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    assert ex.interior(e1, om).coeffs == {(2,): 1.0}


def test_interior_zero_and_errors():
    assert ex.interior(np.ones(4), ex.Covector.zero(4, 2)).coeffs == {}
    with pytest.raises(ValueError, match="degree"):
        ex.interior(np.ones(3), ex.Covector(3, 0, {(): 1.0}))
    with pytest.raises(ValueError, match="dimension"):
        ex.interior(np.ones(2), ex.Covector.basis(3, (1, 2)))


def test_interior_norm_bound():
    rng = np.random.default_rng(9)
    for _ in range(200):
        c = random_covector(rng)
        v = rng.normal(size=c.m)
        bound = math.sqrt(c.k) * float(np.linalg.norm(v)) * ex.norm2(c)
        assert ex.norm2(ex.interior(v, c)) <= bound + 1e-9


def test_interior_comass_bound():
    # randomized lower bounds of the contraction never exceed ||v|| * comass-hi
    rng = np.random.default_rng(10)
    for _ in range(50):
        c = random_covector(rng)
        if c.k < 2:
            continue
        v = rng.normal(size=c.m)
        lo, _ = ex.comass(ex.interior(v, c), "sandwich", trials=32, seed=1)
        _, hi = ex.comass(c, "sandwich", trials=1, seed=1)
        assert lo <= float(np.linalg.norm(v)) * hi + 1e-9


def test_pullback_identity_and_homogeneity():
    rng = np.random.default_rng(2)
    c = random_covector(rng)
    np.testing.assert_allclose(
        [ex.pullback(np.eye(c.m), c).coeffs.get(i, 0.0) for i in c.coeffs],
        list(c.coeffs.values()),
        rtol=1e-14,
    )
    c2 = ex.Covector(4, 2, {(1, 2): 1.5, (2, 4): -0.5})
    scaled = ex.pullback(2.0 * np.eye(4), c2)
    for idx, val in c2.coeffs.items():
        assert scaled.coeffs[idx] == pytest.approx(4.0 * val, rel=1e-14)


def test_pullback_worked_example():
    phi = sy.asymmetric_defect_map(0.1, 2.0)
    om = sy.omega0_covector(2)
    diff = ex.pullback(phi, om) - om
    # eps dx_1 ^ dx_2 lives on interleaved slots (1, 3)
    assert set(diff.coeffs) == {(1, 3)}
    assert diff.coeffs[(1, 3)] == pytest.approx(0.1, abs=1e-15)


def test_pullback_functoriality():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = random_covector(rng)
        L1 = rng.normal(size=(c.m, c.m))
        L2 = rng.normal(size=(c.m, c.m))
        lhs = ex.pullback(L1, ex.pullback(L2, c))
        rhs = ex.pullback(L2 @ L1, c)
        scale = max(ex.norm2(rhs), 1e-12)
        assert ex.norm2(lhs - rhs) / scale <= 1e-10


def test_pullback_operator_norm_bound_for_two_forms():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(2, 9))
        c = ex.Covector(m, 2, {(1, 2): float(rng.normal())})
        L = rng.normal(size=(m, m))
        bound = float(np.linalg.norm(L, 2)) ** 2 * ex.norm2(c)
        assert ex.norm2(ex.pullback(L, c)) <= bound + 1e-9


def _pullback_coefficients_reference(L, c):
    """The per-index minor loop that pullback ran before it evaluated its
    frames with _evaluate_frames; kept as the reference for exact equality."""
    combos = list(itertools.combinations(range(c.m), c.k))
    cols = np.array(combos)
    acc = np.zeros(len(combos))
    for index, coeff in c.coeffs.items():
        rows = [i - 1 for i in index]
        acc += coeff * np.linalg.det(L[rows][:, cols].transpose(1, 0, 2))
    return {tuple(i + 1 for i in combo): val for combo, val in zip(combos, acc) if val != 0.0}


def test_pullback_equals_the_minor_loop_bit_for_bit():
    rng = np.random.default_rng(9)
    for _ in range(500):
        c = random_covector(rng)
        L = rng.normal(size=(c.m, c.m))
        assert ex.pullback(L, c).coeffs == _pullback_coefficients_reference(L, c)


def test_pullback_dimension_mismatch():
    with pytest.raises(ValueError, match="match"):
        ex.pullback(np.eye(3), ex.Covector.basis(4, (1, 2)))


def test_metric_norm_bounds():
    assert ex.metric_norm_bounds(1.0, 1.0, 3) == (1.0, 1.0)
    lo, hi = ex.metric_norm_bounds(4.0, 4.0, 2)
    assert lo == pytest.approx(0.25) and hi == pytest.approx(4.0)
    lo, hi = ex.metric_norm_bounds(2.0, 2.0, 1)
    assert lo == pytest.approx(1.0 / math.sqrt(2.0)) and hi == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError, match="positive"):
        ex.metric_norm_bounds(0.0, 1.0, 2)


def test_covector_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ex.Covector(4, 2, {(2, 1): 1.0})
    with pytest.raises(ValueError, match="out of range"):
        ex.Covector(4, 2, {(1, 5): 1.0})
    with pytest.raises(ValueError, match="degree"):
        ex.Covector(4, 2, {(1,): 1.0})
    # zeros are dropped on construction
    assert ex.Covector(4, 2, {(1, 2): 0.0}).coeffs == {}
