import itertools
import json
import math
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympeps import exterior as ex
from sympeps import polyform as pf
from sympeps.suite import random_polyform


def half(m, expts):
    return {tuple(expts): Fraction(1, 2)}


def poly_add(a, b):
    """The sum of two sparse polynomials {exponent: Fraction}, zero terms
    dropped: the references below build their forms with it."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def poly_total_degree(a):
    """Max total degree, or -1 for the zero polynomial."""
    return max((sum(e) for e in a), default=-1)


def test_poly_arithmetic_basics():
    m = 3
    p = poly_add({(1, 0, 0): Fraction(1)}, pf.poly_const(m, Fraction(2, 3)))
    assert p == {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(2, 3)}
    q = {(1, 1, 0): Fraction(1), (0, 1, 0): Fraction(2, 3)}  # p x2
    assert pf.d(pf.PolyForm(m, 0, {(): q})).terms[(1,)] == {(0, 1, 0): Fraction(1)}
    assert poly_total_degree(q) == 2
    assert poly_add(p, {e: -c for e, c in p.items()}) == {}


def test_d_of_coordinate_function():
    f = pf.PolyForm(2, 0, {(): {(1, 0): Fraction(1)}})
    assert pf.d(f) == pf.PolyForm.basis(2, (1,))


def test_d_sign_from_reordering():
    f = pf.PolyForm(2, 1, {(1,): {(0, 1): Fraction(1)}})  # x2 dx1
    expected = pf.PolyForm(2, 2, {(1, 2): pf.poly_const(2, -1)})
    assert pf.d(f) == expected


def test_d_squared_is_zero():
    rng = np.random.default_rng(1)
    for _ in range(50):
        f = random_polyform(rng)
        if f.k + 2 > f.m:
            continue
        assert pf.d(pf.d(f)).is_zero()


def test_d_rejects_top_degree():
    top = pf.PolyForm.basis(3, (1, 2, 3))
    with pytest.raises(ValueError, match="top-degree"):
        pf.d(top)


def _poly_diff(a, i):
    """Partial derivative with respect to x_i (1-based)."""
    out = {}
    for e, c in a.items():
        power = e[i - 1]
        if power == 0:
            continue
        lowered = list(e)
        lowered[i - 1] -= 1
        key = tuple(lowered)
        out[key] = out.get(key, Fraction(0)) + c * power
    return {e: c for e, c in out.items() if c != 0}


def _d_reference(f):
    """The exterior derivative built from _poly_diff, negated copies and
    poly_add, kept as the reference for the in-place ``d``."""
    out = {}
    for index, poly in f.terms.items():
        members = set(index)
        for i in range(1, f.m + 1):
            if i in members:
                continue
            dp = _poly_diff(poly, i)
            if not dp:
                continue
            if ex.merge_sign((i,), index) < 0:
                dp = {e: -c for e, c in dp.items()}
            merged = tuple(sorted(index + (i,)))
            out[merged] = poly_add(out.get(merged, {}), dp)
    return pf.PolyForm(f.m, f.k + 1, out)


def _iota_radial_reference(f):
    """The radial contraction built from negated copies and poly_add, kept
    as the reference for the in-place ``iota_radial``."""
    out = {}
    for index, poly in f.terms.items():
        for j, i in enumerate(index):
            reduced = index[:j] + index[j + 1:]
            lifted = {}
            for e, c in poly.items():
                up = list(e)
                up[i - 1] += 1
                lifted[tuple(up)] = c
            if ex.contraction_sign(j) < 0:
                lifted = {e: -c for e, c in lifted.items()}
            out[reduced] = poly_add(out.get(reduced, {}), lifted)
    return pf.PolyForm(f.m, f.k - 1, out)


def _assert_same_form(got, ref):
    """Equal forms whose polynomials also list their monomials in the same
    order: a MonomialTable sums them in that order."""
    assert got == ref
    assert {idx: list(p) for idx, p in got.terms.items()} == {idx: list(p) for idx, p in ref.terms.items()}


def test_d_and_iota_radial_match_the_poly_add_references():
    rng = np.random.default_rng(17)
    covered = set()
    for _ in range(300):
        f = random_polyform(rng, max_m=7, max_k=3, max_degree=int(rng.integers(0, 5)))
        _assert_same_form(pf.d(f), _d_reference(f))
        _assert_same_form(pf.iota_radial(f), _iota_radial_reference(f))
        _assert_same_form(pf.h(f), _iota_radial_reference(pf.alpha(f)))
        covered.add((f.m, f.k))
    assert {m for m, _ in covered} == set(range(2, 8))
    assert {k for _, k in covered} == {1, 2, 3}
    # d(x2 dx1 + x1 dx2) = d(d(x1 x2)) = 0: the two contributions cancel
    exact = pf.PolyForm(2, 1, {(1,): {(0, 1): Fraction(1)}, (2,): {(1, 0): Fraction(1)}})
    assert pf.d(exact).is_zero() and _d_reference(exact).is_zero()
    # into dx1, iota_radial adds -x2 x3 x4 (from dx1^dx2), then +x2 x3 x4
    # (from dx1^dx3), which cancels it, then -x2 x3 x4 again (from dx1^dx4):
    # the monomial must come back after x1^2 x2 and x1 x2^2, as poly_add
    # would place it
    readded = pf.PolyForm(4, 2, {
        (1, 2): {(0, 0, 1, 1): Fraction(1), (2, 0, 0, 0): Fraction(1), (1, 1, 0, 0): Fraction(3)},
        (1, 3): {(0, 1, 0, 1): Fraction(-1)},
        (1, 4): {(0, 1, 1, 0): Fraction(1)},
    })
    _assert_same_form(pf.iota_radial(readded), _iota_radial_reference(readded))
    assert list(pf.iota_radial(readded).terms[(1,)])[-1] == (0, 1, 1, 1)


def test_identity_and_bound_checks_reuse_a_given_primitive():
    rng = np.random.default_rng(19)
    for _ in range(40):
        f = random_polyform(rng, max_m=7, max_k=3, max_degree=int(rng.integers(0, 4)))
        hf = pf.h(f)
        identity = pf.homotopy_identity_check(f)
        assert identity and pf.homotopy_identity_check(f, hf=hf) == identity
        pts = rng.normal(size=(3, f.m)) * 0.5
        radius = float(np.max(np.linalg.norm(pts, axis=1)))
        given_hf = pf.h_bound_check(f, pts, s=radius, hf=hf).to_dict()
        assert given_hf == pf.h_bound_check(f, pts, s=radius).to_dict()


@pytest.mark.parametrize("zero", [0, 0.0, "0", Fraction(0)], ids=["int", "float", "str", "fraction"])
def test_zero_coefficients_of_any_type_are_dropped(zero):
    assert pf.PolyForm(2, 1, {(1,): {(0, 0): zero}}).is_zero()


@pytest.mark.parametrize("value", ["1/2", 0.5, Fraction(1, 2)], ids=["str", "float", "fraction"])
def test_coefficients_are_stored_as_fractions(value):
    (coeff,) = pf.PolyForm(2, 1, {(1,): {(0, 0): value}}).terms[(1,)].values()
    assert type(coeff) is Fraction and coeff == Fraction(1, 2)


def test_alpha_constant_two_form():
    f = pf.PolyForm.basis(4, (1, 3))
    assert pf.alpha(f) == pf.PolyForm(4, 2, {(1, 3): pf.poly_const(4, Fraction(1, 2))})


def test_alpha_linear_coefficient():
    f = pf.PolyForm(2, 1, {(1,): {(0, 1): Fraction(1)}})  # x2 dx1
    assert pf.alpha(f) == pf.PolyForm(2, 1, {(1,): {(0, 1): Fraction(1, 2)}})


def test_alpha_zero_form_and_divergence():
    assert pf.alpha(pf.PolyForm(3, 2)).is_zero()
    const = pf.PolyForm(3, 0, {(): pf.poly_const(3, 1)})
    with pytest.raises(ValueError, match="diverges"):
        pf.alpha(const)


def test_iota_radial_examples():
    assert pf.iota_radial(pf.PolyForm.basis(2, (1,))) == pf.PolyForm(2, 0, {(): {(1, 0): Fraction(1)}})
    expanded = pf.iota_radial(pf.PolyForm.basis(2, (1, 2)))
    expected = pf.PolyForm(2, 1, {(2,): {(1, 0): Fraction(1)}, (1,): {(0, 1): Fraction(-1)}})
    assert expanded == expected
    assert pf.iota_radial(expanded).is_zero()
    with pytest.raises(ValueError, match="degree"):
        pf.iota_radial(pf.PolyForm(2, 0, {(): {(1, 0): Fraction(1)}}))


def test_h_area_form():
    hf = pf.h(pf.PolyForm.basis(4, (1, 2)))
    expected = pf.PolyForm(
        4,
        1,
        {
            (2,): {(1, 0, 0, 0): Fraction(1, 2)},
            (1,): {(0, 1, 0, 0): Fraction(-1, 2)},
        },
    )
    assert hf == expected


def test_h_one_form_examples():
    assert pf.h(pf.PolyForm.basis(2, (1,))) == pf.PolyForm(2, 0, {(): {(1, 0): Fraction(1)}})
    hf = pf.h(pf.PolyForm(2, 1, {(1,): {(0, 1): Fraction(1)}}))
    assert hf == pf.PolyForm(2, 0, {(): {(1, 1): Fraction(1, 2)}})


def test_h_factorizations_agree():
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = random_polyform(rng)
        lhs = pf.iota_radial(pf.alpha(f))
        if f.k > 1:
            rhs = pf.alpha(pf.iota_radial(f))
            assert lhs == rhs
        assert pf.h(f) == lhs


def test_homotopy_identity_hand_expansion():
    # f = x2 dx1 on R^2: h f = x1 x2 / 2, d(h f) = (x2 dx1 + x1 dx2)/2,
    # h(d f) = (x2 dx1 - x1 dx2)/2, and the two sum back to f.
    f = pf.PolyForm(2, 1, {(1,): {(0, 1): Fraction(1)}})
    hf = pf.h(f)
    assert hf == pf.PolyForm(2, 0, {(): {(1, 1): Fraction(1, 2)}})
    dhf = pf.d(hf)
    hdf = pf.h(pf.d(f))
    assert dhf == pf.PolyForm(
        2, 1, {(1,): {(0, 1): Fraction(1, 2)}, (2,): {(1, 0): Fraction(1, 2)}}
    )
    assert hdf == pf.PolyForm(
        2, 1, {(1,): {(0, 1): Fraction(1, 2)}, (2,): {(1, 0): Fraction(-1, 2)}}
    )
    assert _form_sum(dhf, hdf) == f
    assert pf.homotopy_identity_check(f)


def test_homotopy_identity_random_forms():
    rng = np.random.default_rng(5)
    for _ in range(200):
        assert pf.homotopy_identity_check(random_polyform(rng))


def test_closed_forms_have_exact_primitives():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_polyform(rng)
        if g.k + 1 >= g.m:
            continue
        closed = pf.d(g)
        if closed.is_zero():
            continue
        assert pf.d(pf.h(closed)) == closed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(2, 4),
    st.integers(-6, 6),
    st.integers(1, 5),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_homotopy_identity_hypothesis_one_forms(m, num, den, p1, p2):
    exp = [0] * m
    exp[0] = p1
    exp[m - 1] = p2
    poly = {tuple(exp): Fraction(num, den)} if num else {}
    f = pf.PolyForm(m, 1, {(1,): poly} if poly else {})
    assert pf.homotopy_identity_check(f)


def test_homotopy_identity_check_domain():
    with pytest.raises(ValueError, match="1 <= k < m"):
        pf.homotopy_identity_check(pf.PolyForm.basis(2, (1, 2)))
    with pytest.raises(ValueError, match="must have m=3 and k=1"):
        pf.homotopy_identity_check(pf.PolyForm.basis(3, (1, 2)), pf.PolyForm.basis(3, (1, 2)))


def _form_sum(a, b):
    """a + b, summed per index with poly_add."""
    terms = {idx: dict(p) for idx, p in a.terms.items()}
    for idx, p in b.terms.items():
        terms[idx] = poly_add(terms.get(idx, {}), p)
    return pf.PolyForm(a.m, a.k, terms)


def _alpha_reference(f):
    """alpha in Fractions: each term c x^e divided by k + |e|."""
    return pf.PolyForm(f.m, f.k, {idx: {e: c / (f.k + sum(e)) for e, c in p.items()} for idx, p in f.terms.items()})


def _identity_reference(f, hf):
    """h(d f) + d(hf) == f in Fractions, from the poly_add references."""
    return _form_sum(_iota_radial_reference(_alpha_reference(_d_reference(f))), _d_reference(hf)) == f


def _wrong_alpha_primitive(f):
    """iota_X of f with each monomial of total degree p divided by k + p + 1, not k + p."""
    scaled = {idx: {e: c / (f.k + sum(e) + 1) for e, c in p.items()} for idx, p in f.terms.items()}
    return pf.iota_radial(pf.PolyForm(f.m, f.k, scaled))


def _edited(form, change):
    """A copy of form whose first monomial (by sorted index and exponent) is
    changed to ``change(c)``, or dropped where that gives None."""
    terms = {idx: dict(p) for idx, p in form.terms.items()}
    idx = min(terms)
    e = min(terms[idx])
    value = change(terms[idx].pop(e))
    if value is not None:
        terms[idx][e] = value
    return pf.PolyForm(form.m, form.k, terms)


@pytest.mark.parametrize("f", [
    pf.PolyForm(3, 1, {(1,): {(0, 1, 2): Fraction(3, 5)}, (3,): {(1, 0, 0): Fraction(-2)}}),
    pf.PolyForm(4, 2, {(1, 2): {(0, 0, 1, 0): Fraction(1)}, (2, 4): {(2, 0, 1, 1): Fraction(-7, 3)}}),
    pf.PolyForm.basis(3, (1, 2)),
], ids=["1-form", "2-form", "area"])
def test_homotopy_identity_check_refuses_wrong_primitives(f):
    hf = pf.h(f)
    wrong = {
        "off by 1/7919": _edited(hf, lambda c: c + Fraction(1, 7919)),
        "dropped monomial": _edited(hf, lambda c: None),
        "zero form": pf.PolyForm(f.m, f.k - 1),
        "alpha by k + p + 1": _wrong_alpha_primitive(f),
    }
    assert pf.homotopy_identity_check(f, hf) and _identity_reference(f, hf)
    for name, g in wrong.items():
        assert g != hf, name
        assert not pf.homotopy_identity_check(f, g), name
        assert not _identity_reference(f, g), name


def test_homotopy_identity_check_matches_the_fraction_reference():
    rng = np.random.default_rng(23)
    seen = {True: 0, False: 0}
    for _ in range(200):
        f = random_polyform(rng, max_m=7, max_k=3, max_degree=int(rng.integers(0, 5)))
        hf = pf.h(f)
        candidates = [hf, _wrong_alpha_primitive(f), pf.PolyForm(f.m, f.k - 1)]
        if not hf.is_zero():
            num, den = int(rng.integers(-9, 10)), int(rng.integers(1, 10))
            candidates.append(_edited(hf, lambda c: c + Fraction(num, den)))
            candidates.append(_edited(hf, lambda c: c * Fraction(int(rng.integers(2, 9)), 7919)))
        if f.k == 1:
            # a constant does not change d(hf): still a primitive
            candidates.append(_form_sum(hf, pf.PolyForm(f.m, 0, {(): pf.poly_const(f.m, Fraction(5, 3))})))
        else:
            # nor does an exact form d g
            e = tuple(int(p) for p in rng.integers(0, 3, size=f.m))
            g = pf.PolyForm(f.m, f.k - 2, {tuple(range(1, f.k - 1)): {e: Fraction(int(rng.integers(1, 9)), 7)}})
            candidates.append(_form_sum(hf, pf.d(g)))
        for candidate in candidates:
            expected = _identity_reference(f, candidate)
            assert pf.homotopy_identity_check(f, candidate) == expected
            seen[expected] += 1
    assert seen[True] >= 300 and seen[False] >= 600


def test_homotopy_identity_check_on_wide_distinct_denominators():
    # 1,020 monomials on R^4 with 1,020 distinct 13-digit denominators, so that
    # each multidegree block's lcm is long
    exponents = [e for e in itertools.product(range(7), repeat=4) if sum(e) <= 6][:170]
    indices = list(itertools.combinations(range(1, 5), 2))
    terms, n = {}, 0
    for idx in indices:
        terms[idx] = {}
        for e in exponents:
            terms[idx][e] = Fraction((-1) ** n, 10**12 + 1 + 2 * n)
            n += 1
    f = pf.PolyForm(4, 2, terms)
    assert sum(len(p) for p in f.terms.values()) == 1020
    assert len({c.denominator for p in f.terms.values() for c in p.values()}) == 1020
    hf = pf.h(f)
    assert pf.homotopy_identity_check(f, hf) and _identity_reference(f, hf)
    off = _edited(hf, lambda c: c + Fraction(1, 7919))
    assert not pf.homotopy_identity_check(f, off) and not _identity_reference(f, off)


def test_dilation_equivariance_exact():
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = random_polyform(rng)
        for r in (Fraction(2), Fraction(1, 3), Fraction(-5, 7)):
            assert pf.h(pf.dilate(f, r)) == pf.dilate(pf.h(f), r)


def test_h_degree_bookkeeping():
    rng = np.random.default_rng(11)
    for _ in range(50):
        f = random_polyform(rng)
        hf = pf.h(f)
        assert hf.k == f.k - 1
        if not hf.is_zero():
            assert hf.coefficient_degree() <= f.coefficient_degree() + 1
    # no cancellation on a single term: the degree gain is exactly one
    single = pf.PolyForm(3, 2, {(1, 2): {(2, 1, 0): Fraction(5, 3)}})
    assert pf.h(single).coefficient_degree() == single.coefficient_degree() + 1


def test_h_cancellation_can_lower_degree():
    # rotational one-form: the radial primitive collapses to a lower degree
    f = pf.PolyForm(
        2,
        1,
        {(1,): poly_add({(0, 1): Fraction(1)}, pf.poly_const(2, 3)),
         (2,): {(1, 0): Fraction(-1)}},
    )
    hf = pf.h(f)
    assert hf.coefficient_degree() == 1  # (x2 + 3) x1 / ... - x1 x2 / ... leaves 3 x1
    assert pf.homotopy_identity_check(f)


def test_evaluate():
    f = pf.PolyForm.basis(3, (1, 2))
    c = pf.evaluate(f, np.array([5.0, -1.0, 2.0]))
    assert c == ex.Covector(3, 2, {(1, 2): 1.0})
    hf = pf.h(pf.PolyForm.basis(4, (1, 2)))
    at_e1 = pf.evaluate(hf, np.array([1.0, 0.0, 0.0, 0.0]))
    assert at_e1.coeffs == {(2,): 0.5}
    assert pf.evaluate(pf.PolyForm(3, 1), np.zeros(3)).coeffs == {}
    with pytest.raises(ValueError, match="dimension"):
        pf.evaluate(f, np.zeros(2))


def test_points_that_hold_a_non_number_are_refused_by_name():
    with pytest.raises(ValueError, match="points must hold numbers"):
        pf.point_block([{"a": 1}], 1)
    with pytest.raises(ValueError, match="points must hold numbers"):
        pf.evaluate(pf.PolyForm.basis(2, (1,)), [{}, 0.0])
    with pytest.raises(ValueError, match="points must hold numbers: '0.5' is a str, not a number"):
        pf.point_block([["0.5", 1]], 2)
    with pytest.raises(ValueError, match="points must hold numbers: True is a bool, not a number"):
        pf.point_block([[0.5, True]], 2)


def test_a_non_finite_point_is_refused_by_name():
    # point_block refuses it for every caller: h_bound_check once called a
    # NaN point's norm an overflow, and evaluate returned a NaN covector
    f = pf.PolyForm.basis(3, (1,))
    message = "non-finite entry nan at point 1, coordinate 1"
    with pytest.raises(ValueError, match=message):
        pf.h_bound_check(f, [[math.nan, 0.0, 0.0]], s=1.0)
    with pytest.raises(ValueError, match=message):
        pf.evaluate(f, [math.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite entry -inf at point 2, coordinate 3"):
        pf.point_block([[0.0, 0.0, 0.0], [0.0, 0.0, -math.inf]], 3)


def _exact_value_and_scale(poly, x):
    """Sum of c x^e and sum of |c x^e| over the monomials, in exact rationals."""
    terms = [c * math.prod(xi**p for xi, p in zip(x, e)) for e, c in poly.items()]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


def test_monomial_table_against_exact_values():
    # forms of the homotopy command's shapes and their primitives, at float points
    rng = np.random.default_rng(17)
    compared = 0
    while compared < 3000:
        f = random_polyform(rng, max_m=7, max_k=3, max_degree=4)
        if f.m < 5:
            continue
        X = rng.normal(size=(6, f.m)) * rng.uniform(0.1, 3.0)
        for form in (f, pf.h(f)):
            table = pf.MonomialTable(form)
            for x, row in zip(X, table.values(X)):
                exact_x = [Fraction(float(v)) for v in x]
                for idx, got in zip(table.indices, row):
                    exact, scale = _exact_value_and_scale(form.terms[idx], exact_x)
                    assert abs(Fraction(float(got)) - exact) <= Fraction(1e-14) * scale
                    compared += 1


def test_h_bound_constant_two_form():
    f = pf.PolyForm.basis(4, (1, 2))
    report = pf.h_bound_check(f, [np.array([1.0, 0.0, 0.0, 0.0])], s=2.0)
    assert report.ray_constant
    assert report.lhs[0] == pytest.approx(0.5, abs=1e-15)
    assert report.ray_rhs[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert report.passed
    assert list(report.to_dict()) == ["m", "k", "s", "t_samples", "rhs_sampled", "ray_constant", "passed",
                                      "points", "lhs", "rhs", "margins", "ray_rhs", "ray_margins"]


def test_h_bound_general_forms():
    rng = np.random.default_rng(13)
    for _ in range(20):
        f = random_polyform(rng)
        pts = rng.normal(size=(5, f.m)) * 0.4
        radius = float(np.max(np.linalg.norm(pts, axis=1))) + 0.1
        report = pf.h_bound_check(f, pts, s=radius)
        assert report.passed
        assert min(report.margins) >= -1e-9


def test_h_bound_zero_form_margins_equal_rhs():
    f = pf.PolyForm(4, 2)
    report = pf.h_bound_check(f, [np.array([0.5, 0.0, 0.0, 0.0])], s=1.0)
    assert report.margins[0] == report.rhs[0] == 0.0
    assert report.passed


def test_h_bound_rejects_points_outside_domain():
    f = pf.PolyForm.basis(2, (1,))
    with pytest.raises(ValueError, match="radius"):
        pf.h_bound_check(f, [np.array([2.0, 0.0])], s=1.0)


def test_polyform_json_round_trip():
    f = pf.PolyForm(
        3,
        1,
        {
            (1,): {(0, 1, 0): Fraction(-7, 3)},
            (3,): {(2, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(4)},
        },
    )
    data = f.to_json_dict()
    assert data["terms"][0]["poly"][0]["num"] == "-7"
    assert pf.PolyForm.from_json_dict(data) == f


def test_polyform_json_adds_repeated_entries_in_order():
    # A repeated exponent within one entry list, a repeated index, and sums
    # that cancel: a monomial, then a whole index (which comes back later).
    # The key order is pinned too, since h sums its monomials in it.
    def entry(exp, num, den=1):
        return {"exp": exp, "num": str(num), "den": str(den)}

    data = {"m": 2, "k": 1, "terms": [
        {"index": [2], "poly": [entry([1, 0], 3), entry([0, 1], 1, 2), entry([0, 1], 1, 2)]},
        {"index": [1], "poly": [entry([0, 0], 2)]},
        {"index": [2], "poly": [entry([1, 0], -3), entry([2, 0], 5, 7)]},
        {"index": [1], "poly": [entry([0, 0], -2)]},
        {"index": [1], "poly": [entry([0, 2], 1)]},
    ]}
    f = pf.PolyForm.from_json_dict(data)
    assert f.terms == {(2,): {(0, 1): Fraction(1), (2, 0): Fraction(5, 7)}, (1,): {(0, 2): Fraction(1)}}
    assert [(idx, list(poly)) for idx, poly in f.terms.items()] == [((2,), [(0, 1), (2, 0)]), ((1,), [(0, 2)])]
    assert pf.h(f).to_json_dict() == {"m": 2, "k": 0, "terms": [{"index": [], "poly": [
        entry([0, 2], 1, 2), entry([1, 2], 1, 3), entry([2, 1], 5, 21)]}]}


def test_polyform_json_big_integers_survive():
    big = Fraction(10**40 + 1, 3**30)
    f = pf.PolyForm(2, 1, {(1,): {(5, 0): big}})
    assert pf.PolyForm.from_json_dict(f.to_json_dict()) == f


def test_polyform_json_integer_fields_take_integers_or_their_strings():
    data = {"m": "2", "k": 1, "terms": [{"index": ["1"], "poly": [{"exp": [1, "0"], "num": 3, "den": "-2"}]}]}
    assert pf.PolyForm.from_json_dict(data) == pf.PolyForm(2, 1, {(1,): {(1, 0): Fraction(-3, 2)}})
    for bad in (2.0, True, "2.5", None):
        with pytest.raises(ValueError, match="JSON field 'm' must hold integers"):
            pf.PolyForm.from_json_dict({**data, "m": bad})


@pytest.mark.parametrize(
    "term, field",
    [
        ({"index": "12", "poly": [{"exp": [0, 0, 0, 0], "num": 1, "den": 1}]}, "index"),
        ({"index": [1, 2], "poly": {"exp": [0, 0, 0, 0], "num": 1, "den": 1}}, "poly"),
        ({"index": [1, 2], "poly": [{"exp": "1000", "num": 1, "den": 1}]}, "exp"),
    ],
)
def test_polyform_json_list_fields_refuse_strings_and_objects_by_name(term, field):
    with pytest.raises(ValueError, match=f"malformed polyform JSON: JSON field '{field}' must be a list"):
        pf.PolyForm.from_json_dict({"m": 4, "k": 2, "terms": [term]})
    with pytest.raises(ValueError, match="malformed polyform JSON: JSON field 'terms' must be a list, got dict"):
        pf.PolyForm.from_json_dict({"m": 4, "k": 2, "terms": term})


@pytest.mark.parametrize(
    "data, field",
    [
        ({"k": 1}, "m"),
        ({"m": 2}, "k"),
        ({"m": 2, "k": 1, "terms": [{"index": [1]}]}, "poly"),
        ({"m": 2, "k": 1, "terms": [{"index": [1], "poly": [{"exp": [1, 0], "num": 1}]}]}, "den"),
    ],
)
def test_polyform_json_missing_field_is_refused_by_name(data, field):
    with pytest.raises(ValueError, match=f"malformed polyform JSON: missing field '{field}'"):
        pf.PolyForm.from_json_dict(data)


def test_polyform_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        pf.PolyForm(3, 2, {(2, 1): pf.poly_const(3, 1)})
    with pytest.raises(ValueError, match="exponent"):
        pf.PolyForm(3, 1, {(1,): {(0, 0): Fraction(1)}})
    # zero polynomials are dropped
    assert pf.PolyForm(3, 1, {(1,): {}}).is_zero()


def _sorting_parity(seq):
    """Sign of the permutation that sorts seq, from its cycle count."""
    order = sorted(range(len(seq)), key=lambda p: seq[p])
    seen = [False] * len(seq)
    cycles = 0
    for start in range(len(seq)):
        if not seen[start]:
            cycles += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = order[p]
    return -1 if (len(seq) - cycles) % 2 else 1


def _disjoint_index_pairs(m):
    """Every pair (I, J) of disjoint increasing 1-based indices in 1..m."""
    for labels in itertools.product((0, 1, 2), repeat=m):
        I = tuple(i for i, lab in enumerate(labels, start=1) if lab == 1)
        J = tuple(i for i, lab in enumerate(labels, start=1) if lab == 2)
        yield I, J


def test_merge_sign_is_sorting_parity():
    pairs = 0
    for m in range(1, 6):
        for I, J in _disjoint_index_pairs(m):
            assert ex.merge_sign(I, J) == _sorting_parity(I + J)
            pairs += 1
    assert pairs == 3 + 9 + 27 + 81 + 243


def test_contraction_sign_agrees_between_interior_and_iota_radial():
    x = np.array([0.5, -1.25, 2.0, 0.75, -3.0])
    for m in range(1, 6):
        for k in range(1, m + 1):
            for index in itertools.combinations(range(1, m + 1), k):
                expected = {
                    index[:j] + index[j + 1:]: (-1.0) ** j * x[i - 1] for j, i in enumerate(index)
                }
                contracted = ex.interior(x[:m], ex.Covector(m, k, {index: 1.0}))
                assert contracted.coeffs == expected
                radial = pf.evaluate(pf.iota_radial(pf.PolyForm.basis(m, index)), x[:m])
                assert radial.coeffs == expected


@dataclass
class _ReferenceHBoundReport:
    """The norm-bound report that ``_h_bound_reference`` fills by appends."""

    m: int
    k: int
    s: float
    rhs_sampled: bool
    ray_constant: bool
    points: list = field(default_factory=list)
    lhs: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    ray_rhs: Optional[list] = None
    ray_margins: Optional[list] = None
    passed: bool = True

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "s": self.s,
            "t_samples": 1000,
            "rhs_sampled": self.rhs_sampled,
            "ray_constant": self.ray_constant,
            "passed": bool(self.passed),
            "points": self.points,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margins": self.margins,
            "ray_rhs": self.ray_rhs,
            "ray_margins": self.ray_margins,
        }


def _h_bound_reference(f, points, s, tol=1e-9):
    """The per-point norm-bound check before the columnar rewrite, kept as the
    reference for ``h_bound_check``."""
    if f.k < 1:
        raise ValueError("norm bounds apply to degrees k >= 1")
    hf = pf.h(f)
    ray_case = f.coefficient_degree() <= 0
    report = _ReferenceHBoundReport(
        m=f.m,
        k=f.k,
        s=float(s),
        rhs_sampled=not ray_case,
        ray_constant=ray_case,
        ray_rhs=[] if ray_case else None,
        ray_margins=[] if ray_case else None,
    )
    if f.k > 1:
        factor = math.sqrt(f.k * math.comb(f.m, f.k - 1)) / (f.k - 1)
    else:
        factor = math.sqrt(f.m)
    xs, radii = [], []
    for point in points:
        x = np.asarray(point, dtype=float)
        if x.shape != (f.m,):
            raise ValueError(f"point dimension {x.shape} does not match m={f.m}")
        with np.errstate(over="ignore"):  # an infinite norm is refused below, naming the point
            r = float(np.linalg.norm(x))
        if r > s + 1e-12:
            raise ValueError(f"point with norm {r} outside the star-shaped domain of radius {s}")
        xs.append(x)
        radii.append(r)
    X = np.array(xs).reshape(len(xs), f.m)
    lhs_all = pf.MonomialTable(hf).norms(X)
    if ray_case:
        # constant coefficients: ||f(t x)|| is the same at every t and x
        max_betas = [ex.norm2(pf.evaluate(f, np.zeros(f.m)))] * len(X)
    else:
        f_table = pf.MonomialTable(f)
        ts = np.linspace(0.0, 1.0, 1000)
        max_betas = [float(np.max(f_table.norms(ts[:, None] * x))) for x in X]
    for x, r, lhs, max_beta in zip(X, radii, lhs_all.tolist(), max_betas):
        rhs = r * factor * max_beta
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ValueError(f"norm bounds at point {x.tolist()} overflow")
        report.points.append([float(v) for v in x])
        report.lhs.append(lhs)
        report.rhs.append(rhs)
        report.margins.append(rhs - lhs)
        if ray_case:
            ray_rhs = r / math.sqrt(f.k) * max_beta
            report.ray_rhs.append(ray_rhs)
            report.ray_margins.append(ray_rhs - lhs)
    worst = min(report.margins, default=0.0)
    if ray_case and report.ray_margins:
        worst = min(worst, min(report.ray_margins))
    report.passed = worst >= -tol
    return report


def _ray_gamma(f):
    """gamma of the bound gamma u sum_e |c_e (t x)^e| on the rounding of a sample
    ||f(t x)||, for ``MonomialTable.ray_norms`` and for the reference's sampling.

    Let D be the largest total degree of f, N the most monomials of an index,
    r the number of total degrees that occur and J the number of indices.  In
    ray_norms a term c_e x^e t^p takes 1 rounding of c_e, p of the powers and
    their product, N - 1 of its sum per (degree, index), at most r Horner
    multiplications by t^g (each 1 rounding, plus 2 u for pow within 1 ulp) and
    r - 1 Horner additions: D + N + 4r - 1 in all.  The reference evaluates at
    the rounded products t x_i, p more, and sums the index in order: 2D + N.  So
    each coefficient vector is within (2D + N + 4r) u sum_e |c_e (t x)^e| of the
    exact one in the 1-norm over the indices, which bounds the change of its
    2-norm.  The J squares, their sum and the square root add (J/2 + 1) u of the
    norm.  The last 3 cover second-order terms and the rounding of
    rhs = (radius factor) max_t, so that two sides' rhs differ by at most
    2 gamma u radius factor sum_e |c_e x^e| (the sum grows with t on [0, 1]).
    """
    degrees = [sum(e) for poly in f.terms.values() for e in poly]
    D, r = max(degrees), len(set(degrees))
    N, J = max(len(poly) for poly in f.terms.values()), len(f.terms)
    return 2 * D + N + 4 * r + J + 4


def _exact_ray(f, x, t):
    """Exact ||f(t x)||^2 and sum_e |c_e (t x)^e| at the float point x and sample t."""
    y = [Fraction(float(t)) * Fraction(float(xi)) for xi in x]
    square, scale = Fraction(0), Fraction(0)
    for poly in f.terms.values():
        value = Fraction(0)
        for e, c in poly.items():
            term = c * math.prod(yi**ei for yi, ei in zip(y, e))
            value += term
            scale += abs(term)
        square += value * value
    return square, scale


def _within(norm, exact_square, bound):
    """Whether |norm - sqrt(exact_square)| <= bound, decided exactly."""
    lo, hi = Fraction(norm) - Fraction(bound), Fraction(norm) + Fraction(bound)
    return hi * hi >= exact_square and (lo <= 0 or lo * lo <= exact_square)


def test_h_bound_check_matches_per_point_reference():
    # every field equal to the reference's, except rhs and margins of sampled
    # forms: their rays are summed in another order (see _ray_gamma)
    u = 2.0**-53
    rng = np.random.default_rng(21)
    covered = set()
    for _ in range(80):
        f = random_polyform(rng, max_m=7, max_k=3, max_degree=int(rng.integers(0, 4)))
        pts = rng.normal(size=(int(rng.integers(1, 6)), f.m)) * rng.uniform(0.1, 2.0)
        radius = float(np.max(np.linalg.norm(pts, axis=1))) + 0.1
        for points in (pts, []):
            # s omitted is the largest radius of the points, or 1.0 for none
            largest = max((float(np.linalg.norm(x)) for x in points), default=1.0)
            for s, given in ((radius, radius), (largest, None)):
                got = pf.h_bound_check(f, points, s=given).to_dict()
                ref = _h_bound_reference(f, points, s=s).to_dict()
                if got["rhs_sampled"]:
                    factor = math.sqrt(f.k * math.comb(f.m, f.k - 1)) / (f.k - 1) if f.k > 1 else math.sqrt(f.m)
                    for x, new, old in zip(points, got["rhs"], ref["rhs"]):
                        scale = float(_exact_ray(f, x, 1.0)[1]) * float(np.linalg.norm(x)) * factor
                        assert abs(new - old) <= 2 * _ray_gamma(f) * u * scale
                    assert got["margins"] == [r - lhs for r, lhs in zip(got["rhs"], got["lhs"])]
                    for key in ("rhs", "margins"):
                        got[key] = ref[key]
                assert json.dumps(got) == json.dumps(ref)
        covered.add((f.m, f.k, f.coefficient_degree() <= 0))
    assert {m for m, _, _ in covered} == set(range(2, 8))
    assert {k for _, k, _ in covered} == {1, 2, 3}
    assert {c for _, _, c in covered} == {False, True}
    for m, k in ((2, 1), (4, 2), (5, 3)):
        zero = pf.PolyForm(m, k)
        pts = rng.normal(size=(3, m))
        for points in (pts, []):
            got = pf.h_bound_check(zero, points, s=10.0).to_dict()
            assert json.dumps(got) == json.dumps(_h_bound_reference(zero, points, s=10.0).to_dict())


def test_ray_norms_match_exact_rational_samples():
    # ||f(t x)|| from ray_norms and from the reference's sampling at fl(t x),
    # each against the exact value at t = 0, t = 1 and both sides' argmax
    u = 2.0**-53
    ts = np.linspace(0.0, 1.0, pf.T_SAMPLES)
    rng = np.random.default_rng(31)
    shapes = set()
    checked = 0
    while checked < 40:
        f = random_polyform(rng, max_m=6, max_k=3, max_degree=int(rng.integers(1, 5)))
        if f.coefficient_degree() <= 0:
            continue
        checked += 1
        table = pf.MonomialTable(f)
        X = rng.normal(size=(3, f.m)) * rng.uniform(0.2, 2.0)
        new = table.ray_norms(X, ts)
        old = np.array([table.norms(ts[:, None] * x) for x in X])  # at fl(t x), as _h_bound_reference samples
        assert new.shape == old.shape == (3, pf.T_SAMPLES)
        gamma = _ray_gamma(f)
        for x, new_row, old_row in zip(X, new, old):
            for i in {0, pf.T_SAMPLES - 1, int(np.argmax(new_row)), int(np.argmax(old_row))}:
                square, scale = _exact_ray(f, x, ts[i])
                assert _within(new_row[i], square, gamma * u * float(scale))
                assert _within(old_row[i], square, gamma * u * float(scale))
        degrees = sorted({sum(e) for poly in f.terms.values() for e in poly})
        shapes.add((degrees[0] > 0, max(np.diff(degrees), default=0) > 1, len(f.terms) > 1))
    # forms without a constant term, with a gap of two or more degrees, and of several indices
    assert {s[0] for s in shapes} == {s[1] for s in shapes} == {s[2] for s in shapes} == {False, True}


def test_h_bound_check_refuses_points_like_the_reference():
    square = pf.PolyForm(3, 1, {(1,): {(2, 0, 0): 1}})
    cases = [
        ([np.zeros(3), np.zeros(2)], 1.0, r"point dimension \(2,\) does not match m=3"),
        ([np.zeros(3), np.array([2.0, 0.0, 0.0]), np.array([3.0, 0.0, 0.0])], 1.0,
         "point with norm 2.0 outside the star-shaped domain of radius 1.0"),
        ([np.zeros(3), np.array([1e160, 0.0, 0.0]), np.array([1e170, 0.0, 0.0])], math.inf,
         r"norm bounds at point \[1e\+160, 0.0, 0.0\] overflow"),
    ]
    for points, s, message in cases:
        for run in (pf.h_bound_check, _h_bound_reference):
            with pytest.raises(ValueError, match=message):
                run(square, points, s=s)


def test_monomial_table_refuses_an_exponent_above_the_limit():
    limit = pf.MAX_TABLE_EXPONENT
    at_limit = pf.MonomialTable(pf.PolyForm(3, 1, {(1,): {(0, limit, 0): 1}}))
    assert at_limit.values(np.array([[0.0, 1.0, 0.0]])).tolist() == [[1.0]]
    with pytest.raises(ValueError, match=f"exponent {limit + 1} of x2 exceeds {limit}, the largest"):
        pf.MonomialTable(pf.PolyForm(3, 1, {(1,): {(1, 0, 0): 1, (0, limit + 1, 0): 1}}))


def test_monomial_table_powers_only_its_variables():
    # x1^999 dx1 on R^40 at 1000 points: the powers of x1 alone are 1000 x 1000
    # floats (8 MB), those of all 40 variables would be 320 MB
    m = 40
    table = pf.MonomialTable(pf.PolyForm(m, 1, {(1,): {(999,) + (0,) * (m - 1): 1}}))
    X = np.full((1000, m), 0.5)
    tracemalloc.start()
    try:
        values = table.values(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert values.tolist() == [[0.5**999]] * 1000


def test_h_bound_check_evaluates_rays_at_their_end_points():
    # x2^999 ... x8^999 dx1 on R^8 at 8 points: the powers of the 7 variables at
    # the 1000 samples of one ray alone would be 1000 x 7 x 1000 floats (56 MB)
    m = 8
    f = pf.PolyForm(m, 1, {(1,): {(0,) + (999,) * (m - 1): 1}})
    points = np.where(np.random.default_rng(8).random((8, m)) < 0.5, -1.0, 1.0)
    tracemalloc.start()
    try:
        report = pf.h_bound_check(f, points, s=math.sqrt(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    # |x_i| = 1, so ||f(t x)|| = t^6993 peaks at t = 1, and rhs = sqrt(8) sqrt(8) 1
    assert report.rhs == pytest.approx([8.0] * 8, rel=1e-12)
    assert report.passed


def test_h_bound_check_memory_does_not_grow_with_the_points():
    # x1 on each of the 21 indices of a 2-form on R^7 at 400 points: the ray
    # samples of all points at once would be 21 x 400 x 1000 floats (67 MB)
    m = 7
    f = pf.PolyForm(m, 2, {idx: {(1,) + (0,) * (m - 1): 1} for idx in itertools.combinations(range(1, m + 1), 2)})
    X = np.random.default_rng(40).uniform(-1.0, 1.0, (400, m))
    tracemalloc.start()
    try:
        report = pf.h_bound_check(f, X, s=math.sqrt(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    # each point's report is the one it gets alone, across the blocks of points
    for i in (0, 48, 49, 399):
        alone = pf.h_bound_check(f, X[i:i + 1], s=math.sqrt(m))
        assert (report.lhs[i], report.rhs[i]) == (alone.lhs[0], alone.rhs[0])
    assert report.passed


def _json_reference(data):
    """The terms of a polyform JSON layout in Fractions: an entry list sums its
    repeated entries in place, zeros kept, and a repeated index adds its sums
    with poly_add, so a monomial that cancels comes back at the end."""
    terms = {}
    for term in data["terms"]:
        poly = {}
        for entry in term["poly"]:
            e, c = tuple(entry["exp"]), Fraction(int(entry["num"]), int(entry["den"]))
            poly[e] = poly[e] + c if e in poly else c
        idx = tuple(term["index"])
        terms[idx] = poly_add(terms.get(idx, {}), poly)
    return {idx: p for idx, p in terms.items() if p}


def _json_writer_reference(m, k, terms):
    """to_json_dict from Fraction terms: sorted indices and exponents, reduced num/den strings."""
    return {"m": m, "k": k, "terms": [
        {"index": list(idx), "poly": [{"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                                      for e, c in sorted(terms[idx].items())]}
        for idx in sorted(terms)]}


def _in_order(terms):
    """Terms as nested lists, so that == also compares the order of the indices and monomials."""
    return [(idx, list(p.items())) for idx, p in terms.items()]


@st.composite
def _json_forms(draw):
    """A polyform JSON layout on R^2..R^7 with numerators up to 2^80 and
    denominators up to 2^70, or powers of two up to 2^1074 (as Fraction(float)
    makes).  Its entries reuse a few exponents and indices, and some cancel the
    sum so far of their monomial, in their entry list or over the whole form."""
    m = draw(st.integers(2, 7))
    k = draw(st.integers(1, m - 1))
    indices = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, m + 1), k))),
                            min_size=1, max_size=2, unique=True))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), min_size=1, max_size=3, unique=True))
    dens = st.one_of(st.integers(1, 2**70), st.integers(0, 1074).map(lambda j: 2**j))
    totals, terms = {}, []
    for _ in range(draw(st.integers(1, 6))):
        idx = draw(st.sampled_from(indices))
        in_list, entries = {}, []
        for _ in range(draw(st.integers(1, 4))):
            e = draw(st.sampled_from(exps))
            mode = draw(st.sampled_from(["new", "new", "cancel in the list", "cancel in the form"]))
            c = -in_list.get(e, Fraction(0))
            if mode == "cancel in the form":
                c -= totals.get((idx, e), Fraction(0))
            if mode == "new" or c == 0:
                c = Fraction(draw(st.integers(-2**80, 2**80)), draw(dens))
            scale = draw(st.sampled_from([1, 1, -1, 6, 2**64 + 13]))  # unreduced entries
            entries.append({"exp": list(e), "num": str(c.numerator * scale), "den": str(c.denominator * scale)})
            in_list[e] = in_list.get(e, Fraction(0)) + c
        for e, c in in_list.items():
            totals[idx, e] = totals.get((idx, e), Fraction(0)) + c
        terms.append({"index": list(idx), "poly": entries})
    return {"m": m, "k": k, "terms": terms}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_json_forms(), st.fractions(min_value=-3, max_value=3, max_denominator=7))
def test_block_storage_matches_the_fraction_references(data, r):
    ref = _json_reference(data)
    f = pf.PolyForm.from_json_dict(data)
    assert _in_order(f.terms) == _in_order(ref)
    assert f.to_json_dict() == _json_writer_reference(f.m, f.k, ref)
    hf, ref_h = pf.h(f), _iota_radial_reference(_alpha_reference(f))
    _assert_same_form(hf, ref_h)
    assert hf.to_json_dict() == _json_writer_reference(f.m, f.k - 1, ref_h.terms)
    assert pf.homotopy_identity_check(f, hf) and _identity_reference(f, hf)
    wrong = _wrong_alpha_primitive(f)
    assert pf.homotopy_identity_check(f, wrong) == _identity_reference(f, wrong)
    dilated = {idx: {e: c * r ** (f.k + sum(e)) for e, c in p.items()} for idx, p in ref.items()}
    assert _in_order(pf.dilate(f, r).terms) == _in_order({idx: p for idx, p in dilated.items() if r})
    for form, terms in ((f, ref), (hf, ref_h.terms)):
        table = pf.MonomialTable(form)
        monomials = [(e, c) for idx in sorted(terms) for e, c in terms[idx].items()]
        assert table.exps.tolist() == [list(e) for e, _ in monomials]
        assert table.coeffs.tobytes() == np.array([float(c) for _, c in monomials]).tobytes()


def test_a_400_digit_numerator_and_denominator_give_the_correctly_rounded_float():
    # Python's int / int is correctly rounded at any size, as float(Fraction) is
    x = 7**473
    for num, den in ((10 * x, 3 * x), (10 * x + 1, 3 * x), (-(2**1100), 3 * x)):
        assert len(str(den)) == 401
        f = pf.PolyForm(2, 1, {(1,): {(2, 0): num}}, {(2, 0): den})
        assert f.terms == {(1,): {(1, 0): Fraction(num, den)}}
        assert pf.MonomialTable(f).coeffs.tobytes() == np.array([float(Fraction(num, den))]).tobytes()
    data = {"m": 2, "k": 1, "terms": [{"index": [1], "poly": [{"exp": [1, 0], "num": str(10 * x), "den": str(3 * x)}]}]}
    assert pf.h(pf.PolyForm.from_json_dict(data)).to_json_dict()["terms"] == [
        {"index": [], "poly": [{"exp": [2, 0], "num": "5", "den": "3"}]}]
