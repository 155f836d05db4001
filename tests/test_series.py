"""Series types, the m-fold derivative, iterate/blend operators and weights."""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvalent import (
    DomainError,
    MultivalentFunction,
    NeighborhoodParams,
    OperatorParams,
    TruncatedSeries,
    blend_derivative_normalized,
    blend_derivative_weight,
    blend_normalized,
    blend_weight,
    complex_close,
    evaluate,
    exact_blend_derivative_weight,
    exact_blend_weight,
    falling_factorial,
    mth_derivative,
    phase_gap_radical,
    salagean_blend,
    salagean_iterate,
    wrap_angle,
)
from pvalent.criteria import DERIVATIVE, VALUE, _differences, _weights, phase_difference

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

finite_complex = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def functions(draw, max_p=5, max_terms=8):
    p = draw(st.integers(1, max_p))
    n = draw(st.integers(1, 3))
    coeffs = draw(st.lists(finite_complex, max_size=max_terms))
    return MultivalentFunction(p, n, tuple(coeffs))


@st.composite
def operators(draw, p):
    m = draw(st.integers(0, p - 1))
    omega = draw(st.integers(0, 4))
    lam = draw(st.floats(0.0, 1.0, allow_nan=False))
    return OperatorParams(lam=lam, m=m, omega=omega)


def series_terms(s):
    return list(s.terms())


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_function_validation():
    with pytest.raises(DomainError):
        MultivalentFunction(0, 1)
    with pytest.raises(DomainError):
        MultivalentFunction(1, 0)
    with pytest.raises(DomainError):
        MultivalentFunction(1, 1, (float("inf"),))
    f = MultivalentFunction(2, 3)
    assert f.truncation_order == 2  # empty list: K = n - 1
    assert f.coefficient(3) == 0j
    assert list(f.support()) == []


def test_series_validation():
    with pytest.raises(DomainError):
        TruncatedSeries(-1, 1.0)
    with pytest.raises(DomainError):
        TruncatedSeries(2, 1.0, ((2, 1.0),))  # tail exponent not past lead
    with pytest.raises(DomainError):
        TruncatedSeries(0, 1.0, ((2, 1.0), (2, 3.0)))
    s = TruncatedSeries(1, 2.0, ((3, 1j),))
    assert s.max_exponent == 3
    assert list(s.dense_coefficients()) == [0j, 2.0 + 0j, 0j, 1j]


def test_operator_params_validation():
    with pytest.raises(DomainError):
        OperatorParams(lam=1.5)
    with pytest.raises(DomainError):
        OperatorParams(m=-1)
    with pytest.raises(DomainError):
        OperatorParams(omega=-2)
    OperatorParams(lam=0.5, m=1, omega=3).require_valence(2)
    with pytest.raises(DomainError):
        OperatorParams(m=2).require_valence(2)


def test_wrap_angle_and_radical():
    assert wrap_angle(0.0) == 0.0
    assert abs(wrap_angle(2 * math.pi + 0.25) - 0.25) < 1e-15
    assert phase_gap_radical(0.3, 0.3) == 0.0
    # |e^{i a} - e^{i b}| identity
    for a, b in [(0.0, math.pi / 2), (1.0, -2.0), (0.1, 0.1 + 2 * math.pi)]:
        direct = abs(np.exp(1j * a) - np.exp(1j * b))
        assert abs(phase_gap_radical(a, b) - direct) < 1e-14


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(7, 7) == math.factorial(7)
    with pytest.raises(DomainError):
        falling_factorial(3, -1)


# ---------------------------------------------------------------------------
# m-fold derivative
# ---------------------------------------------------------------------------


def test_derivative_identity_case():
    f = MultivalentFunction(1, 2)
    s = mth_derivative(f, 0)
    assert series_terms(s) == [(1, 1.0 + 0j)]


def test_derivative_hand_cases():
    s = mth_derivative(MultivalentFunction(3, 1, (0.5,)), 1)
    assert series_terms(s) == [(2, 3.0 + 0j), (3, 2.0 + 0j)]
    s = mth_derivative(MultivalentFunction(2, 1, (1j,)), 1)
    assert series_terms(s) == [(1, 2.0 + 0j), (2, 3j)]


def test_derivative_rejects_m_at_least_p():
    with pytest.raises(DomainError):
        mth_derivative(MultivalentFunction(2, 1), 2)
    with pytest.raises(DomainError):
        mth_derivative(MultivalentFunction(1, 1), 3)


# ---------------------------------------------------------------------------
# normalised-derivative iterate
# ---------------------------------------------------------------------------


def test_iterate_order_zero_is_identity():
    s = mth_derivative(MultivalentFunction(2, 1, (1.0, 2.0)), 1)
    assert salagean_iterate(s, 0, 2, 1) is s


def test_iterate_multiplier_hand_case():
    # p=2, m=0, k=1 term, order 2: multiplier ((1+2)/2)^2 = 2.25
    s = mth_derivative(MultivalentFunction(2, 1, (1.0,)), 0)
    out = salagean_iterate(s, 2, 2, 0)
    assert out.lead_coeff == 1.0
    assert out.tail == ((3, 2.25 + 0j),)


def test_iterate_rejects_mismatched_lead():
    s = mth_derivative(MultivalentFunction(3, 1, (1.0,)), 1)
    with pytest.raises(DomainError):
        salagean_iterate(s, 1, 3, 2)


@settings(max_examples=60, deadline=None)
@given(functions(), st.integers(0, 6), st.integers(0, 6), st.data())
def test_iterate_composes(f, o1, o2, data):
    m = data.draw(st.integers(0, f.p - 1))
    s = mth_derivative(f, m)
    joint = salagean_iterate(s, o1 + o2, f.p, m)
    split = salagean_iterate(salagean_iterate(s, o1, f.p, m), o2, f.p, m)
    for (e1, c1), (e2, c2) in zip(joint.terms(), split.terms()):
        assert e1 == e2
        assert complex_close(c1, c2)


@settings(max_examples=60, deadline=None)
@given(functions(), st.data())
def test_iterate_once_is_scaled_derivative(f, data):
    m = data.draw(st.integers(0, f.p - 1))
    s = mth_derivative(f, m)
    once = salagean_iterate(s, 1, f.p, m)
    base = f.p - m
    for (e, c), (e2, c2) in zip(s.terms(), once.terms()):
        assert e == e2
        assert complex_close(c2, c * e / base)


# ---------------------------------------------------------------------------
# blended operator
# ---------------------------------------------------------------------------


def test_blend_all_knobs_off_reproduces_function():
    f = MultivalentFunction(3, 2, (1.0, -2j, 0.25 + 0.5j))
    out = salagean_blend(f, OperatorParams())
    assert out.lead_exp == 3 and out.lead_coeff == 1.0
    assert [c for _, c in out.tail] == list(f.coeffs)
    assert [e for e, _ in out.tail] == [k + 3 for k in f.support()]


def test_blend_weight_hand_case():
    op = OperatorParams(lam=0.5, m=1, omega=1)
    assert blend_weight(1, 2, op) == 9.0
    assert blend_derivative_weight(1, 2, op) == 18.0
    out = salagean_blend(MultivalentFunction(2, 1, (1.0,)), op)
    assert series_terms(out) == [(1, 2.0 + 0j), (2, 9.0 + 0j)]


def test_blend_rejects_bad_valence():
    with pytest.raises(DomainError):
        salagean_blend(MultivalentFunction(1, 1, (1.0,)), OperatorParams(m=1))


@settings(max_examples=60, deadline=None)
@given(functions(), st.data())
def test_blend_matches_defining_combination(f, data):
    """Direct weights agree with (1-lam) D^omega + (lam/(p-m)) z (D^omega)'."""
    op = data.draw(operators(f.p))
    base = f.p - op.m
    iterated = salagean_iterate(mth_derivative(f, op.m), op.omega, f.p, op.m)
    combo = {
        e: (1.0 - op.lam) * c + (op.lam / base) * e * c for e, c in iterated.terms()
    }
    direct = salagean_blend(f, op)
    for e, c in direct.terms():
        assert complex_close(c, combo[e])


def test_blend_derivative_normalized_hand_cases():
    # p=1, m=0, lam=omega=0: constant 1, z^k coefficient (k+1) a_{k+1}
    f = MultivalentFunction(1, 1, (0.5, 1j, -2.0))
    out = blend_derivative_normalized(f, OperatorParams())
    assert series_terms(out) == [(0, 1.0 + 0j), (1, 1.0 + 0j), (2, 3j), (3, -8.0 + 0j)]
    # empty tail: constant p!/(p-m-1)! = 4!/2! = 12
    out = blend_derivative_normalized(MultivalentFunction(4, 2), OperatorParams(m=1))
    assert series_terms(out) == [(0, 12.0 + 0j)]
    # derivative-side weight from the value-side hand case
    out = blend_derivative_normalized(
        MultivalentFunction(2, 1, (1.0,)), OperatorParams(lam=0.5, m=1, omega=1)
    )
    assert series_terms(out) == [(0, 2.0 + 0j), (1, 18.0 + 0j)]


@settings(max_examples=60, deadline=None)
@given(functions(), st.data())
def test_blend_derivative_matches_symbolic_derivative(f, data):
    op = data.draw(operators(f.p))
    blended = salagean_blend(f, op)
    shift = f.p - op.m - 1
    symbolic = {e - 1 - shift: e * c for e, c in blended.terms()}
    direct = blend_derivative_normalized(f, op)
    for e, c in direct.terms():
        assert complex_close(c, symbolic[e])


@settings(max_examples=40, deadline=None)
@given(functions(max_terms=6), st.data())
def test_blend_linearity(f, data):
    op = data.draw(operators(f.p))
    other = data.draw(
        st.lists(finite_complex, min_size=len(f.coeffs), max_size=len(f.coeffs))
    )
    mu = data.draw(finite_complex)
    g = MultivalentFunction(f.p, f.n, tuple(other))
    mixed = MultivalentFunction(
        f.p, f.n, tuple(a + mu * b for a, b in zip(f.coeffs, g.coeffs))
    )
    t_mixed = salagean_blend(mixed, op).tail
    t_f = salagean_blend(f, op).tail
    t_g = salagean_blend(g, op).tail
    for (e, c), (_, cf), (_, cg) in zip(t_mixed, t_f, t_g):
        assert complex_close(c, cf + mu * cg)


# ---------------------------------------------------------------------------
# weights vs the exact big-integer route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_weights_full_sweep_against_exact(lam):
    """Finite, positive, and within 1e-12 relative of the rational value
    for k <= 64, p <= 8, m < p, omega <= 6."""
    for p in range(1, 9):
        for m in range(0, p):
            for omega in range(0, 7):
                op = OperatorParams(lam=lam, m=m, omega=omega)
                for k in range(1, 65):
                    for approx, exact in (
                        (blend_weight(k, p, op), exact_blend_weight(k, p, op)),
                        (
                            blend_derivative_weight(k, p, op),
                            exact_blend_derivative_weight(k, p, op),
                        ),
                    ):
                        assert math.isfinite(approx) and approx > 0.0
                        assert abs(approx - float(exact)) <= 1e-12 * float(exact)


def _per_k_weight(k, p, op):
    """The per-index weight formula the one-pass vector replaced."""
    base = p - op.m
    num = falling_factorial(k + p, op.m) * (k + p - op.m) ** op.omega
    return (num / base**op.omega) * (1.0 + op.lam * k / base)


@pytest.mark.parametrize("seed", range(6))
def test_weight_pass_matches_per_index_weights(seed):
    """A range of indices gives, bit for bit, the per-index weights, and
    each lies within 1e-12 relative of the exact rational value."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 9))
    m = int(rng.integers(0, p))
    omega = int(rng.integers(0, 5))
    lam = float(rng.uniform(0.0, 1.0))
    n = int(rng.integers(1, 4))
    K = int(rng.integers(n, 3001)) if seed else 3000
    op = OperatorParams(lam=lam, m=m, omega=omega)
    ks = range(n, K + 1)
    value = blend_weight(ks, p, op)
    derivative = blend_derivative_weight(ks, p, op)
    assert len(value) == len(derivative) == len(ks)
    for k, w, wd in zip(ks, value, derivative):
        assert w == blend_weight(k, p, op) == _per_k_weight(k, p, op)
        assert wd == blend_derivative_weight(k, p, op) == _per_k_weight(k, p, op) * (k + p - m)
    for k in (ks[0], ks[len(ks) // 2], ks[-1]):
        for approx, exact in (
            (value[k - n], exact_blend_weight(k, p, op)),
            (derivative[k - n], exact_blend_derivative_weight(k, p, op)),
        ):
            assert abs(approx - float(exact)) <= 1e-12 * float(exact)


def test_weight_pass_empty_range():
    assert blend_weight(range(3, 3), 2, OperatorParams()) == []
    assert blend_derivative_weight(range(3, 3), 2, OperatorParams()) == []


def test_weight_overflow_is_a_domain_error():
    # 6^600 does not fit a float; the integer division used to raise OverflowError
    op = OperatorParams(omega=600)
    with pytest.raises(DomainError, match="overflows"):
        blend_weight(5, 1, op)
    with pytest.raises(DomainError, match="overflows"):
        blend_weight(range(1, 6), 1, op)
    with pytest.raises(DomainError, match="overflows"):
        salagean_blend(MultivalentFunction(1, 1, (0.1,) * 5), op)
    # the float factors after the exact division can overflow to inf as well
    edge = OperatorParams(lam=1.0, omega=1)
    big = 2**1023
    assert math.isfinite(blend_weight(big - 1, 1, OperatorParams(omega=1)))
    with pytest.raises(DomainError, match="overflows"):
        blend_derivative_weight(big - 1, 1, edge)


def test_exact_weight_values():
    op = OperatorParams(lam=0.5, m=1, omega=1)
    assert exact_blend_weight(1, 2, op) == Fraction(9)
    assert exact_blend_derivative_weight(1, 2, op) == Fraction(18)


def test_exact_weight_huge_omega_is_a_domain_error_without_exact_powers():
    # 2**(10**30) would never finish; the log2 estimate rejects it first, as
    # for the float weights.  A subprocess, so that a regression times out.
    code = (
        "from pvalent import DomainError, OperatorParams, exact_blend_derivative_weight\n"
        "try:\n"
        "    exact_blend_derivative_weight(1, 2, OperatorParams(m=1, omega=10**30))\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=5
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("operator weight overflows a float (p=2, m=1, Omega=")


def test_exact_weight_overflow_guard_uses_the_float_weights_bound():
    # W(1) = 3 * 2^Omega for p = 2, m = 1, lam = 0: no float holds it, but the
    # guard's lower bound Omega on log2 W(1) passes 1025 only from Omega = 1026
    for omega in (1024, 1025):
        op = OperatorParams(m=1, omega=omega)
        assert exact_blend_weight(1, 2, op) == 3 * 2**omega
        with pytest.raises(DomainError, match="overflows"):
            blend_weight(1, 2, op)
    op = OperatorParams(m=1, omega=1026)
    for weight in (exact_blend_weight, exact_blend_derivative_weight, blend_weight):
        with pytest.raises(DomainError, match="overflows"):
            weight(1, 2, op)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_hand_cases():
    assert evaluate(TruncatedSeries(2, 1.0), 0.0) == 0j
    assert evaluate(TruncatedSeries(0, 1.0, ((1, 2.0),)), 1j) == 1 + 2j


@settings(max_examples=60, deadline=None)
@given(functions(), finite_complex, st.data())
def test_evaluate_matches_naive_sum(f, z, data):
    op = data.draw(operators(f.p))
    s = salagean_blend(f, op)
    naive = sum(c * z**e for e, c in s.terms())
    got = evaluate(s, z)
    assert abs(got - naive) <= 1e-12 * max(1.0, abs(naive))


def test_blend_normalized_shifts_exponents():
    f = MultivalentFunction(3, 2, (1j, 4.0))
    op = OperatorParams(lam=0.25, m=1, omega=2)
    whole = salagean_blend(f, op)
    shifted = blend_normalized(f, op)
    assert shifted.lead_exp == 0
    assert [(e - (f.p - op.m), c) for e, c in whole.terms()] == list(shifted.terms())


# ---------------------------------------------------------------------------
# bulk coefficient validation
# ---------------------------------------------------------------------------


def _per_entry_coeffs(n, coeffs):
    """The entry-by-entry validation the bulk check replaced, kept as its oracle."""
    out = tuple(complex(c) for c in coeffs)
    for i, c in enumerate(out):
        if not cmath.isfinite(c):
            raise DomainError(f"coefficient at k={n + i} is not finite")
    return out


_HUGE = 1.7976931348623157e308
coefficient_entries = st.one_of(
    st.complex_numbers(),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.complex_numbers().map(np.complex128),
    st.integers(-(10**6), 10**6),
    st.sampled_from([-0.0, complex(-0.0, -0.0), 5e-324, _HUGE, -_HUGE, complex(_HUGE, _HUGE)]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.lists(coefficient_entries, max_size=12))
@example(1, [_HUGE, _HUGE])  # finite entries whose sum overflows
@example(2, [complex(_HUGE, -_HUGE), complex(_HUGE, -_HUGE), math.inf])
@example(1, [np.float64(-0.0), np.complex128(complex(-0.0, 5e-324)), math.nan])
@example(3, [1.0, complex(math.inf, -math.inf)])
def test_bulk_coefficient_check_matches_per_entry_loop(n, coeffs):
    try:
        expected = _per_entry_coeffs(n, coeffs)
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            MultivalentFunction(2, n, coeffs)
        assert str(info.value) == str(exc)
        return
    got = MultivalentFunction(2, n, coeffs).coeffs
    assert [(c.real.hex(), c.imag.hex()) for c in got] == [
        (c.real.hex(), c.imag.hex()) for c in expected
    ]
    assert all(type(c) is complex for c in got)


# ---------------------------------------------------------------------------
# the dense weight and image path against the Python expressions it replaced
# (the CI workflow re-runs every test named *bitwise* with numpy's X86_V3 and
# newer dispatch disabled)
# ---------------------------------------------------------------------------


def _cut_off(p, m, omega):
    """Largest K whose numerator (K+p)!/(K+p-m)! (K+p-m)^omega is below 2^53."""
    lo, hi = 0, 2**53
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if falling_factorial(mid + p, m) * (mid + p - m) ** omega < 2**53:
            lo = mid
        else:
            hi = mid
    return lo


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize(
    ("p", "m", "omega"),
    [(2, 1, 1), (3, 2, 2), (1, 0, 4), (2, 0, 3), (5, 2, 3), (4, 1, 4), (8, 7, 0), (8, 7, 2)],
)
def test_weight_pass_bitwise_on_both_sides_of_the_cut_off(p, m, omega):
    """Ranges ending at the last numerator below 2^53 (the float route) and
    just past it (the exact-integer route) both give the per-index bits."""
    op = OperatorParams(lam=0.3, m=m, omega=omega)
    top = _cut_off(p, m, omega)
    for ks in (range(max(top - 40, 0), top + 1), range(max(top - 40, 0), top + 3)):
        for weight, factor in ((blend_weight, 0), (blend_derivative_weight, 1)):
            oracle = [_per_k_weight(k, p, op) * (k + p - m) ** factor for k in ks]
            assert _hex(weight(ks, p, op)) == _hex(oracle)
            assert _hex(weight(k, p, op) for k in (ks[0], ks[-1])) == _hex((oracle[0], oracle[-1]))


def test_weight_pass_bitwise_p8_m7_takes_the_exact_route():
    # 3008!/3001! is past 2^53, so the whole range takes the exact-integer route
    op = OperatorParams(lam=0.61, m=7, omega=1)
    ks = range(1, 3001)
    assert falling_factorial(3008, 7) * 3001 >= 2**53
    assert _hex(blend_weight(ks, 8, op)) == _hex(_per_k_weight(k, 8, op) for k in ks)


def test_weight_pass_bitwise_past_two_to_the_53():
    """With m = Omega = 0 every numerator is 1: only the K + p < 2^53 part of
    the guard keeps indices that floats cannot hold off the float route."""
    op = OperatorParams()
    assert blend_weight(2**60, 1, op) == _per_k_weight(2**60, 1, op) == 1.0
    # 2^60 + 128 rounds down to 2^60 while 2^60 + 129 rounds up: adding 1
    # after rounding k would give 2^60 where the exact k + 1 gives 2^60 + 256
    for k in (2**53 - 2, 2**53, 2**60, 2**60 + 128):
        assert _hex([blend_derivative_weight(k, 1, op)]) == _hex([1.0 * (k + 1)])
    for lam in (0.0, 0.7):
        op = OperatorParams(lam=lam)
        for ks in (range(2**53 - 20, 2**53 + 20), range(2**60 + 100, 2**60 + 140)):
            assert _hex(blend_weight(ks, 1, op)) == _hex(_per_k_weight(k, 1, op) for k in ks)
            oracle = [_per_k_weight(k, 1, op) * (k + 1) for k in ks]
            assert _hex(blend_derivative_weight(ks, 1, op)) == _hex(oracle)


def _python_tail(f, op, order, shift):
    """The image tail as the Python builders formed it: per-index weights times
    coefficients, w * a_{k+p} with w a float and a_{k+p} a complex."""
    m = op.m
    return [
        (k + shift, (_per_k_weight(k, f.p, op) * (k + f.p - m) ** order) * c)
        for k, c in zip(f.support(), f.coeffs)
    ]


def _complex_bits(values):
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in values]


def _image_cases():
    doc = json.loads((GOLDEN / "k300_function.json").read_text())
    golden = tuple(complex(re, im) for re, im in doc["coefficients"])
    rng = np.random.default_rng(11)
    mixed = (rng.standard_normal(210) + 1j * rng.standard_normal(210)).tolist()
    mixed[::7] = [complex(-0.0, 5e-324), complex(5e-324, -0.0), complex(-0.0, -0.0)] * 10
    yield MultivalentFunction(1, 1, golden), OperatorParams()
    yield MultivalentFunction(1, 1, golden[5:]), OperatorParams(lam=0.7, omega=2)
    yield MultivalentFunction(3, 2, tuple(mixed)), OperatorParams(lam=0.45, m=1, omega=3)
    yield MultivalentFunction(8, 1, tuple(mixed)), OperatorParams(lam=0.2, m=7, omega=1)
    yield MultivalentFunction(2, 4), OperatorParams(lam=0.5, m=1, omega=1)


def test_image_builders_bitwise_match_python_products():
    """Image series carry the bits, signed zeros and subnormals included, of
    the Python products they replaced."""
    saw_signed_zero = saw_subnormal = False
    for f, op in _image_cases():
        for order, series in ((0, blend_normalized), (1, blend_derivative_normalized)):
            tail = _python_tail(f, op, order, 0)
            s = series(f, op)
            assert s.lead_exp == 0 and s.lead_coeff == falling_factorial(f.p, op.m + order)
            assert [e for e, _ in s.tail] == [e for e, _ in tail]
            assert _complex_bits(c for _, c in s.tail) == _complex_bits(c for _, c in tail)
            assert type(s.lead_coeff) is complex and all(type(c) is complex for _, c in s.tail)
            parts = [x for _, c in tail for x in (c.real, c.imag)]
            saw_signed_zero |= any(x == 0.0 and math.copysign(1.0, x) < 0 for x in parts)
            saw_subnormal |= any(0.0 < abs(x) < 2.2250738585072014e-308 for x in parts)
        whole = salagean_blend(f, op)
        shift = f.p - op.m
        tail = _python_tail(f, op, 0, shift)
        assert whole.lead_exp == shift and [e for e, _ in whole.tail] == [e for e, _ in tail]
        assert _complex_bits(c for _, c in whole.tail) == _complex_bits(c for _, c in tail)
    assert saw_signed_zero and saw_subnormal


def _python_difference(family, f, g, op, alpha, beta):
    """The difference polynomial as Python expressions: lead * (ua - ub) at
    index 0 and w_k * d_k at index k, d_k = ua * a_{k+p} - ub * b_{k+p}."""
    ua = cmath.exp(1j * alpha)
    ub = cmath.exp(1j * beta)
    lead = falling_factorial(f.p, op.m + family.order)
    ks = range(f.n, max(f.truncation_order, g.truncation_order) + 1)
    tail = [
        (_per_k_weight(k, f.p, op) * (k + f.p - op.m) ** family.order)
        * (ua * f.coefficient(k) - ub * g.coefficient(k))
        for k in ks
    ]
    return [lead * (ua - ub)] + [0j] * (f.n - 1) + tail


def _difference_cases():
    docs = [json.loads((GOLDEN / f"k300_operator_{x}.json").read_text()) for x in "fg"]
    f, g = (
        MultivalentFunction(doc["p"], doc["n"], tuple(complex(*c) for c in doc["coefficients"]))
        for doc in docs
    )
    yield f, g, OperatorParams(lam=docs[0]["lambda"], m=docs[0]["m"], omega=docs[0]["Omega"])
    for f, op in _image_cases():
        yield f, MultivalentFunction(f.p, f.n), op
        yield f, MultivalentFunction(f.p, f.n, f.coeffs[1::2]), op


def test_difference_polynomial_bitwise_matches_python_expressions():
    """The supremum polynomial carries the bits of lead * (ua - ub) and
    w_k * d_k, signed zeros and subnormals included, under any numpy dispatch."""
    saw_signed_zero = saw_subnormal = False
    for f, g, op in _difference_cases():
        for alpha, beta in ((0.3, 1.1), (0.0, math.pi), (-2.5, 0.25)):
            nb = NeighborhoodParams(alpha, beta, 1.0)
            for family in (DERIVATIVE, VALUE):
                w, diffs = _weights(family, f, g, op), _differences(f, g, nb)
                got = phase_difference(family, f, op, nb, w, diffs).tolist()
                assert _complex_bits(got) == _complex_bits(
                    _python_difference(family, f, g, op, alpha, beta)
                )
                parts = [x for c in got for x in (c.real, c.imag)]
                saw_signed_zero |= any(x == 0.0 and math.copysign(1.0, x) < 0 for x in parts)
                saw_subnormal |= any(0.0 < abs(x) < 2.2250738585072014e-308 for x in parts)
    assert saw_signed_zero and saw_subnormal


def test_image_product_overflow_names_its_exponent():
    # the weight at k = 3 is finite; times 1e300 it is not
    f = MultivalentFunction(3, 1, (0.5, 0j, complex(1.0, 1e300)))
    op = OperatorParams(lam=1.0, m=2, omega=300)
    with np.errstate(all="raise"):
        for build, e in ((salagean_blend, 4), (blend_normalized, 3), (blend_derivative_normalized, 3)):
            with pytest.raises(DomainError, match=f"tail coefficient at exponent {e} is not finite"):
                build(f, op)
