"""Thresholds, sufficient/necessary criteria, membership and the partner construction."""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pvalent import (
    ArgAlignment,
    DomainError,
    HypothesisViolationError,
    InadmissibleDeltaError,
    InstanceSpec,
    MultivalentFunction,
    NeighborhoodParams,
    OperatorParams,
    blend_derivative_normalized,
    blend_derivative_weight,
    blend_normalized,
    delta_lower_bound_m,
    delta_lower_bound_n,
    generate_pair,
    membership_m,
    membership_n,
    necessary_m,
    necessary_n,
    partner_weighted_sum,
    sufficient_m,
    sufficient_m_modulus,
    sufficient_n,
    sufficient_n_modulus,
    telescoping_partner,
    threshold_m,
    threshold_n,
    transfer_check,
)
from pvalent import criteria, harness, series
from pvalent.criteria import (
    DERIVATIVE,
    MAX_TRUNC,
    VALUE,
    _ALIGN_SLACK,
    _differences,
    _indices,
    _weighted_sum,
    membership_with_sum,
)

GOLDEN = Path(__file__).parent / "golden"

SQRT2 = math.sqrt(2.0)


def plain_op():
    return OperatorParams()


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_n_values():
    assert threshold_n(3.0, 0.7, 0.7, 2, 1) == 3.0  # alpha = beta kills the radical
    assert abs(threshold_n(2.0, 0.0, math.pi / 2, 1, 0) - (2.0 - SQRT2)) < 1e-14
    assert abs(threshold_n(5.0, 0.0, math.pi, 2, 0) - 1.0) < 1e-14


def test_threshold_m_values():
    assert threshold_m(4.25, -0.3, -0.3, 3, 2) == 4.25
    assert abs(threshold_m(5.0, 0.0, math.pi, 2, 0) - 3.0) < 1e-14
    assert abs(threshold_m(10.0, 0.0, math.pi / 2, 3, 1) - (10.0 - 3 * SQRT2)) < 1e-13


def test_threshold_rejects_bad_orders():
    with pytest.raises(DomainError):
        threshold_n(1.0, 0.0, 0.0, 1, 1)
    with pytest.raises(DomainError):
        threshold_m(1.0, 0.0, 0.0, 2, -1)


def test_negative_thresholds_are_permitted():
    assert threshold_n(0.1, 0.0, math.pi, 1, 0) < 0.0


# ---------------------------------------------------------------------------
# sufficient criteria
# ---------------------------------------------------------------------------


def test_sufficient_trivial_equal_pair():
    f = MultivalentFunction(2, 1, (0.3, 1j))
    nb = NeighborhoodParams(0.4, 0.4, 0.5)
    for check in (sufficient_n, sufficient_m):
        v = check(f, f, plain_op(), nb)
        assert v.holds and v.lhs == 0.0 and v.margin == nb.delta


def test_sufficient_n_single_difference():
    # p=1, n=1, m=omega=0, lam=0, alpha=beta=0: weight collapses to k+p
    f = MultivalentFunction(1, 1, (0.6,))
    g = MultivalentFunction(1, 1, (0.5,))
    v = sufficient_n(f, g, plain_op(), NeighborhoodParams(0.0, 0.0, 2.0))
    assert abs(v.lhs - 0.2) < 1e-15
    assert v.holds
    v = sufficient_n(f, g, plain_op(), NeighborhoodParams(0.0, 0.0, 0.1))
    assert not v.holds


def test_sufficient_m_single_difference():
    # value-side weight at k=1, p=1, m=omega=0, lam=0 is exactly 1
    f = MultivalentFunction(1, 1, (0.6,))
    g = MultivalentFunction(1, 1, (0.5,))
    v = sufficient_m(f, g, plain_op(), NeighborhoodParams(0.0, 0.0, 2.0))
    assert abs(v.lhs - 0.1) < 1e-15


def test_sufficient_weight_sandwich():
    spec = InstanceSpec(p=3, n=1, m=1, omega=2, lam=0.6, trunc=8, seed=11)
    f, g, nb = generate_pair(spec, "unconstrained")
    op = spec.operator
    vn = sufficient_n(f, g, op, nb).lhs
    vm = sufficient_m(f, g, op, nb).lhs
    lo = min(k + f.p - op.m for k in range(f.n, f.truncation_order + 1))
    hi = max(k + f.p - op.m for k in range(f.n, f.truncation_order + 1))
    assert vm * lo <= vn * (1 + 1e-12)
    assert vn <= vm * hi * (1 + 1e-12)


def test_sufficient_rejects_mismatched_shape():
    f = MultivalentFunction(2, 1, (1.0,))
    g = MultivalentFunction(2, 2, (1.0,))
    with pytest.raises(DomainError):
        sufficient_n(f, g, plain_op(), NeighborhoodParams(0.0, 0.0, 1.0))


def test_sufficient_rejects_inadmissible_delta():
    f = MultivalentFunction(1, 1, (0.1,))
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, math.pi / 2, 1.0)  # bound is sqrt(2) > 1
    with pytest.raises(InadmissibleDeltaError):
        sufficient_n(f, g, plain_op(), nb)


def test_zero_extension_of_shorter_function():
    f = MultivalentFunction(1, 1, (0.5, 0.25))
    g = MultivalentFunction(1, 1, (0.5,))
    v = sufficient_n(f, g, plain_op(), NeighborhoodParams(0.0, 0.0, 5.0))
    assert abs(v.lhs - 3 * 0.25) < 1e-15  # only k=2 differs, weight k+p=3


# ---------------------------------------------------------------------------
# value-side dual bound
# ---------------------------------------------------------------------------


def test_value_side_delta_between_bounds_is_flagged():
    # p=2, m=0: value-side bound = radical, derivative-style bound = 2*radical
    alpha, beta = 0.0, math.pi / 2
    low = delta_lower_bound_m(2, 0, alpha, beta)
    high = delta_lower_bound_n(2, 0, alpha, beta)
    assert low < high
    # one real positive difference: aligned for the modulus forms (g vanishes)
    # and for the necessity bounds at phi = 0
    f = MultivalentFunction(2, 1, (0.01,))
    g = MultivalentFunction(2, 1)
    op, align = plain_op(), ArgAlignment(phi=0.0)
    value_side = {
        "sufficient_m": lambda nb: sufficient_m(f, g, op, nb),
        "sufficient_m_modulus": lambda nb: sufficient_m_modulus(f, g, op, nb, align),
        "membership_m": lambda nb: membership_m(f, g, op, nb),
        "necessary_m": lambda nb: necessary_m(f, g, op, nb, align),
    }
    derivative_side = {
        "sufficient_n": lambda nb: sufficient_n(f, g, op, nb),
        "membership_n": lambda nb: membership_n(f, g, op, nb),
        "necessary_n": lambda nb: necessary_n(f, g, op, nb, align),
    }
    between = NeighborhoodParams(alpha, beta, 0.5 * (low + high))
    clear = NeighborhoodParams(alpha, beta, high + 1.0)
    for name, check in value_side.items():
        v = check(between)
        assert v.holds and not v.falsification, name
        assert len(v.notes) == 1 and "weaker" in v.notes[0], name
        v = check(clear)
        assert v.holds and v.notes == (), name
        with pytest.raises(InadmissibleDeltaError):
            check(NeighborhoodParams(alpha, beta, 0.5 * low))
    for name, check in derivative_side.items():
        with pytest.raises(InadmissibleDeltaError):
            check(between)
        v = check(clear)
        assert v.holds and v.notes == (), name


def test_membership_with_sum_is_the_separate_pair_bit_for_bit():
    for seed in range(12):
        spec = InstanceSpec(p=2 + seed % 3, n=1 + seed % 2, m=seed % 2, omega=seed % 3,
                            lam=0.25 * (seed % 5), trunc=8 + 5 * seed, seed=seed)
        f, g, nb = generate_pair(spec, "unconstrained")
        op = spec.operator
        for family, member, suff in ((DERIVATIVE, membership_n, sufficient_n),
                                     (VALUE, membership_m, sufficient_m)):
            pair = membership_with_sum(family, f, g, op, nb, 1024)
            separate = (member(f, g, op, nb, 1024), suff(f, g, op, nb))
            assert repr(pair) == repr(separate), (seed, family.label)


def test_each_check_forms_one_weight_vector_per_family(monkeypatch):
    calls = []
    weight_pass = series._weight_pass

    def counted(*args, **kwargs):
        calls.append(kwargs["derivative"])
        return weight_pass(*args, **kwargs)

    monkeypatch.setattr(series, "_weight_pass", counted)
    # 0.01 at k = 1, 0.02 at k = 3: aligned along phi = 0 at alpha = 0
    f = MultivalentFunction(2, 1, (0.01, 0.0, 0.02))
    g = MultivalentFunction(2, 1)
    op, align = OperatorParams(lam=0.4, m=1, omega=2), ArgAlignment(phi=0.0)
    nb = NeighborhoodParams(0.0, math.pi / 2, 40.0)
    checks = {
        "sufficient_n": (lambda: sufficient_n(f, g, op, nb), 1),
        "sufficient_m": (lambda: sufficient_m(f, g, op, nb), 1),
        "sufficient_n_modulus": (lambda: sufficient_n_modulus(f, g, op, nb, align), 1),
        "sufficient_m_modulus": (lambda: sufficient_m_modulus(f, g, op, nb, align), 1),
        "membership_n": (lambda: membership_n(f, g, op, nb), 1),
        "membership_m": (lambda: membership_m(f, g, op, nb), 1),
        "membership_with_sum": (lambda: membership_with_sum(VALUE, f, g, op, nb), 1),
        "necessary_n": (lambda: necessary_n(f, g, op, nb, align), 1),
        "necessary_m": (lambda: necessary_m(f, g, op, nb, align), 1),
        "transfer_check": (lambda: transfer_check(f, g, op, nb), 2),
    }
    for name, (check, expected) in checks.items():
        calls.clear()
        check()
        assert len(calls) == expected, name
    assert sorted(calls) == [False, True]


# ---------------------------------------------------------------------------
# modulus (aligned) forms
# ---------------------------------------------------------------------------


def test_modulus_identity_under_alignment():
    rng = np.random.default_rng(5)
    alpha, beta = 0.7, -0.4
    for _ in range(25):
        r, s = rng.uniform(0, 2, 2)
        theta = rng.uniform(-math.pi, math.pi)
        a = r * cmath.exp(1j * theta)
        b = s * cmath.exp(1j * (theta - beta + alpha))
        lhs = abs(cmath.exp(1j * alpha) * a - cmath.exp(1j * beta) * b)
        assert abs(lhs - abs(r - s)) < 1e-12


def test_modulus_forms_match_plain_forms_when_aligned():
    f = MultivalentFunction(1, 1, (0.5, 0.3))
    g = MultivalentFunction(1, 1, (0.2, 0.1))
    nb = NeighborhoodParams(0.0, 0.0, 4.0)
    align = ArgAlignment()
    vm = sufficient_n_modulus(f, g, plain_op(), nb, align)
    vp = sufficient_n(f, g, plain_op(), nb)
    assert abs(vm.lhs - vp.lhs) < 1e-14
    vm2 = sufficient_m_modulus(f, g, plain_op(), nb, align)
    vp2 = sufficient_m(f, g, plain_op(), nb)
    assert abs(vm2.lhs - vp2.lhs) < 1e-14


def test_modulus_form_rejects_misaligned_index():
    f = MultivalentFunction(1, 1, (0.5, 0.3j))  # second index off by pi/2
    g = MultivalentFunction(1, 1, (0.2, 0.1))
    nb = NeighborhoodParams(0.0, 0.0, 4.0)
    with pytest.raises(HypothesisViolationError) as err:
        sufficient_n_modulus(f, g, plain_op(), nb, ArgAlignment())
    assert "k=2" in str(err.value)


def test_modulus_form_zero_coefficients_are_vacuous():
    f = MultivalentFunction(1, 1, (0.5, 0.3j))
    g = MultivalentFunction(1, 1, (0.2, 0.0))  # zero partner coefficient: no constraint
    nb = NeighborhoodParams(0.0, 0.0, 4.0)
    v = sufficient_n_modulus(f, g, plain_op(), nb, ArgAlignment())
    assert v.lhs > 0.0


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_trivial_equal_pair():
    f = MultivalentFunction(2, 1, (0.3, 1j))
    nb = NeighborhoodParams(1.1, 1.1, 0.7)
    for check in (membership_n, membership_m):
        v = check(f, f, plain_op(), nb)
        assert v.holds and v.lhs == 0.0


def test_membership_constant_difference():
    # f = g = z^p, alpha=0, beta=pi: the twisted difference is the constant
    # 2 p!/(p-m-1)! (derivative side) resp. 2 p!/(p-m)! (value side)
    f = MultivalentFunction(1, 1)
    op = plain_op()
    v = membership_n(f, f, op, NeighborhoodParams(0.0, math.pi, 2.5))
    assert abs(v.lhs - 2.0) < 1e-12 and v.holds
    v = membership_n(f, f, op, NeighborhoodParams(0.0, math.pi, 2.0 + 1e-6))
    assert v.holds  # strict: 2 < 2.000001
    v = membership_m(f, f, op, NeighborhoodParams(0.0, math.pi, 2.5))
    assert abs(v.lhs - 2.0) < 1e-12
    f3 = MultivalentFunction(3, 1)
    v = membership_m(f3, f3, OperatorParams(m=1), NeighborhoodParams(0.0, math.pi, 13.0))
    assert abs(v.lhs - 6.0) < 1e-11  # 2 * 3!/2! = 6


def test_membership_rejects_small_grid():
    f = MultivalentFunction(1, 1)
    with pytest.raises(DomainError):
        membership_n(f, f, plain_op(), NeighborhoodParams(0.0, 0.0, 1.0), grid=7)


def test_sufficient_implies_membership_spot():
    for seed in range(12):
        spec = InstanceSpec(p=2, n=1, m=0, omega=1, lam=0.3, trunc=6, seed=seed)
        f, g, nb = generate_pair(spec, "inside_sufficient_n")
        assert sufficient_n(f, g, spec.operator, nb).holds
        assert membership_n(f, g, spec.operator, nb).holds


# ---------------------------------------------------------------------------
# necessity bounds
# ---------------------------------------------------------------------------


def test_necessary_trivial_equal_pair():
    # empty tails: every twisted difference is exactly zero, so the alignment
    # hypothesis is vacuous even though alpha != beta
    f = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.1, 1.2, 3.0)
    align = ArgAlignment(phi=0.0)
    v = necessary_n(f, f, plain_op(), nb, align)
    assert v.holds and v.lhs == 0.0
    assert abs(v.threshold - (nb.delta - (math.cos(0.1) - math.cos(1.2)))) < 1e-14
    v = necessary_m(f, f, plain_op(), nb, align)
    assert v.holds and v.lhs == 0.0


def test_necessary_threshold_signs():
    # alpha=0, beta=pi/2: value-side threshold is delta - p!/(p-m-1)!
    f = MultivalentFunction(2, 1, (0.001,))
    g = MultivalentFunction(2, 1)
    nb = NeighborhoodParams(0.0, math.pi / 2, 4.0)
    v = necessary_m(f, g, plain_op(), nb, ArgAlignment(phi=0.0))
    assert abs(v.threshold - (4.0 - 2.0)) < 1e-14
    vn = necessary_n(f, g, plain_op(), nb, ArgAlignment(phi=0.0))
    assert abs(vn.threshold - (4.0 - 2.0 * (1.0 - 0.0))) < 1e-14


def test_necessary_rejects_angle_range():
    f = MultivalentFunction(1, 1, (0.1,))
    align = ArgAlignment(phi=0.0)
    with pytest.raises(HypothesisViolationError):
        necessary_n(f, f, plain_op(), NeighborhoodParams(0.5, 0.2, 2.0), align)
    with pytest.raises(HypothesisViolationError):
        necessary_n(f, f, plain_op(), NeighborhoodParams(-0.1, 0.2, 2.0), align)
    with pytest.raises(HypothesisViolationError):
        necessary_n(f, f, plain_op(), NeighborhoodParams(0.3, 0.3, 2.0), align)


def test_necessary_rejects_misalignment():
    f = MultivalentFunction(1, 1, (0.5,))
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, 1.0, 9.0)
    with pytest.raises(HypothesisViolationError) as err:
        necessary_n(f, g, plain_op(), nb, ArgAlignment(phi=2.0))
    assert "k=1" in str(err.value)


def _alignment_failure_loop(f, g, nb, align):
    """Reference: the scalar alignment scan over every k, as its message or None."""
    _, _, re, im = _differences(f, g, nb)
    for k, x, y in zip(_indices(f, g), re.tolist(), im.tolist()):
        d = complex(x, y)
        if d == 0:
            continue
        gap = series.wrap_angle(cmath.phase(d) - k * align.phi)
        if abs(gap) > align.tolerance:
            return (
                f"twisted-difference alignment arg(d_k)=k*phi fails at index k={k}: "
                f"off by {gap!r} rad (tolerance {align.tolerance!r})"
            )
    return None


def _alignment_failure(check, f, g, nb, align):
    try:
        check(f, g, plain_op(), nb, align)
    except HypothesisViolationError as err:
        if "alignment" in str(err):
            return str(err)
        raise
    return None


def _aligned_function(phi: float, size: int, twists: dict[int, float]) -> MultivalentFunction:
    # a_k = 1e-9 e^{i (k phi + twist_k)}, k = 1..size, and a_k = 0 where k is a
    # multiple of 97 (a zero difference is vacuously aligned): with g = 0 and
    # alpha = 0 the twisted differences are the a_k themselves, and membership holds
    coeffs = [
        0.0 if k % 97 == 0 else 1e-9 * cmath.exp(1j * (k * phi + twists.get(k, 0.0)))
        for k in range(1, size + 1)
    ]
    return MultivalentFunction(1, 1, tuple(coeffs))


@pytest.mark.parametrize("check", [necessary_n, necessary_m])
def test_alignment_scan_reports_the_first_late_misaligned_index(check):
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, 1.0, 9.0)
    align = ArgAlignment(phi=0.7)
    for twists, k in (
        ({2000: 2e-8, 2041: -3e-8}, 2000),
        ({2041: -3e-8}, 2041),
        ({2048: 1e-7}, 2048),
        ({}, None),
    ):
        f = _aligned_function(align.phi, 2048, twists)
        message = _alignment_failure(check, f, g, nb, align)
        assert message == _alignment_failure_loop(f, g, nb, align)
        assert (message is None) == (k is None)
        if k is not None:
            assert f"index k={k}:" in message


@pytest.mark.parametrize("check", [necessary_n, necessary_m])
def test_alignment_scan_matches_the_loop_within_ulps_of_the_tolerance(check):
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, 1.0, 9.0)
    for phi, k in ((0.7, 300), (-2.3, 1), (1e4, 257), (3.0, 512)):
        f = _aligned_function(phi, 512, {k: 3e-8})
        _, _, re, im = _differences(f, g, nb)
        gap = abs(series.wrap_angle(cmath.phase(complex(re[k - 1], im[k - 1])) - k * phi))
        tolerances = [gap]
        for _ in range(3):
            tolerances = [math.nextafter(tolerances[0], 0.0), *tolerances]
            tolerances.append(math.nextafter(tolerances[-1], 1.0))
        outcomes = []
        for tol in tolerances:
            align = ArgAlignment(phi=phi, tolerance=tol)
            message = _alignment_failure(check, f, g, nb, align)
            assert message == _alignment_failure_loop(f, g, nb, align), (phi, tol)
            outcomes.append(message is None)
        # fails below the gap, holds from the gap on
        assert outcomes == [False] * 3 + [True] * 4, phi


def test_alignment_scan_matches_the_loop_on_seeded_pairs():
    rng = np.random.default_rng(11)
    nb = NeighborhoodParams(0.2, 1.4, 9.0)
    for _ in range(40):
        size = int(rng.integers(1, 200))
        phi = float(rng.choice([rng.uniform(-4, 4), rng.uniform(-1e6, 1e6)]))
        b = 1e-9 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        twist = rng.choice([0.0, 1e-9, 1e-8, 2e-8], size) * rng.choice([-1.0, 1.0], size)
        k = np.arange(1, size + 1)
        # d_k = e^{i alpha} a_k - e^{i beta} b_k = 1e-9 e^{i (k phi + twist_k)}
        d = 1e-9 * np.exp(1j * (k * phi + twist))
        a = (d + np.exp(1j * nb.beta) * b) * np.exp(-1j * nb.alpha)
        b[rng.random(size) < 0.2] = 0.0
        both = rng.random(size) < 0.1  # d_k = 0 exactly
        a[both] = b[both] = 0.0
        f = MultivalentFunction(1, 1, tuple(a.tolist()))
        g = MultivalentFunction(1, 1, tuple(b.tolist()))
        align = ArgAlignment(phi=phi, tolerance=float(rng.choice([1e-8, 1.5e-8, 0.0])))
        for check in (necessary_n, necessary_m):
            assert _alignment_failure(check, f, g, nb, align) == _alignment_failure_loop(
                f, g, nb, align
            )


def _modulus_loop(f, g, nb, align):
    """Reference: the scalar modulus route the array fold replaced, |a_{k+p}| - |b_{k+p}|
    over every k in order, raising at the first both-nonzero misaligned index."""
    expected = nb.beta - nb.alpha
    out = []
    for k in _indices(f, g):
        a = f.coefficient(k)
        b = g.coefficient(k)
        if a != 0 and b != 0:
            gap = series.wrap_angle(cmath.phase(a) - cmath.phase(b) - expected)
            if abs(gap) > align.tolerance:
                raise HypothesisViolationError(
                    f"argument alignment arg(a)-arg(b)=beta-alpha fails at index k={k}: "
                    f"off by {gap!r} rad (tolerance {align.tolerance!r})"
                )
        out.append(abs(a) - abs(b))
    return out


_MODULUS_CHECKS = ((sufficient_n_modulus, DERIVATIVE), (sufficient_m_modulus, VALUE))


def _modulus_outcomes(f, g, op, nb, align):
    """(checked, reference) per family: the lhs as hex, or the alignment message."""
    try:
        moduli = _modulus_loop(f, g, nb, align)
    except HypothesisViolationError as err:
        moduli = str(err)
    for check, family in _MODULUS_CHECKS:
        if isinstance(moduli, str):
            expected = moduli
        else:
            w = [float(x) for x in family.weights(_indices(f, g), f.p, op)]
            expected = math.fsum(x * abs(v) for x, v in zip(w, moduli)).hex()
        try:
            got = check(f, g, op, nb, align).lhs.hex()
        except HypothesisViolationError as err:
            got = str(err)
        yield got, expected


def _modulus_pair(rng, size, p, n, expected, twist):
    """a_k = r_k e^{i theta_k}, b_k = s_k e^{i (theta_k - expected + twist_k)}, with
    zeros (signed, too) in a or b at random indices and b the shorter list at times."""
    theta = rng.uniform(-math.pi, math.pi, size)
    a = rng.uniform(0.0, 1e-3, size) * np.exp(1j * theta)
    b = rng.uniform(0.0, 1e-3, size) * np.exp(1j * (theta - expected + twist))
    a[rng.random(size) < 0.15] = complex(-0.0, 0.0)
    b[rng.random(size) < 0.15] = complex(0.0, -0.0)
    short = int(rng.integers(0, size + 1)) if rng.random() < 0.3 else size
    return (
        MultivalentFunction(p, n, tuple(a.tolist())),
        MultivalentFunction(p, n, tuple(b[:short].tolist())),
    )


def test_modulus_forms_bitwise_match_the_loop_on_seeded_pairs():
    rng = np.random.default_rng(23)
    misaligned = aligned = 0
    for trial in range(60):
        size = int(rng.integers(1, 300))
        p = int(rng.integers(1, 5))
        op = OperatorParams(lam=float(rng.uniform()), m=int(rng.integers(0, p)), omega=2)
        alpha = float(rng.uniform(-4.0, 4.0))
        # |beta - alpha| up to 1e300: the gap is then rounding of the target alone
        beta = alpha + float(rng.choice([1.0, 1e6, 1e15, 1e300])) * float(rng.uniform(-1, 1))
        twist = rng.choice([0.0, 0.0, 1e-9, 1e-8, 2e-8], size) * rng.choice([-1.0, 1.0], size)
        f, g = _modulus_pair(rng, size, p, int(rng.integers(1, 4)), beta - alpha, twist)
        nb = NeighborhoodParams(alpha, beta, 1e9)
        align = ArgAlignment(tolerance=float(rng.choice([1e-8, 1.5e-8, 0.0, 3.0])))
        for got, expected in _modulus_outcomes(f, g, op, nb, align):
            assert got == expected, trial
            misaligned += got.startswith("argument alignment")
            aligned += not got.startswith("argument alignment")
    assert misaligned > 20 and aligned > 20


def test_modulus_scan_bitwise_matches_the_loop_within_ulps_of_the_tolerance():
    rng = np.random.default_rng(29)
    op = OperatorParams(lam=0.5, m=1, omega=1)
    for alpha, beta in ((0.3, 1.1), (-2.5, 3.0), (1.0, 1.0 + 1e6), (-1e300, 1e300), (5.0, -5e15)):
        twist = np.zeros(400)
        twist[[7, 250]] = (3e-8, -5e-8)
        f, g = _modulus_pair(rng, 400, 2, 1, beta - alpha, twist)
        nb = NeighborhoodParams(alpha, beta, 1e9)
        # the largest scalar gap: the loop fails below it and holds from it on
        gap = 0.0
        for k in _indices(f, g):
            x, y = f.coefficient(k), g.coefficient(k)
            if x != 0 and y != 0:
                gap = max(gap, abs(series.wrap_angle(cmath.phase(x) - cmath.phase(y) - (beta - alpha))))
        tolerances = [gap]
        for _ in range(3):
            tolerances = [math.nextafter(tolerances[0], 0.0), *tolerances]
            tolerances.append(math.nextafter(tolerances[-1], 4.0))
        outcomes = []
        for tol in tolerances:
            pairs = list(_modulus_outcomes(f, g, op, nb, ArgAlignment(tolerance=tol)))
            assert all(got == expected for got, expected in pairs), (alpha, beta, tol)
            outcomes.append(not pairs[0][0].startswith("argument alignment"))
        assert outcomes == [False] * 3 + [True] * 4, (alpha, beta)


def test_modulus_scan_bitwise_reports_the_first_late_misaligned_index():
    # a zero in a or in b leaves its index unconstrained, however twisted
    g = MultivalentFunction(1, 1, tuple([0.5] * 2048))
    nb = NeighborhoodParams(0.0, 0.0, 1e9)
    for twisted, zeros, k in (
        ({1999: 1e-7, 2047: 1e-7}, {}, 2000),
        ({1999: 1e-7, 2047: 1e-7}, {1999: 0j}, 2048),
        ({2047: 1e-7}, {2047: complex(-0.0, -0.0)}, None),
        ({}, {}, None),
    ):
        coeffs = [cmath.exp(1j * twisted.get(i, 0.0)) for i in range(2048)]
        for i, z in zeros.items():
            coeffs[i] = z
        f = MultivalentFunction(1, 1, tuple(coeffs))
        for got, expected in _modulus_outcomes(f, g, plain_op(), nb, ArgAlignment()):
            assert got == expected
            assert got.startswith("argument alignment") == (k is not None)
            if k is not None:
                assert f"index k={k}:" in got


def test_modulus_scan_slack_covers_an_ulp_of_a_large_target(monkeypatch):
    # An arctan2 a few ulps off cmath.phase can move the rounded gap
    # wrap(angle - target) by a whole ulp of |target|.  Stand in for one with
    # cmath.phase moved 2 ulps toward a smaller |gap|, and take the first phase
    # where the move crosses a rounding boundary: the array gap then lies inside
    # tolerance - 4 _ALIGN_SLACK while the scalar gap exceeds the tolerance, so
    # only the _ALIGN_SLACK |target| term keeps the index a candidate.
    expected = 300.0
    nb = NeighborhoodParams(0.0, expected, 1e9)
    g = MultivalentFunction(1, 1, (1.0 + 0j,))

    def nudged(angle, toward):
        return math.nextafter(math.nextafter(angle, toward), toward)

    for j in range(20000):
        a = cmath.rect(1.0, 0.5 + 1e-7 * j)
        gap = series.wrap_angle(cmath.phase(a) - expected)
        toward = -math.copysign(math.inf, gap)
        array_gap = series.wrap_angle(nudged(cmath.phase(a), toward) - expected)
        tolerance = math.nextafter(abs(gap), 0.0)
        if abs(array_gap) <= tolerance - 4.0 * _ALIGN_SLACK:
            break
    else:
        pytest.fail("no phase within 2 ulps of a rounding boundary of the gap")
    assert abs(array_gap) > tolerance - _ALIGN_SLACK * (4.0 + expected)

    def arctan2(y, x):
        return np.array(
            [nudged(cmath.phase(complex(u, v)), toward) for v, u in zip(y.tolist(), x.tolist())]
        )

    monkeypatch.setattr(np, "arctan2", arctan2)
    f = MultivalentFunction(1, 1, (a,))
    for got, want in _modulus_outcomes(f, g, plain_op(), nb, ArgAlignment(tolerance=tolerance)):
        assert got == want
        assert got.startswith("argument alignment arg(a)-arg(b)=beta-alpha fails at index k=1:")


def test_modulus_past_the_float_range_reads_inf_and_fails():
    f = MultivalentFunction(1, 1, (complex(1.5e308, 1.5e308), 0.5))
    g = MultivalentFunction(1, 1, (complex(1.0, 1.0), 0.25))  # aligned: both args pi/4
    for check in (sufficient_n_modulus, sufficient_m_modulus):
        v = check(f, g, plain_op(), NeighborhoodParams(0.0, 0.0, 4.0), ArgAlignment())
        assert v.lhs == math.inf and not v.holds


def test_necessary_rejects_failed_membership():
    # huge coefficient difference: not in the neighborhood
    f = MultivalentFunction(1, 1, (50.0,))
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, 1.0, 2.0)
    phi = cmath.phase(cmath.exp(1j * 0.0) * 50.0)  # differences real positive: phi=0
    with pytest.raises(HypothesisViolationError) as err:
        necessary_n(f, g, plain_op(), nb, ArgAlignment(phi=phi))
    assert "membership" in str(err.value)


def test_necessary_end_to_end_single_term():
    """Single-term difference with phi=0; membership verified, bound checked."""
    alpha, beta = 0.0, 0.9
    op = plain_op()
    g = MultivalentFunction(1, 1, (0.05,))
    # choose a so the twisted difference is real positive (phi = 0)
    d = 0.04
    a1 = cmath.exp(-1j * alpha) * (cmath.exp(1j * beta) * g.coeffs[0] + d)
    f = MultivalentFunction(1, 1, (a1,))
    nb = NeighborhoodParams(alpha, beta, 3.0)
    v = necessary_n(f, g, op, nb, ArgAlignment(phi=0.0))
    assert v.holds and not v.falsification
    assert abs(v.lhs - 2 * d) < 1e-12  # weight k+p = 2
    vm = necessary_m(f, g, op, nb, ArgAlignment(phi=0.0))
    assert vm.holds
    assert abs(vm.lhs - d) < 1e-12


def test_necessary_specialization_matches_reduced_form():
    """lam=omega=m=0, p=1, alpha=0: sum k (k+1)|a - e^{i b} b_k| <= delta + cos b - 1."""
    beta = 1.1
    op = plain_op()
    g = MultivalentFunction(1, 1, (0.03, 0.02))
    diffs = [0.01, 0.005]
    coeffs = tuple(
        cmath.exp(1j * beta) * bk + dk for bk, dk in zip(g.coeffs, diffs)
    )
    f = MultivalentFunction(1, 1, coeffs)
    nb = NeighborhoodParams(0.0, beta, 2.0)
    v = necessary_n(f, g, op, nb, ArgAlignment(phi=0.0))
    reduced_lhs = sum((k + 1) * d for k, d in zip((1, 2), diffs))
    assert abs(v.lhs - reduced_lhs) < 1e-12
    assert abs(v.threshold - (2.0 + math.cos(beta) - 1.0)) < 1e-14
    assert v.holds


@pytest.mark.parametrize(
    "check, image",
    [
        pytest.param(necessary_n, blend_derivative_normalized, id="derivative-side"),
        # README Known issue 1: the value-side bound takes the derivative-side
        # lead p!/(p-m-1)!; once it takes p!/(p-m)! this case passes
        pytest.param(
            necessary_m, blend_normalized, id="value-side",
            marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                    reason="README Known issue 1: nec-m lead constant"),
        ),
    ],
)
def test_necessary_n_holds_on_seeded_aligned_pairs(check, image):
    """Necessity on 200 seeded aligned pairs with p <= 4, m < p, per family.

    Each pair has d_k = r_k e^{ik phi} with r_k comparable to |b_k|, so the
    stored coefficients keep arg d_k = k phi within the default tolerance,
    and 0 <= alpha < beta <= pi.  delta sits above the 2^18-point oracle's
    supremum of the family's twisted images plus its sampling loss
    (pi d/2^18)^2/2, so membership holds and a failed bound would be a
    falsification.
    """
    rng = np.random.default_rng(20261019)
    grid = 2**18
    for trial in range(200):
        p = int(rng.integers(1, 5))
        m = int(rng.integers(0, p))
        n = int(rng.integers(1, 4))
        trunc = int(rng.integers(n, 13))
        spec = InstanceSpec(p=p, n=n, m=m, omega=int(rng.integers(0, 3)),
                            lam=float(rng.uniform(0.0, 1.0)), trunc=trunc, seed=trial)
        alpha, beta = sorted(rng.uniform(0.0, math.pi, 2).tolist())
        phi = float(rng.uniform(-math.pi, math.pi))
        count = trunc - n + 1
        b = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * 0.5
        r = np.abs(b) * rng.uniform(0.5, 2.0, count)
        d = r * np.exp(1j * phi * np.arange(n, trunc + 1))
        f, g, _ = harness._instance(spec, alpha, beta, b, d, 1.0)
        op = spec.operator
        twisted = (
            cmath.exp(1j * alpha) * image(f, op).dense_coefficients()
            - cmath.exp(1j * beta) * image(g, op).dense_coefficients()
        )
        loss = (math.pi * trunc / grid) ** 2 / 2
        nb = NeighborhoodParams(alpha, beta, harness.sup_oracle(twisted, grid) * (1.0 + loss))
        v = check(f, g, op, nb, ArgAlignment(phi=phi))
        assert v.holds and not v.falsification, (trial, spec, v)


FALSIFICATION_NOTE = "falsification: hypotheses verified but the guaranteed conclusion failed"


def _force_suprema(monkeypatch, suprema):
    """Make the checks' boundary suprema read `suprema`, one per call, in order."""
    values = iter(suprema)
    monkeypatch.setattr(criteria, "max_modulus_on_circle", lambda c, grid: (next(values), 0.0))


def test_library_verdicts_flag_falsifications(monkeypatch, caplog):
    caplog.set_level("ERROR", logger="pvalent.criteria")
    op = plain_op()

    # aligned along phi = 0 with a weighted sum far above delta - 1, at supremum 0
    f, g = MultivalentFunction(1, 1, (100.0,)), MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, math.pi / 2, 2.0)
    for check, label, lhs in ((necessary_n, "derivative-side", 200.0),
                              (necessary_m, "value-side", 100.0)):
        _force_suprema(monkeypatch, [0.0])
        caplog.clear()
        v = check(f, g, op, nb, ArgAlignment(phi=0.0))
        assert (v.holds, v.lhs, v.falsification, v.notes) == (
            False, lhs, True, (FALSIFICATION_NOTE,)
        )
        assert [r.getMessage() for r in caplog.records] == [
            f"FALSIFICATION: {label} necessity bound failed with verified hypotheses "
            f"(lhs={lhs!r}, threshold={v.threshold!r})"
        ]

    # f = g: the transfer hypothesis and the sum criterion hold whatever the suprema
    e = MultivalentFunction(1, 1, (0.5, 0.25))
    same = NeighborhoodParams(0.0, 0.0, 1.0)
    _force_suprema(monkeypatch, [0.0, 1e9])
    caplog.clear()
    pair = transfer_check(e, e, op, same)
    assert pair.hypothesis.holds and not pair.hypothesis.falsification
    assert pair.falsification and pair.conclusion.falsification
    assert pair.conclusion.notes == (FALSIFICATION_NOTE,)
    assert [r.getMessage() for r in caplog.records] == [
        "FALSIFICATION: transfer conclusion failed although the hypothesis held "
        "(hypothesis lhs=0.0 < 2.0, conclusion lhs=1000000000.0 >= 1.0)"
    ]
    for family, member in ((DERIVATIVE, membership_n), (VALUE, membership_m)):
        _force_suprema(monkeypatch, [1.0, 1.0])
        caplog.clear()
        v, suff = membership_with_sum(family, e, e, op, same)
        assert suff.holds and not suff.falsification and suff.notes == ()
        assert (v.holds, v.falsification, v.notes) == (False, True, (FALSIFICATION_NOTE,))
        assert repr(member(e, e, op, same)) == repr(v)
        assert [r.getMessage() for r in caplog.records] == [
            f"FALSIFICATION: {family.label} membership failed although its sufficient "
            "sum held (lhs=1.0, threshold=1.0)"
        ] * 2


def test_failed_conclusions_without_their_hypotheses_are_not_falsifications(
    monkeypatch, caplog
):
    caplog.set_level("ERROR", logger="pvalent.criteria")
    op = plain_op()
    f, g = MultivalentFunction(1, 1, (100.0,)), MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, 0.5, 1.0)
    _force_suprema(monkeypatch, [1e9, 1e9])
    pair = transfer_check(f, g, op, nb)
    assert not pair.hypothesis.holds and not pair.conclusion.holds
    assert not pair.falsification and not pair.conclusion.falsification
    for family in (DERIVATIVE, VALUE):
        _force_suprema(monkeypatch, [1e9])
        v, suff = membership_with_sum(family, f, g, op, nb)
        assert not suff.holds and not v.holds
        assert not v.falsification and v.notes == ()
    _force_suprema(monkeypatch, [1e9])
    with pytest.raises(HypothesisViolationError, match="membership hypothesis fails"):
        necessary_n(f, g, op, NeighborhoodParams(0.0, 0.5, 2.0), ArgAlignment(phi=0.0))
    assert caplog.records == []


# ---------------------------------------------------------------------------
# telescoping partner
# ---------------------------------------------------------------------------


def test_partner_termwise_identity():
    """Each weighted twisted term equals (n+p-1)(delta-T)/((k+p)(k+p-1))."""
    g = MultivalentFunction(3, 2, (0.1 + 0.2j, -0.4j, 0.05))
    op = OperatorParams(lam=0.7, m=1, omega=2)
    nb = NeighborhoodParams(0.3, -0.4, 9.0)
    T = delta_lower_bound_n(3, 1, nb.alpha, nb.beta)
    partner = telescoping_partner(g, op, nb, 12)
    ua = cmath.exp(1j * nb.alpha)
    ub = cmath.exp(1j * nb.beta)
    for k in range(2, 13):
        d = ua * partner.coefficient(k) - ub * g.coefficient(k)
        term = blend_derivative_weight(k, 3, op) * abs(d)
        expect = (2 + 3 - 1) * (nb.delta - T) / ((k + 3) * (k + 2))
        assert abs(term - expect) <= 1e-11 * expect


def test_partner_sum_matches_closed_form():
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, 0.0, 2.0)
    partner = telescoping_partner(g, plain_op(), nb, 40)
    v = sufficient_n(partner, g, plain_op(), nb)
    closed = partner_weighted_sum(1, 1, 0, 2.0, 0.0, 0.0, 40)
    assert abs(v.lhs - closed) <= 1e-12 * closed
    assert v.holds  # truncated sum sits strictly inside the threshold
    # single-term truncation: lhs = (delta - T)/(n + p)
    single = telescoping_partner(g, plain_op(), nb, 1)
    v1 = sufficient_n(single, g, plain_op(), nb)
    assert abs(v1.lhs - 2.0 / 2.0) < 1e-14


def test_partner_telescoping_partial_sums_exact():
    for n in range(1, 5):
        for p in range(1, 5):
            acc = Fraction(0)
            for k in range(n, 201):
                acc += Fraction(1, (k + p - 1) * (k + p))
            assert acc == Fraction(1, n + p - 1) - Fraction(1, 200 + p)


def _factorial_partner_coeffs(g, op, nb, trunc):
    """The partner's coefficients through the full factorial ratio, as a
    Fraction; O(trunc^2), kept only as an oracle for the O(trunc) route."""
    p, n, m = g.p, g.n, op.m
    excess = nb.delta - delta_lower_bound_n(p, m, nb.alpha, nb.beta)
    phase = cmath.exp(-1j * nb.alpha)
    twist = cmath.exp(1j * (nb.beta - nb.alpha))
    base = p - m
    out = []
    for k in range(n, trunc + 1):
        rational = Fraction(
            base**op.omega * math.factorial(k + p - m) * (n + p - 1),
            (k + p - m) ** (op.omega + 1)
            * math.factorial(k + p - 1)
            * (k + p) ** 2
            * (k + p - 1),
        )
        core = float(rational) * excess / (1.0 + op.lam * k / base)
        out.append(core * phase + twist * g.coefficient(k))
    return out


def test_partner_matches_factorial_formula_bitwise():
    rng = np.random.default_rng(11)
    for p in range(1, 6):
        for m in range(p):
            for omega in range(4):
                for n in range(1, 4):
                    op = OperatorParams(lam=float(rng.uniform(0.0, 1.0)), m=m, omega=omega)
                    coeffs = rng.normal(size=(3, 2)) @ np.array([1.0, 1j])
                    g = MultivalentFunction(p, n, tuple(coeffs))
                    nb = NeighborhoodParams(
                        float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), 500.0
                    )
                    partner = telescoping_partner(g, op, nb, 120)
                    assert list(partner.coeffs) == _factorial_partner_coeffs(g, op, nb, 120)


@pytest.mark.parametrize("p, m, n", [(2, 1, 1), (1, 0, 1), (3, 1, 4)])
def test_partner_underflow_cutoff_matches_factorial_formula_bitwise(p, m, n):
    # omega > 1075 / log2((n+p-m)/(p-m)) skips the exact powers; both sides of the
    # cut-off must still give the formula's bytes, +0.0 cores included
    g = MultivalentFunction(p, n, (0.0, 0.05j))  # a zero first coefficient leaves the core visible
    nb = NeighborhoodParams(0.4, -0.2, 50.0)
    cutoff = 1075 / math.log2((n + p - m) / (p - m))
    for omega in (int(cutoff) - 10, int(cutoff) - 1, int(cutoff) + 1, 1100):
        op = OperatorParams(lam=0.5, m=m, omega=omega)
        partner = telescoping_partner(g, op, nb, 30)
        expected = _factorial_partner_coeffs(g, op, nb, 30)
        assert list(map(repr, partner.coeffs)) == list(map(repr, expected))
        assert (partner.coeffs[0] != 0) == (omega < cutoff - 5)


@pytest.mark.parametrize("p, m, omega", [(1, 0, 2), (4, 2, 1)])
def test_partner_sum_matches_closed_form_at_high_order(p, m, omega):
    g = MultivalentFunction(p, 2, (0.3 - 0.1j, 0.05j))
    op = OperatorParams(lam=0.6, m=m, omega=omega)
    nb = NeighborhoodParams(0.2, -0.5, 300.0)
    excess = nb.delta - delta_lower_bound_n(p, m, nb.alpha, nb.beta)
    partner = telescoping_partner(g, op, nb, 3000)
    assert partner.truncation_order == 3000
    v = sufficient_n(partner, g, op, nb)
    closed = partner_weighted_sum(p, 2, m, nb.delta, nb.alpha, nb.beta, 3000)
    assert abs(v.lhs - closed) <= 1e-9 * excess
    assert v.holds


def test_partner_rejects_oversized_truncation():
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, 0.0, 2.0)
    with pytest.raises(DomainError, match="maximum"):
        telescoping_partner(g, plain_op(), nb, MAX_TRUNC + 1)


def test_partner_rejects_degenerate_delta():
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, math.pi, 1.0)  # T = 2 > delta
    with pytest.raises(InadmissibleDeltaError):
        telescoping_partner(g, plain_op(), nb, 10)


def test_partner_rejects_bad_truncation():
    g = MultivalentFunction(1, 2, (0.1, 0.2))
    nb = NeighborhoodParams(0.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        telescoping_partner(g, plain_op(), nb, 1)  # below n
    with pytest.raises(DomainError):
        telescoping_partner(g, plain_op(), nb, 2)  # below g's truncation order


# ---------------------------------------------------------------------------
# transfer check
# ---------------------------------------------------------------------------


def test_transfer_trivial_equal_pair():
    f = MultivalentFunction(2, 1, (0.4,))
    nb = NeighborhoodParams(0.2, 0.2, 1.0)
    pair = transfer_check(f, f, plain_op(), nb)
    assert pair.hypothesis.holds and pair.conclusion.holds
    assert pair.hypothesis.lhs == 0.0 and pair.conclusion.lhs == 0.0
    assert not pair.falsification


def test_transfer_thresholds_match_specialized_forms():
    # m=0: hypothesis threshold delta (p+n) - p R, conclusion threshold delta + R
    p, n = 3, 2
    alpha, beta = 0.5, -0.3
    R = 2.0 * abs(math.sin(0.5 * (alpha - beta)))
    f = MultivalentFunction(p, n, (0.001,))
    g = MultivalentFunction(p, n)
    delta = 1.0
    pair = transfer_check(f, g, plain_op(), NeighborhoodParams(alpha, beta, delta))
    assert abs(pair.hypothesis.threshold - (delta * (p + n) - p * R)) < 1e-13
    assert abs(pair.conclusion.threshold - (delta + R)) < 1e-13


def test_transfer_rejects_delta_below_gate():
    p, n = 1, 1
    alpha, beta = 0.0, math.pi  # radical = 2, gate = 2/(p+n-m) = 1
    f = MultivalentFunction(p, n, (0.001,))
    g = MultivalentFunction(p, n)
    with pytest.raises(InadmissibleDeltaError):
        transfer_check(f, g, plain_op(), NeighborhoodParams(alpha, beta, 0.99))


def test_transfer_forced_hypothesis_carries_conclusion():
    from pvalent import generate_transfer_pair

    for seed in range(10):
        spec = InstanceSpec(p=2, n=2, m=1, omega=1, lam=0.4, trunc=7, seed=seed)
        f, g, nb = generate_transfer_pair(spec)
        pair = transfer_check(f, g, spec.operator, nb)
        assert pair.hypothesis.holds
        assert pair.conclusion.holds
        assert not pair.falsification


# ---------------------------------------------------------------------------
# rotation invariance spot checks
# ---------------------------------------------------------------------------


def test_rotation_invariance_spot():
    spec = InstanceSpec(p=2, n=1, m=0, omega=2, lam=0.8, trunc=8, seed=77)
    f, g, nb = generate_pair(spec, "unconstrained")
    op = spec.operator
    for t in (0.3, -1.2, 2.9):
        moved = NeighborhoodParams(nb.alpha + t, nb.beta + t, nb.delta)
        for check in (sufficient_n, sufficient_m):
            a = check(f, g, op, nb)
            b = check(f, g, op, moved)
            assert a.holds == b.holds
            assert abs(a.lhs - b.lhs) <= 1e-12 * max(1.0, a.lhs)
            assert abs(a.threshold - b.threshold) <= 1e-12 * max(1.0, abs(a.threshold))
        ma = membership_n(f, g, op, nb, 512)
        mb = membership_n(f, g, op, moved, 512)
        assert abs(ma.lhs - mb.lhs) <= 1e-12 * max(1.0, ma.lhs)


# ---------------------------------------------------------------------------
# twisted differences and weighted sums against Python complex arithmetic
# (the CI workflow re-runs every test named *bitwise* with numpy's X86_V3 and
# newer dispatch disabled)
# ---------------------------------------------------------------------------


def _golden_function(name):
    doc = json.loads((GOLDEN / name).read_text())
    coeffs = tuple(complex(re, im) for re, im in doc["coefficients"])
    op = OperatorParams(lam=doc.get("lambda", 0.0), m=doc.get("m", 0), omega=doc.get("Omega", 0))
    return MultivalentFunction(doc["p"], doc["n"], coeffs), op


def _sum_cases():
    f, op = _golden_function("k300_function.json")
    g, _ = _golden_function("k300_partner.json")
    yield f, g, op
    f, op = _golden_function("k300_operator_f.json")
    g, _ = _golden_function("k300_operator_g.json")
    yield f, g, op
    rng = np.random.default_rng(5)
    a = (rng.standard_normal(90) + 1j * rng.standard_normal(90)).tolist()
    b = (rng.standard_normal(60) + 1j * rng.standard_normal(60)).tolist()
    a[::9] = [complex(-0.0, 5e-324), complex(5e-324, -0.0)] * 5
    b[::6] = [complex(-0.0, -0.0), complex(0.0, -5e-324)] * 5
    op = OperatorParams(lam=0.35, m=1, omega=2)
    yield MultivalentFunction(3, 2, tuple(a)), MultivalentFunction(3, 2, tuple(b)), op
    yield MultivalentFunction(3, 2, tuple(b)), MultivalentFunction(3, 2, tuple(a)), op


def _python_twisted(f, g, alpha, beta):
    """The twisted differences as Python complex arithmetic formed them."""
    ua = cmath.exp(1j * alpha)
    ub = cmath.exp(1j * beta)
    size = max(len(f.coeffs), len(g.coeffs))
    a = f.coeffs + (0j,) * (size - len(f.coeffs))
    b = g.coeffs + (0j,) * (size - len(g.coeffs))
    return [ua * x - ub * y for x, y in zip(a, b)]


def _bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def test_twisted_sums_bitwise_match_python_complex_arithmetic():
    for f, g, op in _sum_cases():
        for alpha, beta in ((0.3, 1.1), (0.0, math.pi), (-2.5, 0.25)):
            _, _, re, im = _differences(f, g, NeighborhoodParams(alpha, beta, 1.0))
            oracle = _python_twisted(f, g, alpha, beta)
            assert _bits(complex(x, y) for x, y in zip(re.tolist(), im.tolist())) == _bits(oracle)
            for family in (DERIVATIVE, VALUE):
                w = family.weights(_indices(f, g), f.p, op)
                expected = math.fsum(x * abs(v) for x, v in zip(w, oracle))
                assert _weighted_sum(w, re, im).hex() == expected.hex()
                moduli = [abs(f.coefficient(k)) - abs(g.coefficient(k)) for k in _indices(f, g)]
                expected = math.fsum(x * abs(v) for x, v in zip(w, moduli))
                assert _weighted_sum(w, moduli).hex() == expected.hex()
