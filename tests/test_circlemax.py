"""Boundary maximum machinery against the independent dense-sampling oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pvalent import DomainError, max_modulus_on_circle, sup_oracle
from pvalent.circlemax import MAX_GRID, _curvature_bound

ORACLE_POINTS = 1 << 20


def test_constant_polynomial():
    value, _ = max_modulus_on_circle(np.array([3.0 - 4.0j]))
    assert abs(value - 5.0) < 1e-14


def test_monomial_is_unimodular():
    c = np.zeros(8, dtype=complex)
    c[7] = 1.0
    value, _ = max_modulus_on_circle(c)
    assert abs(value - 1.0) < 1e-14
    assert abs(sup_oracle(c, 1 << 12) - 1.0) < 1e-14


def test_zero_polynomial():
    assert max_modulus_on_circle(np.zeros(3, dtype=complex)) == (0.0, 0.0)
    assert sup_oracle(np.array([], dtype=complex), 16) == 0.0


def test_binomial_max_at_positive_axis():
    value, theta = max_modulus_on_circle(np.array([1.0, 1.0]))
    assert abs(value - 2.0) < 1e-14
    assert min(abs(theta), abs(theta - 2 * math.pi)) < 1e-9


def test_off_grid_maximum_is_refined():
    # max of |1 + e^{-i t0} z| sits at theta = t0, generically off any grid;
    # Newton steps on T' = d|p|^2/dt resolve the root of T' itself, not just
    # the sqrt(eps) flat top of the modulus
    t0 = 0.4321987
    c = np.array([1.0, np.exp(-1j * t0)])
    value, theta = max_modulus_on_circle(c, grid=64)
    assert abs(value - 2.0) < 1e-12
    assert abs(theta - t0) < 1e-9


def test_rejects_small_grid():
    with pytest.raises(DomainError):
        max_modulus_on_circle(np.array([1.0, 1.0]), grid=7)
    with pytest.raises(DomainError):
        max_modulus_on_circle(np.array([1.0, 1.0]), grid=MAX_GRID + 1)
    with pytest.raises(DomainError):
        sup_oracle(np.array([1.0]), 0)


@pytest.mark.parametrize(
    ("coeffs", "index"),
    [
        ([math.inf], 0),
        ([1.0, math.inf], 1),
        ([math.nan, 1.0], 0),
        ([1.0, complex(0.0, -math.inf)], 1),
    ],
)
def test_rejects_non_finite_coefficient(coeffs, index):
    with pytest.raises(DomainError, match=rf"coefficient of z\^{index} is not finite"):
        max_modulus_on_circle(coeffs)


def test_production_vs_oracle_random():
    rng = np.random.default_rng(123)
    for _ in range(60):
        degree = int(rng.integers(0, 65))
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        c /= max(1.0, np.abs(c).sum())
        produced, _ = max_modulus_on_circle(c)
        sampled = sup_oracle(c, 1 << 18)
        assert abs(produced - sampled) <= 1e-6
        assert produced >= sampled - 1e-9  # refinement never loses ground


def test_oracle_folding_matches_direct_evaluation():
    # grid smaller than the coefficient count still samples exactly
    rng = np.random.default_rng(7)
    c = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    grid = 16
    angles = 2.0 * math.pi * np.arange(grid) / grid
    direct = max(
        abs(sum(ck * np.exp(1j * e * t) for e, ck in enumerate(c))) for t in angles
    )
    assert abs(sup_oracle(c, grid) - direct) < 1e-9


def _random_poly(seed: int, degree: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)


def _assert_enclosed(value: float, c: np.ndarray) -> None:
    # |P|^2 is a trigonometric polynomial of degree d, so Bernstein's
    # inequality bounds the true supremum by oracle / sqrt(1 - (pi d/N)^2/2)
    oracle = sup_oracle(c, ORACLE_POINTS)
    degree = c.size - 1
    upper = oracle / math.sqrt(1.0 - (degree * math.pi / ORACLE_POINTS) ** 2 / 2.0)
    assert oracle * (1.0 - 1e-6) <= value <= upper * (1.0 + 1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_coarse_grid_below_degree_is_not_low(seed):
    # grid 64 under degree 200 used to read 5.5 % (seed 0) and 10.6 % (seed 1) low
    c = _random_poly(seed, 200)
    value, _ = max_modulus_on_circle(c, grid=64)
    _assert_enclosed(value, c)


def _direct_modulus(c, theta: float) -> float:
    terms = (ck * complex(math.cos(k * theta), math.sin(k * theta)) for k, ck in enumerate(c))
    return abs(sum(terms))


@pytest.mark.parametrize("degree", [0, 1, 7, 64, 255, 2048])
def test_enclosure_and_direct_value_over_grids(degree):
    c = _random_poly(degree, degree)
    scale = float(np.abs(c).sum())
    for grid in (8, 64, 1000, 4096):
        value, theta = max_modulus_on_circle(c, grid=grid)
        _assert_enclosed(value, c)
        # never below the requested grid's samples; the two FFT lengths round apart
        assert value >= sup_oracle(c, grid) - 4 * np.finfo(float).eps * scale
        assert 0.0 <= theta < 2.0 * math.pi
        # the value is |P| at the returned angle, summed term by term without an FFT
        assert abs(value - _direct_modulus(c, theta)) <= 1e-12 * scale


@pytest.mark.parametrize("k", [1, 4, 8])
def test_monomial_takes_the_flat_exit(k):
    c = np.zeros(k + 1, dtype=complex)
    c[k] = 0.6 - 0.8j
    value, _ = max_modulus_on_circle(c, grid=1 << 16)
    assert abs(value - 1.0) < 1e-14


def test_tiny_variation_is_not_flat():
    value, theta = max_modulus_on_circle(np.array([1.0, 1e-9]))
    assert abs(value - (1.0 + 1e-9)) <= 1e-15 * (1.0 + 1e-9)
    assert min(theta, 2 * math.pi - theta) < 1e-6


def _family(kind: str, degree: int, rng) -> np.ndarray:
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    if kind == "dominant":
        c[0] = 10.0 * (degree + 1)
    elif kind == "decaying":
        c *= 0.7 ** np.arange(degree + 1)
    elif kind == "ripple":
        c *= 1e-3
        c[0] += 1.0
    return c


FAMILIES = ("gaussian", "dominant", "decaying", "ripple")


@pytest.mark.parametrize("kind", FAMILIES)
def test_newton_refinement_inside_dense_enclosure(kind):
    # the 2^20-sample maximum and its Bernstein inflation enclose the true
    # supremum; rounding of the two evaluation routes is allowed at 1e-12
    rng = np.random.default_rng(FAMILIES.index(kind))
    for degree in (1, 5, 40, 300, 3000, *rng.integers(2, 1000, size=8)):
        c = _family(kind, int(degree), rng)
        oracle = sup_oracle(c, ORACLE_POINTS)
        upper = oracle / math.sqrt(1.0 - (degree * math.pi / ORACLE_POINTS) ** 2 / 2.0)
        for grid in (8, 64, 4096):
            value, _ = max_modulus_on_circle(c, grid=grid)
            assert oracle * (1.0 - 1e-12) <= value <= upper * (1.0 + 1e-12), (int(degree), grid)


@pytest.mark.parametrize("kind", FAMILIES + ("near-monomial",))
def test_curvature_bound_covers_sampled_second_derivative(kind):
    # T'' = 2(|p'|^2 + Re(conj(p) p'')) sampled by FFT must never exceed the bound
    rng = np.random.default_rng(100 + (FAMILIES + ("near-monomial",)).index(kind))
    for degree in (1, 3, 30, 400):
        if kind == "near-monomial":
            c = 1e-12 * _family("gaussian", degree, rng)
            c[1 % (degree + 1)] = 1.0
        else:
            c = _family(kind, degree, rng)
        k = np.arange(degree + 1)
        p, dp, d2p = (np.fft.fft(np.conj(w), 1 << 14).conj() for w in (c, 1j * k * c, -(k * k) * c))
        sampled = np.max(np.abs(2.0 * (np.abs(dp) ** 2 + (np.conj(p) * d2p).real)))
        assert sampled <= _curvature_bound(c)


def test_large_coefficients_do_not_overflow():
    # |p|^2 of 1e300 data exceeds a float; the power-of-two scaling keeps it finite
    c = np.full(50, 1e300, dtype=complex)
    with np.errstate(all="raise"):
        value, theta = max_modulus_on_circle(c, grid=64)
    assert value == pytest.approx(5e301, rel=1e-13)
    assert min(theta, 2 * math.pi - theta) < 1e-9
