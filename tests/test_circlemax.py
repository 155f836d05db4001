"""Boundary maximum machinery against the independent dense-sampling oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pvalent import (
    DomainError,
    MultivalentFunction,
    NeighborhoodParams,
    OperatorParams,
    max_modulus_on_circle,
    membership_m,
    membership_n,
    sup_oracle,
    transfer_check,
)
from pvalent.circlemax import (
    ANGLE_RESOLUTION,
    EVAL_CHUNK,
    MAX_GRID,
    SAMPLES_PER_DEGREE,
    _bracket_centers,
    _curvature_bound,
    _unscaled,
)

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


_PAIR = (MultivalentFunction(1, 1, (0.5,)), MultivalentFunction(1, 1), OperatorParams(),
         NeighborhoodParams(0.0, 0.0, 2.0))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: max_modulus_on_circle([1.0, 1.0], 16.0), "grid must be an integer, got 16.0"),
        (lambda: max_modulus_on_circle([1.0, 1.0], None), "grid must be an integer, got None"),
        (lambda: max_modulus_on_circle([1.0, 1.0], [64]), r"grid must be an integer, got \[64\]"),
        (lambda: membership_n(*_PAIR, grid=9.5), "grid must be an integer, got 9.5"),
        (lambda: membership_m(*_PAIR, grid=[64]), r"grid must be an integer, got \[64\]"),
        (lambda: transfer_check(*_PAIR, grid="64"), "grid must be an integer, got '64'"),
        (lambda: max_modulus_on_circle(np.ones((2, 2))), "numeric array, got 2-D float64"),
        (lambda: max_modulus_on_circle(["a"]), "1-D numeric array, got 1-D"),
        (lambda: max_modulus_on_circle([[1.0], [1.0, 2.0]]), "1-D numeric array, got 1-D"),
        (lambda: max_modulus_on_circle([True, False]), "1-D numeric array, got 1-D"),
        (lambda: sup_oracle([math.nan, 1.0], 8), r"coefficient of z\^0 is not finite"),
        (lambda: sup_oracle([1.0, 1.0], 2.5), "grid must be an integer, got 2.5"),
        (lambda: sup_oracle([1.0, 1.0], "x"), "grid must be an integer, got 'x'"),
        (lambda: sup_oracle(np.ones((2, 2)), 8), "numeric array, got 2-D float64"),
        (lambda: sup_oracle(["a"], 8), "1-D numeric array, got 1-D"),
    ],
)
def test_supremum_inputs_that_are_not_an_integer_grid_or_a_numeric_vector(call, message):
    with pytest.raises(DomainError, match=message) as info:
        call()
    assert type(info.value) is DomainError


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


def _full_fft_oracle(coeffs, grid: int) -> float:
    """Reference: the folded coefficients zero-padded to `grid`, one long FFT."""
    c = np.asarray(coeffs, dtype=np.complex128)
    folded = np.zeros(grid, dtype=np.complex128)
    np.add.at(folded, np.arange(c.size) % grid, c)
    return float(np.abs(np.fft.fft(folded)).max())


ORACLE_GRIDS = (1 << 18, 1 << 20, 4096, 1000, 997, 16, 1)


@pytest.mark.parametrize("degree", [0, 1, 5, 64, 65, 300, 3000])
def test_oracle_matches_single_fft_reference(degree):
    # 16 and 1 fold every degree above them; 997 is prime, so its one row is
    # the whole grid; 1000 has rows of 100, 500 and 1000 samples
    rng = np.random.default_rng(degree)
    for grid in ORACLE_GRIDS:
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        scale = float(np.abs(c).sum())
        assert abs(sup_oracle(c, grid) - _full_fft_oracle(c, grid)) <= 1e-14 * scale


@pytest.mark.parametrize("degree", [5, 64, 65, 300, 3000])
def test_oracle_reaches_every_sample(degree):
    # c_k = w^{-jk}, w = e^{-2 pi i/grid}, sums to d+1 at sample j alone; its
    # neighbours read below d+1 by more than 1e-10 relative, so a sample that a
    # mis-indexed row or column skips or misplaces shows.  Sample L b + a is
    # entry b of row a, with L = grid / (row length) rows.
    grid = 1 << 18
    rows = grid // max(64, 1 << degree.bit_length())
    k = np.arange(degree + 1)
    for j in (0, 1, rows - 1, rows, 123457, grid - 1):
        c = np.exp((2j * math.pi / grid) * ((j * k) % grid))
        assert sup_oracle(c, grid) == pytest.approx(degree + 1, rel=1e-13, abs=0.0)


def test_oracle_empty_input_and_grid_below_one():
    for grid in (1, 16, 1 << 18):
        assert sup_oracle(np.array([], dtype=complex), grid) == 0.0
        assert sup_oracle([], grid) == 0.0
    for grid in (0, -3):
        with pytest.raises(DomainError, match=rf"grid must be >= 1, got {grid}"):
            sup_oracle(np.array([1.0]), grid)
        with pytest.raises(DomainError):
            sup_oracle([], grid)


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


@pytest.mark.parametrize(
    "values, centers",
    [([5.0, 1.0, 2.0, 1.0, 5.0], [4, 2]), ([5.0, 5.0, 1.0, 2.0, 1.0, 5.0], [5, 3])],
)
def test_plateau_across_the_seam_gives_one_center(values, centers):
    # the plateau runs from the last sample on to the first: one bracket, not two
    values = np.array(values)
    assert _bracket_centers(values, np.ones(values.size, bool)) == centers


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


def _reference_max_modulus(coeffs, grid: int) -> tuple[float, float]:
    """The refinement as whole-array numpy steps over all live brackets: the
    bitwise reference for the scalar bookkeeping of `max_modulus_on_circle`."""
    c = np.ascontiguousarray(coeffs, dtype=np.complex128)
    degree = int(np.flatnonzero(c)[-1])
    exponent = math.frexp(float(np.max(np.abs(c[: degree + 1].view(np.float64)))))[1]
    c = np.ldexp(c[: degree + 1].view(np.float64), -exponent).view(np.complex128)
    n = grid
    while n < SAMPLES_PER_DEGREE * degree:
        n *= 2
    step = math.tau / n
    vals = np.abs(np.fft.fft(np.conj(c), n))
    raw_best = int(np.argmax(vals))
    best = float(vals[raw_best])
    theta = step * raw_best
    if np.ptp(vals) <= 8.0 * np.finfo(float).eps * float(np.abs(c).sum()):
        return _unscaled(best, exponent), theta

    bernstein = degree * degree * best * best / (1.0 - (math.pi * degree / n) ** 2 / 2.0)
    curvature = min(_curvature_bound(c), bernstein)
    slack = 0.5 * curvature * (step / 2.0) ** 2
    keep = vals * vals + slack >= best * best
    cand = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)) & keep)
    runs = np.split(cand, np.flatnonzero(np.diff(cand) > 1) + 1)
    if len(runs) > 1 and cand[0] == 0 and cand[-1] == vals.size - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs.pop()
    x = np.array([run[np.argmax(vals[run])] for run in runs]) * step
    lo, hi = x - step, x + step
    last = np.full(x.size, step)
    k = np.arange(degree + 1)
    table = np.stack([c, 1j * k * c, -(k * k) * c], axis=1)
    rows = max(1, EVAL_CHUNK // table.shape[0])
    for _ in range(max(1, math.ceil(math.log2(step / ANGLE_RESOLUTION)) + 1)):
        p, dp, d2p = np.concatenate([
            np.exp(1j * np.outer(x[i : i + rows], k)) @ table for i in range(0, x.size, rows)
        ]).T
        mod = np.abs(p)
        top = int(np.argmax(mod))
        if mod[top] > best:
            best, theta = float(mod[top]), float(x[top] % math.tau)
        t0 = mod * mod
        t1 = 2.0 * (p.real * dp.real + p.imag * dp.imag)
        t2 = 2.0 * (dp.real**2 + dp.imag**2 + p.real * d2p.real + p.imag * d2p.imag)
        rising = t1 > 0.0
        lo = np.where(rising, x, lo)
        hi = np.where(rising, hi, x)
        newton = -t1 / np.where(t2 < 0.0, t2, -1.0)
        target = x + newton
        take = (t2 < 0.0) & (target >= lo) & (target <= hi) & (2.0 * np.abs(newton) <= last)
        target = np.where(take, target, 0.5 * (lo + hi))
        last = np.abs(target - x)
        reach = t0 + np.maximum(
            t1 * (lo - x) + 0.5 * curvature * (lo - x) ** 2,
            t1 * (hi - x) + 0.5 * curvature * (hi - x) ** 2,
        )
        live = (last >= ANGLE_RESOLUTION) & (reach >= best * best)
        if not live.any():
            break
        x, lo, hi, last = target[live], lo[live], hi[live], last[live]
    return _unscaled(best, exponent), theta


@pytest.mark.parametrize("kind", FAMILIES + ("many-bracket",))
def test_refinement_matches_array_reference_bitwise(kind):
    # 1 + 1e-9 z^{d/2} + z^d holds d/2 near-equal maxima, so many brackets
    # stay live for several rounds
    rng = np.random.default_rng(200 + (FAMILIES + ("many-bracket",)).index(kind))
    for degree in (1, 3, 5, 11, 40, 64, 300):
        if kind == "many-bracket":
            c = np.zeros(degree + 1, dtype=complex)
            c[0] = 1.0
            c[degree // 2] += 1e-9
            c[degree] += 1.0
        else:
            c = _family(kind, degree, rng)
        for grid in (8, 64, 1000, 4096):
            value, theta = max_modulus_on_circle(c, grid=grid)
            assert (value, theta) == _reference_max_modulus(c, grid), (degree, grid)
