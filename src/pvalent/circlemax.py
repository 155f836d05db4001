"""Maximum modulus of a polynomial on the unit circle.

One FFT samples the boundary modulus on a coarse grid of at least eight
points per unit of degree.  A curvature bound on T = |p|^2 discards every
sample bracket that cannot hold the maximum, and a safeguarded Newton
iteration on T' then refines the surviving brackets together, evaluating
p, p' and p'' directly in one product per round.  A bracket leaves the
iteration once its Newton step is below 1e-10 or once its curvature bound
falls below the best value found.  For polynomial data the boundary
maximum equals the supremum over the open disk (maximum-modulus
principle), so this routine also computes disk suprema.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

DEFAULT_GRID = 4096
MIN_GRID = 8
#: largest requested grid; the coarse grid may still grow past it with the degree
MAX_GRID = 1 << 22
ANGLE_RESOLUTION = 1e-10
#: coarse samples per unit of degree
SAMPLES_PER_DEGREE = 8
#: cap on probes x coefficients in one direct evaluation, bounding its memory
EVAL_CHUNK = 1 << 16

_EPS = float(np.finfo(float).eps)
_TWO_PI = 2.0 * math.pi


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), with unit roundoff u = eps/2."""
    return k * _EPS / (2.0 - k * _EPS)


def _curvature_bound(c: np.ndarray) -> float:
    """An upper bound on max_t |T''(t)| for T = |p(e^{it})|^2.

    T is the trigonometric polynomial with coefficients the autocorrelation
    T^_j = sum_l c_{l+j} conj(c_l), so |T''| <= sum_j j^2 |T^_j|.  One FFT of
    a power-of-two size N > 2d gives T^ without aliasing.  Higham (Accuracy
    and Stability of Numerical Algorithms, 2002, Thm 24.2) bounds a computed
    FFT by ||fl(Fx) - Fx||_2 <= e ||Fx||_2 with e = t eta / (1 - t eta),
    t = log2 N and eta = u + gamma_4 (sqrt 2 + u) for twiddles accurate to u.
    Carrying that through |X|^2 and the inverse FFT bounds the error of each
    computed T^_j by s^2 (e (2 + e) + gamma_2 (1 + e)^2)
    + e (1 + e)(1 + gamma_2)(s_1 + e sqrt(N) s) s, with s = ||c||_2 and
    s_1 = ||c||_1; that times sum_j j^2 is added before the sum is rounded up.
    """
    degree = c.size - 1
    size = 1 << (2 * degree).bit_length()
    spectrum = np.fft.fft(c, size)
    acf = np.fft.ifft(spectrum.real**2 + spectrum.imag**2)[1 : degree + 1]
    j2 = np.arange(1, degree + 1, dtype=float) ** 2
    curvature = 2.0 * float(j2 @ np.abs(acf))
    tn = size.bit_length() - 1
    eta = _EPS / 2.0 + _gamma(4) * (math.sqrt(2.0) + _EPS / 2.0)
    e = tn * eta / (1.0 - tn * eta)
    s = float(np.linalg.norm(c))
    s1 = float(np.abs(c).sum())
    g2 = _gamma(2)
    per_term = s * (
        s * (e * (2.0 + e) + g2 * (1.0 + e) ** 2)
        + e * (1.0 + e) * (1.0 + g2) * (s1 + e * math.sqrt(size) * s)
    )
    margin = per_term * degree * (degree + 1) * (2 * degree + 1) / 3.0
    return (curvature + margin) * (1.0 + _gamma(degree + 2))


def _unscaled(value: float, exponent: int) -> float:
    """value * 2^exponent, infinite (not an error) past the float range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, exponent))


def _derivatives_at(table: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rows p, p', p'' (derivatives in t) at each angle, summed directly (no FFT).

    `table` holds the columns c_k, i k c_k and -k^2 c_k, so one chunked
    product exp(i t k) @ table gives all three.
    """
    powers = np.arange(table.shape[0])
    rows = max(1, EVAL_CHUNK // table.shape[0])
    return np.concatenate([
        np.exp(1j * np.outer(angles[i : i + rows], powers)) @ table
        for i in range(0, angles.size, rows)
    ]).T


def _bracket_centers(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Indices of circular local maxima among `keep`, one per plateau."""
    ge_prev = values >= np.roll(values, 1)
    ge_next = values >= np.roll(values, -1)
    cand = np.flatnonzero(ge_prev & ge_next & keep)
    breaks = np.flatnonzero(np.diff(cand) > 1)
    runs = np.split(cand, breaks + 1)
    if len(runs) > 1 and cand[0] == 0 and cand[-1] == values.size - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs.pop()
    return np.array([run[np.argmax(values[run])] for run in runs])


def max_modulus_on_circle(coeffs, grid: int = DEFAULT_GRID) -> tuple[float, float]:
    """Return (max_t |p(e^{it})|, argmax t in [0, 2 pi)) for ascending `coeffs`.

    `grid` is the minimum coarse grid: it is doubled until it holds at least
    8 samples per unit of degree d (the index of the last nonzero
    coefficient), so the samples of the requested grid stay among those
    taken.  The coefficients are scaled by a power of two before any square
    is formed and the result is scaled back, so large data cannot overflow;
    a maximum beyond the float range is returned as inf.
    If the samples are flat to 8 eps sum |c_k| (constants, monomials), the
    best sample is returned.

    Otherwise T = |p|^2 is a trigonometric polynomial of degree d with
    |T''| <= M, where M is the smaller of the autocorrelation bound of
    `_curvature_bound` and Bernstein's d^2 B^2, B = best / sqrt(1 - (pi d/n)^2/2)
    bounding max |p| on a grid of n samples.  A local maximum within half a
    step of sample j is then at most vals[j]^2 + M (step/2)^2 / 2, and only
    the sample maxima whose bound reaches the best sample are refined.  Each
    refines on its two-step bracket by Newton steps on T', falling back to
    bisection on the sign of T' when T'' >= 0, when the step leaves the
    bracket or when it is not half the previous step.  A bracket stops once
    its step is below `ANGLE_RESOLUTION`, and is dropped once
    T + T' h + M h^2 / 2 over its ends h falls below the best value found;
    no bracket takes more rounds than bisection needs to shrink a step
    to `ANGLE_RESOLUTION`.  The reported value is never below the best
    sample.  Grids outside [8, 2^22] and non-finite coefficients are rejected.
    """
    if grid < MIN_GRID:
        raise DomainError(f"grid must be at least {MIN_GRID}, got {grid}")
    if grid > MAX_GRID:
        raise DomainError(f"grid must be at most {MAX_GRID}, got {grid}")
    c = np.ascontiguousarray(coeffs, dtype=np.complex128)
    if not np.isfinite(c).all():
        raise DomainError(f"coefficient of z^{np.flatnonzero(~np.isfinite(c))[0]} is not finite")
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        return 0.0, 0.0
    degree = int(nonzero[-1])
    # a power-of-two scale is exact, so the samples are those of the unscaled data
    exponent = math.frexp(float(np.max(np.abs(c[: degree + 1].view(np.float64)))))[1]
    c = np.ldexp(c[: degree + 1].view(np.float64), -exponent).view(np.complex128)
    n = grid
    while n < SAMPLES_PER_DEGREE * degree:
        n *= 2
    step = _TWO_PI / n
    # fft(conj c)[j] = conj p(e^{2 pi i j/n}); n > degree, so nothing folds
    vals = np.abs(np.fft.fft(np.conj(c), n))
    raw_best = int(np.argmax(vals))
    best = float(vals[raw_best])
    theta = step * raw_best
    if np.ptp(vals) <= 8.0 * _EPS * float(np.abs(c).sum()):
        return _unscaled(best, exponent), theta

    bernstein = degree * degree * best * best / (1.0 - (math.pi * degree / n) ** 2 / 2.0)
    curvature = min(_curvature_bound(c), bernstein)
    slack = 0.5 * curvature * (step / 2.0) ** 2
    x = _bracket_centers(vals, vals * vals + slack >= best * best) * step
    lo, hi = x - step, x + step
    last = np.full(x.size, step)
    k = np.arange(degree + 1)
    table = np.stack([c, 1j * k * c, -(k * k) * c], axis=1)
    for _ in range(max(1, math.ceil(math.log2(step / ANGLE_RESOLUTION)) + 1)):
        p, dp, d2p = _derivatives_at(table, x)
        mod = np.abs(p)
        top = int(np.argmax(mod))
        if mod[top] > best:
            best, theta = float(mod[top]), float(x[top] % _TWO_PI)
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
