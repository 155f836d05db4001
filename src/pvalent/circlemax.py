"""Maximum modulus of a polynomial on the unit circle.

One FFT samples the boundary modulus on a coarse grid of at least eight
points per unit of degree.  A curvature bound on T = |p|^2 discards every
sample bracket that cannot hold the maximum, and a safeguarded Newton
iteration on T' then refines the surviving brackets: each round evaluates
p, p' and p'' at every live bracket in one direct product, then steps each
bracket in scalar float arithmetic (numpy's fixed cost per array operation
outweighs the work on a handful of brackets).  A bracket leaves the
iteration once its Newton step is below 1e-10 or once its curvature bound
falls below the best value found.  For polynomial data the boundary
maximum equals the supremum over the open disk (maximum-modulus
principle), so this routine also computes disk suprema.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .series import _coefficient_array, _require_int

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
    if angles.size <= rows:
        return (np.exp(1j * np.outer(angles, powers)) @ table).T
    return np.concatenate([
        np.exp(1j * np.outer(angles[i : i + rows], powers)) @ table
        for i in range(0, angles.size, rows)
    ]).T


def _bracket_centers(values: np.ndarray, keep: np.ndarray) -> list[int]:
    """Indices of circular local maxima among `keep`, one per plateau."""
    cand = np.flatnonzero(keep)
    at = values[cand]
    cand = cand[(at >= values[cand - 1]) & (at >= values[(cand + 1) % values.size])].tolist()
    runs: list[list[int]] = []
    for j in cand:
        if runs and j == runs[-1][-1] + 1:
            runs[-1].append(j)
        else:
            runs.append([j])
    if len(runs) > 1 and cand[0] == 0 and cand[-1] == values.size - 1:
        runs[0] = runs.pop() + runs[0]
    return [max(run, key=values.__getitem__) for run in runs]


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
    sample.  Grids that are not integers in [8, 2^22] and coefficients that
    are not a 1-D array of finite numbers are rejected.
    """
    grid = _require_int(grid, "grid")
    if grid < MIN_GRID:
        raise DomainError(f"grid must be at least {MIN_GRID}, got {grid}")
    if grid > MAX_GRID:
        raise DomainError(f"grid must be at most {MAX_GRID}, got {grid}")
    c = _coefficient_array(coeffs)
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
    step = math.tau / n
    # fft(conj c)[j] = conj p(e^{2 pi i j/n}); n > degree, so nothing folds
    vals = np.abs(np.fft.fft(np.conj(c), n))
    raw_best = int(np.argmax(vals))
    best = float(vals[raw_best])
    theta = step * raw_best
    if best - vals.min() <= 8.0 * _EPS * float(np.abs(c).sum()):
        return _unscaled(best, exponent), theta

    bernstein = degree * degree * best * best / (1.0 - (math.pi * degree / n) ** 2 / 2.0)
    curvature = min(_curvature_bound(c), bernstein)
    slack = 0.5 * curvature * (step / 2.0) ** 2
    half = 0.5 * curvature
    # (x, lo, hi, last step) of each live bracket; the scalar arithmetic below
    # repeats the IEEE operations of an elementwise array form in its order
    centers = [j * step for j in _bracket_centers(vals, vals * vals + slack >= best * best)]
    brackets = [(x, x - step, x + step, step) for x in centers]
    k = np.arange(degree + 1)
    table = np.stack([c, 1j * k * c, -(k * k) * c], axis=1)
    for _ in range(max(1, math.ceil(math.log2(step / ANGLE_RESOLUTION)) + 1)):
        p, dp, d2p = _derivatives_at(table, np.array([b[0] for b in brackets]))
        # numpy's complex modulus, which can round apart from Python's abs
        mods = np.abs(p).tolist()
        top = max(mods)
        if top > best:
            best, theta = top, brackets[mods.index(top)][0] % math.tau
        floor = best * best
        live = []
        for (x, lo, hi, last), pv, dv, d2v, mod in zip(
            brackets, p.tolist(), dp.tolist(), d2p.tolist(), mods
        ):
            t1 = 2.0 * (pv.real * dv.real + pv.imag * dv.imag)
            t2 = 2.0 * (
                dv.real * dv.real + dv.imag * dv.imag + pv.real * d2v.real + pv.imag * d2v.imag
            )
            if t1 > 0.0:
                lo = x
            else:
                hi = x
            newton = -t1 / (t2 if t2 < 0.0 else -1.0)
            target = x + newton
            if not (t2 < 0.0 and lo <= target <= hi and 2.0 * abs(newton) <= last):
                target = 0.5 * (lo + hi)
            last = abs(target - x)
            down, up = lo - x, hi - x
            reach = mod * mod + max(t1 * down + half * (down * down), t1 * up + half * (up * up))
            if last >= ANGLE_RESOLUTION and reach >= floor:
                live.append((target, lo, hi, last))
        if not live:
            break
        brackets = live
    return _unscaled(best, exponent), theta
