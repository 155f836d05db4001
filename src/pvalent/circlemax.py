"""Maximum modulus of a polynomial on the unit circle.

One FFT samples the boundary modulus on a coarse grid of at least eight
points per unit of degree.  A bound from Bernstein's inequality discards
every sample bracket that cannot hold the maximum; golden-section searches
then shrink the surviving brackets together to an angular resolution of
1e-10, evaluating the polynomial directly at each probe.  For polynomial
data the boundary maximum equals the supremum over the open disk
(maximum-modulus principle), so this routine also computes disk suprema.
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
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI = 2.0 * math.pi


def _modulus_at(coeffs: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """|sum_k c_k e^{i k t}| at each angle t, summed directly (no FFT)."""
    powers = np.arange(coeffs.size)
    rows = max(1, EVAL_CHUNK // coeffs.size)
    return np.concatenate([
        np.abs(np.exp(1j * np.outer(angles[i : i + rows], powers)) @ coeffs)
        for i in range(0, angles.size, rows)
    ])


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
    taken.  If the samples are flat to 8 eps sum |c_k| (constants,
    monomials), the best sample is returned.  Otherwise |p|^2 is a
    trigonometric polynomial of degree d, and by Bernstein's inequality a
    local maximum within half a step of sample j is at most
    vals[j]^2 + d^2 B^2 (step/2)^2 / 2, with B = best / sqrt(1 - (pi d/n)^2/2)
    bounding max |p| on a grid of n samples.  Only the sample maxima whose
    bound reaches the best sample are refined, by golden-section search,
    until their brackets are narrower than `ANGLE_RESOLUTION`.  The reported
    value is never below the best sample.  Grids below 8 or above 2^22
    points are rejected.
    """
    if grid < MIN_GRID:
        raise DomainError(f"grid must be at least {MIN_GRID}, got {grid}")
    if grid > MAX_GRID:
        raise DomainError(f"grid must be at most {MAX_GRID}, got {grid}")
    c = np.asarray(coeffs, dtype=np.complex128)
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        return 0.0, 0.0
    degree = int(nonzero[-1])
    c = c[: degree + 1]
    n = grid
    while n < SAMPLES_PER_DEGREE * degree:
        n *= 2
    step = _TWO_PI / n
    # fft(conj c)[j] = conj p(e^{2 pi i j/n}); n > degree, so nothing folds
    vals = np.abs(np.fft.fft(np.conj(c), n))
    raw_best = int(np.argmax(vals))
    best = float(vals[raw_best])
    if np.ptp(vals) <= 8.0 * _EPS * float(np.abs(c).sum()):
        return best, step * raw_best

    bound = best / math.sqrt(1.0 - (math.pi * degree / n) ** 2 / 2.0)
    slack = 0.5 * (degree * bound * step / 2.0) ** 2
    reps = _bracket_centers(vals, vals * vals + slack >= best * best)
    lo = (reps - 1) * step
    hi = (reps + 1) * step
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = _modulus_at(c, x1)
    f2 = _modulus_at(c, x2)
    while float(np.max(hi - lo)) > ANGLE_RESOLUTION:
        left = f1 >= f2  # a maximum lies in [lo, x2]
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        # the kept interior point is reused; only the new golden point is evaluated
        probe = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        fprobe = _modulus_at(c, probe)
        x1, f1, x2, f2 = (
            np.where(left, probe, x2), np.where(left, fprobe, f2),
            np.where(left, x1, probe), np.where(left, f1, fprobe),
        )
    mid = 0.5 * (lo + hi)
    fmid = _modulus_at(c, mid)
    top = int(np.argmax(fmid))

    if best >= fmid[top]:
        return best, step * raw_best
    return float(fmid[top]), float(mid[top] % _TWO_PI)
