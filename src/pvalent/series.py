"""Truncated p-valent power series and the blended Salagean operator.

A p-valent function is stored as the coefficient list of

    f(z) = z^p + sum_{k=n}^{K} a_{k+p} z^{k+p}

with the unit leading coefficient implicit and K the truncation order.
Differentiating m times (m < p), iterating the normalised derivative
D: s -> z s'(z) / (p - m), and blending the iterate with its own scaled
derivative gives the operator family

    B(f) = (1 - lam) D^omega f^(m) + (lam z / (p - m)) (D^omega f^(m))'.

On coefficients this multiplies a_{k+p} by the weight

    W(k) = (k+p)! (k+p-m)^omega (1 + lam k/(p-m)) / ((p-m)^omega (k+p-m)!)

while the leading term p!/(p-m)! z^{p-m} is fixed.  The derivative-side
weight (k+p-m) W(k) appears when B(f)' is divided by z^{p-m-1}.

All types are immutable values; every operation is a pure function, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

#: Coefficientwise equality tolerance: absolute 1e-10 or relative 1e-9,
#: whichever is looser (weights grow large at high truncation orders).
COEFF_ABS_TOL = 1e-10
COEFF_REL_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


def complex_close(x: complex, y: complex) -> bool:
    """Coefficientwise equality at the package-wide tolerance."""
    return abs(x - y) <= max(COEFF_ABS_TOL, COEFF_REL_TOL * max(abs(x), abs(y)))


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the interval [-pi, pi)."""
    w = math.fmod(theta + math.pi, _TWO_PI)
    if w < 0.0:
        w += _TWO_PI
    return w - math.pi


def phase_gap_radical(alpha: float, beta: float) -> float:
    """sqrt(2 [1 - cos(alpha - beta)]), the modulus of e^{i alpha} - e^{i beta}."""
    # half-angle form; stays accurate when alpha is close to beta
    return 2.0 * abs(math.sin(0.5 * wrap_angle(alpha - beta)))


def falling_factorial(top: int, count: int) -> int:
    """top!/(top-count)!, the product top (top-1) ... (top-count+1) of `count` factors.

    An exact integer (`math.perm`), never formed from full factorials, so
    the float conversion downstream rounds at most once.
    """
    if count < 0:
        raise DomainError("falling_factorial: count must be nonnegative")
    return math.perm(top, count)


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_finite_float(value, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(out):
        raise DomainError(f"{name} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class MultivalentFunction:
    """Truncated element of the class of p-valent functions.

    `coeffs[i]` is the coefficient a_{k+p} for k = n + i.  The list may be
    empty, meaning f(z) = z^p.  The leading coefficient of z^p is exactly 1
    and is not stored.
    """

    p: int
    n: int
    coeffs: tuple[complex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "p", _require_int(self.p, "p"))
        object.__setattr__(self, "n", _require_int(self.n, "n"))
        if self.p < 1:
            raise DomainError(f"valence p must be >= 1, got {self.p}")
        if self.n < 1:
            raise DomainError(f"starting index n must be >= 1, got {self.n}")
        coeffs = tuple(map(complex, self.coeffs))
        # any inf or nan makes the sum non-finite, and so can finite entries
        # summing past the float range: only then look entry by entry
        if not cmath.isfinite(sum(coeffs)):
            for i, c in enumerate(coeffs):
                if not cmath.isfinite(c):
                    raise DomainError(f"coefficient at k={self.n + i} is not finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def truncation_order(self) -> int:
        """Largest stored perturbation index K (n - 1 when the list is empty)."""
        return self.n + len(self.coeffs) - 1

    def coefficient(self, k: int) -> complex:
        """a_{k+p} for perturbation index k; exact zero outside the stored range."""
        if self.n <= k <= self.truncation_order:
            return self.coeffs[k - self.n]
        return 0j

    def support(self) -> range:
        return range(self.n, self.truncation_order + 1)


@dataclass(frozen=True)
class OperatorParams:
    """Knobs of the blended operator: blend weight lam in [0,1], derivative
    order m >= 0 and iteration count omega >= 0.  Pairing with a function of
    valence p additionally requires p > m."""

    lam: float = 0.0
    m: int = 0
    omega: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", _require_finite_float(self.lam, "lam"))
        object.__setattr__(self, "m", _require_int(self.m, "m"))
        object.__setattr__(self, "omega", _require_int(self.omega, "omega"))
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lam must lie in [0, 1], got {self.lam}")
        if self.m < 0:
            raise DomainError(f"derivative order m must be >= 0, got {self.m}")
        if self.omega < 0:
            raise DomainError(f"iteration count omega must be >= 0, got {self.omega}")

    def require_valence(self, p: int) -> None:
        if p <= self.m:
            raise DomainError(f"operator needs p > m, got p={p}, m={self.m}")


@dataclass(frozen=True)
class NeighborhoodParams:
    """Phase twists alpha, beta (radians) and radius delta > 0.

    Only alpha - beta reduced to [-pi, pi) enters thresholds; the raw angles
    enter the phase twists e^{i alpha}, e^{i beta}.
    """

    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _require_finite_float(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _require_finite_float(self.beta, "beta"))
        object.__setattr__(self, "delta", _require_finite_float(self.delta, "delta"))
        if self.delta <= 0.0:
            raise DomainError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite complex power series with an explicit leading monomial.

    The leading term is kept separate from the tail because every criterion
    in this package treats it separately.  Tail exponents are strictly
    increasing and strictly larger than `lead_exp`; zero tail coefficients
    are allowed (storage is dense over the source function's support).
    """

    lead_exp: int
    lead_coeff: complex
    tail: tuple[tuple[int, complex], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lead_exp", _require_int(self.lead_exp, "lead_exp"))
        if self.lead_exp < 0:
            raise DomainError(f"lead_exp must be >= 0, got {self.lead_exp}")
        lead = complex(self.lead_coeff)
        if not cmath.isfinite(lead):
            raise DomainError("lead_coeff is not finite")
        object.__setattr__(self, "lead_coeff", lead)
        tail = []
        prev = self.lead_exp
        for e, c in self.tail:
            e = _require_int(e, "tail exponent")
            c = complex(c)
            if e <= prev:
                raise DomainError(f"tail exponents must increase strictly past {prev}, got {e}")
            if not cmath.isfinite(c):
                raise DomainError(f"tail coefficient at exponent {e} is not finite")
            tail.append((e, c))
            prev = e
        object.__setattr__(self, "tail", tuple(tail))

    @classmethod
    def _trusted(
        cls, lead_exp: int, lead_coeff: complex, tail: tuple[tuple[int, complex], ...]
    ) -> TruncatedSeries:
        """Build without validation from values the caller has already checked:
        Python ints and finite Python complexes, exponents increasing past
        `lead_exp`."""
        s = object.__new__(cls)
        object.__setattr__(s, "lead_exp", lead_exp)
        object.__setattr__(s, "lead_coeff", lead_coeff)
        object.__setattr__(s, "tail", tail)
        return s

    def terms(self):
        """Yield (exponent, coefficient) pairs, leading term first."""
        yield self.lead_exp, self.lead_coeff
        yield from self.tail

    @property
    def max_exponent(self) -> int:
        return self.tail[-1][0] if self.tail else self.lead_exp

    def dense_coefficients(self) -> np.ndarray:
        """Ascending dense complex coefficient array, index = exponent."""
        arr = np.zeros(self.max_exponent + 1, dtype=np.complex128)
        arr[self.lead_exp] = self.lead_coeff
        for e, c in self.tail:
            arr[e] = c
        return arr


# ---------------------------------------------------------------------------
# operator weights
# ---------------------------------------------------------------------------


#: Every integer up to 2^53 is a float, so a product of such integers formed
#: in float arithmetic is exact as long as every partial product stays below it.
_EXACT_INT = 2**53

#: Below this many indices the per-index integer loop beats numpy's fixed cost.
_ARRAY_MIN_TERMS = 32


def _weight_pass(ks: range, p: int, params: OperatorParams, derivative: bool) -> np.ndarray:
    """Value-side (or derivative-side) weights for every k in `ks`, in one pass.

    Each weight divides the exact integers (k+p)!/(k+p-m)! (k+p-m)^omega and
    (p-m)^omega, so it rounds once, then applies the blend factor (and the
    derivative factor k+p-m) in that order.  For a range of at least
    `_ARRAY_MIN_TERMS` indices whose numerator at the largest k and k+p are
    below 2^53 (then so is (p-m)^omega, which is at most that numerator),
    the numerators are formed by repeated float multiplication over the whole
    range: every partial product is then an exact integer, and the one
    division rounds as the integer division does, so both routes give the
    same bits.  A weight too large for a float is a
    DomainError, never an OverflowError or an infinite weight.
    """
    m, omega, lam = params.m, params.omega, params.lam
    base = p - m
    if base < 1:
        raise DomainError(f"operator weights need p > m, got p={p}, m={m}")
    if ks:
        _require_float_weight(ks[-1], p, m, omega)
    den = base**omega
    perm = math.perm
    top = max(ks[0], ks[-1]) if ks else 0
    if (
        len(ks) >= _ARRAY_MIN_TERMS
        and min(ks[0], ks[-1]) >= 0
        and top + p < _EXACT_INT
        and perm(top + p, m) * (top + base) ** omega < _EXACT_INT
    ):
        k = np.arange(ks.start, ks.stop, ks.step, dtype=np.float64)
        shifted = k + base
        num = np.ones_like(k)
        for j in range(m):
            num *= k + (p - j)
        for _ in range(omega):
            num *= shifted
        out = num / den * (1.0 + lam * k / base)
        if derivative:
            out *= shifted
        return out
    try:
        out = [
            (perm(k + p, m) * (k + p - m) ** omega / den) * (1.0 + lam * k / base) for k in ks
        ]
        if derivative:
            out = [w * (k + p - m) for k, w in zip(ks, out)]
        if not out or max(out) < math.inf:
            return np.array(out, dtype=np.float64)
    except OverflowError:
        pass
    raise _weight_overflow(p, m, omega)


def _weight_overflow(p: int, m: int, omega: int) -> DomainError:
    return DomainError(f"operator weight overflows a float (p={p}, m={m}, Omega={omega})")


def _require_float_weight(k: int, p: int, m: int, omega: int) -> None:
    """Raise the weight overflow before any exact power when W(k) cannot be a float.

    log2 W(k) is at least omega log2((k+p-m)/(p-m)) for k >= 1, every other
    factor being >= 1; past 1025 no float holds it, and for a huge omega the
    exact powers would not finish.  Divided, not multiplied, so a huge
    integer omega is never converted to a float.
    """
    base = p - m
    if k > 0 and omega > 1025 / math.log2((k + base) / base):
        raise _weight_overflow(p, m, omega)


def blend_weight(k: int | range, p: int, params: OperatorParams) -> float | list[float]:
    """Weight multiplying a_{k+p} in the blended operator image (value side).

    Given a range of indices instead of one, returns the list of their
    weights, computed in one pass.
    """
    if isinstance(k, range):
        return _weight_pass(k, p, params, derivative=False).tolist()
    return _weight_pass(range(k, k + 1), p, params, derivative=False).item()


def blend_derivative_weight(
    k: int | range, p: int, params: OperatorParams
) -> float | list[float]:
    """Weight multiplying a_{k+p} in the normalised derivative of the image.

    Equal to (k+p-m) times `blend_weight`; a range of indices gives a list.
    """
    if isinstance(k, range):
        return _weight_pass(k, p, params, derivative=True).tolist()
    return _weight_pass(range(k, k + 1), p, params, derivative=True).item()


def exact_blend_weight(k: int, p: int, params: OperatorParams) -> Fraction:
    """Exact rational value of `blend_weight` (lam taken at its binary value).

    Independent big-integer route used to cross-check the floating-point
    weights; never used on the hot path.  Where omega log2((k+p-m)/(p-m))
    exceeds 1025, so that no float holds the weight, it raises the
    DomainError `blend_weight` raises, before any power is formed.
    """
    base = p - params.m
    if base < 1:
        raise DomainError(f"exact_blend_weight needs p > m, got p={p}, m={params.m}")
    _require_float_weight(k, p, params.m, params.omega)
    core = Fraction(
        falling_factorial(k + p, params.m) * (k + p - params.m) ** params.omega,
        base**params.omega,
    )
    return core * (1 + Fraction(params.lam) * k / base)


def exact_blend_derivative_weight(k: int, p: int, params: OperatorParams) -> Fraction:
    return exact_blend_weight(k, p, params) * (k + p - params.m)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def mth_derivative(f: MultivalentFunction, m: int) -> TruncatedSeries:
    """Differentiate f m times termwise.

    Result: p!/(p-m)! z^{p-m} + sum_k (k+p)!/(k+p-m)! a_{k+p} z^{k+p-m}.
    Rejects m >= p (the leading term would vanish or blow up).
    """
    m = _require_int(m, "m")
    if m < 0:
        raise DomainError(f"derivative order must be >= 0, got {m}")
    if m >= f.p:
        raise DomainError(f"derivative order m={m} must be below the valence p={f.p}")
    lead = float(falling_factorial(f.p, m))
    tail = tuple(
        (k + f.p - m, falling_factorial(k + f.p, m) * f.coefficient(k))
        for k in f.support()
    )
    return TruncatedSeries(f.p - m, lead, tail)


def salagean_iterate(s: TruncatedSeries, order: int, p: int, m: int) -> TruncatedSeries:
    """Apply the normalised derivative D: s -> z s'/(p-m) `order` times.

    Expects a series shaped like an m-th derivative of a p-valent function
    (leading exponent p - m); each term at z^e is multiplied by
    (e/(p-m))^order, which fixes the leading term exactly.
    """
    order = _require_int(order, "order")
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    base = p - m
    if base < 1:
        raise DomainError(f"salagean_iterate needs p > m, got p={p}, m={m}")
    if s.lead_exp != base:
        raise DomainError(
            f"series has leading exponent {s.lead_exp}, expected p - m = {base}"
        )
    if order == 0:
        return s
    den = base**order
    scaled = tuple((e, c * (e**order / den)) for e, c in s.tail)
    return TruncatedSeries(s.lead_exp, s.lead_coeff * (base**order / den), scaled)


def _weighted_products(w: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """w_k (re_k + i im_k) formed as CPython forms float * complex, (w re - 0.0 im,
    w im + 0.0 re), from separate real operations: the bits, signed zeros included,
    of w_k * complex(re_k, im_k).  A product past the float range is left non-finite."""
    out = np.empty(len(w), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = w * re - 0.0 * im
        out.imag = w * im + 0.0 * re
    return out


def _image_tail(w: np.ndarray, c: np.ndarray, start: int) -> np.ndarray:
    """The image products w_k c_k of complex coefficients c (`w` as long or longer),
    the first at exponent `start`; one past the float range is a DomainError."""
    tail = _weighted_products(w[: c.size], c.real, c.imag)
    bad = np.flatnonzero(~np.isfinite(tail))
    if bad.size:
        raise DomainError(f"tail coefficient at exponent {start + bad[0]} is not finite")
    return tail


def _image_series(
    f: MultivalentFunction, params: OperatorParams, order: int, shift: int
) -> TruncatedSeries:
    """z^shift times the order-th derivative of f's blended image over
    z^{p-m-order}, built unvalidated: p!/(p-m-order)! at exponent `shift`."""
    params.require_valence(f.p)
    w = _weight_pass(f.support(), f.p, params, derivative=bool(order))
    start = f.n + shift
    c = np.array(f.coeffs, dtype=np.complex128)
    tail = tuple(enumerate(_image_tail(w, c, start).tolist(), start))
    lead = complex(float(falling_factorial(f.p, params.m + order)))
    return TruncatedSeries._trusted(shift, lead, tail)


def salagean_blend(f: MultivalentFunction, params: OperatorParams) -> TruncatedSeries:
    """The blended operator image of f^(m), computed directly from the weights."""
    return _image_series(f, params, 0, f.p - params.m)


def blend_normalized(f: MultivalentFunction, params: OperatorParams) -> TruncatedSeries:
    """Blended image divided by z^{p-m}: a polynomial with constant term p!/(p-m)!."""
    return _image_series(f, params, 0, 0)


def blend_derivative_normalized(
    f: MultivalentFunction, params: OperatorParams
) -> TruncatedSeries:
    """Derivative of the blended image divided by z^{p-m-1}.

    A polynomial with constant term p!/(p-m-1)! whose z^k coefficient is
    (k+p-m) W(k) a_{k+p}.  Requires p > m so that p - m - 1 >= 0.
    """
    return _image_series(f, params, 1, 0)


def polyval(coeffs, z: complex) -> complex:
    """Horner evaluation of sum_e coeffs[e] z^e, coefficients ascending from z^0."""
    z = complex(z)
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def evaluate(s: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the full polynomial, leading term included."""
    return polyval(s.dense_coefficients().tolist(), z)
