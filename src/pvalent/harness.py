"""Random instance generation, independent oracles and property suites.

Everything here is deterministic in the supplied seeds: instance draws use
`numpy` generators keyed on ``SeedSequence([seed, trial_index])``, so trials
are independent and could be evaluated in any order (or in parallel) without
changing a report.

The oracles are deliberately separate routes from the production code they
check: boundary suprema are re-computed by dense sampling of the folded
coefficients alone (every grid point, from a batch of short FFTs that skip
the zero padding), with none of the production path's bracket pruning or
refinement by direct evaluation, and operator weights are re-computed in
exact big-integer rationals instead of floating point.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import criteria
from .circlemax import DEFAULT_GRID, max_modulus_on_circle
from .errors import DomainError, FalsificationError
from .series import (
    MultivalentFunction,
    NeighborhoodParams,
    OperatorParams,
    TruncatedSeries,
    blend_derivative_normalized,
    blend_derivative_weight,
    blend_weight,
    complex_close,
    exact_blend_derivative_weight,
    exact_blend_weight,
    mth_derivative,
    polyval,
    salagean_blend,
    salagean_iterate,
)

_MASK64 = (1 << 64) - 1

GENERATOR_TARGETS = ("inside_sufficient_n", "inside_sufficient_m", "unconstrained")


#: Acceptance tolerances of the suites: the production boundary supremum
#: against the FFT oracle, the max-modulus lemma ratio, and verdicts under a
#: common rotation of both phase twists (relative).
SUP_COMPARE_TOL = 1e-6
LEMMA_TOL = 1e-6
VERDICT_REL_TOL = 1e-12


@dataclass(frozen=True)
class InstanceSpec:
    """Shape of a random instance; same spec (incl. seed) -> identical draws."""

    p: int
    n: int
    m: int
    omega: int
    lam: float
    trunc: int
    coeff_magnitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise DomainError("p and n must be >= 1")
        self.operator.require_valence(self.p)
        if self.trunc < self.n:
            raise DomainError(f"trunc={self.trunc} must be >= n={self.n}")
        if not self.coeff_magnitude > 0:
            raise DomainError("coeff_magnitude must be positive")

    @property
    def operator(self) -> OperatorParams:
        return OperatorParams(lam=self.lam, m=self.m, omega=self.omega)

    def to_dict(self) -> dict:
        return {**asdict(self), "seed": int(self.seed)}


def _rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _MASK64, *path]))


def _capped_gaussian(rng: np.random.Generator, count: int, cap: float) -> np.ndarray:
    """Complex Gaussian draws with magnitude clipped at `cap`."""
    vals = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * (0.5 * cap)
    mags = np.abs(vals)
    over = mags > cap
    vals[over] *= cap / mags[over]
    return vals


def _draw(spec: InstanceSpec, low: float):
    """Angles, coefficients b and twisted differences d, an extra in [low, 2.0)
    and a fraction in (0, 0.95], drawn in that order from the spec's seed."""
    rng = _rng_for(spec.seed)
    alpha = float(rng.uniform(-math.pi, math.pi))
    beta = alpha - float(rng.uniform(-math.pi, math.pi))
    count = spec.trunc - spec.n + 1
    b = _capped_gaussian(rng, count, spec.coeff_magnitude)
    d = _capped_gaussian(rng, count, spec.coeff_magnitude)
    extra = float(rng.uniform(low, 2.0))
    fraction = 0.95 * (1.0 - float(rng.random()))
    return alpha, beta, b, d, extra, fraction


def _rescaled(spec: InstanceSpec, family: criteria.Family, d, total: float):
    """d scaled so that the family's weighted sum of its moduli equals `total`."""
    weights = family.weights(range(spec.n, spec.trunc + 1), spec.p, spec.operator)
    mass = criteria._weighted_sum(weights, d.real, d.imag)
    if mass == 0.0:
        raise DomainError("degenerate draw: all difference coefficients vanish")
    return d * (total / mass)


def _instance(spec: InstanceSpec, alpha: float, beta: float, b, d, delta: float):
    """(f, g, nb) with e^{i alpha} a_k - e^{i beta} b_k equal to d_k."""
    ua = cmath.exp(1j * alpha)
    ub = cmath.exp(1j * beta)
    inv = ua.conjugate()  # 1/e^{i alpha} on the unit circle
    a = [inv * (ub * bk + tk) for bk, tk in zip(b, d)]
    return (
        MultivalentFunction(spec.p, spec.n, tuple(a)),
        MultivalentFunction(spec.p, spec.n, tuple(b)),
        NeighborhoodParams(alpha, beta, delta),
    )


def generate_pair(spec: InstanceSpec, target: str = "unconstrained"):
    """Draw an admissible (f, g, neighborhood-params) triple.

    For the ``inside_sufficient_*`` targets the twisted coefficient
    differences are rescaled so the corresponding sum lands at a uniform
    random fraction in (0, 0.95] of its threshold; delta is always drawn
    above the stricter published admissibility bound with margin >= 0.05.
    """
    if target not in GENERATOR_TARGETS:
        raise DomainError(f"unknown generator target {target!r}")
    alpha, beta, b, d, margin, fraction = _draw(spec, 0.05)
    delta = criteria.DERIVATIVE.bound(spec.p, spec.m, alpha, beta) + margin
    if target != "unconstrained":
        family = criteria.DERIVATIVE if target == "inside_sufficient_n" else criteria.VALUE
        # positive: the derivative-side bound is (p-m) >= 1 times the value-side one
        threshold = delta - family.bound(spec.p, spec.m, alpha, beta)
        d = _rescaled(spec, family, d, fraction * threshold)
    return _instance(spec, alpha, beta, b, d, delta)


def generate_transfer_pair(spec: InstanceSpec):
    """Draw a triple on which the transfer hypothesis is forced to hold.

    The hypothesis supremum is at most radical + (weighted sum), so scaling
    the weighted sum under fraction*(hypothesis threshold - radical) forces
    it, which requires delta (p+n-m) > 2 * radical; delta is drawn exactly
    there plus a uniform excess.
    """
    alpha, beta, b, d, excess, fraction = _draw(spec, 0.02)
    radical = criteria.DERIVATIVE.bound(spec.p, spec.m, alpha, beta)
    delta = (2.0 * radical + excess) / (spec.p + spec.n - spec.m)
    d = _rescaled(spec, criteria.DERIVATIVE, d, fraction * excess)
    return _instance(spec, alpha, beta, b, d, delta)


# ---------------------------------------------------------------------------
# independent boundary-sup oracle
# ---------------------------------------------------------------------------


#: Shortest row of the oracle's batched FFT.  Below it numpy's per-row cost
#: outweighs the shorter transforms: degree 0 and 1 ran slower than degree 64.
_ORACLE_MIN_ROW = 64


def _row_length(grid: int, size: int) -> int:
    """Smallest divisor of `grid` that is at least max(size, _ORACLE_MIN_ROW), or `grid`."""
    target = min(max(size, _ORACLE_MIN_ROW), grid)
    return next(m for m in range(target, grid + 1) if grid % m == 0)


def _roots_of_unity(exponents: np.ndarray, grid: int) -> np.ndarray:
    """e^{-2 pi i e / grid} for an integer array e, each from its own residue
    in [-grid/2, grid/2], so no error accumulates along e."""
    r = exponents % grid
    r = np.where(2 * r > grid, r - grid, r)
    return np.exp(r * (-2j * math.pi / grid))


def sup_oracle(coeffs, grid: int) -> float:
    """Max modulus on the unit circle by brute dense sampling, no refinement.

    `coeffs` is an ascending dense coefficient array.  The samples sit at
    the grid-th roots of unity w^t, w = e^{-2 pi i/grid}, where z^e =
    z^(e mod grid) exactly, so they are the length-`grid` DFT of the
    s = min(len(coeffs), grid) coefficients c_l folded mod grid.  All `grid`
    samples are computed, but without one long FFT over the zeros past
    c_{s-1}: with M the smallest divisor of `grid` at least max(s, 64) and
    L = grid / M, sample L b + a (a < L, b < M) is entry b of the length-M
    FFT of row a, (c_l w^{a l})_{l < s}.  Each twiddle w^{a l}, a = a1 q + a0
    with q = ceil(sqrt(L)), is the product of two exact exponentials, of
    a1 q l and a0 l mod grid, from two small tables.  With L = 1 this is one
    FFT of the folded coefficients.  Nothing of size O(grid) outlives the
    call.  Deliberately independent of the production path.
    """
    if grid < 1:
        raise DomainError(f"grid must be >= 1, got {grid}")
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.size == 0:
        return 0.0
    size = min(c.size, grid)
    folded = np.zeros(size, dtype=np.complex128)
    np.add.at(folded, np.arange(c.size) % grid, c)
    m = _row_length(grid, size)
    rows = grid // m
    q = math.isqrt(rows - 1) + 1  # ceil(sqrt(rows))
    ell = np.arange(size)
    low = _roots_of_unity(np.outer(np.arange(q), ell), grid) * folded
    high = _roots_of_unity(np.outer(np.arange(0, rows, q), ell), grid)
    twisted = (high[:, None, :] * low[None, :, :]).reshape(-1, size)[:rows]
    return float(np.abs(np.fft.fft(twisted, n=m, axis=1)).max())


# ---------------------------------------------------------------------------
# max-modulus lemma checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaWitness:
    """A located max-modulus point together with the ratio z0 w'(z0)/w(z0)."""

    w_coeffs: tuple[complex, ...]
    vanishing_order: int
    r0: float
    z0: complex
    max_modulus: float
    q: complex


def lemma_witness(
    w_coeffs,
    n_w: int,
    r0: float,
    grid: int = 1 << 16,
    tolerance: float = LEMMA_TOL,
) -> LemmaWitness:
    """Locate the max-modulus point of w on |z| = r0 and check the ratio there.

    `w_coeffs` are ascending from z^0; the first `n_w` must vanish exactly
    (w(0) = 0 to order >= n_w >= 1).  At the located maximiser z0 the ratio
    q = z0 w'(z0)/w(z0) must be real with Re q >= n_w, up to `tolerance`;
    a violation raises FalsificationError.
    """
    coeffs = tuple(complex(c) for c in w_coeffs)
    if n_w < 1:
        raise DomainError(f"vanishing order must be >= 1, got {n_w}")
    if not 0.0 < r0 < 1.0:
        raise DomainError(f"r0 must lie in (0, 1), got {r0}")
    if all(c == 0 for c in coeffs):
        raise DomainError("w is identically zero")
    if any(c != 0 for c in coeffs[:n_w]):
        raise DomainError(f"w must vanish to order >= {n_w} at 0")

    # w(r0 e^{it}) = sum c_e r0^e e^{iet}: scale coefficients, reuse unit circle
    scaled = [c * r0**e for e, c in enumerate(coeffs)]
    value, theta = max_modulus_on_circle(np.asarray(scaled), grid)
    z0 = r0 * cmath.exp(1j * theta)
    w0 = polyval(coeffs, z0)
    if w0 == 0:
        raise DomainError("located maximiser has zero modulus; w vanishes on the circle")
    w1 = polyval([e * c for e, c in enumerate(coeffs)][1:], z0)
    q = z0 * w1 / w0
    if abs(q.imag) > tolerance or q.real < n_w - tolerance:
        raise FalsificationError(
            f"max-modulus ratio violates the lemma at z0={z0!r}: q={q!r}, "
            f"expected real with Re q >= {n_w} (tolerance {tolerance!r})"
        )
    return LemmaWitness(coeffs, n_w, float(r0), z0, value, q)


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


def _rel_close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _complex_list(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


def _draw_spec(rng: np.random.Generator) -> InstanceSpec:
    """p <= 4, n <= 3, Omega <= 3 and K <= 12, unit coefficient magnitude."""
    p = int(rng.integers(1, 5))
    m = int(rng.integers(0, p))
    n = int(rng.integers(1, 4))
    omega = int(rng.integers(0, 4))
    lam = float(rng.uniform(0.0, 1.0))
    trunc = int(rng.integers(n, 13))
    seed = int(rng.integers(0, 2**63))
    return InstanceSpec(p=p, n=n, m=m, omega=omega, lam=lam, trunc=trunc, seed=seed)


def _serialize_instance(spec, f, g, nb) -> dict:
    return {
        "spec": spec.to_dict(),
        "alpha": nb.alpha,
        "beta": nb.beta,
        "delta": nb.delta,
        "f_coeffs": _complex_list(f.coeffs),
        "g_coeffs": _complex_list(g.coeffs),
    }


def _random_function(rng, spec) -> MultivalentFunction:
    count = spec.trunc - spec.n + 1
    return MultivalentFunction(
        spec.p, spec.n, tuple(_capped_gaussian(rng, count, spec.coeff_magnitude))
    )


def _series_equal(s1: TruncatedSeries, s2: TruncatedSeries) -> bool:
    if s1.lead_exp != s2.lead_exp or len(s1.tail) != len(s2.tail):
        return False
    if not complex_close(s1.lead_coeff, s2.lead_coeff):
        return False
    return all(
        e1 == e2 and complex_close(c1, c2) for (e1, c1), (e2, c2) in zip(s1.tail, s2.tail)
    )


def _suite_salagean_first_order(rng) -> dict | None:
    """One normalised-derivative step equals the z (.)'/(p-m) rescaling."""
    spec = _draw_spec(rng)
    fn = _random_function(rng, spec)
    s = mth_derivative(fn, spec.m)
    once = salagean_iterate(s, 1, spec.p, spec.m)
    base = spec.p - spec.m
    manual = TruncatedSeries(
        s.lead_exp, s.lead_coeff, tuple((e, c * e / base) for e, c in s.tail)
    )
    if _series_equal(once, manual):
        return None
    return {"spec": spec.to_dict(), "coeffs": _complex_list(fn.coeffs)}


def _suite_salagean_semigroup(rng) -> dict | None:
    spec = _draw_spec(rng)
    fn = _random_function(rng, spec)
    s = mth_derivative(fn, spec.m)
    o1 = int(rng.integers(0, 7))
    o2 = int(rng.integers(0, 7))
    joint = salagean_iterate(s, o1 + o2, spec.p, spec.m)
    split = salagean_iterate(salagean_iterate(s, o1, spec.p, spec.m), o2, spec.p, spec.m)
    if _series_equal(joint, split):
        return None
    return {"spec": spec.to_dict(), "o1": o1, "o2": o2, "coeffs": _complex_list(fn.coeffs)}


def _suite_blend_linearity(rng) -> dict | None:
    """Blend tails are additive and commute with scalar multiplication."""
    spec = _draw_spec(rng)
    op = spec.operator
    f1 = _random_function(rng, spec)
    f2 = _random_function(rng, spec)
    mu = complex(rng.standard_normal(), rng.standard_normal())
    mixed = MultivalentFunction(
        spec.p, spec.n, tuple(c1 + mu * c2 for c1, c2 in zip(f1.coeffs, f2.coeffs))
    )
    t_mixed = salagean_blend(mixed, op).tail
    t1 = salagean_blend(f1, op).tail
    t2 = salagean_blend(f2, op).tail
    ok = all(
        e == e1 == e2 and complex_close(c, c1 + mu * c2)
        for (e, c), (e1, c1), (e2, c2) in zip(t_mixed, t1, t2)
    )
    if ok:
        return None
    return {"spec": spec.to_dict(), "mu": [mu.real, mu.imag]}


def _suite_blend_derivative_consistency(rng) -> dict | None:
    """Normalised derivative equals the symbolic derivative divided by z^{p-m-1}."""
    spec = _draw_spec(rng)
    op = spec.operator
    fn = _random_function(rng, spec)
    direct = blend_derivative_normalized(fn, op)
    blended = salagean_blend(fn, op)
    shift = spec.p - spec.m - 1
    symbolic = TruncatedSeries(
        blended.lead_exp - 1 - shift,
        blended.lead_coeff * blended.lead_exp,
        tuple((e - 1 - shift, c * e) for e, c in blended.tail),
    )
    if _series_equal(direct, symbolic):
        return None
    return {"spec": spec.to_dict(), "coeffs": _complex_list(fn.coeffs)}


def _suite_weight_exactness(rng) -> dict | None:
    """Floating weights match the exact rational route to 1e-12 relative."""
    p = int(rng.integers(1, 9))
    m = int(rng.integers(0, p))
    omega = int(rng.integers(0, 7))
    lam = float(rng.uniform(0.0, 1.0))
    k = int(rng.integers(1, 65))
    op = OperatorParams(lam=lam, m=m, omega=omega)
    for name, approx, exact in (
        ("value", blend_weight(k, p, op), exact_blend_weight(k, p, op)),
        ("derivative", blend_derivative_weight(k, p, op), exact_blend_derivative_weight(k, p, op)),
    ):
        if not (math.isfinite(approx) and approx > 0.0):
            return {"weight": name, "k": k, "p": p, "m": m, "omega": omega, "lam": lam}
        if abs(approx - float(exact)) > 1e-12 * float(exact):
            return {
                "weight": name, "k": k, "p": p, "m": m, "omega": omega, "lam": lam,
                "float": approx, "exact": float(exact),
            }
    return None


def _suite_rotation_invariance(rng) -> dict | None:
    """Shifting both phase twists by t changes no verdict (1e-12 relative)."""
    spec = _draw_spec(rng)
    f, g, nb = generate_pair(spec, "unconstrained")
    op = spec.operator
    t = float(rng.uniform(-math.pi, math.pi))
    shifted = NeighborhoodParams(nb.alpha + t, nb.beta + t, nb.delta)
    grid = 1024

    def verdicts(params):
        pair = criteria.transfer_check(f, g, op, params, grid)
        mem_n, sum_n = criteria.membership_with_sum(criteria.DERIVATIVE, f, g, op, params, grid)
        mem_m, sum_m = criteria.membership_with_sum(criteria.VALUE, f, g, op, params, grid)
        return [sum_n, sum_m, mem_n, mem_m, pair.hypothesis, pair.conclusion]

    for base, moved in zip(verdicts(nb), verdicts(shifted)):
        if base.holds != moved.holds:
            return {**_serialize_instance(spec, f, g, nb), "t": t, "field": "holds"}
        for field_name in ("lhs", "threshold", "margin"):
            x = getattr(base, field_name)
            y = getattr(moved, field_name)
            if field_name == "margin":
                anchor = max(1.0, abs(base.lhs), abs(base.threshold))
                ok = abs(x - y) <= VERDICT_REL_TOL * anchor
            else:
                ok = _rel_close(x, y, VERDICT_REL_TOL)
            if not ok:
                return {
                    **_serialize_instance(spec, f, g, nb),
                    "t": t, "field": field_name, "base": x, "shifted": y,
                }
    return None


def _implication_trial(rng, target: str) -> dict | None:
    spec = _draw_spec(rng)
    f, g, nb = generate_pair(spec, target)
    op = spec.operator
    family = criteria.DERIVATIVE if target == "inside_sufficient_n" else criteria.VALUE
    member, suff = criteria.membership_with_sum(family, f, g, op, nb, DEFAULT_GRID)
    if suff.holds and member.holds:
        return None
    return {
        **_serialize_instance(spec, f, g, nb),
        "sufficient": suff.to_dict(),
        "membership": member.to_dict(),
    }


def _suite_thm_2_1_implication(rng) -> dict | None:
    """Instances passing the derivative-side sum criterion lie in the neighborhood."""
    return _implication_trial(rng, "inside_sufficient_n")


def _suite_thm_2_4_implication(rng) -> dict | None:
    """Value-side mirror of the sum-to-membership implication."""
    return _implication_trial(rng, "inside_sufficient_m")


def _suite_alignment_equality(rng) -> dict | None:
    """Modulus-form sums equal the twisted-difference sums on aligned pairs."""
    spec = _draw_spec(rng)
    rng2 = _rng_for(spec.seed, 1)
    alpha = float(rng2.uniform(-math.pi, math.pi))
    gap = float(rng2.uniform(-math.pi, math.pi))
    beta = alpha - gap
    count = spec.trunc - spec.n + 1
    thetas = rng2.uniform(-math.pi, math.pi, count)
    r = rng2.uniform(0.0, spec.coeff_magnitude, count)
    s = rng2.uniform(0.0, spec.coeff_magnitude, count)
    a = r * np.exp(1j * thetas)
    b = s * np.exp(1j * (thetas - beta + alpha))
    f = MultivalentFunction(spec.p, spec.n, tuple(a))
    g = MultivalentFunction(spec.p, spec.n, tuple(b))
    op = spec.operator
    delta = criteria.DERIVATIVE.bound(spec.p, spec.m, alpha, beta) + float(rng2.uniform(0.05, 2.0))
    nb = NeighborhoodParams(alpha, beta, delta)
    align = criteria.ArgAlignment()
    for plain, modulus in (
        (criteria.sufficient_n(f, g, op, nb), criteria.sufficient_n_modulus(f, g, op, nb, align)),
        (criteria.sufficient_m(f, g, op, nb), criteria.sufficient_m_modulus(f, g, op, nb, align)),
    ):
        if not _rel_close(plain.lhs, modulus.lhs, 1e-10):
            return {
                **_serialize_instance(spec, f, g, nb),
                "plain_lhs": plain.lhs,
                "modulus_lhs": modulus.lhs,
            }
    return None


def _suite_telescoping_closed_form(rng) -> dict | None:
    """Exact rational partial sums of 1/((k+p-1)(k+p)) telescope."""
    n = int(rng.integers(1, 7))
    p = int(rng.integers(1, 7))
    top = int(rng.integers(n, 201))
    total = Fraction(0)
    prev = Fraction(-1)
    for k in range(n, top + 1):
        total += Fraction(1, (k + p - 1) * (k + p))
        if total <= prev:  # monotone approach to the limit
            return {"n": n, "p": p, "K": k}
        prev = total
    expected = Fraction(1, n + p - 1) - Fraction(1, top + p)
    if total != expected:
        return {"n": n, "p": p, "K": top, "sum": str(total), "expected": str(expected)}
    if total >= Fraction(1, n + p - 1):
        return {"n": n, "p": p, "K": top, "limit_violated": True}
    return None


def _suite_sum_monotonicity(rng) -> dict | None:
    """Appending a nonzero difference index never decreases a sum lhs."""
    spec = _draw_spec(rng)
    f, g, nb = generate_pair(spec, "unconstrained")
    op = spec.operator
    extra = complex(rng.standard_normal(), rng.standard_normal())
    if extra == 0:
        extra = 1.0 + 0j
    wider = MultivalentFunction(spec.p, spec.n, f.coeffs + (extra,))
    for check in (criteria.sufficient_n, criteria.sufficient_m):
        before = check(f, g, op, nb).lhs
        after = check(wider, g, op, nb).lhs
        if after < before:
            return {
                **_serialize_instance(spec, f, g, nb),
                "extra": [extra.real, extra.imag],
                "before": before,
                "after": after,
            }
    return None


def _suite_specialization_weights(rng) -> dict | None:
    """With m = omega = lam = 0 the derivative-side weight collapses to k+p."""
    p = int(rng.integers(1, 9))
    op = OperatorParams(lam=0.0, m=0, omega=0)
    for k in range(1, 33):
        if exact_blend_derivative_weight(k, p, op) != Fraction(k + p):
            return {"p": p, "k": k, "exact": str(exact_blend_derivative_weight(k, p, op))}
        if blend_derivative_weight(k, p, op) != float(k + p):
            return {"p": p, "k": k, "float": blend_derivative_weight(k, p, op)}
    return None


def _suite_thm_2_11_implication(rng) -> dict | None:
    """Forced transfer hypotheses always carry the value-side conclusion."""
    spec = _draw_spec(rng)
    f, g, nb = generate_transfer_pair(spec)
    result = criteria.transfer_check(f, g, spec.operator, nb, DEFAULT_GRID)
    if result.hypothesis.holds and result.conclusion.holds:
        return None
    return {
        **_serialize_instance(spec, f, g, nb),
        "hypothesis": result.hypothesis.to_dict(),
        "conclusion": result.conclusion.to_dict(),
    }


def _suite_oracle_agreement(rng) -> dict | None:
    """Production boundary sup vs dense FFT sampling within 1e-6."""
    degree = int(rng.integers(0, 65))
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    scale = np.abs(c).sum()
    if scale == 0.0:
        c[0] = 1.0
        scale = 1.0
    c = c / scale  # keeps the boundary modulus at most 1, so 1e-6 is meaningful
    produced = max_modulus_on_circle(c, DEFAULT_GRID)[0]
    sampled = sup_oracle(c, 1 << 18)
    if abs(produced - sampled) <= SUP_COMPARE_TOL:
        return None
    return {
        "degree": degree,
        "coeffs": _complex_list(c),
        "production": produced,
        "oracle": sampled,
    }


def _suite_lemma_max_modulus(rng) -> dict | None:
    """Random low-order witnesses satisfy the max-modulus ratio conclusions."""
    n_w = int(rng.integers(1, 4))
    extra = int(rng.integers(0, 6))
    upper = rng.standard_normal(extra + 1) + 1j * rng.standard_normal(extra + 1)
    coeffs = [0j] * n_w + list(upper)
    if all(c == 0 for c in coeffs):
        coeffs[n_w] = 1.0 + 0j
    r0 = float(rng.uniform(0.3, 0.9))
    try:
        lemma_witness(coeffs, n_w, r0, grid=1 << 16)
    except FalsificationError as exc:
        return {"coeffs": _complex_list(coeffs), "n_w": n_w, "r0": r0, "error": str(exc)}
    return None


def _suite_determinism(rng) -> dict | None:
    """Same spec (same seed) reproduces the same instance bit for bit."""
    spec = _draw_spec(rng)
    f1, g1, nb1 = generate_pair(spec, "inside_sufficient_n")
    f2, g2, nb2 = generate_pair(spec, "inside_sufficient_n")
    same = (
        f1.coeffs == f2.coeffs
        and g1.coeffs == g2.coeffs
        and (nb1.alpha, nb1.beta, nb1.delta) == (nb2.alpha, nb2.beta, nb2.delta)
    )
    if same:
        return None
    return {"spec": spec.to_dict()}


SUITES = {
    "salagean_first_order": _suite_salagean_first_order,
    "salagean_semigroup": _suite_salagean_semigroup,
    "blend_linearity": _suite_blend_linearity,
    "blend_derivative_consistency": _suite_blend_derivative_consistency,
    "weight_exactness": _suite_weight_exactness,
    "rotation_invariance": _suite_rotation_invariance,
    "thm_2_1_implication": _suite_thm_2_1_implication,
    "thm_2_4_implication": _suite_thm_2_4_implication,
    "alignment_equality": _suite_alignment_equality,
    "telescoping_closed_form": _suite_telescoping_closed_form,
    "sum_monotonicity": _suite_sum_monotonicity,
    "specialization_weights": _suite_specialization_weights,
    "thm_2_11_implication": _suite_thm_2_11_implication,
    "oracle_agreement": _suite_oracle_agreement,
    "lemma_max_modulus": _suite_lemma_max_modulus,
    # the same trial as thm_2_1_implication, kept as an alias of it
    "generator_soundness": _suite_thm_2_1_implication,
    "determinism": _suite_determinism,
}


@dataclass
class SuiteReport:
    suite: str
    trials: int
    seed: int
    passes: int
    failures: int
    first_counterexample: dict | None
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_document(self) -> dict:
        # wall time is reported in the text summary only, so reruns with the
        # same seed serialize byte-identically
        return {
            "schema_version": 1,
            "kind": "suite_report",
            "suite": self.suite,
            "trials": self.trials,
            "seed": int(self.seed),
            "passes": self.passes,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
        }

    def text_summary(self) -> str:
        lines = [
            f"suite    : {self.suite}",
            f"trials   : {self.trials}",
            f"seed     : {self.seed}",
            f"passes   : {self.passes}",
            f"failures : {self.failures}",
            f"wall     : {self.wall_time:.3f}s",
            f"result   : {'PASS' if self.passed else 'FAIL'}",
        ]
        if self.first_counterexample is not None:
            lines.append(f"first counterexample: {self.first_counterexample}")
        return "\n".join(lines)


def run_property_suite(suite: str, trials: int, seed: int = 0) -> SuiteReport:
    """Run `trials` independent draws of the named invariant suite.

    Trials are keyed on (seed, trial index), so the report is a pure function
    of its arguments.  The first counterexample is serialized in full.
    """
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    fn = SUITES[suite]
    passes = 0
    failures = 0
    first: dict | None = None
    start = time.perf_counter()
    for index in range(trials):
        rng = _rng_for(seed, index)
        try:
            failure = fn(rng)
        except FalsificationError as exc:
            failure = {"trial": index, "falsification": str(exc)}
        if failure is None:
            passes += 1
        else:
            failures += 1
            if first is None:
                first = {"trial": index, **failure}
    wall = time.perf_counter() - start
    return SuiteReport(suite, trials, seed, passes, failures, first, wall)
