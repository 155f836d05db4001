"""Neighborhood criteria for pairs of truncated p-valent functions.

Two neighborhood families are implemented.  They differ in one number, the
derivative order of the blended image B(f) they compare: order 1, the
derivative side (functions suffixed ``_n``), compares B(f)'/z^{p-m-1};
order 0, the value side (``_m``), compares B(f)/z^{p-m}.  A `Family` record
holds that order, and the order alone picks the family's coefficient
weight, the constant term p!/(p-m-order)! of its image and its
admissibility bound p!/(p-m-order)! sqrt(2[1-cos(alpha-beta)]).  For each
family there is

* a definitional membership test: the boundary supremum of the twisted
  difference e^{i alpha} P_f - e^{i beta} P_g must stay strictly below
  delta,
* a sufficient coefficient criterion: a weighted l1 sum of twisted
  coefficient differences compared (inclusively) against delta minus the
  admissibility bound,
* a necessity bound valid when the twisted coefficient differences have
  arguments aligned along k*phi and 0 <= alpha < beta <= pi.

The ``_n``/``_m`` entry points are one-line calls into one body per kind of
check.  One rule, `_decide`, gives every verdict: sums use <=, suprema strict
<.  When a check whose hypotheses were verified numerically fails its
guaranteed conclusion, the verdict is marked as a falsification event and
logged loudly; that always means an implementation or tolerance defect.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .circlemax import DEFAULT_GRID, max_modulus_on_circle
from .errors import DomainError, HypothesisViolationError, InadmissibleDeltaError
from .series import (
    MultivalentFunction,
    NeighborhoodParams,
    OperatorParams,
    _image_tail,
    _weighted_products,
    blend_derivative_normalized,
    blend_derivative_weight,
    blend_normalized,
    blend_weight,
    falling_factorial,
    phase_gap_radical,
    wrap_angle,
)

# The checks form the image products only to check that they are finite
# (`_image_tail`).  `blend_normalized` and `blend_derivative_normalized` are
# imported only to stay attributes of this module: the benchmark's tracer
# (bench/tracing.py) wraps them here by name.

logger = logging.getLogger(__name__)

#: Strict margin applied when validating delta against its lower bound,
#: so that instances sitting exactly on the bound never flap.
ADMISSIBILITY_MARGIN = 1e-12

#: Largest truncation order `telescoping_partner` builds.
MAX_TRUNC = 2**20

_FALSIFICATION_NOTE = "falsification: hypotheses verified but the guaranteed conclusion failed"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one criterion or membership check.

    ``margin`` is always ``threshold - lhs``.  ``falsification`` is set only
    when every hypothesis of the underlying statement was verified by the
    same call and the guaranteed conclusion still failed.
    """

    holds: bool
    lhs: float
    threshold: float
    margin: float = field(init=False)
    falsification: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "margin", self.threshold - self.lhs)

    def to_dict(self) -> dict:
        return {
            "holds": bool(self.holds),
            "lhs": float(self.lhs),
            "threshold": float(self.threshold),
            "margin": float(self.margin),
            "falsification": bool(self.falsification),
            "notes": list(self.notes),
        }


def _decide(lhs, threshold, strict, notes=(), falsified=None) -> Verdict:
    """`lhs` against `threshold`: strictly below for a supremum (`strict`), at
    most for a sum.  `falsified` is the log text (%r for lhs, then threshold)
    of a conclusion whose hypotheses the caller verified, else falsy; if that
    conclusion fails, the verdict is flagged, noted and logged."""
    holds = lhs < threshold if strict else lhs <= threshold
    if holds or not falsified:
        return Verdict(holds, lhs, threshold, notes=notes)
    logger.error("FALSIFICATION: " + falsified, lhs, threshold)
    return Verdict(holds, lhs, threshold, falsification=True, notes=(*notes, _FALSIFICATION_NOTE))


@dataclass(frozen=True)
class ArgAlignment:
    """Alignment hypothesis arg(e^{i alpha} a_{k+p} - e^{i beta} b_{k+p}) = k phi.

    ``phi`` is a free input of the hypothesis, never inferred.  Indices with
    exactly zero difference are vacuously aligned (arg is undefined at 0).
    The modulus-form criteria only use ``tolerance``.
    """

    phi: float = 0.0
    tolerance: float = 1e-8

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise DomainError("phi must be finite")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise DomainError("tolerance must be a nonnegative finite number")


@dataclass(frozen=True)
class ImplicationPair:
    """Hypothesis and conclusion verdicts of a sup-to-sup transfer check."""

    hypothesis: Verdict
    conclusion: Verdict

    @property
    def falsification(self) -> bool:
        return self.conclusion.falsification


@dataclass(frozen=True)
class Family:
    """A neighborhood family: its label and the derivative order of its image.

    Order 1 is the derivative side, order 0 the value side.  The weight
    functions are looked up when called, never stored, so a wrapper put on
    this module's attributes sees every call.
    """

    label: str
    order: int

    def lead(self, p: int, m: int) -> int:
        """p!/(p-m-order)!, the constant term of the family's image."""
        return falling_factorial(p, m + self.order)

    def bound(self, p: int, m: int, alpha: float, beta: float) -> float:
        """Admissibility bound p!/(p-m-order)! sqrt(2[1-cos(alpha-beta)])."""
        if m < 0:
            raise DomainError(f"derivative order m must be >= 0, got {m}")
        if p <= m:
            raise DomainError(f"valence p={p} must exceed derivative order m={m}")
        return self.lead(p, m) * phase_gap_radical(alpha, beta)

    def weights(self, ks: range, p: int, op: OperatorParams) -> np.ndarray:
        """Coefficient weights (k+p-m)^order W(k) for every k in `ks`, as a float64 array."""
        return (blend_derivative_weight if self.order else blend_weight)(ks, p, op)

    def notes(self, nb: NeighborhoodParams, p: int, m: int) -> tuple[str, ...]:
        """Value side only: flag a delta between the two published value-side bounds."""
        if self.order:
            return ()
        strict = DERIVATIVE.bound(p, m, nb.alpha, nb.beta)
        if _admissible(nb.delta, strict):
            return ()
        return (
            "delta clears only the weaker published value-side lower bound; "
            f"the stricter derivative-style bound is {strict!r}",
        )


DERIVATIVE = Family("derivative-side", 1)
VALUE = Family("value-side", 0)


# ---------------------------------------------------------------------------
# thresholds and admissibility bounds
# ---------------------------------------------------------------------------


def delta_lower_bound_n(p: int, m: int, alpha: float, beta: float) -> float:
    """Derivative-side admissibility bound p!/(p-m-1)! sqrt(2[1-cos(alpha-beta)])."""
    return DERIVATIVE.bound(p, m, alpha, beta)


def delta_lower_bound_m(p: int, m: int, alpha: float, beta: float) -> float:
    """Value-side admissibility bound p!/(p-m)! sqrt(2[1-cos(alpha-beta)]).

    The value-side family is also published with the derivative-style bound
    (the ``_n`` form above).  This package gates on the weaker bound here and
    flags verdicts whose delta falls between the two; it does not decide
    which reading was intended.
    """
    return VALUE.bound(p, m, alpha, beta)


def threshold_n(delta: float, alpha: float, beta: float, p: int, m: int) -> float:
    """Sum threshold delta - p!/(p-m-1)! sqrt(2[1-cos(alpha-beta)]); may be negative."""
    return delta - delta_lower_bound_n(p, m, alpha, beta)


def threshold_m(delta: float, alpha: float, beta: float, p: int, m: int) -> float:
    """Sum threshold delta - p!/(p-m)! sqrt(2[1-cos(alpha-beta)]); may be negative."""
    return delta - delta_lower_bound_m(p, m, alpha, beta)


def _require_compatible(
    f: MultivalentFunction, g: MultivalentFunction, op: OperatorParams
) -> None:
    """The pair shares (p, n) and the operator needs p > m."""
    if f.p != g.p or f.n != g.n:
        raise DomainError(
            f"functions must share (p, n); got ({f.p}, {f.n}) and ({g.p}, {g.n})"
        )
    op.require_valence(f.p)


def _admissible(delta: float, bound: float) -> bool:
    """delta exceeds `bound` by more than `ADMISSIBILITY_MARGIN`."""
    return delta > bound + ADMISSIBILITY_MARGIN


def _require_admissible(delta: float, bound: float, label: str) -> None:
    if not _admissible(delta, bound):
        raise InadmissibleDeltaError(
            f"delta={delta!r} must exceed the {label} lower bound {bound!r}"
        )


def _admitted_bound(
    family: Family,
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
) -> float:
    """Check the pair, the operator and delta against `family`; return its bound."""
    _require_compatible(f, g, op)
    bound = family.bound(f.p, op.m, nb.alpha, nb.beta)
    _require_admissible(nb.delta, bound, family.label)
    return bound


# ---------------------------------------------------------------------------
# coefficient sums
# ---------------------------------------------------------------------------


def _indices(f: MultivalentFunction, g: MultivalentFunction) -> range:
    """Perturbation indices k over the union of the two supports."""
    return range(f.n, max(f.truncation_order, g.truncation_order) + 1)


def _differences(
    f: MultivalentFunction, g: MultivalentFunction, nb: NeighborhoodParams
) -> tuple[np.ndarray, ...]:
    """Over `_indices(f, g)`: a_{k+p} and b_{k+p} (the shorter list zero-extended)
    and the real and imaginary parts of d_k = e^{i alpha} a_{k+p} - e^{i beta} b_{k+p},
    which no family changes.  The parts are formed from separate real multiplies
    and subtractions in CPython's order for complex products, so they carry the bits
    of ua * a - ub * b; numpy's complex multiply may fuse the steps into FMAs."""
    ua = cmath.exp(1j * nb.alpha)
    ub = cmath.exp(1j * nb.beta)
    size = len(_indices(f, g))
    a = np.zeros(size, dtype=np.complex128)
    b = np.zeros(size, dtype=np.complex128)
    a[: len(f.coeffs)] = f.coeffs
    b[: len(g.coeffs)] = g.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        re = (ua.real * a.real - ua.imag * a.imag) - (ub.real * b.real - ub.imag * b.imag)
        im = (ua.real * a.imag + ua.imag * a.real) - (ub.real * b.imag + ub.imag * b.real)
    return a, b, re, im


def _weights(
    family: Family, f: MultivalentFunction, g: MultivalentFunction, op: OperatorParams
) -> np.ndarray:
    """The family's weights w_k over `_indices(f, g)`, from one weight pass."""
    return family.weights(_indices(f, g), f.p, op)


def _weighted_sum(weights, re, im=0.0) -> float:
    """sum_k w_k |re_k + i im_k|, rounded once; a sum past the float range reads inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.multiply(weights, np.hypot(re, im)).tolist()
    try:
        return math.fsum(terms)
    except OverflowError:  # finite terms, all >= 0, whose partial sums overflow
        return math.inf


def _sufficient(
    family: Family,
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    align: ArgAlignment | None = None,
) -> Verdict:
    """The family's weighted sum against delta minus its bound; given `align`, the
    modulus form sum_k w_k ||a_{k+p}| - |b_{k+p}||, which requires
    arg a_{k+p} - arg b_{k+p} = beta - alpha wherever both are nonzero.  A modulus
    past the float range reads inf (a difference of two such, nan): the sum fails."""
    bound = _admitted_bound(family, f, g, op, nb)
    notes = family.notes(nb, f.p, op.m)
    a, b, re, im = _differences(f, g, nb)
    if align is not None:
        expected = nb.beta - nb.alpha
        _require_aligned(
            "argument alignment arg(a)-arg(b)=beta-alpha", _indices(f, g), align.tolerance,
            np.arctan2(a.imag, a.real) - np.arctan2(b.imag, b.real), expected,
            (a != 0) & (b != 0),
            lambda i: wrap_angle(cmath.phase(a[i]) - cmath.phase(b[i]) - expected),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            re, im = np.hypot(a.real, a.imag) - np.hypot(b.real, b.imag), 0.0
    lhs = _weighted_sum(_weights(family, f, g, op), re, im)
    return _decide(lhs, nb.delta - bound, False, notes)


def sufficient_n(
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
) -> Verdict:
    """Derivative-side sufficient criterion.

    lhs = sum_k (k+p-m) W(k) |e^{i alpha} a_{k+p} - e^{i beta} b_{k+p}|,
    compared inclusively against threshold_n.  Holding implies membership in
    the derivative-side neighborhood.
    """
    return _sufficient(DERIVATIVE, f, g, op, nb)


def sufficient_m(
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
) -> Verdict:
    """Value-side sufficient criterion, with weight W(k) and threshold_m."""
    return _sufficient(VALUE, f, g, op, nb)


def sufficient_n_modulus(
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    align: ArgAlignment,
) -> Verdict:
    """Derivative-side sufficient criterion in modulus form.

    Under the alignment hypothesis arg(a) - arg(b) = beta - alpha the twisted
    difference satisfies |e^{i alpha} a - e^{i beta} b| = ||a| - |b||, so this
    equals `sufficient_n` exactly.  Misaligned indices are rejected.
    """
    return _sufficient(DERIVATIVE, f, g, op, nb, align)


def sufficient_m_modulus(
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    align: ArgAlignment,
) -> Verdict:
    """Value-side mirror of `sufficient_n_modulus`."""
    return _sufficient(VALUE, f, g, op, nb, align)


# ---------------------------------------------------------------------------
# membership (boundary supremum) tests
# ---------------------------------------------------------------------------


def phase_difference(
    family: Family,
    f: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    w: np.ndarray,
    diffs: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Dense e^{i alpha} P_f - e^{i beta} P_g for the family's images P, from the
    pair's weights `w` and `_differences`: lead (e^{i alpha} - e^{i beta}),
    lead = p!/(p-m-order)!, at index 0 and w_k d_k at index k, each with the bits
    of that Python expression on any CPU.  The image products w_k a_{k+p} and
    w_k b_{k+p} are formed only to check that they are finite: one past the
    float range is the DomainError the image would raise.  Not exported; the
    benchmark's tracer times it under this name."""
    a, b, re, im = diffs
    _image_tail(w, a, f.n)
    _image_tail(w, b, f.n)
    out = np.zeros(f.n + w.size, dtype=np.complex128)
    out[0] = family.lead(f.p, op.m) * (cmath.exp(1j * nb.alpha) - cmath.exp(1j * nb.beta))
    out[f.n :] = _weighted_products(w, re, im)
    return out


def membership_with_sum(
    family: Family,
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    grid: int = DEFAULT_GRID,
) -> tuple[Verdict, Verdict]:
    """The family's boundary supremum against delta (strict), and its sufficient
    sum criterion from the same weights and differences: one weight pass for
    the pair that `sufficient_*` and `membership_*` return apart, with the
    same bytes and the same errors in the same order.  The sum implies
    membership: a failed membership whose sum holds is a falsification."""
    bound = _admitted_bound(family, f, g, op, nb)
    notes = family.notes(nb, f.p, op.m)
    w = _weights(family, f, g, op)
    _, _, re, im = diffs = _differences(f, g, nb)
    sup = max_modulus_on_circle(phase_difference(family, f, op, nb, w, diffs), grid)[0]
    suff = _decide(_weighted_sum(w, re, im), nb.delta - bound, False, notes)
    falsified = suff.holds and (
        f"{family.label} membership failed although its sufficient sum held "
        "(lhs=%r, threshold=%r)"
    )
    return _decide(sup, nb.delta, True, notes, falsified), suff


def membership_n(
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    grid: int = DEFAULT_GRID,
) -> Verdict:
    """Definitional derivative-side membership test.

    lhs is the maximum over |z| = 1 of
    |e^{i alpha} B(f)'(z)/z^{p-m-1} - e^{i beta} B(g)'(z)/z^{p-m-1}|; for
    truncated data this equals the supremum over the open disk.  Holds iff
    lhs < delta (strict).
    """
    return membership_with_sum(DERIVATIVE, f, g, op, nb, grid)[0]


def membership_m(
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    grid: int = DEFAULT_GRID,
) -> Verdict:
    """Definitional value-side membership test, dividing the images by z^{p-m}."""
    return membership_with_sum(VALUE, f, g, op, nb, grid)[0]


# ---------------------------------------------------------------------------
# necessity bounds under argument alignment
# ---------------------------------------------------------------------------


#: Relative slack of the array scan in `_require_aligned`.  numpy's arctan2
#: may differ from cmath.phase by a few ulps (in each of two phases), and
#: each rounding of the gap is up to one ulp of |target| + 2 pi, so the
#: array gap stays within _ALIGN_SLACK (4 + |target|) of the scalar one.
_ALIGN_SLACK = 1e-14


def _require_aligned(hypothesis: str, ks: range, tolerance: float, angle, target, mask, gap_at):
    """Raise the `hypothesis` failure at the first k = ks[i] with mask[i] and
    |gap_at(i)| > tolerance, gap_at(i) being the scalar cmath.phase/wrap_angle
    expression for wrap(angle[i] - target).  Arrays pick the candidates, the
    gaps not within the tolerance less a slack; the candidates are judged in
    index order, so the index and the message are those of a loop over every k."""
    with np.errstate(invalid="ignore", over="ignore"):
        w = np.fmod(angle - target + math.pi, 2.0 * math.pi)
        gap = np.where(w < 0.0, w + 2.0 * math.pi, w) - math.pi
        within = np.abs(gap) <= tolerance - _ALIGN_SLACK * (4.0 + np.abs(target))
    for i in np.flatnonzero(mask & ~within).tolist():
        gap = gap_at(i)
        if abs(gap) > tolerance:
            raise HypothesisViolationError(
                f"{hypothesis} fails at index k={ks[i]}: "
                f"off by {gap!r} rad (tolerance {tolerance!r})"
            )


def _necessary(
    family: Family,
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    align: ArgAlignment,
    grid: int,
) -> Verdict:
    """The family's weighted sum against delta - p!/(p-m-1)! (cos alpha - cos beta).

    Both families use this derivative-side lead, although the value-side
    image leads with p!/(p-m)! (README, Known issues).  The angle range, the
    alignment and (at `grid`) membership are verified first, so a failed
    bound is a falsification.
    """
    _require_compatible(f, g, op)
    if not (0.0 <= nb.alpha < nb.beta <= math.pi):
        raise HypothesisViolationError(
            "necessity bounds require 0 <= alpha < beta <= pi; "
            f"got alpha={nb.alpha!r}, beta={nb.beta!r}"
        )
    _, _, re, im = diffs = _differences(f, g, nb)
    ks = _indices(f, g)
    with np.errstate(over="ignore"):
        kphi = np.arange(ks.start, ks.stop, dtype=np.float64) * align.phi
    _require_aligned(
        "twisted-difference alignment arg(d_k)=k*phi", ks, align.tolerance,
        np.arctan2(im, re), kphi, (re != 0.0) | (im != 0.0),
        lambda i: wrap_angle(cmath.phase(complex(re[i], im[i])) - ks[i] * align.phi),
    )
    _admitted_bound(family, f, g, op, nb)
    notes = family.notes(nb, f.p, op.m)
    w = _weights(family, f, g, op)
    sup = max_modulus_on_circle(phase_difference(family, f, op, nb, w, diffs), grid)[0]
    if not _decide(sup, nb.delta, True).holds:
        raise HypothesisViolationError(
            "membership hypothesis fails: boundary supremum "
            f"{sup!r} is not below delta={nb.delta!r}"
        )
    thr = nb.delta - DERIVATIVE.lead(f.p, op.m) * (math.cos(nb.alpha) - math.cos(nb.beta))
    return _decide(
        _weighted_sum(w, re, im), thr, False, notes,
        f"{family.label} necessity bound failed with verified hypotheses "
        "(lhs=%r, threshold=%r)",
    )


def necessary_n(
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    align: ArgAlignment,
    grid: int = DEFAULT_GRID,
) -> Verdict:
    """Derivative-side necessity bound.

    For f in the derivative-side neighborhood of g with aligned twisted
    differences and 0 <= alpha < beta <= pi, the weighted sum is guaranteed
    to satisfy lhs <= delta - p!/(p-m-1)! (cos alpha - cos beta).

    Membership is verified numerically (at `grid`), so a failed conclusion
    is flagged as a falsification.
    """
    return _necessary(DERIVATIVE, f, g, op, nb, align, grid)


def necessary_m(
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    align: ArgAlignment,
    grid: int = DEFAULT_GRID,
) -> Verdict:
    """Value-side necessity bound.

    Same hypotheses as `necessary_n` with value-side membership and weight;
    the threshold delta + p!/(p-m-1)! (cos beta - cos alpha) takes the
    derivative-side constant, not p!/(p-m)! (README, Known issues).
    """
    return _necessary(VALUE, f, g, op, nb, align, grid)


# ---------------------------------------------------------------------------
# telescoping partner construction
# ---------------------------------------------------------------------------


def telescoping_partner(
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    trunc: int,
) -> MultivalentFunction:
    """Construct the partner whose weighted deviation from g telescopes.

    The returned f has coefficients, for k = n .. trunc,

        A_{k+p} = (p-m)^omega (delta - T) (k+p-m)! (n+p-1)
                  / ((1 + lam k/(p-m)) (k+p-m)^{omega+1} (k+p-1)! (k+p)^2 (k+p-1))
                  * e^{-i alpha}  +  e^{i (beta-alpha)} B_{k+p}

    with T the derivative-side admissibility bound, so that each term of the
    derivative-side sufficient sum equals (n+p-1)(delta-T)/((k+p)(k+p-1)) and
    the truncated sum is (n+p-1)(delta-T)[1/(n+p-1) - 1/(trunc+p)].

    Each core is one exact rational, (n+p-1)/((k+p)(k+p-1)) divided by the
    derivative-side weight (k+p-m) W(k) without its blend factor, which is why
    each weighted term telescopes; it costs O(m + omega) small-integer products,
    so the whole partner costs O(trunc), and it is rounded once.  Every such
    ratio is at most ((p-m)/(n+p-m))^omega, so when omega exceeds
    1075 / log2((n+p-m)/(p-m)) each one rounds to +0.0; the core is then
    0.0 without any exact power being formed, which gives the same bytes
    and keeps a huge omega fast.  A `trunc` above `MAX_TRUNC` is a
    DomainError.
    """
    p, n, m = g.p, g.n, op.m
    radical = DERIVATIVE.bound(p, m, nb.alpha, nb.beta)
    _require_admissible(nb.delta, radical, "construction")
    trunc = int(trunc)
    if trunc < n:
        raise DomainError(f"truncation order {trunc} must be at least n={n}")
    if trunc > MAX_TRUNC:
        raise DomainError(f"truncation order {trunc} exceeds the maximum {MAX_TRUNC}")
    if g.truncation_order > trunc:
        raise DomainError(
            f"g stores coefficients up to k={g.truncation_order}, beyond trunc={trunc}"
        )
    excess = nb.delta - radical
    phase = cmath.exp(-1j * nb.alpha)
    twist = cmath.exp(1j * (nb.beta - nb.alpha))
    base = p - m
    # every exact ratio is at most (base/(n+base))^omega; at or below 2^-1075 it rounds to +0.0
    underflows = op.omega > 1075 / math.log2((n + base) / base)
    scale = 0 if underflows else base**op.omega * (n + p - 1)
    # g's coefficients b_{k+p} for k = n .. trunc, zero past its own truncation order
    bs = g.coeffs + (0j,) * (trunc - g.truncation_order)
    coeffs = []
    for k, b in zip(range(n, trunc + 1), bs):
        core = 0.0
        if not underflows:
            kp = k + p
            den = falling_factorial(kp, m) * (kp - m) ** (op.omega + 1) * kp * (kp - 1)
            # exact integer division rounds once; the two float operations after it once each
            core = (scale / den) * excess / (1.0 + op.lam * k / base)
        coeffs.append(core * phase + twist * b)
    return MultivalentFunction(p, n, tuple(coeffs))


def partner_weighted_sum(
    p: int, n: int, m: int, delta: float, alpha: float, beta: float, trunc: int
) -> float:
    """Closed form of the partner's derivative-side sufficient sum up to `trunc`."""
    radical = DERIVATIVE.bound(p, m, alpha, beta)
    return (n + p - 1) * (delta - radical) * (1.0 / (n + p - 1) - 1.0 / (trunc + p))


# ---------------------------------------------------------------------------
# derivative-side sup bound forcing the value-side sup bound
# ---------------------------------------------------------------------------


def transfer_check(
    f: MultivalentFunction,
    g: MultivalentFunction,
    op: OperatorParams,
    nb: NeighborhoodParams,
    grid: int = DEFAULT_GRID,
) -> ImplicationPair:
    """Check the sup-to-sup transfer between the two families.

    hypothesis: boundary sup of the derivative-side twisted difference
    stays strictly below delta (p+n-m) - p!/(p-m-1)! sqrt(2[1-cos(a-b)]).
    conclusion: boundary sup of the value-side twisted difference stays
    strictly below delta + p!/(p-m)! sqrt(2[1-cos(a-b)]).

    Requires delta > p!/((p+n-m)(p-m-1)!) sqrt(2[1-cos(a-b)]).  Whenever the
    hypothesis holds the conclusion is guaranteed; a violation is marked as a
    falsification event on the conclusion verdict.
    """
    _require_compatible(f, g, op)
    p, n, m = f.p, f.n, op.m
    radical_n = DERIVATIVE.bound(p, m, nb.alpha, nb.beta)
    _require_admissible(nb.delta, radical_n / (p + n - m), "transfer")

    hyp_thr = nb.delta * (p + n - m) - radical_n
    diffs = _differences(f, g, nb)
    w = _weights(DERIVATIVE, f, g, op)
    hyp_lhs = max_modulus_on_circle(phase_difference(DERIVATIVE, f, op, nb, w, diffs), grid)[0]
    hypothesis = _decide(hyp_lhs, hyp_thr, True)

    con_thr = nb.delta + VALUE.bound(p, m, nb.alpha, nb.beta)
    w = _weights(VALUE, f, g, op)
    con_lhs = max_modulus_on_circle(phase_difference(VALUE, f, op, nb, w, diffs), grid)[0]
    falsified = hypothesis.holds and (
        "transfer conclusion failed although the hypothesis held "
        f"(hypothesis lhs={hyp_lhs!r} < {hyp_thr!r}, conclusion lhs=%r >= %r)"
    )
    return ImplicationPair(hypothesis, _decide(con_lhs, con_thr, True, (), falsified))
