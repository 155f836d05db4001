"""Acceptance gate: every criterion at its stated tolerance and trial count.

Each test prints one PASS line on success; a pytest failure on any test is a
FAIL for that criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from pvalent import (
    ArgAlignment,
    InstanceSpec,
    MultivalentFunction,
    NeighborhoodParams,
    OperatorParams,
    blend_derivative_weight,
    delta_lower_bound_n,
    exact_blend_derivative_weight,
    exact_blend_weight,
    generate_pair,
    generate_transfer_pair,
    lemma_witness,
    max_modulus_on_circle,
    membership_m,
    membership_n,
    necessary_n,
    partner_weighted_sum,
    sufficient_m,
    sufficient_n,
    sufficient_n_modulus,
    sup_oracle,
    telescoping_partner,
    transfer_check,
)


def _gauss(rng, count, cap):
    vals = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * (0.5 * cap)
    mags = np.abs(vals)
    over = mags > cap
    vals[over] *= cap / mags[over]
    return tuple(complex(v) for v in vals)


def _draw_spec(rng, *, p_max=4, n_max=3, omega_max=3, trunc_max=12):
    p = int(rng.integers(1, p_max + 1))
    m = int(rng.integers(0, p))
    n = int(rng.integers(1, n_max + 1))
    return InstanceSpec(
        p=p,
        n=n,
        m=m,
        omega=int(rng.integers(0, omega_max + 1)),
        lam=float(rng.uniform(0.0, 1.0)),
        trunc=int(rng.integers(n, trunc_max + 1)),
        seed=int(rng.integers(0, 2**63)),
    )


def _rel_ok(x, y, rel):
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def test_acceptance_1_telescoping_identity():
    """Rational partial sums telescope exactly and rise monotonically to the limit."""
    start = time.perf_counter()
    for n in range(1, 5):
        for p in range(1, 5):
            total = Fraction(0)
            previous = Fraction(-1)
            for k in range(n, 201):
                total += Fraction(1, (k + p - 1) * (k + p))
                assert total > previous
                assert total < Fraction(1, n + p - 1)
                previous = total
            assert total == Fraction(1, n + p - 1) - Fraction(1, 200 + p)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: telescoping identity: PASS ({elapsed:.3f}s, 16 (n,p) pairs, K=200)")


def test_acceptance_2_partner_equality():
    """Constructed partner's sum equals the closed form to 1e-9 relative, 50 configs."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260801)
    trunc = 50
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 5))
        m = int(rng.integers(0, p))
        n = int(rng.integers(1, 4))
        op = OperatorParams(
            lam=float(rng.uniform(0.0, 1.0)),
            m=m,
            omega=int(rng.integers(0, 3)),
        )
        alpha = float(rng.uniform(-math.pi, math.pi))
        beta = alpha - float(rng.uniform(-math.pi, math.pi))
        delta = delta_lower_bound_n(p, m, alpha, beta) + float(rng.uniform(0.5, 2.5))
        # cap |B| by the weight mass so double rounding cannot eat the 1e-9 budget
        mass = sum(blend_derivative_weight(k, p, op) for k in range(n, trunc + 1))
        cap = min(0.5, 5.0e4 / mass)
        count = int(rng.integers(0, trunc - n + 2))
        g = MultivalentFunction(p, n, _gauss(rng, count, cap))
        nb = NeighborhoodParams(alpha, beta, delta)
        partner = telescoping_partner(g, op, nb, trunc)
        lhs = sufficient_n(partner, g, op, nb).lhs
        closed = partner_weighted_sum(p, n, m, delta, alpha, beta, trunc)
        rel = abs(lhs - closed) / closed
        worst = max(worst, rel)
        assert rel <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2: partner equality: PASS ({elapsed:.3f}s, worst rel err {worst:.2e})")


def test_acceptance_3_sum_criteria_imply_membership():
    """500 instances per side: sum criterion holding forces the boundary sup test."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260802)
    for target, suff, member in (
        ("inside_sufficient_n", sufficient_n, membership_n),
        ("inside_sufficient_m", sufficient_m, membership_m),
    ):
        violations = 0
        for _ in range(500):
            spec = _draw_spec(rng)
            f, g, nb = generate_pair(spec, target)
            op = spec.operator
            assert suff(f, g, op, nb).holds, (target, spec)
            if not member(f, g, op, nb, 4096).holds:
                violations += 1
        assert violations == 0, target
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3: sum-to-membership implication: PASS ({elapsed:.3f}s, 2x500, 0 violations)")


def test_acceptance_4_aligned_modulus_equality():
    """Modulus-form lhs equals the twisted-difference lhs on 200 aligned pairs."""
    rng = np.random.default_rng(20260803)
    worst = 0.0
    for _ in range(200):
        spec = _draw_spec(rng, trunc_max=10, omega_max=2)
        local = np.random.default_rng(spec.seed)
        alpha = float(local.uniform(-math.pi, math.pi))
        beta = alpha - float(local.uniform(-math.pi, math.pi))
        count = spec.trunc - spec.n + 1
        thetas = local.uniform(-math.pi, math.pi, count)
        f = MultivalentFunction(
            spec.p, spec.n, tuple(local.uniform(0.0, 1.0, count) * np.exp(1j * thetas))
        )
        g = MultivalentFunction(
            spec.p,
            spec.n,
            tuple(local.uniform(0.0, 1.0, count) * np.exp(1j * (thetas - beta + alpha))),
        )
        delta = delta_lower_bound_n(spec.p, spec.m, alpha, beta) + float(
            local.uniform(0.05, 2.0)
        )
        nb = NeighborhoodParams(alpha, beta, delta)
        op = spec.operator
        plain = sufficient_n(f, g, op, nb).lhs
        modulus = sufficient_n_modulus(f, g, op, nb, ArgAlignment()).lhs
        gap = abs(plain - modulus) / max(1.0, plain, modulus)
        worst = max(worst, gap)
        assert gap <= 1e-10
    print(f"\nACCEPTANCE 4: aligned modulus equality: PASS (200 pairs, worst rel gap {worst:.2e})")


def test_acceptance_5_transfer_implication():
    """200 forced transfer hypotheses carry the conclusion; same with m=0."""
    rng = np.random.default_rng(20260804)
    for label, force_m0 in (("general", False), ("m=0 specialization", True)):
        for _ in range(200):
            spec = _draw_spec(rng)
            if force_m0:
                spec = InstanceSpec(
                    p=spec.p, n=spec.n, m=0, omega=spec.omega, lam=spec.lam,
                    trunc=spec.trunc, seed=spec.seed,
                )
            f, g, nb = generate_transfer_pair(spec)
            pair = transfer_check(f, g, spec.operator, nb, 4096)
            assert pair.hypothesis.holds, (label, spec)
            assert pair.conclusion.holds, (label, spec)
            assert not pair.falsification
    print("\nACCEPTANCE 5: transfer implication: PASS (2x200, 0 violations)")


def test_acceptance_6_max_modulus_lemma():
    """500 random witnesses: q real within 1e-6 and Re q >= vanishing order - 1e-6."""
    rng = np.random.default_rng(20260805)
    worst_imag = 0.0
    worst_slack = math.inf
    for _ in range(500):
        n_w = int(rng.integers(1, 4))
        extra = int(rng.integers(0, 6))
        coeffs = [0j] * n_w + list(
            rng.standard_normal(extra + 1) + 1j * rng.standard_normal(extra + 1)
        )
        if all(c == 0 for c in coeffs):
            coeffs[n_w] = 1.0 + 0j
        witness = lemma_witness(coeffs, n_w, float(rng.uniform(0.3, 0.9)))
        worst_imag = max(worst_imag, abs(witness.q.imag))
        worst_slack = min(worst_slack, witness.q.real - n_w)
        assert abs(witness.q.imag) <= 1e-6
        assert witness.q.real >= n_w - 1e-6
    print(
        f"\nACCEPTANCE 6: max-modulus lemma: PASS (500 witnesses, "
        f"worst |Im q| {worst_imag:.2e}, min Re q - n {worst_slack:.2e})"
    )


def test_acceptance_7_oracle_agreement():
    """Production sup vs dense FFT sampling within 1e-6 on 1000 degree<=64 polys."""
    rng = np.random.default_rng(20260806)
    worst = 0.0
    for _ in range(1000):
        degree = int(rng.integers(0, 65))
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        scale = np.abs(c).sum()
        if scale == 0.0:
            c[0] = 1.0
            scale = 1.0
        c /= scale
        produced, _ = max_modulus_on_circle(c, 4096)
        sampled = sup_oracle(c, 1 << 18)
        gap = abs(produced - sampled)
        worst = max(worst, gap)
        assert gap <= 1e-6
    print(f"\nACCEPTANCE 7: oracle agreement: PASS (1000 polynomials, worst gap {worst:.2e})")


def test_acceptance_8_rotation_invariance():
    """All verdicts invariant under (alpha, beta) -> (alpha+t, beta+t) to 1e-12."""
    rng = np.random.default_rng(20260807)
    grid = 1024

    def snapshot(f, g, op, nb):
        pair = transfer_check(f, g, op, nb, grid)
        return [
            sufficient_n(f, g, op, nb),
            sufficient_m(f, g, op, nb),
            membership_n(f, g, op, nb, grid),
            membership_m(f, g, op, nb, grid),
            pair.hypothesis,
            pair.conclusion,
        ]

    for _ in range(100):
        spec = _draw_spec(rng, trunc_max=10)
        f, g, nb = generate_pair(spec, "unconstrained")
        op = spec.operator
        base = snapshot(f, g, op, nb)
        for _ in range(10):
            t = float(rng.uniform(-math.pi, math.pi))
            moved = snapshot(
                f, g, op, NeighborhoodParams(nb.alpha + t, nb.beta + t, nb.delta)
            )
            for before, after in zip(base, moved):
                assert before.holds == after.holds
                assert _rel_ok(before.lhs, after.lhs, 1e-12)
                assert _rel_ok(before.threshold, after.threshold, 1e-12)
                anchor = max(1.0, abs(before.lhs), abs(before.threshold))
                assert abs(before.margin - after.margin) <= 1e-12 * anchor
    print("\nACCEPTANCE 8: rotation invariance: PASS (100 instances x 10 shifts)")


def test_acceptance_9_specialization_regressions():
    """Collapsed weights are exactly k+p; reduced necessity form is reproduced."""
    # weight collapse at m = omega = lam = 0, exact rationals for k <= 32
    op0 = OperatorParams()
    for p in range(1, 9):
        for k in range(1, 33):
            assert exact_blend_derivative_weight(k, p, op0) == Fraction(k + p)
            assert exact_blend_weight(k, p, op0) == Fraction(1)
            assert blend_derivative_weight(k, p, op0) == float(k + p)

    # reduced necessity form: p=1, alpha=0, beta free in (0, pi]:
    # sum (k+1) |a_{k+1} - e^{i beta} b_{k+1}| <= delta + cos beta - 1
    rng = np.random.default_rng(20260808)
    for _ in range(20):
        beta = float(rng.uniform(0.05, math.pi))
        n = int(rng.integers(1, 3))
        count = int(rng.integers(1, 6))
        b = _gauss(rng, count, 0.5)
        rho = rng.uniform(0.001, 0.02, count)
        phi = float(rng.uniform(-0.5, 0.5))
        ks = range(n, n + count)
        diffs = [rho[i] * cmath.exp(1j * k * phi) for i, k in enumerate(ks)]
        a = tuple(cmath.exp(1j * beta) * bk + dk for bk, dk in zip(b, diffs))
        f = MultivalentFunction(1, n, a)
        g = MultivalentFunction(1, n, b)
        reduced = sum((k + 1) * r for k, r in zip(ks, rho))
        radical = 2.0 * abs(math.sin(0.5 * beta))
        delta = radical + reduced + 0.5  # membership guaranteed with margin
        nb = NeighborhoodParams(0.0, beta, delta)
        verdict = necessary_n(f, g, op0, nb, ArgAlignment(phi=phi))
        assert verdict.holds and not verdict.falsification
        assert _rel_ok(verdict.lhs, reduced, 1e-12)
        assert abs(verdict.threshold - (delta + math.cos(beta) - 1.0)) <= 1e-13
    print("\nACCEPTANCE 9: specialization regressions: PASS (weights k<=32 exact; 20 reduced-form instances)")
