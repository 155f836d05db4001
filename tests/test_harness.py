"""Instance generators, the lemma checker and the property-suite runner."""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pvalent import (
    GENERATOR_TARGETS,
    DomainError,
    FalsificationError,
    InstanceSpec,
    MultivalentFunction,
    NeighborhoodParams,
    OperatorParams,
    SUITES,
    delta_lower_bound_n,
    generate_pair,
    generate_transfer_pair,
    lemma_witness,
    membership_n,
    run_property_suite,
    sufficient_m,
    sufficient_n,
    transfer_check,
)
from pvalent import criteria, harness, series

GOLDEN = Path(__file__).parent / "golden"


def spec_with(seed, **kw):
    base = dict(p=2, n=1, m=0, omega=1, lam=0.4, trunc=8, coeff_magnitude=1.0)
    base.update(kw)
    return InstanceSpec(seed=seed, **base)


# ---------------------------------------------------------------------------
# InstanceSpec and generate_pair
# ---------------------------------------------------------------------------


def test_instance_spec_validation():
    with pytest.raises(DomainError):
        InstanceSpec(p=1, n=1, m=1, omega=0, lam=0.0, trunc=3)
    with pytest.raises(DomainError):
        InstanceSpec(p=2, n=2, m=0, omega=0, lam=0.0, trunc=1)
    with pytest.raises(DomainError):
        InstanceSpec(p=2, n=1, m=0, omega=0, lam=2.0, trunc=3)
    # the operator's own rules: m and omega are integers, never bools
    for m, omega in ((0.5, 0), (True, 0), (0, 1.5), (0, True)):
        with pytest.raises(DomainError):
            InstanceSpec(p=2, n=1, m=m, omega=omega, lam=0.0, trunc=3)
    # and so are p, n, trunc and seed, checked when the spec is built
    valid = dict(p=2, n=1, m=0, omega=0, lam=0.0, trunc=3)
    for name, value in (("p", 2.5), ("n", 1.5), ("trunc", 3.5), ("seed", 1.5), ("p", True)):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            InstanceSpec(**{**valid, name: value})
    # coeff_magnitude is a finite positive real number
    for value in (math.inf, math.nan, "1", True, 0.0, -1.0):
        with pytest.raises(DomainError, match="coeff_magnitude must be"):
            InstanceSpec(**valid, coeff_magnitude=value)


def test_generate_pair_is_deterministic():
    spec = spec_with(321)
    first = generate_pair(spec, "inside_sufficient_n")
    second = generate_pair(spec, "inside_sufficient_n")
    assert first[0].coeffs == second[0].coeffs
    assert first[1].coeffs == second[1].coeffs
    assert (first[2].alpha, first[2].beta, first[2].delta) == (
        second[2].alpha,
        second[2].beta,
        second[2].delta,
    )


def test_generate_pair_unknown_target():
    with pytest.raises(DomainError):
        generate_pair(spec_with(1), "inside_everything")


def test_generate_pair_targets_land_inside():
    for seed in range(15):
        spec = spec_with(seed, p=3, m=1, omega=2, n=2, trunc=9)
        f, g, nb = generate_pair(spec, "inside_sufficient_n")
        v = sufficient_n(f, g, spec.operator, nb)
        assert v.holds and 0.0 < v.lhs <= 0.95 * v.threshold * (1 + 1e-9)
        f, g, nb = generate_pair(spec, "inside_sufficient_m")
        v = sufficient_m(f, g, spec.operator, nb)
        assert v.holds and v.lhs <= 0.95 * v.threshold * (1 + 1e-9)


def test_generate_pair_delta_margin():
    for seed in range(10):
        f, g, nb = generate_pair(spec_with(seed), "unconstrained")
        bound = delta_lower_bound_n(2, 0, nb.alpha, nb.beta)
        assert nb.delta >= bound + 0.01


def test_zero_difference_scale_collapses_pair():
    """Rebuilding f with the twisted difference scaled to zero gives the
    twisted copy of g: every twisted difference (hence every sum lhs) is 0."""
    spec = spec_with(5)
    _, g, nb = generate_pair(spec, "unconstrained")
    inv = cmath.exp(1j * nb.alpha).conjugate()
    twist = cmath.exp(1j * nb.beta)
    f0 = MultivalentFunction(g.p, g.n, tuple(inv * (twist * bk) for bk in g.coeffs))
    v = sufficient_n(f0, g, spec.operator, nb)
    assert v.lhs <= 1e-10


def test_generate_transfer_pair_forces_hypothesis():
    for seed in range(10):
        spec = spec_with(seed, p=3, n=2, m=1, trunc=7)
        f, g, nb = generate_transfer_pair(spec)
        pair = transfer_check(f, g, spec.operator, nb)
        assert pair.hypothesis.holds


GOLDEN_DRAW_SPECS = (
    dict(p=1, n=1, m=0, omega=0, lam=0.0, trunc=1, seed=0),
    dict(p=2, n=1, m=0, omega=1, lam=0.4, trunc=8, seed=321),
    dict(p=2, n=2, m=1, omega=3, lam=1.0, trunc=12, seed=7),
    dict(p=3, n=1, m=2, omega=2, lam=0.7, trunc=12, coeff_magnitude=0.25, seed=2**63 - 1),
    dict(p=4, n=3, m=1, omega=0, lam=0.5, trunc=9, coeff_magnitude=3.0, seed=12345),
    dict(p=4, n=1, m=3, omega=4, lam=0.1, trunc=10, seed=2**40 + 3),
    dict(p=1, n=3, m=0, omega=2, lam=0.9, trunc=12, coeff_magnitude=1e-3, seed=99),
    dict(p=3, n=2, m=0, omega=1, lam=0.25, trunc=5, coeff_magnitude=10.0, seed=-5),
)


def generator_draws_document() -> dict:
    """float.hex of every drawn coefficient and neighborhood parameter of
    `generate_pair` (each target) and `generate_transfer_pair` on fixed specs."""

    def record(spec, generator, f, g, nb):
        return {
            "spec": spec.to_dict(),
            "generator": generator,
            "alpha": nb.alpha.hex(),
            "beta": nb.beta.hex(),
            "delta": nb.delta.hex(),
            "f": [[c.real.hex(), c.imag.hex()] for c in f.coeffs],
            "g": [[c.real.hex(), c.imag.hex()] for c in g.coeffs],
        }

    draws = []
    for kw in GOLDEN_DRAW_SPECS:
        spec = InstanceSpec(**kw)
        for target in GENERATOR_TARGETS:
            draws.append(record(spec, target, *generate_pair(spec, target)))
        draws.append(record(spec, "transfer", *generate_transfer_pair(spec)))
    return {"draws": draws}


def test_golden_generator_draws():
    """Seeded draws are pinned bit for bit across versions, not only within one run."""
    golden = json.loads((GOLDEN / "generator_draws.json").read_text(encoding="utf-8"))
    assert generator_draws_document() == golden


# ---------------------------------------------------------------------------
# lemma witness
# ---------------------------------------------------------------------------


def test_lemma_monomial_ratio_is_order():
    for n_w in (1, 2, 3):
        coeffs = [0j] * n_w + [1.0]
        w = lemma_witness(coeffs, n_w, 0.5)
        assert abs(w.q - n_w) < 1e-9
        assert abs(abs(w.z0) - 0.5) < 1e-12


def test_lemma_hand_case():
    # w = z + z^2/2 at r0 = 0.5: maximiser on the positive axis, q = 0.75/0.625
    w = lemma_witness([0.0, 1.0, 0.5], 1, 0.5)
    assert abs(w.z0 - 0.5) < 1e-8
    assert abs(w.q - 1.2) < 1e-8
    assert abs(w.max_modulus - 0.625) < 1e-10


def test_lemma_rejects_bad_inputs():
    with pytest.raises(DomainError):
        lemma_witness([0.0, 0.0], 1, 0.5)  # identically zero
    with pytest.raises(DomainError):
        lemma_witness([1.0, 1.0], 1, 0.5)  # does not vanish at 0
    with pytest.raises(DomainError):
        lemma_witness([0.0, 1.0], 1, 1.5)  # radius outside (0, 1)
    with pytest.raises(DomainError):
        lemma_witness([0.0, 1.0], 0, 0.5)  # order below 1
    # the order is an integer and the radius a finite real number
    for n_w, r0 in ((1.5, 0.5), (True, 0.5), (1, "0.5"), (1, True), (1, math.nan)):
        with pytest.raises(DomainError):
            lemma_witness([0.0, 0.0, 1.0], n_w, r0)
    # every coefficient is a number, never a bool or a string
    for bad in ("1", "x", None, True, [1.0]):
        message = f"w coefficient must be a complex number, got {bad!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            lemma_witness([0.0, bad], 1, 0.5)
    with pytest.raises(DomainError, match="w coefficients must be a sequence, got None"):
        lemma_witness(None, 1, 0.5)
    w = lemma_witness([0, Fraction(1, 2), np.float32(0.25)], 1, 0.5)
    assert w.w_coeffs == (0j, 0.5 + 0j, 0.25 + 0j)


def test_lemma_random_batch():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n_w = int(rng.integers(1, 4))
        upper = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coeffs = [0j] * n_w + list(upper)
        r0 = float(rng.uniform(0.3, 0.9))
        w = lemma_witness(coeffs, n_w, r0)
        assert abs(w.q.imag) <= 1e-6
        assert w.q.real >= n_w - 1e-6


def test_lemma_detects_violation_with_hostile_tolerance(monkeypatch):
    # impossible requirement Re q >= n_w for a lower-order zero: the checker
    # must raise rather than return a witness
    monkeypatch.setattr(harness, "LEMMA_TOL", -5.0)
    with pytest.raises(FalsificationError):
        lemma_witness([0.0, 1.0, 0.0], 1, 0.5)


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


def test_unknown_suite_rejected():
    # an unhashable name is an unknown suite too, not a TypeError
    for suite in ("no_such_suite", [1], {"a": 1}, None):
        with pytest.raises(DomainError, match="unknown suite"):
            run_property_suite(suite, 5)


def test_zero_trials_rejected():
    with pytest.raises(DomainError):
        run_property_suite("determinism", 0)
    # trials and seed are integers, never bools
    for trials, seed in ((2.5, 0), (True, 0), (1, 1.5), (1, "1")):
        with pytest.raises(DomainError, match="must be an integer"):
            run_property_suite("determinism", trials, seed)


def test_report_is_deterministic():
    a = run_property_suite("salagean_semigroup", 6, seed=13)
    b = run_property_suite("salagean_semigroup", 6, seed=13)
    assert a.to_document() == b.to_document()
    assert "wall" not in a.to_document()  # timing only in the text summary
    assert "PASS" in a.text_summary()


def test_every_suite_passes_smoke():
    for name in sorted(SUITES):
        report = run_property_suite(name, 3, seed=2)
        assert report.failures == 0, (name, report.first_counterexample)
        assert report.passes == 3


_FAILED = criteria.Verdict(False, 1.0, 0.0)


def _never(*args):
    return False


def _failed_members(family, pair, grid=criteria.DEFAULT_GRID):
    """`membership_with_sum` on a pair that the trial built, failing both verdicts."""
    assert isinstance(pair, criteria._Pair)
    return _FAILED, _FAILED


def _drifting_generate_pair(monkeypatch):
    """generate_pair whose delta grows by one on every call."""
    real = harness.generate_pair
    calls = itertools.count()

    def drifting(spec, target="unconstrained"):
        f, g, nb = real(spec, target)
        return f, g, NeighborhoodParams(nb.alpha, nb.beta, nb.delta + next(calls))

    monkeypatch.setattr(harness, "generate_pair", drifting)


#: One patch per suite that makes every trial of it report a counterexample.
FORCED_FAILURES = {
    "salagean_first_order": lambda mp: mp.setattr(harness, "_series_equal", _never),
    "salagean_semigroup": lambda mp: mp.setattr(harness, "_series_equal", _never),
    "blend_linearity": lambda mp: mp.setattr(harness, "complex_close", _never),
    "blend_derivative_consistency": lambda mp: mp.setattr(harness, "_series_equal", _never),
    "weight_exactness": lambda mp: mp.setattr(harness, "exact_blend_weight", lambda *a: Fraction(0)),
    "rotation_invariance": lambda mp: mp.setattr(harness, "_rel_close", _never),
    "thm_2_1_implication": lambda mp: mp.setattr(criteria, "membership_with_sum", _failed_members),
    "thm_2_4_implication": lambda mp: mp.setattr(criteria, "membership_with_sum", _failed_members),
    "alignment_equality": lambda mp: mp.setattr(harness, "_rel_close", _never),
    "telescoping_closed_form": lambda mp: mp.setattr(
        harness, "Fraction", lambda num=0, den=1: Fraction(num, den + 1)
    ),
    "sum_monotonicity": lambda mp: mp.setattr(
        criteria, "sufficient_n", lambda f, *a: criteria.Verdict(True, -len(f.coeffs), 0.0)
    ),
    "specialization_weights": lambda mp: mp.setattr(
        harness, "blend_derivative_weight", lambda *a: -1.0
    ),
    "thm_2_11_implication": lambda mp: mp.setattr(
        criteria, "transfer_check", lambda *a: criteria.ImplicationPair(_FAILED, _FAILED)
    ),
    "oracle_agreement": lambda mp: mp.setattr(harness, "sup_oracle", lambda *a: 10.0),
    "lemma_max_modulus": lambda mp: mp.setattr(harness, "LEMMA_TOL", -5.0),
    "determinism": _drifting_generate_pair,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_reports_a_forced_failure(name, monkeypatch):
    # a suite added without a forced failure here fails this test
    assert set(FORCED_FAILURES) == set(SUITES)
    FORCED_FAILURES[name](monkeypatch)
    report = run_property_suite(name, 2, seed=3)
    assert report.failures == 2 and report.passes == 0
    counterexample = report.first_counterexample
    assert counterexample["trial"] == 0
    json.dumps(report.to_document())
    summary = report.text_summary()
    assert "result   : FAIL" in summary
    assert f"first counterexample: {counterexample}" in summary


def test_rotation_trials_take_each_supremum_and_weight_vector_once(monkeypatch):
    # per trial, two parameter sets, each one pair read by the transfer and
    # both memberships: two suprema and two weight passes per pair
    sups, weights = itertools.count(), itertools.count()
    sup, weight_pass = criteria.max_modulus_on_circle, series._weight_pass

    def counted_sup(*args, **kwargs):
        next(sups)
        return sup(*args, **kwargs)

    def counted_weights(*args, **kwargs):
        next(weights)
        return weight_pass(*args, **kwargs)

    monkeypatch.setattr(criteria, "max_modulus_on_circle", counted_sup)
    monkeypatch.setattr(series, "_weight_pass", counted_weights)
    assert run_property_suite("rotation_invariance", 5, seed=0).passed
    assert (next(sups), next(weights)) == (20, 20)


def test_membership_oracle_not_fooled_by_failed_instances():
    # an instance wildly outside the neighborhood must fail membership
    f = MultivalentFunction(1, 1, (100.0,))
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, 0.0, 1.0)
    v = membership_n(f, g, OperatorParams(), nb)
    assert not v.holds
