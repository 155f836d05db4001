"""Instance generators, the lemma checker and the property-suite runner."""

from __future__ import annotations

import cmath
import json
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


def test_lemma_random_batch():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n_w = int(rng.integers(1, 4))
        upper = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coeffs = [0j] * n_w + list(upper)
        r0 = float(rng.uniform(0.3, 0.9))
        w = lemma_witness(coeffs, n_w, r0, grid=1 << 14)
        assert abs(w.q.imag) <= 1e-6
        assert w.q.real >= n_w - 1e-6


def test_lemma_detects_violation_with_hostile_tolerance():
    # impossible requirement Re q >= n_w for a lower-order zero: the checker
    # must raise rather than return a witness
    with pytest.raises(FalsificationError):
        lemma_witness([0.0, 1.0, 0.0], 1, 0.5, tolerance=-5.0)


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_property_suite("no_such_suite", 5)


def test_zero_trials_rejected():
    with pytest.raises(DomainError):
        run_property_suite("determinism", 0)


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


def test_membership_oracle_not_fooled_by_failed_instances():
    # an instance wildly outside the neighborhood must fail membership
    f = MultivalentFunction(1, 1, (100.0,))
    g = MultivalentFunction(1, 1)
    nb = NeighborhoodParams(0.0, 0.0, 1.0)
    v = membership_n(f, g, OperatorParams(), nb)
    assert not v.holds
