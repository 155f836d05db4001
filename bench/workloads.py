"""Inputs and reference outputs of the benchmark workloads.

Everything here is derived from the workload seed alone and uses only
numpy and exact rationals: no code of the package under test runs while
inputs and references are built, so a change to the package cannot move
its own yardstick.

* Operator weights come from the closed form
  W(k) = (k+p)!/(k+p-m)! (k+p-m)^Omega (1 + lam k/(p-m)) / (p-m)^Omega
  evaluated as one exact ratio of integers and rounded once.
* Boundary suprema come from dense FFT sampling with a rigorous upper
  bound: |P|^2 on the circle is a trigonometric polynomial of degree d, so
  Bernstein's inequality applied twice bounds the loss of the best of N
  samples, max |P| <= lo / sqrt(1 - d^2 pi^2 / (2 N^2)).

A plan is a list of ops (the closed-loop cycle) plus one untimed warm-up
op.  Each op carries its reference, which `checks.check_op` compares with
what the program produced.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

EPS = np.finfo(float).eps

WORKLOADS = ("check_highdeg", "coeff_highdeg", "suite_mix")

# check_highdeg: every slot is (criterion, K, grid); grid None is the CLI
# default (4096).  The reduced-grid slice samples below twice the degree,
# where the supremum is known to read low.  Its instances are drawn from
# REDUCED_GRID_KEY, not from the workload seed, so every run carries the
# same ones and they fail alike in every run until the supremum is fixed.
# The 38-op cycle puts p50 in the middle of the 17 checks at K = 256 and
# p90 among the K = 2048 checks.
CHECK_CRITERIA = ("member-n", "member-m", "thm211", "nec-n", "nec-m")
CHECK_DEGREES = {64: 2, 256: 3, 1024: 1, 2048: 1}
CHECK_REDUCED_GRID = (("member-n", 256, 64), ("member-m", 256, 64), ("member-n", 2048, 1024))
REDUCED_GRID_KEY = 1

# coeff_highdeg: (command, K) -> ops per cycle.  The 22-op cycle puts
# construct@3000 in the top 1/22 of latencies and construct@2000 in the next
# 2/22, so p90 falls inside the construct@2000 group.  Slot i takes its
# (p, m, Omega) from COEFF_FAMILIES in turn, the rest from the seed: the
# cost of the exact factorial ratios in construct depends on the family,
# so drawing the family would make a cycle's cost depend on the seed.
COEFF_SLOTS = {
    **{(c, K): 2 for c in ("suff-n", "suff-m", "apply") for K in (500, 2000, 3000)},
    ("construct", 500): 1,
    ("construct", 2000): 2,
    ("construct", 3000): 1,
}
COEFF_FAMILIES = ((2, 1, 1), (1, 0, 0), (3, 1, 2), (3, 2, 0), (2, 0, 2), (3, 0, 1))

# suite_mix: suite -> trials per round.  Every op is a fresh trial: one
# trial's cost depends strongly on its draw (a lemma_max_modulus trial with
# a monomial witness takes 30x the others), so a few fixed trials per seed
# would make the cost of a cycle depend on the seed.  The 120-trial round
# puts the cheap algebraic suites in the lowest third of latencies, the
# 3-ms implication suites in the middle third (p50 at its centre) and the
# heavy suites in the top sixth (p90 inside it).  generator_soundness is
# left out: it runs exactly the thm_2_1_implication trial.
SUITE_MIX = {
    "oracle_agreement": 10,
    "lemma_max_modulus": 10,
    "rotation_invariance": 10,
    "thm_2_11_implication": 10,
    "thm_2_1_implication": 20,
    "thm_2_4_implication": 20,
    "weight_exactness": 10,
    "blend_linearity": 5,
    "alignment_equality": 5,
    "sum_monotonicity": 5,
    "telescoping_closed_form": 10,
    "determinism": 5,
}


# ---------------------------------------------------------------------------
# exact weights and reference suprema
# ---------------------------------------------------------------------------


def falling(top: int, count: int) -> int:
    out = 1
    for j in range(count):
        out *= top - j
    return out


def exact_weights(params: dict, ks, side: str) -> np.ndarray:
    """Weights W(k) (side "m") or (k+p-m) W(k) (side "n"), each rounded once.

    lam is a binary float, num/den exactly, so every weight is one ratio of
    integers and Python's int / int rounds it correctly.
    """
    p, m, omega = params["p"], params["m"], params["Omega"]
    num, den = Fraction(params["lambda"]).as_integer_ratio()
    base = p - m
    scale = base**omega * base * den
    extra = 1 if side == "n" else 0
    return np.array([
        falling(k + p, m) * (k + p - m) ** (omega + extra) * (base * den + num * k) / scale
        for k in ks
    ])


def lead(params: dict, side: str) -> int:
    """Constant term p!/(p-m)! (side "m") or p!/(p-m-1)! (side "n")."""
    return falling(params["p"], params["m"] + (1 if side == "n" else 0))


def radical(alpha: float, beta: float) -> float:
    """|e^{i alpha} - e^{i beta}|."""
    return 2.0 * abs(math.sin(0.5 * (alpha - beta)))


def sup_enclosure(coeffs: np.ndarray) -> tuple[float, float]:
    """Rigorous [lo, hi] around max |P| on the unit circle."""
    nz = np.flatnonzero(coeffs)
    degree = int(nz[-1]) if nz.size else 0
    points = max(1 << 16, 1 << math.ceil(math.log2(512 * max(degree, 1))))
    lo = float(np.abs(np.fft.fft(coeffs, points)).max())
    loss = (degree * math.pi / points) ** 2 / 2.0
    return lo, lo / math.sqrt(1.0 - loss)


def twisted(pair: dict) -> np.ndarray:
    """e^{i alpha} a_k - e^{i beta} b_k over k = n..K, in floats."""
    return cmath.exp(1j * pair["alpha"]) * pair["a"] - cmath.exp(1j * pair["beta"]) * pair["b"]


def difference_polynomial(pair: dict, side: str) -> np.ndarray:
    """Dense coefficients of e^{i alpha} P_f - e^{i beta} P_g for one family."""
    params, n = pair["params"], pair["params"]["n"]
    ks = range(n, n + len(pair["a"]))
    out = np.zeros(n + len(pair["a"]), dtype=np.complex128)
    out[0] = lead(params, side) * (cmath.exp(1j * pair["alpha"]) - cmath.exp(1j * pair["beta"]))
    out[n:] = exact_weights(params, ks, side) * twisted(pair)
    return out


def weighted_sum(pair: dict, side: str) -> tuple[float, float]:
    """(sum_k w_k |e^{i alpha} a_k - e^{i beta} b_k|, bound on its rounding error).

    Forming the twisted difference in floats can cancel; any route that
    forms it from the stored a and b, as the program must, is off by up to
    a few ulps of |a| + |b|, so the bound scales with those, not with the sum.
    """
    params, n = pair["params"], pair["params"]["n"]
    w = exact_weights(params, range(n, n + len(pair["a"])), side)
    d = np.abs(twisted(pair))
    scale = np.abs(pair["a"]) + np.abs(pair["b"]) + d
    return math.fsum(w * d), 8.0 * EPS * math.fsum(w * scale)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def _gauss(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


def _params(rng: np.random.Generator, family: tuple[int, int, int] | None = None) -> dict:
    """Random family parameters; `family` fixes (p, m, Omega) instead of drawing them."""
    if family is None:
        p = int(rng.integers(1, 4))
        family = (p, int(rng.integers(0, p)), int(rng.integers(0, 3)))
    p, m, omega = family
    return {
        "p": p,
        "n": int(rng.integers(1, 3)),
        "m": m,
        "lambda": float(rng.uniform(0.0, 1.0)),
        "Omega": omega,
    }


def sup_pair(rng: np.random.Generator, K: int, side: str, aligned: bool) -> dict:
    """A pair whose difference polynomial has O(1) coefficients up to degree K.

    Both b_k and the twisted difference d_k are scaled by 1/weight, so f and g
    are of one size and forming e^{i alpha} a - e^{i beta} b loses no digits.
    With `aligned`, arg d_k = k phi and 0 <= alpha < beta <= pi, as the
    necessity bounds require.
    """
    params = _params(rng)
    n = params["n"]
    ks = range(n, K + 1)
    w = exact_weights(params, ks, side)
    if aligned:
        alpha = float(rng.uniform(0.0, 1.0))
        beta = alpha + float(rng.uniform(0.1, 0.6))
        phi = float(rng.uniform(-math.pi, math.pi))
        d = rng.uniform(0.2, 1.0, len(w)) * np.exp(1j * phi * np.arange(n, K + 1))
    else:
        alpha = float(rng.uniform(-math.pi, math.pi))
        beta = alpha - float(rng.uniform(-0.6, 0.6))
        phi = None
        d = _gauss(rng, len(w))
    b = _gauss(rng, len(w)) / w
    a = cmath.exp(-1j * alpha) * (cmath.exp(1j * beta) * b + d / w)
    return {"params": params, "alpha": alpha, "beta": beta, "phi": phi, "a": a, "b": b}


def inside_pair(rng: np.random.Generator, K: int, side: str, family=None) -> dict:
    """A pair built to sit inside the sufficient criterion of one family.

    Mirrors how one draws such pairs: g has O(1) coefficients and the twisted
    difference is rescaled to a fraction of the threshold.  At high K the
    weights are large, the difference is tiny next to g, and rounding in
    a = e^{-i alpha}(e^{i beta} b + d) can push the stored pair outside; the
    reference verdict is computed from the stored coefficients either way.
    """
    params = _params(rng, family)
    n = params["n"]
    alpha = float(rng.uniform(-math.pi, math.pi))
    beta = alpha - float(rng.uniform(-math.pi, math.pi))
    strict = lead(params, "n") * radical(alpha, beta)
    delta = strict + float(rng.uniform(0.05, 2.0))
    threshold = delta - lead(params, side) * radical(alpha, beta)
    w = exact_weights(params, range(n, K + 1), side)
    b = _gauss(rng, len(w))
    d = _gauss(rng, len(w))
    d *= float(rng.uniform(0.05, 0.95)) * threshold / math.fsum(w * np.abs(d))
    a = cmath.exp(-1j * alpha) * (cmath.exp(1j * beta) * b + d)
    return {"params": params, "alpha": alpha, "beta": beta, "delta": delta, "a": a, "b": b}


def write_function(path: Path, params: dict, coeffs: np.ndarray) -> str:
    doc = dict(params, coefficients=[[float(c.real), float(c.imag)] for c in coeffs])
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _files(pair: dict, workdir: Path, tag: str) -> list[str]:
    return [
        write_function(workdir / f"{tag}_f.json", pair["params"], pair["a"]),
        write_function(workdir / f"{tag}_g.json", pair["params"], pair["b"]),
    ]


def _angles(pair: dict, delta: float) -> list[str]:
    return [f"--alpha={pair['alpha']!r}", f"--beta={pair['beta']!r}", f"--delta={delta!r}"]


# ---------------------------------------------------------------------------
# check_highdeg
# ---------------------------------------------------------------------------


def _pick_delta(rng, sup_lo: float, floor: float) -> float:
    """delta at 0.3x or 1.5x the supremum.

    A verdict then flips only if a supremum reads more than 70 % low, so the
    known underestimates count as inaccurate suprema, not as wrong verdicts.
    """
    delta = (0.3 if rng.random() < 0.5 else 1.5) * sup_lo
    return delta if delta > 1.001 * floor + 1e-9 else 1.5 * sup_lo


def check_op(rng, criterion: str, K: int, grid: int | None, workdir: Path, tag: str) -> dict:
    grid_args = [] if grid is None else [f"--grid={grid}"]
    if criterion in ("member-n", "member-m", "nec-n", "nec-m"):
        side = criterion[-1]
        aligned = criterion.startswith("nec")
        pair = sup_pair(rng, K, side, aligned)
        params = pair["params"]
        bound = lead(params, side) * radical(pair["alpha"], pair["beta"])
        lo, hi = sup_enclosure(difference_polynomial(pair, side))
        total, err = weighted_sum(pair, side)
        argv = ["check", *_files(pair, workdir, tag), f"--criterion={criterion}"]
        if aligned:
            delta = 1.5 * lo  # the necessity bounds need verified membership
            # both families bound the sum by delta - p!/(p-m-1)! (cos alpha - cos beta)
            gap = math.cos(pair["alpha"]) - math.cos(pair["beta"])
            thr = delta - lead(params, "n") * gap
            ref = {"type": "nec", "sum": total, "err": err, "thr": thr}
            argv += _angles(pair, delta) + [f"--phi={pair['phi']!r}"]
        else:
            delta = _pick_delta(rng, lo, bound)
            ref = {
                "type": "member", "sup": [lo, hi], "delta": delta,
                "sum": total, "err": err, "sum_thr": delta - bound,
            }
            argv += _angles(pair, delta)
    else:  # thm211: derivative-side hypothesis, value-side conclusion
        pair = sup_pair(rng, K, "n", False)
        params = pair["params"]
        p, n, m = params["p"], params["n"], params["m"]
        rad = radical(pair["alpha"], pair["beta"])
        hyp = sup_enclosure(difference_polynomial(pair, "n"))
        con = sup_enclosure(difference_polynomial(pair, "m"))
        floor = lead(params, "n") * rad / (p + n - m)
        delta = _pick_delta(rng, con[0], floor + lead(params, "m") * rad) - lead(params, "m") * rad
        if delta <= 1.001 * floor + 1e-9:
            delta = 2.0 * floor + con[0]
        ref = {
            "type": "thm211",
            "hyp_sup": list(hyp), "hyp_thr": delta * (p + n - m) - lead(params, "n") * rad,
            "con_sup": list(con), "con_thr": delta + lead(params, "m") * rad,
        }
        argv = ["check", *_files(pair, workdir, tag), "--criterion=thm211", *_angles(pair, delta)]
    out = str(workdir / f"{tag}_report.json")
    return {"kind": "cli", "name": f"{criterion}@{K}/{grid or 'default'}",
            "argv": argv + grid_args + [f"--out={out}"], "out": out, "ref": ref}


def check_highdeg(seed: int, workdir: Path) -> dict:
    slots = [
        (c, K, None) for c in CHECK_CRITERIA for K, reps in CHECK_DEGREES.items()
        for _ in range(reps)
    ]
    ops = []
    for i, (criterion, K, grid) in enumerate(slots):
        rng = np.random.default_rng([seed, 1, i])
        ops.append(check_op(rng, criterion, K, grid, workdir, f"c{i}"))
    for i, (criterion, K, grid) in enumerate(CHECK_REDUCED_GRID):
        rng = np.random.default_rng([REDUCED_GRID_KEY, 3, i])
        ops.append(check_op(rng, criterion, K, grid, workdir, f"r{i}"))
    warmup = check_op(np.random.default_rng([seed, 0]), "member-n", 64, None, workdir, "w")
    return {"warmup": warmup, "ops": ops}


# ---------------------------------------------------------------------------
# coeff_highdeg
# ---------------------------------------------------------------------------


def coeff_op(rng, command: str, K: int, workdir: Path, tag: str, family=None) -> dict:
    name = f"{command}@{K}"
    if command in ("suff-n", "suff-m"):
        side = command[-1]
        pair = inside_pair(rng, K, side, family)
        bound = lead(pair["params"], side) * radical(pair["alpha"], pair["beta"])
        argv = ["check", *_files(pair, workdir, tag), f"--criterion={command}",
                *_angles(pair, pair["delta"])]
        out = str(workdir / f"{tag}_report.json")
        total, err = weighted_sum(pair, side)
        ref = {"type": "suff", "sum": total, "err": err, "thr": pair["delta"] - bound}
        return {"kind": "cli", "name": name, "argv": argv + [f"--out={out}"], "out": out, "ref": ref}
    if command == "apply":
        params = _params(rng, family)
        coeffs = _gauss(rng, K - params["n"] + 1)
        path = write_function(workdir / f"{tag}_f.json", params, coeffs)
        terms = exact_weights(params, range(params["n"], K + 1), "n") * coeffs
        ref = {
            "type": "apply", "lead": lead(params, "n"), "n": params["n"],
            "re": terms.real.tolist(), "im": terms.imag.tolist(),
        }
        return {"kind": "cli", "name": name, "argv": ["apply", path, "--prime"], "ref": ref}
    # construct: g scaled like the partner's own terms, so the margin stays
    # resolvable in floats after the partner is written out
    params = _params(rng, family)
    n = params["n"]
    w = exact_weights(params, range(n, K + 1), "n")
    g = _gauss(rng, K - n + 1) / w
    alpha = float(rng.uniform(-math.pi, math.pi))
    beta = alpha - float(rng.uniform(-1.0, 1.0))
    strict = lead(params, "n") * radical(alpha, beta)
    delta = strict + float(rng.uniform(0.05, 2.0))
    path = write_function(workdir / f"{tag}_g.json", params, g)
    excess = delta - strict
    p = params["p"]
    ref = {
        "type": "construct", "n": n, "count": K - n + 1, "alpha": alpha, "beta": beta,
        "weights": w.tolist(), "g_re": g.real.tolist(), "g_im": g.imag.tolist(),
        "excess": excess,
        "lhs": (n + p - 1) * excess * (1.0 / (n + p - 1) - 1.0 / (K + p)),
    }
    argv = ["construct", path, f"--delta={delta!r}", f"--alpha={alpha!r}",
            f"--beta={beta!r}", f"-K={K}"]
    return {"kind": "cli", "name": name, "argv": argv, "ref": ref}


def coeff_highdeg(seed: int, workdir: Path) -> dict:
    slots = [slot for slot, reps in COEFF_SLOTS.items() for _ in range(reps)]
    ops = [
        coeff_op(np.random.default_rng([seed, 2, i]), c, K, workdir, f"k{i}",
                 COEFF_FAMILIES[i % len(COEFF_FAMILIES)])
        for i, (c, K) in enumerate(slots)
    ]
    warmup = coeff_op(np.random.default_rng([seed, 0]), "suff-n", 500, workdir, "w")
    return {"warmup": warmup, "ops": ops}


# ---------------------------------------------------------------------------
# suite_mix
# ---------------------------------------------------------------------------


def trial_seed(seed: int, instance: int) -> int:
    """Seed of the suite_mix trial with the given instance number (-1: warm-up)."""
    return (seed << 32) + instance + 1


def suite_mix(seed: int, workdir: Path) -> dict:
    """One round of suite trials; the worker gives every run of a slot a fresh trial.

    The trial's seed is `trial_seed(seed, instance)`, instance being the
    op's position in the run, so a run is a fixed sequence of trials.
    """
    names = [suite for suite, reps in SUITE_MIX.items() for _ in range(reps)]
    ops = [
        {"kind": "suite", "name": suite, "suite": suite, "seed": seed, "ref": {"type": "suite"}}
        for suite in names
    ]
    warmup = {"kind": "suite", "name": "oracle_agreement", "suite": "oracle_agreement",
              "trial": trial_seed(seed, -1), "ref": {"type": "suite"}}
    return {"warmup": warmup, "ops": ops, "fresh": True}


PLANS = {"check_highdeg": check_highdeg, "coeff_highdeg": coeff_highdeg, "suite_mix": suite_mix}


def build(workload: str, seed: int, workdir: Path) -> dict:
    return PLANS[workload](seed, workdir)
