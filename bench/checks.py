"""Checks one op's output against the reference fixed at set-up.

`check_op` returns a list of (failure class, message) pairs; an empty list
means the op passed.  Only the `KNOWN_DEFECTS` classes may occur in a run
that still counts as correct: they are the open defects the benchmark is
meant to show, and `failed` counts them.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

#: A supremum below the reference's rigorous lower bound by more than this
#: share is an underestimate; above its rigorous upper bound, an overestimate.
SUP_TOL = 1e-6
#: Relative tolerance for sums, thresholds and image coefficients.
VALUE_TOL = 1e-9

#: The boundary supremum can read low when the grid is coarse for the degree.
KNOWN_DEFECTS = frozenset({"sup_low"})


def _close(x: float, y: float, rel: float = VALUE_TOL) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y))


def _expected(lo: float, hi: float, thr: float, strict: bool) -> bool | None:
    """Verdict implied by a reference value in [lo, hi]; None when too close to call."""
    slack = VALUE_TOL * max(abs(hi), abs(thr))
    if (hi < thr - slack) if strict else (hi <= thr - slack):
        return True
    if lo >= thr + slack:
        return False
    return None


class _Checker:
    def __init__(self):
        self.failures: list[tuple[str, str]] = []

    def fail(self, cls: str, msg: str) -> None:
        self.failures.append((cls, msg))

    def sup(self, label: str, lhs: float, enclosure) -> None:
        lo, hi = enclosure
        if lhs < lo * (1.0 - SUP_TOL):
            self.fail("sup_low", f"{label}: supremum {lhs!r} below reference [{lo!r}, {hi!r}]")
        elif lhs > hi * (1.0 + SUP_TOL):
            self.fail("sup_high", f"{label}: supremum {lhs!r} above reference [{lo!r}, {hi!r}]")

    def verdict(self, label: str, v: dict, thr: float, lo: float, hi: float, strict: bool) -> None:
        """Threshold, internal consistency, falsification flag and expected verdict."""
        if not _close(v["threshold"], thr):
            self.fail("value", f"{label}: threshold {v['threshold']!r}, expected {thr!r}")
        own = v["lhs"] < v["threshold"] if strict else v["lhs"] <= v["threshold"]
        if v["holds"] != own:
            self.fail("verdict", f"{label}: holds={v['holds']} contradicts its own lhs and threshold")
        if v.get("falsification"):
            self.fail("falsification", f"{label}: falsification event")
        want = _expected(lo, hi, thr, strict)
        if want is not None and v["holds"] != want:
            self.fail("verdict", f"{label}: holds={v['holds']}, reference says {want}")

    def sum_verdict(self, label: str, v: dict, total: float, err: float, thr: float) -> None:
        """A weighted sum known to within `err` plus the relative tolerance."""
        if abs(v["lhs"] - total) > VALUE_TOL * max(abs(v["lhs"]), abs(total)) + err:
            self.fail("value", f"{label}: lhs {v['lhs']!r}, reference {total!r} +- {err!r}")
        self.verdict(label, v, thr, total - err, total + err, strict=False)

    def exit_code(self, code: int, holds: bool) -> None:
        want = 0 if holds else 1
        if code != want:
            self.fail("exit_code", f"exit code {code}, expected {want}")


def check_op(ref: dict, outcome: dict) -> list[tuple[str, str]]:
    """Compare one op's outcome with its reference."""
    if "exception" in outcome:
        return [("exception", outcome["exception"])]
    c = _Checker()
    kind = ref["type"]
    if kind == "suite":
        if outcome["trials"] != 1 or outcome["failures"] != 0:
            c.fail("suite", f"{outcome['failures']} of {outcome['trials']} trials failed: "
                            f"{outcome.get('first')}")
        return c.failures
    code = outcome["code"]
    if kind in ("apply", "construct"):
        if code != 0:
            c.fail("exit_code", f"exit code {code}, expected 0")
            return c.failures
        (_check_apply if kind == "apply" else _check_construct)(c, ref, outcome["stdout"])
        return c.failures
    doc = outcome.get("doc")
    if code not in (0, 1) or doc is None:
        c.fail("exit_code", f"exit code {code} without a report")
        return c.failures
    verdict = doc["verdict"]
    if kind == "member":
        c.sup("membership", verdict["lhs"], ref["sup"])
        c.verdict("membership", verdict, ref["delta"], *ref["sup"], strict=True)
        c.sum_verdict("sufficient side", doc["sufficient_side"], ref["sum"], ref["err"],
                      ref["sum_thr"])
        if doc.get("falsification"):
            c.fail("falsification", "membership report flags a falsification")
    elif kind == "thm211":
        hyp = doc["hypothesis"]
        c.sup("hypothesis", hyp["lhs"], ref["hyp_sup"])
        c.verdict("hypothesis", hyp, ref["hyp_thr"], *ref["hyp_sup"], strict=True)
        c.sup("conclusion", verdict["lhs"], ref["con_sup"])
        c.verdict("conclusion", verdict, ref["con_thr"], *ref["con_sup"], strict=True)
    else:  # "nec" and "suff" compare a weighted sum
        c.sum_verdict(kind, verdict, ref["sum"], ref["err"], ref["thr"])
    c.exit_code(code, verdict["holds"])
    return c.failures


def _check_apply(c: _Checker, ref: dict, stdout: str) -> None:
    rows = [line.split() for line in stdout.splitlines() if line and not line.startswith("#")]
    n = ref["n"]
    want = 1 + len(ref["re"])
    if len(rows) != want:
        c.fail("value", f"{len(rows)} image terms, expected {want}")
        return
    exps = [int(r[0]) for r in rows]
    if exps != [0, *range(n, n + want - 1)]:
        c.fail("value", "image exponents differ from 0, n..K")
        return
    got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    expect = np.concatenate(([ref["lead"]], np.array(ref["re"]) + 1j * np.array(ref["im"])))
    bad = np.abs(got - expect) > VALUE_TOL * np.maximum(np.abs(got), np.abs(expect))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        c.fail("value", f"image term at exponent {exps[i]}: {got[i]!r}, reference {expect[i]!r}")


def _check_construct(c: _Checker, ref: dict, stdout: str) -> None:
    doc = json.loads(stdout)
    coeffs = doc["coefficients"]
    if doc["n"] != ref["n"] or len(coeffs) != ref["count"]:
        c.fail("value", f"partner has {len(coeffs)} coefficients from n={doc['n']}, "
                        f"expected {ref['count']} from n={ref['n']}")
        return
    a = np.array([complex(re, im) for re, im in coeffs])
    b = np.array(ref["g_re"]) + 1j * np.array(ref["g_im"])
    d = cmath.exp(1j * ref["alpha"]) * a - cmath.exp(1j * ref["beta"]) * b
    lhs = math.fsum(np.array(ref["weights"]) * np.abs(d))
    if abs(lhs - ref["lhs"]) > VALUE_TOL * ref["excess"]:
        c.fail("value", f"partner sum {lhs!r}, closed form {ref['lhs']!r}")
