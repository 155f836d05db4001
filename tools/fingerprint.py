"""One sha256 over the bytes a source tree produces on fixed inputs.

    python3 tools/fingerprint.py TREE

TREE is a checkout of this repository.  The script imports `pvalent` from
TREE/src and the benchmark's input builder from TREE/bench, writes nothing
into TREE, and prints the op count, the suite count and one hash over

* the exit code, stdout, stderr and ``--out`` bytes of every
  `check_highdeg` and `coeff_highdeg` CLI op (warm-up included) that
  `bench/workloads.py` `build` plans at seeds 1-3, built in one fixed work
  directory so that the paths in the ops and their messages match, and of
  every ``apply`` op run a second time with ``--out`` added, since the
  benchmark's ``apply`` ops write no series document;
* ``json.dumps(run_property_suite(s, 30, seed).to_document(), sort_keys=True)``
  for every suite s at seeds 0 and 7.

Two trees that print the same hash give the same verdicts, report bytes
and suite reports on these inputs.  The ops are the benchmark's valid
inputs, so error paths need tests of their own.  Run it on the parent and
on a change, one after the other, to show that a refactor moved no byte.  The
hash holds on one machine only: the bits of a boundary supremum depend on
the OpenBLAS kernel that evaluates it (README, Known issues), so compare
hashes taken on the same machine and never a stored one.  Two runs at once
share the work directory and must not overlap.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WORKDIR = Path(tempfile.gettempdir()) / "pvalent-fingerprint"
CLI_WORKLOADS = ("check_highdeg", "coeff_highdeg")
CLI_SEEDS = (1, 2, 3)
SUITE_TRIALS = 30
SUITE_SEEDS = (0, 7)


def _feed(digest, *parts: bytes) -> None:
    """Length-prefixed, so that no two sequences of parts hash alike."""
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)


def fingerprint(tree: Path) -> tuple[int, int, str]:
    sys.dont_write_bytecode = True  # leave TREE as it was
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads
    from pvalent import cli, harness

    digest = hashlib.sha256()
    ops = 0
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    try:
        for workload in CLI_WORKLOADS:
            for seed in CLI_SEEDS:
                plan = workloads.build(workload, seed, WORKDIR)
                for op in (plan["warmup"], *plan["ops"]):
                    runs = [(op["argv"], op.get("out", WORKDIR / "no-report"))]
                    if op["argv"][0] == "apply":
                        series = WORKDIR / "series.json"
                        runs.append(([*op["argv"], f"--out={series}"], series))
                    for argv, report in runs:
                        report = Path(report)
                        report.unlink(missing_ok=True)  # tags repeat across seeds
                        out, err = io.StringIO(), io.StringIO()
                        with redirect_stdout(out), redirect_stderr(err):
                            code = cli.main(argv)
                        report = report.read_bytes() if report.exists() else b""
                        _feed(digest, str(code).encode(), out.getvalue().encode(),
                              err.getvalue().encode(), report)
                        ops += 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    suites = sorted(harness.SUITES)
    for suite in suites:
        for seed in SUITE_SEEDS:
            doc = harness.run_property_suite(suite, SUITE_TRIALS, seed).to_document()
            _feed(digest, json.dumps(doc, sort_keys=True).encode())
    return ops, len(suites), digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0], "src", "pvalent").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    ops, suites, digest = fingerprint(Path(argv[0]).resolve())
    print(f"ops {ops}")
    print(f"suites {suites}")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
