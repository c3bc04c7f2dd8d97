#!/usr/bin/env python3
"""Run every shipped dataset through its counting pipeline and print verdicts.

Equivalent CLI calls are noted next to each step; this script exists so the
whole certification story can be replayed in one command:

    python3 scripts/run_pipelines.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from cijt.cli import load_dataset
from cijt.morse import resonance_check, verify

DATASETS = os.path.join(os.path.dirname(__file__), os.pardir, "datasets")

PIPELINES = [
    ("s2_elliptic.json", "1.1"),
    ("s3_elliptic.json", "1.5"),
    ("s2_hyperbolic.json", "1.8"),
]


def main():
    failures = 0
    for name, label in PIPELINES:
        ds = load_dataset(os.path.join(DATASETS, name))
        res = resonance_check(ds)
        verdict = verify(label, ds)  # cijt verify <dataset> --theorem <label>
        t = verdict.details["tuple"]
        print(
            "%-20s theorem %s: resonance %s, N = %d, m = %s -> %s"
            % (
                name,
                label,
                "ok" if res.passes else "FAIL",
                t["N"],
                t["m"],
                "PASS" if verdict.passed else "FAIL",
            )
        )
        for check in verdict.details["checks"]:
            if not check["pass"]:
                print("    failed: %s" % check["check"])
        if not (res.passes and verdict.passed):
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
