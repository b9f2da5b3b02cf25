#!/usr/bin/env python3
"""Run every certificate pipeline with default parameters and print the
reports.  Exits nonzero if any verdict fails."""

import argparse
import sys
from fractions import Fraction

from isotopelab import run_witness


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    jobs = [
        ("lemma1", {}),
        ("lemma6", {}),
        ("lemma10", {}),
        ("lemma11", {"rho": Fraction(1)}),
        ("lemma11", {"rho": Fraction(-1, 2)}),
        ("theorem1", {"abg": (Fraction(2), Fraction(1), Fraction(4))}),
        ("theorem2", {}),
        ("prop1", {"n": 3}),
        ("prop1", {"n": 8}),
        ("prop2", {"n": 3}),
        ("prop2", {"n": 8}),
    ]
    failures = 0
    for name, kwargs in jobs:
        cert = run_witness(name, **kwargs)
        print(cert.render())
        print()
        if not cert.verdict:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
