#!/usr/bin/env python3
"""Construct the bundled geodesic datasets and write them to datasets/.

All datasets are built to satisfy the resonance identity

    sum_k gamma_k / ihat_k = B(d, n)

exactly, so the counting pipelines have something honest to certify.  The
solving is done by hand in surd arithmetic; the script re-checks every
identity before writing.

S^2 dataset (d, n) = (2, 1), B = -1.  Two elliptic records, each a single
rotation block (half-dimension dn - 1 = 1):

    c1: i(c) = 1, theta/pi = 3 - sqrt(5):  ihat = 3 - sqrt(5),
        gamma = -1  (odd index, even jump)      -> gamma/ihat = -(3+sqrt5)/4
    c2: i(c) = 2, theta/pi = (sqrt(5)-1)/2: ihat = (sqrt5+1)/2,
        gamma = +1/2 (even index, odd jump)     -> gamma/ihat = (sqrt5-1)/4

    sum = -1 = B(2,1).

S^3 dataset (d, n) = (3, 1), B = 1.  Five elliptic records with
half-dimension 2 (two rotation blocks each), built from phi = (1+sqrt5)/2
using 1/(phi-1) = phi:

    A1, A2: i = 2, angles (a, 2a) with a = 4(phi-1)/3.
            ihat = 3a = 4(phi-1), gamma = +1     -> phi/4 each
    P1, P2: i = 4, conjugate pair (phi-1, 2-(phi-1)).
            ihat = 4, gamma = +1                 -> 1/4 each
    B1:     i = 3, angles (b, 2b) with b = (phi-1)/3.
            ihat = 1 + 3b = phi, gamma = -1/2    -> -(phi-1)/2

    sum = phi/2 + 1/2 - (phi-1)/2 = 1 = B(3,1).

The doubled angle (second angle = 2 * first) does not make a record's two
lattice conditions collapse: {2ma} lies within delta of an integer iff {ma}
lies within delta/2 of a multiple of 1/2, so the second condition halves the
first one's band.  The conjugate pair on P shares one band, since
{m(2 - x)} = 1 - {mx}, so the probes that fail an angle band fall on A1, A2
and B1.  The search steps the record with the shortest k range, P1 (the
largest mean index, 4).  The pair also
pins i(c^{2m_k}) at exactly 2N, which is what the M_{2N} >= 2 step of the
odd-dimensional argument needs.

All-hyperbolic datasets: records (i_k, D-blocks) with sum gamma_k/i_k =
B(d,n) solved greedily from odd indices (gamma = -1/2) and even indices
(gamma = +1); used by the contradiction pipeline.
"""

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cijt.scalars import Exact
from cijt.normal_forms import D, R, SymplecticClass, block_to_json
from cijt.iteration import CohomologyShape, GeodesicDataset, GeodesicRecord, PathClass
from cijt.morse import resonance_check

OUT = os.path.join(os.path.dirname(__file__), "..", "datasets")


def write(name, shape, records):
    ds = GeodesicDataset(shape, records)
    rep = resonance_check(ds)
    doc = {
        "version": 1,
        "shape": {"d": shape.d, "n": shape.n},
        "records": [
            {
                "name": r.name,
                "initial_index": r.path.i1,
                "blocks": [block_to_json(b) for b in r.path.monodromy.blocks],
            }
            for r in records
        ],
    }
    path = os.path.join(OUT, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print("%-24s resonance %s  (%s records)" % (name, "pass" if rep.passes else "FAIL", len(records)))
    return rep.passes


def rec(name, i1, blocks):
    return GeodesicRecord(name, PathClass(i1, SymplecticClass(tuple(blocks))))


def main():
    os.makedirs(OUT, exist_ok=True)
    ok = True

    t35 = Exact.surd(3, -1, 5)                                  # 3 - sqrt5
    phi_m1 = Exact.surd(Fraction(-1, 2), Fraction(1, 2), 5)     # (sqrt5-1)/2
    ok &= write("s2_elliptic", CohomologyShape(2, 1), (
        rec("c1", 1, [R(t35)]),
        rec("c2", 2, [R(phi_m1)]),
    ))

    aA = phi_m1 * Fraction(4, 3)
    aB = phi_m1 * Fraction(1, 3)
    ok &= write("s3_elliptic", CohomologyShape(3, 1), (
        rec("A1", 2, [R(aA), R(aA * 2)]),
        rec("A2", 2, [R(aA), R(aA * 2)]),
        rec("P1", 4, [R(phi_m1), R(Exact(2) - phi_m1)]),
        rec("P2", 4, [R(phi_m1), R(Exact(2) - phi_m1)]),
        rec("B1", 3, [R(aB), R(aB * 2)]),
    ))

    # two odd-index hyperbolic records: -1/2 - 1/2 = -1 = B(2,1)
    ok &= write("s2_hyperbolic", CohomologyShape(2, 1), (
        rec("h1", 1, [D(Exact(2))]),
        rec("h2", 1, [D(Exact(-3))]),
    ))

    # single-record problem for tuple-search demos (not resonance-balanced)
    doc = {
        "version": 1,
        "shape": {"d": 2, "n": 1},
        "records": [
            {
                "name": "g",
                "initial_index": 1,
                "blocks": [block_to_json(R(Exact.surd(-1, 1, 2)))],
            }
        ],
    }
    with open(os.path.join(OUT, "single_sqrt2.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print("%-24s (tuple-search demo)" % "single_sqrt2")

    if not ok:
        raise SystemExit("resonance check failed for a constructed dataset")


if __name__ == "__main__":
    main()
