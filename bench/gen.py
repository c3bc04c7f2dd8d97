"""Seeded instance generator for the benchmark workloads.

`generate(workload, seed, workdir, datasets_dir)` writes schema-1 dataset
JSON files into `workdir` and returns the instances to run: one `cijt` argv
each, with the reason it was drawn.  The same seed gives byte-identical files
and the same argv lists.  Draws whose mean index is not positive are refused
(the program would reject them at load time, which is not what a workload is
meant to measure).

Random angles follow the style of `scripts/make_datasets.py` and of
`_random_problem` in the acceptance tests; shipped datasets are copied
unchanged into `workdir` so the program only ever reads generated files.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from oracle import Surd

WORKLOADS = ("verify-s2-ladder", "pipelines", "search-ladder")
DEFAULT_SEED = 0

# One k per band, delta = 1/k.  Each band is the full range of k whose
# theorem-1.1 tuple and opposite tuple land on one rung pair, so every seed
# does the same work: k = 161 already moves the first pair to {754, 1220},
# k = 422 the second to {1974, 3194}, k = 1104 the third to {5168, 8362}.
RUNG_BANDS = (
    (100, 160, "N on the rung pair {466, 754}"),
    (300, 421, "N on the rung pair {1220, 1974}"),
    (700, 1103, "N on the rung pair {3194, 5168}: Betti sums dominate"),
)

PIPELINES = (
    ("s3_elliptic.json", "1.5", "odd d, q = 5 records, N = 31008: census and Morse sweeps"),
    ("s2_elliptic.json", "1.1", "even d, N = 754: multiplicity pipeline at the default delta"),
    ("s2_hyperbolic.json", "1.8", "all-hyperbolic records: the contradiction pipeline"),
)

SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)

# base surds of the acceptance tests' randomized problems
BASES = (
    Surd(Fraction(-1), Fraction(1), 2),
    Surd(Fraction(3), Fraction(-1), 5),
    Surd(Fraction(-1, 2), Fraction(1, 2), 5),
    Surd(Fraction(-1), Fraction(1), 3),
    Surd(Fraction(-1, 2), Fraction(1, 2), 7),
)
# The acceptance tests also draw 3/5; with denominator 5 the common period
# M_bar reaches 30 and one draw cost up to 0.84 s against a mean of 0.02 s
# (480 draws), so the pass time would follow the seed.
RATIONAL_ANGLES = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2))
HYPERBOLIC_LAMBDAS = (2, -2, 3)

SEARCH_DELTAS = (Fraction(1, 10**3), Fraction(1, 10**4), Fraction(1, 10**5))
SINGLES_PER_DELTA = 8
MIXED_COUNT = 8
MIXED_DELTA = Fraction(1, 10**3)


@dataclass
class Instance:
    id: str
    argv: list
    why: str
    seeded: bool  # the output depends on the seed, so its digest is only pinned at DEFAULT_SEED
    expect: Optional[dict] = None  # known answer {"N": .., "m": [..]}
    oracle: Optional[dict] = None  # single-angle data for the brute-force minimality scan

    def to_json(self):
        return dict(self.__dict__)


def _write(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dataset(shape, records, bumpy=True):
    doc = {"version": 1, "shape": {"d": shape[0], "n": shape[1]}, "records": records}
    if not bumpy:
        doc["options"] = {"bumpy": False}
    return doc


def _record(name, i1, blocks):
    return {"name": name, "initial_index": i1, "blocks": blocks}


def _rotation(theta: Surd):
    return {"type": "R", "theta_over_pi": theta.to_json()}


def _rational(r: Fraction) -> Surd:
    return Surd(r, Fraction(0), 1)


def mean_index(i1: int, angles) -> Surd:
    """i1 - r + sum of theta/pi over the r rotation blocks (D blocks add 0)."""
    out = Surd(Fraction(i1), Fraction(0), 1)
    for t in angles:
        if t.b and out.b and t.s != out.s:
            raise ValueError("mixed radicands are not drawn")
        out = Surd(out.a + t.a - 1, out.b + t.b, t.s if t.b else out.s)
    return out


def _positive(i1, angles) -> bool:
    return mean_index(i1, angles).sign() > 0


def _copy(datasets_dir, name, workdir):
    dst = os.path.join(workdir, name)
    shutil.copyfile(os.path.join(datasets_dir, name), dst)
    return dst


def _draw_angle(rng) -> Surd:
    while True:
        s = rng.choice(SQUAREFREE)
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 4))
        t = Surd(a, b, s)
        # keep theta/pi in (0, 2) and well away from 0, 1 and 2, so delta_0 >= 1/40
        # and delta is never shrunk
        if 0.05 < float(t) < 1.95 and abs(float(t) - 1) > 0.05:
            return t


def _verify_ladder(rng, workdir, datasets_dir):
    path = _copy(datasets_dir, "s2_elliptic.json", workdir)
    out = []
    for j, (lo, hi, why) in enumerate(RUNG_BANDS, 1):
        k = rng.randint(lo, hi)
        out.append(Instance(
            "rung%d" % j,
            ["verify", path, "--theorem", "1.1", "--delta", "1/%d" % k],
            "theorem 1.1 at delta = 1/%d, k drawn from [%d, %d]: %s" % (k, lo, hi, why),
            seeded=True,
        ))
    return out


def _pipelines(rng, workdir, datasets_dir):
    out = []
    for name, theorem, why in PIPELINES:
        path = _copy(datasets_dir, name, workdir)
        out.append(Instance(
            "theorem%s" % theorem,
            ["verify", path, "--theorem", theorem],
            "theorem %s on %s at the default delta: %s" % (theorem, name, why),
            seeded=False,
        ))
    return out


def _search(kind_id, path, delta, vertex, why, seeded, **extra):
    argv = ["cijt", path, "--delta", "%d/%d" % (delta.numerator, delta.denominator)]
    if extra.get("m_bar", 1) != 1:
        argv += ["--m-bar", str(extra["m_bar"])]
    if vertex != "auto":
        argv += ["--vertex", vertex]
    return Instance("%s:%s" % (kind_id, vertex), argv, why, seeded,
                    expect=extra.get("expect"), oracle=extra.get("oracle"))


def _single(rng, j, delta, workdir):
    theta, i1 = _draw_angle(rng), rng.randint(1, 3)
    while not _positive(i1, [theta]):  # refused: redraw
        theta, i1 = _draw_angle(rng), rng.randint(1, 3)
    path = os.path.join(workdir, "single%02d.json" % j)
    _write(path, _dataset((2, 1), [_record("g", i1, [_rotation(theta)])]))
    oracle = {"i1": i1, "theta": theta.to_json(), "delta": [delta.numerator, delta.denominator]}
    desc = "single-angle path i(c) = %d, theta/pi = %s + %s*sqrt(%d), delta = %s" % (
        i1, theta.a, theta.b, theta.s, delta)
    # The opposite vertex of a random angle has a heavy-tailed cost below 1e-3:
    # 0.3 +- 0.24 s per draw at 1e-5 (max 1.2 s in 40 draws), and at 1e-4 the
    # eight draws of one seed summed to 0.22 +- 0.12 s over 20 seeds, the
    # largest seed-dependent share of a pass.  So random angles take the
    # opposite vertex at 1e-3 only; the fixed sqrt(2) anchor covers it at 1e-6.
    vertices = ("auto",) if delta < Fraction(1, 10**3) else ("auto", "opposite")
    return [
        _search("single%02d" % j, path, delta, v,
                desc + ": engine float prefilter scan and exact certification",
                True, oracle=dict(oracle, vertex=v))
        for v in vertices
    ]


def _mixed(rng, j, workdir):
    """q <= 3 paths of one half-dimension: at most one irrationally elliptic
    (angles tied to one base surd), the rest hyperbolic or rational elliptic."""
    q = rng.randint(1, 3)
    h = rng.randint(1, 2)  # half-dimension shared by every record
    irr_slot = rng.randrange(q)
    records, kinds = [], []
    for k in range(q):
        name = "p%d" % k
        if k == irr_slot and rng.random() < 0.8:
            base = rng.choice(BASES)
            angles = [base]
            if h == 2:
                twice = base.scale(2)
                angles.append(twice if 0 < float(twice) < 2 else Surd(2 - base.a, -base.b, base.s))
            i1 = rng.randint(1, 3)
            while not _positive(i1, angles):  # refused: redraw the initial index
                i1 = rng.randint(1, 3)
            records.append(_record(name, i1, [_rotation(t) for t in angles]))
            kinds.append("irrational")
        elif rng.random() < 0.5:
            i1 = rng.randint(1, 4)
            blocks = [{"type": "D", "lambda": _rational(Fraction(rng.choice(HYPERBOLIC_LAMBDAS))).to_json()}
                      for _ in range(h)]
            records.append(_record(name, i1, blocks))
            kinds.append("hyperbolic")
        else:
            i1, r = rng.randint(1, 3), rng.choice(RATIONAL_ANGLES)
            while not _positive(i1, [_rational(r)] * h):  # refused: redraw
                i1, r = rng.randint(1, 3), rng.choice(RATIONAL_ANGLES)
            records.append(_record(name, i1, [_rotation(_rational(r))] * h))
            kinds.append("rational")
    m_bar = rng.randint(1, 10)
    path = os.path.join(workdir, "mixed%02d.json" % j)
    _write(path, _dataset((2, 1) if h == 1 else (3, 1), records, bumpy="rational" not in kinds))
    why = "mixed problem q = %d (%s), m_bar = %d, delta = %s: verify_tuple and nullity over m_bar" % (
        q, ", ".join(kinds), m_bar, MIXED_DELTA)
    # Known gap: opposite_tuple raises CertificationError (exit 1) on every
    # rational elliptic path (Delta + Delta' = 0 != C = 1), so problems with one
    # run at the auto vertex only.  Once that is fixed, run them at "opposite"
    # too, as the workload intends, and add their digests to reference.json.
    vertices = ("auto",) if "rational" in kinds else ("auto", "opposite")
    return [_search("mixed%02d" % j, path, MIXED_DELTA, v, why, True, m_bar=m_bar)
            for v in vertices]


def _search_ladder(rng, workdir, datasets_dir):
    anchor = _copy(datasets_dir, "single_sqrt2.json", workdir)
    why = "single_sqrt2 anchor with a known answer"
    out = [
        _search("sqrt2-1e-2", anchor, Fraction(1, 100), "auto", why, False,
                expect={"N": 29, "m": [70]}),
        _search("sqrt2-1e-2", anchor, Fraction(1, 100), "opposite", why, False,
                expect={"N": 70, "m": [169]}),
        _search("sqrt2-1e-6", anchor, Fraction(1, 10**6), "auto", why + " (m = 470832 scanned)", False,
                expect={"N": 195025, "m": [470832]}),
        _search("sqrt2-1e-6", anchor, Fraction(1, 10**6), "opposite",
                "single_sqrt2 opposite vertex at 1e-6: the deepest fixed scan", False),
    ]
    j = 0
    for delta in SEARCH_DELTAS:
        for _ in range(SINGLES_PER_DELTA):
            out += _single(rng, j, delta, workdir)
            j += 1
    for j in range(MIXED_COUNT):
        out += _mixed(rng, j, workdir)
    return out


def generate(workload: str, seed: int, workdir: str, datasets_dir: str) -> list:
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    build = {
        "verify-s2-ladder": _verify_ladder,
        "pipelines": _pipelines,
        "search-ladder": _search_ladder,
    }[workload]
    return build(rng, workdir, datasets_dir)
