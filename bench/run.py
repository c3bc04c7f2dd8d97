#!/usr/bin/env python3
"""The cijt benchmark: certified workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (it needs `src/cijt` and `datasets/`).
Load shape: batch, closed loop, one client -- one process runs the
workload's instances one after another through `cijt.cli.main(argv)`, with
no threads.  The seed only picks the inputs (see gen.py); the program gets
the generated dataset files and argv lists and nothing else.

Every instance's output is checked (exit code, verdict, known answers, the
brute-force oracle of oracle.py, and stdout digests against
reference.json); the last stdout line is one JSON object

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  End-to-end times are seconds at a fixed reference machine speed
(speed.py); the plain wall times are printed beside them.  Lines before the
JSON list every metric with its unit, the instances and, with --trace 1, one
scaling row per instance (N, m, wall time, the largest per-layer self
times).  Generated files, spans and scaling rows go to
`.bench_work/<workload>/`.  --seconds defaults to `run_seconds` of
BENCHMARK.json, the run length the bounds there were set for.

A change that means to alter the output edits reference.json by hand; a
digest failure prints the stored and the actual digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
from oracle import Surd, single_angle_hits  # noqa: E402

REFERENCE = os.path.join(BENCH, "reference.json")
ORACLE_M_MAX = 10**4
DEADLINE_S = 170  # the whole run, generation and set-up included
SLOC_MODULES = ("cli", "engine", "iteration", "scalars", "normal_forms", "loop_homology", "morse")

# per-layer metrics: function key -> the aggregates reported for it
LAYERS = {
    "cli.load_dataset": ("calls", "self_s"),
    "engine.find_tuple": ("calls", "self_s", "total_s"),
    "engine.opposite_tuple": ("calls", "self_s"),
    "engine.verify_tuple": ("calls", "self_s"),
    "engine.SelectionProblem": ("calls", "self_s"),
    "engine.delta_zero": ("calls", "self_s"),
    "engine.m_bar_for_geodesics": ("calls", "self_s"),
    "iteration.index_iterate": ("calls", "self_s"),
    "iteration.mean_index": ("calls", "self_s"),
    "iteration.path_nullity": ("calls",),
    "scalars.floor_mult": ("calls", "self_s"),
    "scalars.ceil_mult": ("calls", "self_s"),
    "scalars.frac_mult": ("calls", "self_s"),
    "scalars.is_near_lattice": ("calls", "self_s"),
    "normal_forms.nullity": ("calls", "self_s"),
    "normal_forms.unit_angles": ("calls", "self_s"),
    "loop_homology.alternating_betti_sum": ("calls", "self_s", "total_s"),
    "loop_homology.betti_partial_sum": ("self_s",),
    "loop_homology.betti": ("calls", "self_s"),
    "morse.resonance_check": ("self_s",),
    "morse.jump_census": ("calls", "self_s", "total_s"),
    "morse.morse_type_numbers": ("calls", "self_s", "total_s"),
    "morse.verify_theorem": ("calls", "self_s", "total_s"),  # 1.1, 1.5 and 1.8 together
}
VERIFY_PIPELINES = ("morse.verify_theorem_1_1", "morse.verify_theorem_1_5", "morse.verify_theorem_1_8")
AGGREGATE_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


class Failed(Exception):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    return args


def _python(script, args, timeout):
    """Run a bench script; a run past the deadline counts as a failed child."""
    try:
        return subprocess.run([sys.executable, os.path.join(BENCH, script), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return subprocess.CompletedProcess(args, 1, "", "%s: no result within %.0f s" % (script, timeout))


# -- correctness ---------------------------------------------------------------


def _check_single_oracle(inst, doc):
    """Brute-force minimality over every m up to the engine's own stopping rule."""
    o = inst["oracle"]
    theta = Surd(Fraction(*o["theta"]["a"]), Fraction(*o["theta"]["b"]), o["theta"]["s"])
    delta = Fraction(*o["delta"])
    N, m = doc["N"], doc["m"][0]
    if m > ORACLE_M_MAX:
        return False
    if doc["delta_shrunk"] or Fraction(*doc["delta"]) != delta:
        raise Failed("delta changed to %s" % (doc["delta"],))
    ihat = float(theta) + o["i1"] - 1
    cap = int((N + 2 + 4) / ihat) + 2  # C = 1 for one rotation block
    hits = single_angle_hits(o["i1"], theta, delta, cap)
    n_auto = min(h[0] for h in hits)
    _, _, chi, bit = min((h for h in hits if h[0] == n_auto), key=lambda h: h[2])
    if o["vertex"] == "opposite":
        want = (1 - chi, 1 - bit)
        hits = [h for h in single_angle_hits(o["i1"], theta, delta, cap, chi_eps=delta)
                if (h[2], h[3]) == want]
        if not hits:
            raise Failed("oracle finds no opposite tuple up to m = %d" % cap)
        if (doc["vertex"]["chi"][0], doc["vertex"]["angle_bits"][0][0]) != want:
            raise Failed("opposite vertex %s, oracle wants %s" % (doc["vertex"], want))
    best = min(h[0] for h in hits)
    if N != best or (N, m) not in {(h[0], h[1]) for h in hits}:
        raise Failed("engine (N, m) = (%d, %d), oracle minimum N = %d" % (N, m, best))
    return True


def check_instance(inst, res, reference, seed):
    """Raise Failed with the reason; return whether the oracle scan covered it."""
    if res.get("error"):
        raise Failed(res["error"])
    if any(rc != 0 for rc in res["rc"]):
        raise Failed("exit codes %s: %s" % (sorted(set(map(str, res["rc"]))), res["stderr"].strip()))
    if len(set(res["digests"])) != 1:
        raise Failed("stdout differs between passes")
    doc = json.loads(res["stdout"])
    if inst["argv"][0] == "verify":
        if doc.get("pass") is not True:
            raise Failed("verdict is not pass: true")
    elif not (doc.get("verification") or {}).get("ok"):
        raise Failed("tuple verification is not ok")
    if inst["expect"] and {"N": doc["N"], "m": doc["m"]} != inst["expect"]:
        raise Failed("N, m = %s, %s; known answer %s" % (doc["N"], doc["m"], inst["expect"]))
    if not inst["seeded"] or seed == gen.DEFAULT_SEED:
        want = reference.get(inst["id"])
        if want is None:
            raise Failed("no reference digest")
        if want != res["digests"][0]:
            raise Failed("stdout digest %s, reference %s" % (res["digests"][0], want))
    if inst["oracle"]:
        return _check_single_oracle(inst, doc)
    return False


# -- metrics -------------------------------------------------------------------


def sloc(module):
    with open(os.path.join(ROOT, "src", "cijt", module + ".py")) as fh:
        return sum(1 for line in fh if line.strip() and not line.strip().startswith("#"))


def per_layer(doc, import_s, problems):
    layers = doc["layers"]
    totals = [dict(p["totals"]) for p in layers]
    for t in totals:
        agg = [0, 0.0, 0.0]
        for key in VERIFY_PIPELINES:
            for i, v in enumerate(t.get(key, (0, 0.0, 0.0))):
                agg[i] += v
        t["morse.verify_theorem"] = agg
    counts = [{k: v[0] for k, v in t.items()} for t in totals]
    scanned = [sum(p["m_scanned"].values()) for p in layers]
    if any(c != counts[0] for c in counts[1:]) or any(s != scanned[0] for s in scanned[1:]):
        problems.append(("trace", "call counts or engine.m_scanned differ between traced passes"))

    def value(key, agg):
        if agg == "calls":  # identical in every traced pass (checked above)
            return counts[0].get(key, 0)
        i = ("calls", "self_s", "total_s").index(agg)
        return statistics.median(t.get(key, (0, 0.0, 0.0))[i] for t in totals)

    out = {}
    for key, aggs in LAYERS.items():
        for agg in aggs:
            out["%s.%s" % (key, agg)] = (value(key, agg), AGGREGATE_UNITS[agg])
    calls = out["iteration.index_iterate.calls"][0]
    out["iteration.index_iterate.us_per_call"] = (
        1e6 * out["iteration.index_iterate.self_s"][0] / calls if calls else 0.0, "us")
    out["engine.m_scanned"] = (scanned[0], "count")
    out["engine.scan_rate"] = (scanned[0] / out["engine.find_tuple.self_s"][0], "1/s")
    out["cli.import_s"] = (import_s, "s")
    for module in SLOC_MODULES:
        out["%s.sloc" % module] = (sloc(module), "lines")
    untraced = statistics.median(doc["pass_s"])
    traced = statistics.median(doc["traced_pass_s"])
    out["trace.wall_s"] = (untraced, "s")
    out["trace.traced_wall_s"] = (traced, "s")
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return out


def scaling_rows(plan, doc):
    """N, m, untraced wall time and the three largest self times per instance."""
    last = doc["layers"][-1]
    rows = []
    for inst in plan["instances"]:
        res = doc["instances"][inst["id"]]
        try:
            out = json.loads(res["stdout"])
        except ValueError:
            continue
        t = out.get("tuple", out)
        selfs = last["self_by_instance"].get(inst["id"], {})
        rows.append({
            "id": inst["id"],
            "N": t.get("N"),
            "m": t.get("m"),
            "opposite_N": out.get("opposite_tuple", {}).get("N"),
            "wall_s": statistics.median(res["times"]),
            "m_scanned": last["m_scanned"].get(inst["id"], 0),
            "self_s": selfs,
            "top": sorted(selfs.items(), key=lambda kv: -kv[1])[:3],
        })
    return rows


# -- main ----------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    started = perf_counter()
    deadline = started + DEADLINE_S
    datasets = os.path.join(ROOT, "datasets")
    if not os.path.isfile(os.path.join(ROOT, "src", "cijt", "cli.py")) or not os.path.isdir(datasets):
        print("error: run from a source checkout: src/cijt and datasets/ are missing", file=sys.stderr)
        return 2

    workdir = os.path.join(".bench_work", args.workload)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workdir))
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        instances = [i.to_json() for i in gen.generate(args.workload, args.seed, workdir, datasets)]
    finally:
        os.chdir(cwd)
    plan = {"workload": args.workload, "seed": args.seed, "instances": instances,
            "spans_path": os.path.join(workdir, "spans.jsonl")}
    plan_path = os.path.join(ROOT, workdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh, indent=1)

    # the first interpreter to import cijt writes the bytecode cache; not a sample
    proc = _python("setup_probe.py", sorted({i["argv"][1] for i in instances}), deadline - perf_counter())
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print("error: importing cijt failed", file=sys.stderr)
        return 1

    out_path = os.path.join(ROOT, workdir, "passes.json")
    proc = _python("worker.py", [plan_path, out_path, str(args.seconds), str(args.trace)],
                   deadline - perf_counter())
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print("error: the pass process failed", file=sys.stderr)
        return 1
    with open(out_path) as fh:
        doc = json.load(fh)
    setup_s = statistics.median(s["setup_ref_s"] for s in doc["setup"])
    import_s = statistics.median(s["import_s"] for s in doc["setup"])

    with open(REFERENCE) as fh:
        reference = json.load(fh).get(args.workload, {})

    failed, oracle_checked = [], 0
    for inst in instances:
        try:
            oracle_checked += check_instance(inst, doc["instances"][inst["id"]], reference, args.seed)
        except Failed as exc:
            failed.append((inst["id"], str(exc)))
        except (ValueError, KeyError, TypeError) as exc:  # unparsable output
            failed.append((inst["id"], "bad output: %r" % (exc,)))

    if args.trace:
        metrics = per_layer(doc, import_s, failed)
        rows = scaling_rows(plan, doc)
        with open(os.path.join(ROOT, workdir, "scaling.json"), "w") as fh:
            json.dump(rows, fh, indent=1)
    else:
        # one pass at reference speed (speed.py), each instance at its median
        # over the passes, so a burst of noise costs one sample, not a pass
        wall_s = sum(statistics.median(doc["instances"][i["id"]]["ref_times"]) for i in instances)
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        }

    attempted = len(instances)
    n_failed = len({iid for iid, _ in failed if iid != "trace"})
    print("workload %s seed %d: %d instances, %d passes (%s), %d oracle-checked, %.1f s"
          % (args.workload, args.seed, attempted, len(doc["pass_s"]),
             ", ".join("%.3f" % s for s in doc["pass_s"]), oracle_checked, perf_counter() - started))
    for inst in instances:
        print("  instance %-22s %s" % (inst["id"], inst["why"]))
    for iid, why in failed:
        print("FAILED %s: %s" % (iid, why))
    print("  %-44s %s" % ("failed_frac", "%.4f (%d of %d)" % (n_failed / attempted, n_failed, attempted)))
    print("  %-44s %s s, set-up %s s (plain wall times, not at reference speed)" % (
        "wall_plain_s", sum(statistics.median(doc["instances"][i["id"]]["times"]) for i in instances),
        statistics.median(s["setup_s"] for s in doc["setup"])))
    for name, (value, unit) in metrics.items():
        print("  %-44s %s %s" % (name, value, unit))
    if args.trace:
        for r in rows:
            print("  scaling %-20s N=%s m=%s wall_s=%.4f m_scanned=%d top self: %s" % (
                r["id"], r["N"], r["m"], r["wall_s"], r["m_scanned"],
                ", ".join("%s %.3f" % kv for kv in r["top"])))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
