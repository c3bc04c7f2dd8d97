"""Child process of the benchmark: runs the program, never judges it.

    worker.py <plan> <out> <seconds> <trace>

runs passes over the plan's instances through cijt.cli.main and writes the
timings, digests, outputs and set-up samples (setup_probe.py) to <out>.

A pass calls `cijt.cli.main(argv)` once per instance, one after another, with
stdout and stderr captured.  With trace 0 passes repeat until `seconds` have
gone (at least MIN_PASSES).  With trace 1 untraced and traced passes
alternate over the same time, so the traced ÷ untraced ratio is measured
under the same machine conditions.  Before the first pass and after each
untraced one, SETUP_BATCH fresh interpreters time the set-up, and more
batches follow the last pass until there are SETUP_SAMPLES in all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MIN_PASSES = 3
SETUP_BATCH = 3
# One sample's set-up time spreads by IQR/median ~0.14 even at reference
# speed; a three-pass run (pipelines) gave only 12 samples, and the median
# of those moved by 0.09 IQR/median between runs.
SETUP_SAMPLES = 30


def run_instance(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            rc = exc.code
        except Exception as exc:  # a traceback is a failed instance, not a crashed benchmark
            rc, error = None, "%s: %s" % (type(exc).__name__, exc)
    elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue(), error


def one_pass(cli, instances, results, tracer=None):
    """Run every instance once.  Untraced passes run under the speed probe and
    keep each instance's time without the probe's bursts and at reference speed."""
    total = 0.0
    with speed.Probe() if tracer is None else contextlib.nullcontext() as probe:
        for inst in instances:
            r = results.setdefault(inst["id"], {"times": [], "ref_times": [], "digests": [], "rc": [],
                                                "traced_times": []})
            if tracer is not None:
                tracer.set_instance(inst["id"])
                elapsed, rc, out, err, error = run_instance(cli, inst["argv"])
                r["traced_times"].append(elapsed)
            else:
                start = probe.mark()
                _, rc, out, err, error = run_instance(cli, inst["argv"])
                elapsed, ref = probe.reference_s(start, probe.mark())
                r["times"].append(elapsed)
                r["ref_times"].append(ref)
            total += elapsed
            r["digests"].append(hashlib.sha256(out.encode()).hexdigest())
            r["rc"].append(rc)
            if "stdout" not in r:
                r.update(stdout=out, stderr=err[-2000:], error=error)
    return total


def sample_setup(paths, samples):
    """SETUP_BATCH fresh interpreters, each timing import + loads."""
    for _ in range(SETUP_BATCH):
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "setup_probe.py"), *paths],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(proc.stdout))


def m_scanned(problem, t, originals):
    """Iterates the engine's linear scan visits for a returned tuple: from
    M_bar up to its cap int((N + 2C + 4) / ihat) + 2 M_bar in steps of M_bar,
    with the generator path and C taken as engine.find_tuple takes them."""
    from cijt.normal_forms import N2, R

    def bit_angles(p):
        return sum(1 for b in p.monodromy.blocks if isinstance(b, (R, N2)) and not b.theta.is_rational)

    counts = [bit_angles(p) for p in problem.paths]
    if not max(counts):
        return 0  # no lattice condition: the engine scans N, not m
    gen = problem.paths[counts.index(max(counts))]
    ihat = float(originals["iteration.mean_index"](gen))
    c = originals["normal_forms.crossing_sum"](gen.monodromy)
    cap = int((t.N + 2 * c + 4) / ihat) + 2 * t.M_bar
    return cap // t.M_bar


def layer_stats(tracer):
    totals = tracer.totals()
    per_instance = {
        iid: {key: round(v[1], 6) for key, v in per.items()} for iid, per in tracer.stats.items()
    }
    scanned = {}
    for iid, problem, t in tracer.found:
        scanned[iid] = scanned.get(iid, 0) + m_scanned(problem, t, tracer.originals)
    return {
        "totals": {key: list(v) for key, v in totals.items()},
        "self_by_instance": per_instance,
        "m_scanned": scanned,
    }


def passes(plan_path, out_path, seconds, trace):
    with open(plan_path) as fh:
        plan = json.load(fh)
    instances = plan["instances"]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cijt.cli as cli

    paths = sorted({inst["argv"][1] for inst in instances})
    results = {}
    doc = {"pass_s": [], "traced_pass_s": [], "layers": [], "setup": []}
    # set-up samples go between passes, so they see the same machine as the passes
    sample_setup(paths, doc["setup"])
    start = perf_counter()
    if not trace:
        while len(doc["pass_s"]) < MIN_PASSES or perf_counter() - start < seconds:
            doc["pass_s"].append(one_pass(cli, instances, results))
            sample_setup(paths, doc["setup"])
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer

        tracer = Tracer()
        while not doc["traced_pass_s"] or perf_counter() - start < seconds:
            doc["pass_s"].append(one_pass(cli, instances, results))
            sample_setup(paths, doc["setup"])
            tracer.begin_pass()
            tracer.install()
            try:
                doc["traced_pass_s"].append(one_pass(cli, instances, results, tracer))
            finally:
                tracer.uninstall()
            doc["layers"].append(layer_stats(tracer))
        tracer.write_spans(plan["spans_path"])
    while len(doc["setup"]) < SETUP_SAMPLES:
        sample_setup(paths, doc["setup"])
    doc["instances"] = results
    with open(out_path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    passes(sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1")
