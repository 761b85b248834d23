"""Seeded train / parse / eval benchmark for ulfparse.

Run from the repository root:

    python3 bench/run.py --workload {train,parse,eval} --seed N \\
        --seconds S --trace {0,1}

The benchmark generates its inputs from the seed, sets the workload up
SETUP_REPEATS times (setup_s is the median), then runs a closed loop with
one client and one work unit at a time until S seconds have passed and
the round of units in progress is complete.  It checks every output,
prints each metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` the loop runs
for S/2 seconds untraced, then the same units run again with spans
around the library's public functions, and the metrics are per layer.

Reported times are reference seconds: CPU seconds of the benchmark's one
thread (``time.thread_time``), scaled by how fast a fixed probe of the
benchmark's own ran while they were spent (see SpeedProbe).  The work is
single-threaded and CPU-bound, and on a shared host the wall clock also
counts the time other tenants hold the cores, while CPU seconds stretch
when they share the core and its caches.  The deadline S is
wall time; the wall-clock and CPU rates are printed beside items_per_s.

A run always ends with a whole round of units, so a tiny S gives one
round, and two such runs of one seed print the same output digest.
Work files go to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.25  # CPU seconds between speed probes
PROBE_S = 0.007       # CPU seconds one probe takes at the reference speed
MAX_LOOP_SHARE = 0.05  # of the traced wall, for time outside the layer spans
END_TO_END = {  # name -> unit, as in BENCHMARK.json
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_environment():
    """Use the package from this checkout's src/ (it is not installed)
    and a single decode thread."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ulfparse", "__init__.py")):
        raise SystemExit("error: no ulfparse package under %s" % src)
    os.environ["ULFPARSE_THREADS"] = "1"
    for path in (HERE, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["train", "parse", "eval"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


PROBE_TABLE = list(range(1543))


def probe_work():
    """About 7 ms of interpreter work that allocates no object the garbage
    collector tracks, so its time does not depend on the library's heap."""
    table, acc = PROBE_TABLE, 0
    for i in range(60000):
        acc += table[(i * 7919) % 1543] ^ i
    return acc


class SpeedProbe:
    """Converts CPU seconds to reference seconds.

    Neighbours on a shared host slow the core for seconds at a time, and
    CPU seconds stretch with them.  While the probe is on, a fixed piece
    of pure-Python work that belongs to the benchmark, not the library,
    runs after every PROBE_EVERY_S of CPU time (on SIGPROF) and records
    its CPU time p.  A piece of work counts its CPU seconds, less the
    probes', times the mean of PROBE_S / p over the probes that ran in it.
    CPU seconds are the thread's: while a CPU timer is armed, the process
    clock advances only at scheduler ticks.
    """

    def __init__(self):
        self.samples = []

    def _fire(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        c0 = time.thread_time()
        probe_work()
        self.samples.append(time.thread_time() - c0)
        if collecting:
            gc.enable()

    def __enter__(self):
        self.old = signal.signal(signal.SIGPROF, self._fire)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self.old)

    def measure(self, fn, *args):
        """(fn(*args), CPU seconds of the call less the probes', the
        probes' CPU times)."""
        n, c0 = len(self.samples), time.thread_time()
        result = fn(*args)
        cpu = time.thread_time() - c0
        probes = self.samples[n:]
        return result, cpu - sum(probes), probes

    def reference(self, cpu_s, probes):
        """Reference seconds of cpu_s CPU seconds in which probes ran; a
        piece too short for a probe takes the mean of all probes."""
        if not (probes or self.samples):
            self._fire()
        return cpu_s * statistics.fmean(PROBE_S / p for p in probes or self.samples)


def run_unit(workload, unit):
    from workloads import Done

    try:
        return workload.run(unit)
    except Exception:  # one failed unit must not end the run
        traceback.print_exc(file=sys.stderr)
        return Done(unit, "", unit.items)


def closed_loop(workload, seconds):
    """Run units one at a time until seconds of wall time have passed and
    a round of units is complete.  Returns the finished units, with their
    CPU and reference seconds, and the wall time."""
    done, probes = [], []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        for unit in workload.units():
            d, cpu_s, p = probe.measure(run_unit, workload, unit)
            d.cpu_s = cpu_s
            done.append(d)
            probes.append(p)
            if unit.ends_round and time.perf_counter() - start >= seconds:
                break
    wall = time.perf_counter() - start
    for d, p in zip(done, probes):
        d.ref_s = probe.reference(d.cpu_s, p)
    return done, wall


def traced_pass(workload, units, tracer):
    from layers import ROOT_SPAN

    rec = tracer.rec
    done = []
    start = time.perf_counter()
    root = rec.begin(ROOT_SPAN)
    for unit in units:
        rec.set_item(unit.id)
        done.append(run_unit(workload, unit))
    rec.set_item(None)
    rec.finish(root)
    return done, time.perf_counter() - start


def tail(decodes):
    """(percentile, value) of the highest percentile, p50 or above, with at
    least ten distinct sentences decoded beyond it, given (seconds, sentence
    id) pairs; None when there is no such percentile.  A sentence decoded
    in several passes counts once beyond the percentile."""
    ordered = sorted(decodes)
    n = len(ordered)
    for pct in range(99, 49, -1):
        cut = math.ceil(pct * n / 100)
        if cut and len({i for _, i in ordered[cut:]}) >= 10:
            return pct, ordered[cut - 1][0]
    return None


def show(name, value, unit, note=""):
    print("%-34s %14.6g %-6s %s" % (name, value, unit, note))


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    pin_environment()
    import workloads as wl
    from layers import ROOT_SPAN, Tracer, per_layer_specs

    workdir = os.path.join(ROOT, ".bench_run", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))

    setup_times = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            workload = wl.WORKLOADS[args.workload](args.seed, workdir)
            _, cpu, probes = probe.measure(workload.setup)
            setup_times.append(probe.reference(cpu, probes))

    budget = args.seconds / 2 if args.trace else args.seconds
    done, wall = closed_loop(workload, budget)
    cpu = sum(d.cpu_s for d in done)
    ref = sum(d.ref_s for d in done)
    attempted = sum(d.unit.items for d in done)
    failed = sum(d.failed for d in done)
    problems = []
    setup_s = statistics.median(setup_times)
    if args.trace:
        tracer = Tracer().install()
        try:
            traced, traced_wall = traced_pass(workload, [d.unit for d in done], tracer)
        finally:
            tracer.restore()
        if wl.digest(d.output for d in traced) != wl.digest(d.output for d in done):
            problems.append("traced outputs differ from untraced outputs")
        tracer.rec.write_jsonl(os.path.join(workdir, "spans.jsonl"))
        outcome = workload.check(done)
        layer = tracer.metrics(wall, traced_wall, outcome.oracle_actions)
        own = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        print("traced %d units: wall %.4f s, untraced %.4f s, %d spans"
              % (len(traced), traced_wall, wall, len(tracer.rec)))
        specs = per_layer_specs()
        times = sorted((s for s in specs if s[1] == "s"), key=lambda s: -layer[s[0]])
        for name, unit, _ in times + [s for s in specs if s[1] != "s"]:
            if layer[name]:
                share = 100 * layer[name] / traced_wall if unit == "s" else None
                show(name, layer[name], unit, "%5.1f%%" % share if share else "")
        print("self times sum %.6f s, traced wall %.6f s" % (own, traced_wall))
        if abs(own - traced_wall) > 1e-3 * traced_wall + 1e-3:
            problems.append("self times do not sum to the traced wall time")
        # the root span takes whatever no layer span covers
        loop_share = layer[ROOT_SPAN + ".self_s"] / traced_wall
        print("%s self time %.2f%% of the traced wall" % (ROOT_SPAN, 100 * loop_share))
        if loop_share > MAX_LOOP_SHARE:
            problems.append("%.1f%% of the traced wall is outside the layer spans"
                            % (100 * loop_share))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in specs}
    else:
        outcome = workload.check(done)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        values = {"items_per_s": attempted / ref, "setup_s": setup_s,
                  "peak_rss_mb": rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    problems.extend(outcome.problems)
    item = "sentences" if args.workload != "eval" else "pairs"
    show("setup_s", setup_s, "s",
         "median of %s" % ", ".join("%.3f" % t for t in setup_times))
    show("items_per_s", attempted / ref, "1/s", "%d %s in %.3f reference s (%d units)"
         % (attempted, item, ref, len(done)))
    show("items_per_cpu_s", attempted / cpu, "1/s",
         "%.3f CPU s, %.4f reference s per CPU s" % (cpu, ref / cpu))
    show("items_per_wall_s", attempted / wall, "1/s", "%.3f s of wall time" % wall)
    unit_s = sorted(d.ref_s for d in done)
    print("%-34s %14s %-6s min %.3f, median %.3f, max %.3f, n=%d" % (
        "unit_s", "", "s", unit_s[0], statistics.median(unit_s), unit_s[-1], len(unit_s)))
    if args.workload == "parse":  # one unit is one sentence
        sentences = len({d.unit.id for d in done})
        show("item_p50_s", statistics.median(unit_s), "s", "n=%d" % len(unit_s))
        t = tail([(d.ref_s, d.unit.id) for d in done])
        if t:
            show("item_tail_s", t[1], "s", "p%d, n=%d decodes of %d sentences"
                 % (t[0], len(unit_s), sentences))
        else:
            print("%-34s %14s %-6s unavailable: n=%d decodes of %d sentences, "
                  "needs 10 distinct sentences beyond p50 or above"
                  % ("item_tail_s", "-", "s", len(unit_s), sentences))
    show("peak_rss_mb", rss_mb, "MB")
    show("fail_share", outcome.fail_share, "ratio", outcome.fail_note)
    for name, value in outcome.scores.items():
        show(name, value, "score")
    print("digest %s over %d units" % (wl.digest(d.output for d in done), len(done)))
    for p in problems:
        print("CHECK FAILED: %s" % p)
    print("checks %s" % ("passed" if not problems else "FAILED (%d)" % len(problems)))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
