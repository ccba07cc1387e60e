#!/usr/bin/env python3
"""End-to-end benchmark of the Titan reproduction pipeline.

Builds the worker (`e2e-bench/`, a Cargo package of its own), then runs
one workload for a fixed time, one fresh worker process per iteration,
and prints every metric by name with its unit and sample count. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 e2e-bench/run.py --workload full-study --seed 48716 --seconds 30 --trace 0
    python3 e2e-bench/run.py --workload all          # every workload, one after another
    python3 e2e-bench/run.py --trace 1               # traced run: per-layer metrics
    python3 e2e-bench/run.py --self-test             # traced counts repeat byte for byte

Seeds: the default 48716 (0xBE4C) is the seed of every committed
BENCH_PR*.json. Seed 91193 is held out: use it only to confirm a gain
claimed on other seeds.

`--trace 0` reports the end-to-end metrics of the named workload.
`--trace 1` runs the traced composition of all three workloads (each
per-layer metric is measured on the workload INTERACTIONS.md names for
it), checks it against an untraced run of the same seed, and reports the
per-layer metrics, span coverage and tracing overhead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["full-study", "replicate-short", "observed-ckpt"]
DEFAULT_SEED = 48716  # 0xBE4C, the seed of every committed BENCH_PR*.json
WORKER_TIMEOUT_S = 170

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checks_pass", "count"),
]

# (metric, unit, end-to-end metrics it should move, workload measured on)
PER_LAYER = [
    ("simulator.setup_s", "s", "setup_s wall_s", "replicate-short"),
    ("simulator.setup.rng_draws", "count", "setup_s wall_s", "replicate-short"),
    ("simulator.setup.heap_pushes", "count", "setup_s wall_s", "replicate-short"),
    ("simulator.setup.fault_draft_rng_draws", "count", "setup_s wall_s", "replicate-short"),
    ("simulator.loop_s", "s", "wall_s", "full-study"),
    ("simulator.loop.dequeues", "count", "wall_s", "full-study"),
    ("simulator.loop.dequeues_per_s", "1/s", "wall_s", "full-study"),
    ("simulator.loop.console_lines", "count", "wall_s peak_rss_mb", "full-study"),
    ("simulator.loop.console_bytes", "B", "wall_s peak_rss_mb", "full-study"),
    ("simulator.output_records", "count", "wall_s", "full-study"),
    ("simulator.finalize_s", "s", "wall_s", "replicate-short"),
    ("conlog.render_s", "s", "wall_s peak_rss_mb", "full-study"),
    ("conlog.render.console_s", "s", "wall_s peak_rss_mb", "full-study"),
    ("conlog.render.job_s", "s", "wall_s peak_rss_mb", "full-study"),
    ("conlog.render.aprun_s", "s", "wall_s peak_rss_mb", "full-study"),
    ("conlog.render.bytes", "B", "wall_s peak_rss_mb", "full-study"),
    ("conlog.render.console_bytes", "B", "wall_s peak_rss_mb", "full-study"),
    ("conlog.render.job_bytes", "B", "wall_s peak_rss_mb", "full-study"),
    ("conlog.render.aprun_bytes", "B", "wall_s peak_rss_mb", "full-study"),
    ("conlog.parse_s", "s", "wall_s failed_ratio", "full-study"),
    ("conlog.parse.console_s", "s", "wall_s failed_ratio", "full-study"),
    ("conlog.parse.job_s", "s", "wall_s failed_ratio", "full-study"),
    ("conlog.parse.aprun_s", "s", "wall_s failed_ratio", "full-study"),
    ("conlog.parse.lines", "count", "wall_s failed_ratio", "full-study"),
    ("conlog.parse.ok_ratio", "ratio", "wall_s failed_ratio", "full-study"),
] + [
    ("analysis.%s_s" % m, "s", "wall_s", "full-study")
    for m in ["offenders", "correlation", "user_proxy", "cooccurrence", "timeseries", "spatial",
              "filtering", "interarrival", "consistency", "workload_charac", "thermal", "granularity"]
] + [
    ("analysis.records", "count", "wall_s", "full-study"),
    ("core.bundle_s", "s", "wall_s peak_rss_mb", "full-study"),
    ("core.figures_s", "s", "wall_s checks_pass", "full-study"),
    ("core.checks_s", "s", "wall_s checks_pass", "full-study"),
    ("core.checks.evaluated", "count", "wall_s checks_pass", "full-study"),
    ("core.artifacts_s", "s", "wall_s", "full-study"),
    ("core.artifacts.bytes", "B", "wall_s", "full-study"),
    ("core.report_s", "s", "wall_s", "observed-ckpt"),
    ("runner.digest_s", "s", "wall_s peak_rss_mb", "replicate-short"),
    ("runner.digest.serialize_s", "s", "wall_s peak_rss_mb", "replicate-short"),
    ("runner.digest.render_s", "s", "wall_s peak_rss_mb", "replicate-short"),
    ("runner.digest.hash_s", "s", "wall_s", "replicate-short"),
    ("runner.digest.bytes", "B", "wall_s peak_rss_mb", "replicate-short"),
    ("runner.replicate_s", "s", "wall_s", "replicate-short"),
    ("runner.replicate.efficiency", "ratio", "wall_s", "replicate-short"),
    ("runner.ckpt.run_s", "s", "wall_s peak_rss_mb", "observed-ckpt"),
    ("runner.ckpt.write_s", "s", "wall_s peak_rss_mb", "observed-ckpt"),
    ("runner.ckpt.bytes", "B", "wall_s peak_rss_mb", "observed-ckpt"),
    ("runner.ckpt.obs_bytes", "B", "wall_s peak_rss_mb", "observed-ckpt"),
    ("runner.ckpt.docs", "count", "wall_s peak_rss_mb", "observed-ckpt"),
    ("runner.ckpt.read_s", "s", "wall_s peak_rss_mb", "observed-ckpt"),
    ("runner.ckpt.resume_s", "s", "wall_s", "observed-ckpt"),
    ("runner.collect_s", "s", "wall_s", "observed-ckpt"),
    ("conlog.sec.events", "count", "wall_s", "observed-ckpt"),
    ("conlog.sec.alerts", "count", "wall_s", "observed-ckpt"),
    ("obs.loop_overhead", "ratio", "wall_s peak_rss_mb", "observed-ckpt"),
    ("obs.trace.records", "count", "wall_s peak_rss_mb", "observed-ckpt"),
    ("obs.trace.bytes", "B", "wall_s peak_rss_mb", "observed-ckpt"),
    ("obs.trace.render_s", "s", "wall_s peak_rss_mb", "observed-ckpt"),
    ("obs.trace.verify_s", "s", "wall_s", "observed-ckpt"),
    ("obs.health.render_s", "s", "wall_s", "observed-ckpt"),
    ("obs.metrics.render_s", "s", "wall_s", "observed-ckpt"),
] + [
    ("bench.%s.%s" % (w, m), "ratio", "wall_s", w)
    for w in WORKLOADS for m in ["coverage", "trace_overhead"]
]


def log(msg):
    print(msg, flush=True)


def build():
    """Builds the worker; returns its path or None."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return None
    if res.returncode != 0:
        print("build failed (exit %d)" % res.returncode, file=sys.stderr)
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    exe = os.path.join(target, "release", "titan-e2e-bench")
    return exe if os.path.isfile(exe) else None


class Worker:
    """Runs worker processes one at a time, each in a scratch directory."""

    def __init__(self, exe):
        self.exe = exe
        self.base = os.path.join(ROOT, ".bench_work", str(os.getpid()))
        self.n = 0

    def run(self, *args):
        """Returns (result dict or None, peak RSS in MB, error text)."""
        self.n += 1
        work = os.path.join(self.base, str(self.n))
        os.makedirs(work, exist_ok=True)
        cmd = [self.exe] + list(args) + ["--work-dir", work]
        out_path = os.path.join(self.base, "%d.out" % self.n)
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out)
        # wait4 gives this child's own peak RSS; poll so a hung worker
        # can be stopped (and still reaped) at the deadline.
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, "rb") as f:
            out = f.read()
        os.remove(out_path)
        shutil.rmtree(work, ignore_errors=True)
        what = " ".join(args)
        if timed_out:
            return None, rss_mb, "worker timed out: " + what
        if proc.returncode != 0:
            return None, rss_mb, "worker exit %d: %s" % (proc.returncode, what)
        try:
            return json.loads(out.decode().strip().splitlines()[-1]), rss_mb, ""
        except (ValueError, IndexError) as e:
            return None, rss_mb, "unreadable worker output (%s): %s" % (e, what)

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, result):
        self.attempted += int(result["attempted"])
        self.failed += int(result["failed"])
        self.failures += result["failures"]

    def fail(self, why):
        """One operation that failed."""
        self.attempted += 1
        self.flag(why)

    def flag(self, why):
        """A failed check of an operation already counted."""
        self.failed += 1
        self.failures.append(why)


def measure(worker, workload, seed, seconds):
    """Untraced iterations for `seconds`; returns (samples or None, tally)."""
    tally = Tally()
    walls, setups, rss, passes = [], [], [], []
    first_digests = None
    start = time.monotonic()
    while not walls or time.monotonic() - start < seconds:
        res, rss_mb, err = worker.run("iter", "--workload", workload, "--seed", str(seed))
        if res is None:
            tally.fail(err)
            if len(tally.failures) > 3 and not walls:
                break
            continue
        tally.add(res)
        walls.append(res["wall_s"])
        setups += res["setup_s"]
        rss.append(rss_mb)
        passes.append(res["checks_pass"])
        study_seeds = res["study_seeds"]
        # Every iteration of one seed must reproduce the same digests.
        if first_digests is None:
            first_digests = res["digests"]
        else:
            for key, value in res["digests"].items():
                if first_digests.get(key) != value:
                    tally.flag("%s changed between iterations" % key)
    if workload == "replicate-short" and first_digests is not None:
        # Sequential spot check, outside the timed window.
        res, _, err = worker.run("spot", "--seed", str(seed))
        if res is None:
            tally.fail(err)
        else:
            tally.attempted += 1
            bad = [k for k, v in res["digests"].items() if first_digests.get(k) != v]
            if bad:
                tally.flag("run_seed spot check differs from replicate: " + ", ".join(bad))
    if not walls:
        return None, tally
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss, "checks_pass": passes,
               "study_seeds": study_seeds}
    return samples, tally


def report_e2e(workload, seed, samples, tally):
    log("workload %s  seed %d  study seeds %s  iterations %d"
        % (workload, seed, samples["study_seeds"], len(samples["wall_s"])))
    metrics = {}
    for name, unit in END_TO_END:
        xs = samples[name]
        med = statistics.median(xs)
        q1, q3 = quartiles(xs)
        metrics[name] = {"value": med, "unit": unit}
        log("  %-13s %14.6f %-5s median of %d  (q1 %.6f, q3 %.6f)" % (name, med, unit, len(xs), q1, q3))
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    log("  %-13s %14.6f %-5s %d failed / %d attempted operations"
        % ("failed_ratio", ratio, "ratio", tally.failed, tally.attempted))
    for why in tally.failures[:10]:
        log("  FAILED: " + why)
    return metrics


def traced(worker, seed, spans_path):
    """Traced composition of every workload against an untraced run of
    the same seed; returns (per-layer metrics, tally, counts by workload)."""
    tally = Tally()
    layers, counts_by, spans = {}, {}, {}
    for workload in WORKLOADS:
        ref, _, err = worker.run("iter", "--workload", workload, "--seed", str(seed), "--identity")
        if ref is None:
            tally.fail(err)
            continue
        tr, _, err = worker.run("iter", "--workload", workload, "--seed", str(seed), "--traced")
        if tr is None:
            tally.fail(err)
            continue
        tally.add(tr)
        # The composition must reproduce the top-level calls exactly.
        tally.attempted += 1
        diff = sorted(k for k in set(ref["digests"]) | set(tr["digests"])
                      if ref["digests"].get(k) != tr["digests"].get(k))
        if diff or not tr["digests"]:
            tally.flag("%s: traced composition differs from the top-level calls: %s"
                       % (workload, ", ".join(diff) or "no digests"))
        values = dict(tr["layers"])
        values.update(tr["counts"])
        values["bench.%s.coverage" % workload] = tr["coverage"]
        values["bench.%s.trace_overhead" % workload] = tr["wall_s"] / ref["wall_s"] - 1.0
        layers[workload] = values
        counts_by[workload] = tr["counts"]
        spans[workload] = tr.get("spans", [])
        log("workload %s  study seeds %s  traced wall %.4f s  untraced wall %.4f s  "
            "overhead %+.2f%%  span coverage %.2f%%"
            % (workload, tr["study_seeds"], tr["wall_s"], ref["wall_s"],
               100 * values["bench.%s.trace_overhead" % workload], 100 * tr["coverage"]))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as f:
        json.dump({"seed": seed, "spans": spans}, f)
    metrics = {}
    log("per-layer metrics (seed %d; spans in %s):" % (seed, os.path.relpath(spans_path, ROOT)))
    for name, unit, moves, workload in PER_LAYER:
        value = layers.get(workload, {}).get(name)
        if value is None:
            tally.flag("per-layer metric %s missing from %s" % (name, workload))
            continue
        metrics[name] = {"value": value, "unit": unit}
        log("  %-40s %18.6f %-5s moves %-24s on %s" % (name, value, unit, moves, workload))
    return metrics, tally, counts_by


def self_test(worker, seed):
    """Two traced runs of one seed must emit byte-identical counts."""
    ok = True
    for workload in WORKLOADS:
        sections = []
        for _ in range(2):
            res, _, err = worker.run("iter", "--workload", workload, "--seed", str(seed), "--traced")
            if res is None:
                log("self-test %s: %s" % (workload, err))
                return False
            sections.append(json.dumps(res["counts"], sort_keys=True))
        same = sections[0] == sections[1]
        ok = ok and same
        log("self-test %s: count section %s (%d bytes)"
            % (workload, "identical" if same else "DIFFERS", len(sections[0])))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    worker = Worker(exe)
    try:
        if args.self_test:
            return 0 if self_test(worker, args.seed) else 1
        if args.trace:
            spans_path = os.path.join(ROOT, ".bench_out", "spans-seed%d.json" % args.seed)
            metrics, tally, _ = traced(worker, args.seed, spans_path)
        else:
            tally = Tally()
            metrics = {}
            names = WORKLOADS if args.workload == "all" else [args.workload]
            for workload in names:
                samples, t = measure(worker, workload, args.seed, args.seconds)
                tally.attempted += t.attempted
                tally.failed += t.failed
                tally.failures += t.failures
                if samples is None:
                    for why in t.failures[:5]:
                        log("  FAILED: " + why)
                    continue
                m = report_e2e(workload, args.seed, samples, t)
                if len(names) == 1:
                    metrics = m
                else:
                    metrics.update({"%s.%s" % (workload, k): v for k, v in m.items()})
    finally:
        worker.close()
    if tally.attempted == 0 or not metrics:
        print("no iteration completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
