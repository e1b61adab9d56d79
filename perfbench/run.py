#!/usr/bin/env python3
"""End-to-end benchmark of the tlsharm CLI.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0

Run from the repository root. The script builds `bin/tlsharm_cli.exe` from
source into `.bench_build/` (release profile, dune cache off), then drives
the binary as separate processes: every operation is a fresh process, so
no cache, heap or GC state carries from one measured operation to the next.

Workloads (both on a 1500-domain world derived from --seed, --jobs 1):

  campaign  `campaign --days 3 -o X.csv` then `analyze X.csv`: the daily
            scanner, TLS engine and crypto kernels dominate; the archive
            decode and lifetime analysis follow.
  traffic   `traffic --users 600 --days 2 --stream-out D` then `analyze D`:
            the client population, its session stores and resumption, and
            the spool writer and reader.

Sizes follow the repository's CI runs, the most frequent real runs of the
program: campaigns of 1500 domains for 3 days, traffic for 2 days. 1500
domains is also the smallest world the program accepts. The CLI defaults
(4000 domains, 63 days) cost minutes per campaign, more than one run may
take. An operation pays a fixed world construction (about 1 s) plus a
share per domain-day or user-day; 600 users keep the world build under a
third of a traffic operation, as 3 days do for a campaign.

Operations run back to back (closed loop, one client) for --seconds; an
operation that starts before the deadline runs to completion.

Set-up is `world-info` for the run's world: the process start and world
construction every operation pays. It runs in SETUP_BATCHES batches of
SETUP_PER_BATCH, one batch before the first operation and the others
spread over the timed window; `setup_s` is the median of all samples.

Host speed: on a shared 2-vCPU Xeon VM, allocation-heavy code like this
program was measured running up to 2.5x slower for tens of seconds at a
time, while pure arithmetic stayed within 5%. So a fixed reference load
with the same shape (perfbench/calib) runs at least every REF_EVERY_S
seconds and right before and after every set-up sample, and `op_ms` and
`setup_s` are each wall time scaled by REF_NOMINAL_S over the mean of the
reference runs just before and just after it: the time on a host where the
reference takes REF_NOMINAL_S. Per-layer times are raw; `ref_ms` shows the
host's speed during the run.

Correctness: every process must exit 0; repeated operations and set-ups
must give byte-identical archives and reports; campaign CSVs hold one row
per domain-day; reports must name the requested world shape and keep their
shares in range; a traffic report's operator rows must add up to the run's
connection count, and the streamed run's report must equal that of the same
run kept in memory; a campaign streamed to a spool must analyse exactly
like its CSV archive.

--trace 0 prints the end-to-end metrics; --trace 1 repeats the run with
OCaml GC statistics and the CLI's --metrics-out counters switched on and
prints per-layer metrics. Spans (name, start, end, parent, op) are kept in
memory and written to .bench_build/perfbench-trace/ at exit.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Missing sources or a failed build exit 2 without a result.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "bin", "tlsharm_cli.exe")
# The reference load is a dune project of its own, built by a separate dune
# invocation rooted at it, so no dune-workspace, env stanza or flag of the
# program's build can reach it.
REF_ROOT = os.path.join("perfbench", "calib")
REF_BUILD_DIR = os.path.join(BUILD_DIR, "calib")
REF_EXE = os.path.join(REF_BUILD_DIR, "default", "calib.exe")
DOMAINS = 1500
CAMPAIGN_DAYS = 3
TRAFFIC_USERS = 600
TRAFFIC_DAYS = 2
REUSER_MIN_DAYS = 7  # `analyze` ranks reusers of at least this many days
SETUP_BATCHES = 3
SETUP_PER_BATCH = 3
STARTUP_REPEATS = 5
# The reference load (perfbench/calib) runs whenever this long has passed
# since its last run; timings are scaled to a host on which it takes
# REF_NOMINAL_S.
REF_ITERATIONS = 400000
REF_EVERY_S = 5.0
REF_NOMINAL_S = 0.25
# Every run must end within 180 s: children still running this long after
# the build are killed and count as failed.
RUN_BUDGET_S = 160


class Fatal(Exception):
    """The benchmark cannot run at all: no result is printed."""


# --- processes and spans ----------------------------------------------------


class Tracer:
    """Spans kept in memory; only recorded with --trace 1."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.op = None
        self.t0 = time.perf_counter()

    def start(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "start_ms": (time.perf_counter() - self.t0) * 1e3,
        }
        if self.enabled:
            self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span["end_ms"] = (time.perf_counter() - self.t0) * 1e3
        self.stack.pop()

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f, indent=1)


class Proc:
    """One finished child process: exit code, start/end, rusage, output."""

    def __init__(self, code, start, end, rusage, out, err):
        self.code = code
        self.start = start
        self.end = end
        self.wall_s = end - start
        self.maxrss_mib = rusage.ru_maxrss / 1024.0
        self.out = out
        self.err = err


class Runner:
    def __init__(self, work, tracer):
        self.work = work
        self.tracer = tracer
        env = {k: v for k, v in os.environ.items()
               if k != "OCAMLRUNPARAM" and not k.startswith("TLSHARM_")}
        if tracer.enabled:
            # Print the runtime's GC counters at exit (on stderr).
            env["OCAMLRUNPARAM"] = "v=0x400"
        self.env = env
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.procs = {}  # stage name -> every Proc run under it

    def run(self, stage, args, exe=EXE):
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            span = self.tracer.start(stage)
            t = time.perf_counter()
            p = subprocess.Popen([exe] + args, stdout=out, stderr=err,
                                 stdin=subprocess.DEVNULL, env=self.env)
            watchdog = threading.Timer(max(1.0, self.deadline - t), p.kill)
            watchdog.start()
            try:
                _, status, rusage = os.wait4(p.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter()
            self.tracer.end(span)
        p.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        proc = Proc(p.returncode, t, end, rusage, stdout, stderr)
        span["exit"] = proc.code
        self.procs.setdefault(stage, []).append(proc)
        return proc


# --- checking program output ------------------------------------------------

GC_LINE = re.compile(r"^([a-z_]+): ([0-9.]+)$", re.M)


def gc_stats(proc):
    return {k: float(v) for k, v in GC_LINE.findall(proc.err)}


def obs_counters(path):
    """Counters of a --metrics-out file (JSON inside a durable frame);
    empty when the file is missing or unreadable."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        return json.loads(text[text.index("{"):text.rindex("}") + 1]).get("counters", {})
    except (OSError, ValueError):
        return {}


def tree_digest(path):
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(path, name), "rb") as f:
                h.update(f.read())
    else:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def tree_bytes(path):
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))
    return os.path.getsize(path)


def campaign_csv_ok(path, days):
    """One row per domain-day, each row as wide as the header, days in range."""
    with open(path, encoding="utf-8") as f:
        lines = [l for l in f.read().splitlines() if l and not l.startswith("#")]
    if not lines:
        return False
    header = lines[0].split(",")
    if "domain" not in header or "day" not in header:
        return False
    rows = [l.split(",") for l in lines[1:]]
    if len(rows) != DOMAINS * days or any(len(r) != len(header) for r in rows):
        return False
    domain, day = header.index("domain"), header.index("day")
    seen_days = {int(r[day]) for r in rows}
    per_domain = {}
    for r in rows:
        per_domain[r[domain]] = per_domain.get(r[domain], 0) + 1
    return (len(seen_days) == days and max(seen_days) - min(seen_days) == days - 1
            and len(per_domain) == DOMAINS and set(per_domain.values()) == {days})


PCT_LINE = re.compile(r"^(STEK|DHE|ECDHE)\s+never=([0-9.]+)% daily=([0-9.]+)%", re.M)
REUSER_LINE = re.compile(r"^ +r\d+ +\S+ +(\d+) days$", re.M)


def lifetime_report_ok(text, days):
    """The report names the world shape, its shares are in range, and every
    reuser it ranks spans from REUSER_MIN_DAYS to the campaign's length."""
    if not text.startswith("campaign: %d domains, %d days\n" % (DOMAINS, days)):
        return False
    found = PCT_LINE.findall(text)
    return (sorted(k for k, _, _ in found) == ["DHE", "ECDHE", "STEK"]
            and all(float(n) + float(d) <= 100.05 for _, n, d in found)
            and all(REUSER_MIN_DAYS <= int(d) <= days for d in REUSER_LINE.findall(text)))


SIMULATED = re.compile(r"^simulated (\d+) users over (\d+) days .*: (\d+) connections", re.M)
TRAFFIC_TITLE = re.compile(r"^Tracking exposure vs handshake latency \(policy=strict, "
                           r"ticket-lifetime=advertised, (\d+) users, (\d+) days\)$", re.M)
# operator, conns, resume %, (saved/c, p50 and p90 skipped), chains, linkable
TRAFFIC_ROW = re.compile(r"^(\S+) +(\d+) +([0-9.]+)% +[0-9.]+ms +\S+ +\S+ +(\d+) +(\d+) ", re.M)


def traffic_report(sim):
    """The report a traffic run prints after its summary line and a blank
    line, or None when the summary does not name the requested population."""
    m = SIMULATED.search(sim.out)
    if (not m or "\n\n" not in sim.out
            or (int(m.group(1)), int(m.group(2))) != (TRAFFIC_USERS, TRAFFIC_DAYS)):
        return None
    return sim.out.split("\n\n", 1)[1]


def traffic_report_ok(sim):
    """The report names the population; its operator rows, (other) included,
    add up to the (all) row, whose connections are those the run counted;
    resumption rates are shares and linkable chains a subset of chains."""
    report = traffic_report(sim)
    if report is None:
        return False
    conns = int(SIMULATED.search(sim.out).group(3))
    title = TRAFFIC_TITLE.search(report)
    rows = TRAFFIC_ROW.findall(report)
    if (not title or (int(title.group(1)), int(title.group(2))) != (TRAFFIC_USERS, TRAFFIC_DAYS)
            or len(rows) < 2 or rows[-1][0] != "(all)"):
        return False
    parts, total = rows[:-1], rows[-1]
    return (conns > 0 and int(total[1]) == conns
            and sum(int(r[1]) for r in parts) == conns
            and sum(int(r[3]) for r in parts) == int(total[3])
            and sum(int(r[4]) for r in parts) == int(total[4])
            and all(0.0 <= float(r[2]) <= 100.0 and int(r[4]) <= int(r[3]) for r in rows))


# --- workloads --------------------------------------------------------------


def world_args(seed):
    return ["--domains", str(DOMAINS), "--seed", "perfbench-%d" % seed]


class Workload:
    """setup() returns (ok, proc timed as set-up); op() returns (ok, procs of the op).

    Processes run under the stage names "world", "simulate" and "analyze",
    which the per-layer report reads back from the runner.
    """

    def __init__(self, runner, seed):
        self.r = runner
        self.seed = seed
        self.w = runner.work
        self.references = {}  # first digest of each output that repeats must reproduce
        self.counters = {}  # --metrics-out counters of the simulate stage
        self.archive = None  # path whose size the trace reports

    def same_as_first(self, key, digest):
        return self.references.setdefault(key, digest) == digest

    def setup(self):
        p = self.r.run("world", ["world-info"] + world_args(self.seed))
        ok = (p.code == 0 and p.out.startswith("sampled domains:        %d " % DOMAINS)
              and self.same_as_first("world", p.out))
        return ok, p

    def simulate(self, args, metrics_name):
        """Run a simulate-stage command; with --trace 1 also collect its counters."""
        path = os.path.join(self.w, metrics_name)
        extra = ["--metrics-out", path] if self.r.tracer.enabled else []
        p = self.r.run("simulate", args + world_args(self.seed) + ["--jobs", "1"] + extra)
        if p.code == 0 and self.r.tracer.enabled:
            self.counters = obs_counters(path)
        return p

    def finish(self):
        return True


class Campaign(Workload):
    def op(self):
        csv = os.path.join(self.w, "campaign.csv")
        sim = self.simulate(["campaign", "--days", str(CAMPAIGN_DAYS), "-o", csv],
                            "campaign-metrics.json")
        if sim.code != 0:
            return False, [sim]
        self.archive = csv
        an = self.r.run("analyze", ["analyze", csv])
        ok = (an.code == 0 and campaign_csv_ok(csv, CAMPAIGN_DAYS)
              and lifetime_report_ok(an.out, CAMPAIGN_DAYS)
              and self.same_as_first("report", an.out)
              and self.same_as_first("op", tree_digest(csv) + an.out))
        return ok, [sim, an]

    def finish(self):
        # Untimed: the same campaign streamed to a spool must analyse
        # exactly like its CSV archive.
        spool = os.path.join(self.w, "spool")
        sim = self.r.run("check", ["campaign", "--days", str(CAMPAIGN_DAYS), "--jobs", "1",
                                   "--stream-out", spool] + world_args(self.seed))
        if sim.code != 0:
            return False
        an = self.r.run("check", ["analyze", spool])
        return an.code == 0 and self.same_as_first("report", an.out)


TRAFFIC_ARGS = ["traffic", "--users", str(TRAFFIC_USERS), "--days", str(TRAFFIC_DAYS)]


class Traffic(Workload):
    def op(self):
        sink = os.path.join(self.w, "traffic")
        # A sink directory with complete shards is resumed, not re-run.
        shutil.rmtree(sink, ignore_errors=True)
        sim = self.simulate(TRAFFIC_ARGS + ["--stream-out", sink], "traffic-metrics.json")
        if sim.code != 0:
            return False, [sim]
        self.archive = sink
        an = self.r.run("analyze", ["analyze", sink])
        # Re-analysing the archive must reproduce the run's report exactly.
        ok = (an.code == 0 and traffic_report_ok(sim) and traffic_report(sim) == an.out
              and self.same_as_first("report", an.out)
              and self.same_as_first("op", tree_digest(sink) + sim.out))
        return ok, [sim, an]

    def finish(self):
        # Untimed: without a sink the run keeps its rows in memory and
        # builds its report from them, not from the archive; the reports
        # must agree.
        p = self.r.run("check", TRAFFIC_ARGS + world_args(self.seed) + ["--jobs", "1"])
        return (p.code == 0 and traffic_report_ok(p)
                and self.same_as_first("report", traffic_report(p)))


WORKLOADS = {"campaign": Campaign, "traffic": Traffic}


# --- build and measure ------------------------------------------------------


def dune_build(cmd, env):
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Fatal("build failed: %s" % e)
    if p.returncode != 0:
        raise Fatal("build failed:\n" + p.stdout.decode(errors="replace")[-4000:])


def build():
    for need in ("dune-project", os.path.join("bin", "tlsharm_cli.ml"), "lib",
                 os.path.join(REF_ROOT, "dune-project")):
        if not os.path.exists(need):
            raise Fatal("not a tlsharm checkout (missing %s); run from the repository root" % need)
    env = {k: v for k, v in os.environ.items() if k not in ("OCAMLPARAM", "DUNE_WORKSPACE")}
    env["DUNE_CACHE"] = "disabled"
    dune_build(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                "--profile", "release", "-j", "2", "bin/tlsharm_cli.exe"], env)
    dune_build(["dune", "build", "--root", REF_ROOT,
                "--build-dir", os.path.abspath(REF_BUILD_DIR),
                "--profile", "release", "-j", "2", "./calib.exe"], env)
    if not os.path.exists(EXE) or not os.path.exists(REF_EXE):
        raise Fatal("build failed: %s or %s missing" % (EXE, REF_EXE))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def host_scale(refs, procs):
    """REF_NOMINAL_S over the reference time around procs: the mean of the
    last reference run before them and the first one after them."""
    before = [r.wall_s for r in refs if r.end <= procs[0].start][-1:]
    after = [r.wall_s for r in refs if r.start >= procs[-1].end][:1]
    return REF_NOMINAL_S / statistics.mean(before + after)


def end_to_end(ops, setups, refs):
    op_s = [sum(p.wall_s for p in procs) * host_scale(refs, procs) for _, procs in ops]
    return {
        "op_ms": (median(op_s) * 1e3, "ms"),
        "peak_rss_mib": (median([max(p.maxrss_mib for p in procs) for _, procs in ops]), "MiB"),
        "setup_s": (median([p.wall_s * host_scale(refs, [p]) for p in setups]), "s"),
    }


def per_layer(wl, procs):
    def wall_ms(stage):
        return median([p.wall_s for p in procs.get(stage, [])]) * 1e3

    def gc(stage, key, scale=1.0):
        return median([gc_stats(p).get(key, 0.0) * scale for p in procs.get(stage, [])])

    c = wl.counters
    kind = "probe" if "probe.connects" in c else "traffic"
    resumed = sum(v for k, v in c.items()
                  if k.startswith(kind + ".resumed.") and not k.endswith(".none"))
    archive_bytes = tree_bytes(wl.archive) if wl.archive and os.path.exists(wl.archive) else 0
    analyze_ms = wall_ms("analyze")
    words_to_mib = 8.0 / (1 << 20)
    return {
        "ref_ms": (wall_ms("reference"), "ms"),
        "startup_ms": (wall_ms("startup"), "ms"),
        "world_ms": (wall_ms("world"), "ms"),
        "simulate_ms": (wall_ms("simulate"), "ms"),
        "analyze_ms": (analyze_ms, "ms"),
        "analyze_mib_s": ((archive_bytes / (1 << 20)) / (analyze_ms / 1e3) if analyze_ms else 0.0,
                          "MiB/s"),
        "archive_kib": (archive_bytes / 1024.0, "KiB"),
        "sim_alloc_mwords": (gc("simulate", "allocated_words", 1e-6), "Mwords"),
        "sim_minor_gcs": (gc("simulate", "minor_collections"), "count"),
        "sim_major_gcs": (gc("simulate", "major_collections"), "count"),
        "sim_top_heap_mib": (gc("simulate", "top_heap_words", words_to_mib), "MiB"),
        "analyze_alloc_mwords": (gc("analyze", "allocated_words", 1e-6), "Mwords"),
        "connects": (c.get(kind + ".connects", 0), "count"),
        "resumed": (resumed, "count"),
        "work_items": (c.get("scan.domain_days", c.get("traffic.user_days", 0)), "count"),
        "kernel_ec_scalar_mult": (c.get("kernel.ec_scalar_mult", 0), "count"),
        "kernel_ec_scalar_mult_base": (c.get("kernel.ec_scalar_mult_base", 0), "count"),
        "kernel_pow_mod": (c.get("kernel.pow_mod", 0), "count"),
        "kernel_pow_mod_fixed": (c.get("kernel.pow_mod_fixed", 0), "count"),
    }


def bench(args, work):
    tracer = Tracer(args.trace == 1)
    runner = Runner(work, tracer)
    wl = WORKLOADS[args.workload](runner, args.seed)
    correct = True

    refs, setups = [], []

    def reference(force=False):
        nonlocal correct
        if not force and refs and time.perf_counter() - refs[-1].end < REF_EVERY_S:
            return
        p = runner.run("reference", [str(REF_ITERATIONS)], exe=REF_EXE)
        correct &= p.code == 0 and wl.same_as_first("reference", p.out)
        refs.append(p)

    def setup():
        # Set-up samples are short next to the host's drift, so reference
        # runs right before and after each sample scale it.
        nonlocal correct
        for _ in range(SETUP_PER_BATCH):
            reference(force=True)
            span = tracer.start("setup")
            ok, p = wl.setup()
            tracer.end(span)
            correct &= ok
            setups.append(p)
        reference(force=True)

    setup()
    if tracer.enabled:
        for _ in range(STARTUP_REPEATS):
            runner.run("startup", ["--version"])

    # The host's speed drifts over tens of seconds, so the later set-up
    # batches are spread over the window the operations are timed in, and
    # every timing is scaled by the reference runs around it.
    start = time.perf_counter()
    deadline = start + args.seconds
    setup_due = [start + args.seconds * i / SETUP_BATCHES for i in range(1, SETUP_BATCHES)]
    ops = []
    while True:
        if setup_due and time.perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            setup()
        reference()
        tracer.op = len(ops)
        span = tracer.start("op")
        ops.append(wl.op())
        tracer.end(span)
        tracer.op = None
        if time.perf_counter() >= deadline:
            break
    for _ in setup_due:
        setup()
    reference(force=True)
    failed = sum(1 for ok, _ in ops if not ok)
    correct &= wl.finish()
    correct &= failed == 0

    if tracer.enabled:
        tracer.write(os.path.join(BUILD_DIR, "perfbench-trace",
                                  "%s-seed%d.json" % (args.workload, args.seed)))
        metrics = per_layer(wl, runner.procs)
    else:
        metrics = end_to_end(ops, setups, refs)
    return {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description="tlsharm end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    work = os.path.join(BUILD_DIR, "perfbench-work-%d" % os.getpid())
    try:
        build()
        os.makedirs(work)
        result = bench(args, work)
    except Fatal as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
