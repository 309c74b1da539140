#!/usr/bin/env python3
"""Repository benchmark: runs the shipped `mao` and `maod` the way a build
system or build farm would, on one named workload, and prints one JSON
result line.

    python3 perfbench/run.py --workload spec_suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run builds `mao`, `maod`
and perfbench_tool from source into .bench_build/perfbench (Release); later
runs only re-check the build. Workloads and metrics are described in
BENCHMARK.json.

--trace 0 measures the end-to-end metrics. --trace 1 is a separate run that
times each layer from outside (perfbench_tool layers), compares `mao` with
and without --mao-report/--mao-trace-out, and samples the daemon.

Every operation runs as a child process with a wall-clock limit. An exit by
signal, a nonzero exit, a timeout or a failed output check counts as one
failed operation and is logged to stderr; the run goes on. Every timed
output must be byte-identical to the --mao-jobs=1 reference made in set-up,
and every reference re-parses, passes the verifier and computes the same
bench_main result on the emulator as its input (perfbench_tool check).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
MAO = os.path.join(BUILD, "mao", "tools", "mao")
MAOD = os.path.join(BUILD, "mao", "tools", "maod")
TOOL = os.path.join(BUILD, "perfbench_tool")

PAPER6 = "ZEE:REDTEST:REDMOV:ADDADD:LOOP16:SCHED"
# paper6 without LOOP16, with ADDADD moved last: ADDADD can erase the entry
# a function's bounds point at without a structure rebuild, and a function
# pass right after it (SCHED's CFG::build) then walks a freed list node and
# crashes on some seeded corpora (4 of 26 at scale 1.0). In paper6, LOOP16
# sits between the two.
PEEP5 = "ZEE:REDTEST:REDMOV:SCHED:ADDADD"
MAX_JOBS = 4
# Set-up runs at least SETUP_REPS times per run, and more while the
# set-ups so far took under SETUP_BUDGET_S; setup_s is their median.
SETUP_REPS = 3
SETUP_MAX_REPS = 7
SETUP_BUDGET_S = 5.0
# Filler entries stored before the daemon starts, so every run's
# per-connection cache scan sees the same directory size.
PREFILL_ENTRIES = 64

# Every compile runs at --mao-jobs=1: at 4 workers `mao` dies by SIGSEGV on
# about one corpus compile in eighty, and a compile as wide as the machine
# times the scheduler more than the optimizer.
JOBS = 1

WORKLOADS = {
    "spec_suite": {"pipeline": PAPER6, "serve": False},
    "serve_mixed": {"pipeline": PEEP5, "serve": True},
}


def declared_metrics():
    """Metric name -> unit, for --trace 0 and --trace 1, from BENCHMARK.json:
    a run reports exactly the metrics declared there."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return tuple({m["name"]: m["unit"] for m in bench[key]}
                 for key in ("end_to_end", "per_layer"))


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Fatal(Exception):
    """The benchmark cannot produce a result (no source tree, build failure,
    sanitized build, bad arguments)."""


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# Build and the refusal gates.


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Fatal("no src/ next to perfbench/: run from a source checkout")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "perfbench-build.log")
    with open(logfile, "ab") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cfg = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.call(cfg, stdout=out, stderr=out) != 0:
                raise Fatal("cmake configure failed; see " + logfile)
        cmd = ["cmake", "--build", BUILD, "--target", "mao", "maod",
               "perfbench_tool", "-j", str(min(MAX_JOBS, nproc()))]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            raise Fatal("build failed; see " + logfile)


def build_facts():
    """Build type, compiler and sanitizer state; refuses sanitized builds,
    whose timings say nothing about the shipped optimizer."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    info = json.loads(subprocess.check_output([TOOL, "info"], text=True))
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if (info["sanitized"] or "-fsanitize" in flags or cache.get("MAO_SANITIZE")
            or cache.get("MAO_TSAN", "OFF").upper() in ("ON", "1", "TRUE")):
        raise Fatal("refusing to time a sanitizer build (MAO_SANITIZE/MAO_TSAN/-fsanitize)")
    return {"build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "compiler": cache.get("CMAKE_CXX_COMPILER", "") + " " + info["compiler"],
            "nproc": nproc()}


# --------------------------------------------------------------------------
# Child processes.


class Op:
    """One finished child process."""

    def __init__(self, wall_s, rss_kb, status, timed_out):
        self.wall_s = wall_s
        self.rss_kb = rss_kb
        self.status = status
        self.timed_out = timed_out

    def failure(self):
        if self.timed_out:
            return "timeout"
        if os.WIFSIGNALED(self.status):
            return "killed by signal %d" % os.WTERMSIG(self.status)
        if os.WEXITSTATUS(self.status) != 0:
            return "exit status %d" % os.WEXITSTATUS(self.status)
        return None


def run_op(cmd, stdout_path, limit_s, cwd=None):
    """Runs cmd with stdout to a file; times exec to exit."""
    with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd)
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = status  # reaped by wait4 above
    timed_out = os.WIFSIGNALED(status) and wall >= limit_s
    return Op(wall, ru.ru_maxrss, status, timed_out)


def tool(*args, cwd=None, limit_s=170):
    out = subprocess.run([TOOL] + [str(a) for a in args], cwd=cwd,
                         stdout=subprocess.PIPE, text=True, timeout=limit_s)
    if out.returncode != 0:
        raise Fatal("perfbench_tool %s failed (exit %d)" % (args[0], out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def mao_cmd(pipeline, path, extra=()):
    return [MAO, "--mao=" + pipeline, "--mao-jobs=%d" % JOBS] + list(extra) + [path]


def read(path):
    with open(path, "rb") as f:
        return f.read()


def median(values):
    return statistics.median(values) if values else 0.0


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of quantile q: a Beta-weighted mean of the
    order statistics near rank q*n instead of one or two of them. Compile
    times cluster by input (small files near 20 ms, 176.gcc near 2 s), and
    a plain median sitting at the edge of a cluster jumps across the gap
    when one input shifts; this estimate moves only by that input's
    share."""
    x = sorted(values)
    n = len(x)
    if n < 2:
        return x[0] if x else 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # The weights vanish outside ~10 standard deviations of Beta(a, b).
    sd = math.sqrt(q * (1 - q) / (n + 2))
    lo = max(0, int((q - 10 * sd) * n))
    hi = min(n, int(math.ceil((q + 10 * sd) * n)))
    cdf = [_beta_cdf(a, b, i / n) for i in range(lo, hi + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[lo + i] for i in range(hi - lo))


# --------------------------------------------------------------------------
# Set-up: inputs, jobs=1 references, and for serve_mixed the daemon.


class Daemon:
    """One maod on a fresh cache directory and socket inside the run dir."""

    def __init__(self, rundir):
        self.rundir = rundir
        self.proc = subprocess.Popen(
            [MAOD, "--socket=maod.sock", "--cache-dir=cache"], cwd=rundir,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def status(self):
        """Threads, VmSize and VmHWM from /proc/<pid>/status."""
        fields = {}
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                key, _, value = line.partition(":")
                fields[key] = value.split()
        return {"threads": int(fields["Threads"][0]),
                "vmsize_mb": int(fields["VmSize"][0]) / 1024.0,
                "vmhwm_mb": int(fields["VmHWM"][0]) / 1024.0}

    def stop(self):
        """clientShutdown, then a clean exit 0 is required."""
        if self.proc.poll() is None:
            try:
                tool("shutdown", "maod.sock", cwd=self.rundir, limit_s=20)
                self.proc.wait(timeout=60)
            except (Fatal, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
            return False
        return self.proc.returncode == 0


class Tally:
    """Attempted and failed operations of one run. Every failure is logged
    with the workload, seed, input and pass line, and the run goes on."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.wrong_output = False

    def record(self, item, line, why, wrong_output=False):
        """Counts one operation; why is None when it succeeded."""
        self.attempted += 1
        if why:
            self.failed += 1
            self.wrong_output |= wrong_output
            log("FAILED workload=%s seed=%d input=%s pass line=%s: %s"
                % (self.workload, self.seed, item, line, why))
        return not why


def compile_op(tally, pipeline, f, rundir, limit_s, extra=()):
    """One `mao` process on input f, its output checked against the
    reference when one exists. Returns the Op, or None when it failed."""
    out = os.path.join(rundir, "out.s")
    ref = os.path.join(rundir, "ref", f["name"] + ".s")
    op = run_op(mao_cmd(pipeline, f["path"], extra), out, limit_s, cwd=rundir)
    why = op.failure()
    wrong = not why and os.path.exists(ref) and read(out) != read(ref)
    if wrong:
        why = "output differs from the --mao-jobs=1 reference"
    line = " ".join(["--mao=" + pipeline, "--mao-jobs=%d" % JOBS] + list(extra))
    return op if tally.record(f["name"], line, why, wrong) else None


def setup_once(workload, seed, rundir, tally):
    """One complete set-up into rundir. Returns (manifest, daemon or None,
    the reference compile times)."""
    spec = WORKLOADS[workload]
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(os.path.join(rundir, "ref"))
    manifest = tool("gen", workload, seed, rundir)
    extra = []
    if spec["serve"]:
        subprocess.check_call(
            [MAOD, "--stress-cache=cache", "--stress-count=%d" % PREFILL_ENTRIES,
             "--stress-seed=%d" % seed], cwd=rundir)
        # The reference compiles store each source in the cache, so the
        # daemon starts with every base source already present.
        extra = ["--cache-dir=cache"]
    ref_times = {}
    for f in manifest["files"]:
        for _ in range(3):
            op = compile_op(tally, spec["pipeline"], f, rundir, 170, extra)
            if op:
                os.replace(os.path.join(rundir, "out.s"),
                           os.path.join(rundir, "ref", f["name"] + ".s"))
                ref_times[f["name"]] = op.wall_s
                break
        else:
            raise Fatal("no reference output for " + f["name"])
    daemon = None
    if spec["serve"]:
        daemon = start_daemon(rundir, serve_pipeline(spec["pipeline"]), seed)
    return manifest, daemon, ref_times


def start_daemon(rundir, pipeline, seed):
    """Starts maod in rundir; returns once it has answered a probe request
    for the first input of rundir's manifest."""
    daemon = Daemon(rundir)
    try:
        deadline = time.time() + 30
        while not os.path.exists(os.path.join(rundir, "maod.sock")):
            if time.time() > deadline or daemon.proc.poll() is not None:
                raise Fatal("maod did not start")
            time.sleep(0.002)
        probe = tool("serve", "maod.sock", rundir, pipeline, 30, 1, seed, 1,
                     cwd=rundir)
        if probe["failed"] or not probe["attempted"]:
            raise Fatal("maod probe request failed")
    except BaseException:
        daemon.stop()
        raise
    return daemon


def setup(workload, seed, rundir, tally):
    """Repeated complete set-ups; the last one is kept for the run."""
    times = []
    while True:
        t0 = time.perf_counter()
        manifest, daemon, ref_times = setup_once(workload, seed, rundir, tally)
        times.append(time.perf_counter() - t0)
        if len(times) >= SETUP_MAX_REPS or (
                len(times) >= SETUP_REPS and sum(times) >= SETUP_BUDGET_S):
            # Write back what set-up left dirty (inputs, references, the
            # deleted earlier set-ups) now, not during the timed loop.
            os.sync()
            return manifest, daemon, ref_times, median(times)
        if daemon:
            stop_daemon(daemon, tally)


def stop_daemon(daemon, tally):
    tally.record("maod", "clientShutdown",
                 None if daemon.stop() else "maod did not exit 0 after shutdown")


def serve_pipeline(pipeline):
    """The canonical registry spelling a `mao --connect` request carries."""
    return ",".join(pipeline.split(":"))


# --------------------------------------------------------------------------
# Output checks (untimed).


def check_references(manifest, rundir, tally, pipeline):
    """perfbench_tool check on every reference; returns (out_bytes,
    cycles_ratio)."""
    out_bytes = 0
    log_ratios = []
    for f in manifest["files"]:
        res = tool("check", os.path.join(rundir, f["path"]),
                   os.path.join(rundir, "ref", f["name"] + ".s"))
        if tally.record(f["name"], "check --mao=" + pipeline,
                        res.get("error"), wrong_output=True):
            out_bytes += res["out_bytes"]
            log_ratios.append(math.log(res["out_cycles"] / res["in_cycles"]))
    ratio = math.exp(sum(log_ratios) / len(log_ratios)) if log_ratios else 0.0
    return out_bytes, ratio


# --------------------------------------------------------------------------
# Timed loops.


def compile_loop(workload, seconds, manifest, rundir, ref_times, tally):
    """Whole rounds over the workload's files, one `mao` process at a time,
    until the time is up. Returns the successful Ops per input name."""
    spec = WORKLOADS[workload]
    ops = {f["name"]: [] for f in manifest["files"]}
    t0 = time.perf_counter()
    rounds = 0
    while time.perf_counter() - t0 < seconds or not rounds:
        rounds += 1
        for f in manifest["files"]:
            op = compile_op(tally, spec["pipeline"], f, rundir,
                            max(20.0, 10 * ref_times[f["name"]]))
            if op:
                ops[f["name"]].append(op)
    return ops


def serve_loop(seed, seconds, rundir, pipeline, clients, max_requests=0):
    """The closed-loop client; returns its counts and latency statistics."""
    res = tool("serve", "maod.sock", rundir, pipeline, seconds, clients, seed,
               max_requests, cwd=rundir)
    total = res["total_ms"]
    pick = lambda flags, want: [t for t, f in zip(total, flags) if f == want]
    return {"attempted": res["attempted"], "failed": res["failed"],
            "p50_ms": quantile(total, 0.5), "p99_ms": quantile(total, 0.99),
            "warm_ms_p50": quantile(pick(res["cold"], 0), 0.5),
            "cold_ms_p50": quantile(pick(res["cold"], 1), 0.5),
            "connect_ms": median(res["connect_ms"]),
            "hit_ratio": sum(res["hit"]) / max(len(total), 1),
            "rps": len(total) / res["seconds"],
            "insts_per_s": res["insts_served"] / res["seconds"]}


# --------------------------------------------------------------------------
# The two kinds of run.


def end_to_end(workload, seed, seconds, rundir, tally):
    spec = WORKLOADS[workload]
    manifest, daemon, ref_times, setup_s = setup(workload, seed, rundir, tally)
    metrics = {"setup_s": setup_s}
    try:
        if spec["serve"]:
            res = serve_loop(seed, seconds, rundir, serve_pipeline(spec["pipeline"]),
                             min(4, nproc()))
            tally.attempted += res["attempted"]
            tally.failed += res["failed"]
            metrics.update(op_p50_ms=res["p50_ms"], insts_per_s=res["insts_per_s"],
                           peak_rss_mb=daemon.status()["vmhwm_mb"])
            tail = "p99 %.3f ms" % res["p99_ms"]
        else:
            ops = compile_loop(workload, seconds, manifest, rundir, ref_times, tally)
            walls = [op.wall_s * 1e3 for per_file in ops.values() for op in per_file]
            # Throughput over the summed wall time of every compile in the
            # run, so each input weighs what it costs a build: 176.gcc and
            # the other large inputs take most of the time.
            insts = sum(f["insts"] * len(ops[f["name"]]) for f in manifest["files"])
            metrics.update(
                op_p50_ms=quantile(walls, 0.5),
                insts_per_s=insts / (sum(walls) / 1e3) if walls else 0.0,
                peak_rss_mb=max([op.rss_kb for per_file in ops.values()
                                 for op in per_file] or [0]) / 1024.0)
            tail = "p90 %.3f ms" % quantile(walls, 0.9)
        # The tail is logged, not a metric: it is the few largest inputs
        # (176.gcc, 254.gap, 253.perlbmk on spec_suite), whose times drift
        # with the host more than the median does.
        log("%s: %d operations, %s" % (workload, tally.attempted, tail))
    finally:
        if daemon:
            stop_daemon(daemon, tally)
    out_bytes, cycles_ratio = check_references(manifest, rundir, tally, spec["pipeline"])
    metrics.update(out_bytes=out_bytes, cycles_ratio=cycles_ratio,
                   ok_ratio=(tally.attempted - tally.failed) / max(tally.attempted, 1))
    return metrics


def per_layer(workload, seed, seconds, rundir, tally):
    spec = WORKLOADS[workload]
    manifest, daemon, ref_times = setup_once(workload, seed, rundir, tally)
    m = {}
    try:
        if spec["serve"]:
            # Daemon layer under the workload's own mixed traffic.
            res = serve_loop(seed, seconds, rundir, serve_pipeline(spec["pipeline"]),
                             min(4, nproc()))
        else:
            # Daemon floor on the one-function input: a fresh daemon and
            # one client, cold and warm requests.
            probe = os.path.join(rundir, "probe")
            os.makedirs(os.path.join(probe, "ref"))
            shutil.copy(os.path.join(rundir, "startup.s"), probe)
            startup = {"name": "startup", "path": "startup.s"}
            with open(os.path.join(probe, "manifest.json"), "w") as f:
                json.dump({"files": [startup]}, f)
            if not compile_op(tally, PEEP5, startup, probe, 60):
                raise Fatal("no reference output for startup.s")
            os.replace(os.path.join(probe, "out.s"),
                       os.path.join(probe, "ref", "startup.s"))
            pipeline = serve_pipeline(PEEP5)
            daemon = start_daemon(probe, pipeline, seed)
            res = serve_loop(seed, seconds, probe, pipeline, 1, 200)
        tally.attempted += res["attempted"]
        tally.failed += res["failed"]
        status = daemon.status()
        for name in ("connect_ms", "hit_ratio", "cold_ms_p50", "warm_ms_p50",
                     "p99_ms", "rps"):
            m["serve." + name] = res[name]
        m["serve.daemon_threads"] = status["threads"]
        m["serve.daemon_vmsize_mb"] = status["vmsize_mb"]
    finally:
        if daemon:
            stop_daemon(daemon, tally)

    # In-process layers over the same inputs, with spans around each call.
    cache = os.path.join(rundir, "layer_cache")
    subprocess.check_call([MAOD, "--stress-cache=" + cache,
                           "--stress-count=%d" % PREFILL_ENTRIES,
                           "--stress-seed=%d" % seed])
    line = "layers --mao=%s --mao-jobs=%d" % (spec["pipeline"], JOBS)
    for _ in range(3):  # the optimizer can crash in-process as in `mao`
        try:
            layers = tool("layers", rundir, spec["pipeline"], JOBS, cache)
            break
        except Fatal as e:
            tally.record("layers", line, str(e))
    else:
        raise Fatal("the traced run failed three times")
    tally.record("layers", line, layers.pop("error") or None, wrong_output=True)
    del layers["correct"]
    m.update(layers)
    # A pass the workload's pipeline does not run did no work.
    for p in PAPER6.split(":"):
        m.setdefault("passes.%s_ms" % p, 0.0)
        m.setdefault("passes.%s_xforms" % p, 0)

    # Driver start-up and the --mao-report/--mao-trace-out overhead.
    startup = {"name": "startup", "path": "startup.s"}
    times = [op.wall_s * 1e3 for op in
             (compile_op(tally, spec["pipeline"], startup, rundir, 30)
              for _ in range(10)) if op]
    m["mao.startup_ms"] = median(times)
    plain, reported = [], []
    observe = ["--mao-report=report.json", "--mao-trace-out=trace.json"]
    for _ in range(2 if len(manifest["files"]) == 1 else 1):
        for f in manifest["files"]:
            limit = max(20.0, 10 * ref_times[f["name"]])
            for extra, samples in (([], plain), (observe, reported)):
                op = compile_op(tally, spec["pipeline"], f, rundir, limit, extra)
                if op:
                    samples.append(op.wall_s)
    m["mao.report_overhead_pct"] = (
        100.0 * (median(reported) / median(plain) - 1) if plain and reported else 0.0)

    # The workload split the layout work relies on: LOOP16 (with the
    # relaxation rounds inside it) is most of optimize time on spec_suite
    # and pads there, and is absent from serve_mixed.
    m["passes.loop16_share"] = m["passes.LOOP16_ms"] / max(m["pass.optimize_ms"], 1e-9)
    split = {"spec_suite": (m["passes.loop16_share"] > 0.5
                            and m["passes.LOOP16_xforms"] > 0),
             "serve_mixed": m["passes.LOOP16_ms"] == 0}
    if not split.get(workload, True):
        log("note: the LOOP16 split does not hold on %s: share %.3f, %d pads"
            % (workload, m["passes.loop16_share"], m["passes.LOOP16_xforms"]))
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        facts = build_facts()
    except Fatal as e:
        log("error: " + str(e))
        return 2
    rundir = os.path.join(RUNS, "%s-s%d-t%d-%d" % (args.workload, args.seed,
                                                   args.trace, os.getpid()))
    units = declared_metrics()[args.trace]
    tally = Tally(args.workload, args.seed)
    try:
        kind = per_layer if args.trace else end_to_end
        metrics = kind(args.workload, args.seed, args.seconds, rundir, tally)
        if set(metrics) != set(units):
            raise Fatal("metrics differ from BENCHMARK.json: %s"
                        % sorted(set(metrics) ^ set(units)))
    except Fatal as e:
        log("error: " + str(e))
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    result = {"correct": not tally.wrong_output, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, **facts)
    with open(os.path.join(RESULTS, "%s-s%d-t%d.json" % (args.workload, args.seed,
                                                        args.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    log("%(workload)s seed=%(seed)d build=%(build_type)s compiler=%(compiler)s "
        "nproc=%(nproc)d" % record)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
