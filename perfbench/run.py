#!/usr/bin/env python3
"""perfbench: the timedmap performance ledger.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: builds `timedmap` and the in-process probe
(release profile), runs one workload, checks every answer against a
known one (oracle.py), prints a human-readable report and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured against
the real binary with no instrumentation and scaled to a reference speed
by an interleaved calibration kernel; with --trace 1 they are the
per-layer ones, from spans the probe records around public calls.
See perfbench/README.md.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import mix  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = ".perfbench"  # scratch, relative to ROOT (short Unix socket paths)
TARGETS = ("bin/timedmap.exe", "perfbench/probe/probe.exe")
TIMEDMAP, PROBE = (os.path.join("_build", "default", t) for t in TARGETS)
WORKLOADS = ("verify-fischer5", "margin-fischer3", "serve-mix")

SETUP_SPAWNS = 25  # process starts timed next to each CLI command, for setup_s
OP_TIMEOUT = 150  # seconds, one CLI command or one probe run
REQ_TIMEOUT = 30  # seconds, one daemon request
CONNECTIONS = 2
TRACE_SESSIONS = 3  # serve-mix sessions replayed in-process per probe run
# End-to-end times are reported at a reference machine speed: each is
# multiplied by CAL_REF_S / (the calibration kernel's time measured next
# to it, `probe calibrate`).  A shared VM's speed drifts by up to 1.7x
# within minutes; the kernel drifts with it, so the ratio holds steady
# where raw times do not.  Raw times are printed beside them.
CAL_REF_S = 0.3
CAL_EVERY_S = 2.0  # serve-mix: recalibrate between sessions this often


def log(*parts):
    print(*parts, flush=True)


def fail_exit(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


# --------------------------------------------------------------------
# processes


def spawn(argv, stdout, stderr=subprocess.DEVNULL):
    return subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, cwd=ROOT)


def run_cli(argv, out_path):
    """One timed CLI command, killed after OP_TIMEOUT: (wall s, CPU s,
    peak RSS MB, exit code, stdout, timed out)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = spawn(argv, out)
        timer = threading.Timer(OP_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode, text,
            proc.returncode == -signal.SIGKILL)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "bin", "timedmap.ml"))):
        fail_exit("no timedmap source tree at %s (need dune-project and bin/)" % ROOT)
    if shutil.which("dune") is None:
        fail_exit("dune is not on PATH")
    t0 = time.perf_counter()
    r = subprocess.run(["dune", "build", "--root", ".", "--profile", "release"] + ["./" + t for t in TARGETS],
                       cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail_exit("build failed")
    log("build: %.1f s" % (time.perf_counter() - t0))


def repeat(seconds, op):
    """Call op() until another call, at the median duration so far,
    would end past `seconds`; at least once.  Returns the results."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(op())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def calibrate():
    """Seconds the calibration kernel takes right now."""
    r = subprocess.run([PROBE, "calibrate"], capture_output=True, text=True, cwd=ROOT, timeout=OP_TIMEOUT)
    if r.returncode != 0:
        fail_exit("probe calibrate failed: " + r.stderr[-2000:])
    return float(r.stdout.split()[0])


def fresh_dir(rel):
    path = os.path.join(ROOT, rel)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return rel


# --------------------------------------------------------------------
# report helpers


def fmt_summary(name, unit, values, scale=1.0):
    s = stats.summary([v * scale for v in values])
    tail = s["tail"]
    if tail and tail[0] != "p50":
        tail_txt = "%s %.4f" % (tail[0], tail[1])
    else:
        tail_txt = "no tail (<%d samples beyond p90)" % stats.MIN_BEYOND
    return "  %-24s p50 %.4f %s, %s, n=%d" % (name, s["p50"], unit, tail_txt, s["n"])


def metric(value, unit):
    return {"value": value, "unit": unit}


def finish(outcomes, metrics):
    """Print the result line; exit 1 when any operation failed."""
    attempted, failed, share = stats.fail_share(outcomes)
    log("  %-24s %.4f (%d of %d attempted)" % ("fail_share", share, failed, attempted))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}),
          flush=True)
    sys.exit(0 if correct else 1)


# --------------------------------------------------------------------
# end to end: verify-fischer5, margin-fischer3


def cli_setup_samples(out_path):
    """Process start to exit of the binary doing nothing: the set-up
    every timedmap command pays before its first operation."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        wall, _, _, code, _, _ = run_cli([TIMEDMAP, "--version"], out_path)
        if code != 0:
            fail_exit("timedmap --version exited %d" % code)
        samples.append(wall)
    return samples


def run_cli_workload(workload, seconds):
    work = fresh_dir(os.path.join(WORK, workload))
    out_path = os.path.join(ROOT, work, "out")
    if workload == "verify-fischer5":
        argv = [TIMEDMAP, "verify", "-S", "fischer", "-n", "5", "--domains", "1"]
        check = lambda text: oracle.fischer_verify_text(text, 1, 2)
    else:
        argv = [TIMEDMAP, "margin", "-S", "fischer", "-n", "3", "--domains", "1", "--json"]

        def check(text):
            try:
                return oracle.fischer_set_margin(json.loads(text), 3, 1, 2)
            except ValueError as e:
                return "unparsable margin output: %s" % e

    def op():
        cal = calibrate()
        # Set-up is sampled next to every command, so that the samples
        # span the whole run and share the command's calibration.
        setup = cli_setup_samples(out_path)
        wall, cpu, peak, code, text, killed = run_cli(argv, out_path)
        problem = check(text) if code == 0 else "exit code %d" % code
        if killed:
            outcome = "timeout"
        elif problem:
            log("  WRONG: " + problem)
            outcome = "wrong" if code == 0 else "failed"
        else:
            outcome = stats.OK
        return wall, cpu, peak, outcome, cal, setup

    walls, cpus, rss, outcomes, cals, setups = zip(*repeat(seconds, op))
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    speed = [CAL_REF_S / c for c in cals]  # per op: reference time per second here
    setup = [w for batch in setups for w in batch]
    setup_ref = [w * k for batch, k in zip(setups, speed) for w in batch]

    log("%s: %s  (raw times)" % (workload, " ".join(argv[1:])))
    log(fmt_summary("calibration_s", "s", cals))
    log(fmt_summary("setup_s", "s", setup))
    log(fmt_summary("wall_s", "s", walls))
    log("  %-24s %s" % ("wall_s, each", " ".join("%.3f" % w for w in walls)))
    log(fmt_summary("cpu_s", "s", cpus))
    log("  %-24s %.4f 1/s" % ("ops_per_s", len(walls) / sum(walls)))
    log(fmt_summary("peak_rss_mb", "MB", rss))
    finish(list(outcomes), {
        "setup_s": metric(statistics.median(setup_ref), "s"),
        "op_p50_ms": metric(statistics.median(w * k for w, k in zip(walls, speed)) * 1000, "ms"),
        "cpu_ms_per_op": metric(statistics.median(c * k for c, k in zip(cpus, speed)) * 1000, "ms"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    })


# --------------------------------------------------------------------
# end to end: serve-mix


def vm_hwm_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_ticks(pid):
    """User + system CPU of a live process, in clock ticks."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])
    except (OSError, IndexError, ValueError):
        return 0


def children_of(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open("/proc/%s/stat" % entry) as f:
                    fields = f.read().rsplit(")", 1)[1].split()
                if int(fields[1]) == pid:
                    kids.append(int(entry))
            except (OSError, IndexError, ValueError):
                pass
    return kids


class Daemon:
    """`timedmap serve --workers 1` on a fresh state directory."""

    def __init__(self, k, metrics_out=False):
        self.dir = fresh_dir(os.path.join(WORK, "serve-%d" % k))
        self.sock = os.path.join(self.dir, "d.sock")
        argv = [TIMEDMAP, "serve", "--workers", "1", "--domains", "1",
                "--state-dir", os.path.join(self.dir, "state"), "--socket", self.sock]
        self.metrics_path = os.path.join(ROOT, self.dir, "metrics.json") if metrics_out else None
        if self.metrics_path:
            argv += ["--metrics-out", self.metrics_path]
        self.log = open(os.path.join(ROOT, self.dir, "daemon.log"), "wb")
        t0 = time.perf_counter()
        self.proc = spawn(argv, self.log, self.log)
        try:
            self.ctl = mix.connect(os.path.join(ROOT, self.sock), time.monotonic() + 10)
            if json.loads(mix.call(self.ctl, '{"op":"ping"}', 10)).get("reason") != "pong":
                fail_exit("daemon did not answer ping")
            # A job outside the mix: its answer proves the worker is up.
            warm = json.loads(mix.call(self.ctl, '{"op":"simulate","system":"rm","steps":1}', 30))
            if warm.get("status") != "ok":
                fail_exit("daemon warm-up job failed: %r" % (warm,))
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - t0
        self.workers = children_of(self.proc.pid)

    def cpu_s(self):
        """CPU so far of the daemon and of its workers, in seconds."""
        tick = os.sysconf("SC_CLK_TCK")
        return cpu_ticks(self.proc.pid) / tick, sum(cpu_ticks(p) for p in self.workers) / tick

    def stats(self):
        return json.loads(mix.call(self.ctl, '{"op":"stats"}', 10))["verdict"]

    def peak_rss_mb(self):
        return sum(vm_hwm_mb(p) for p in [self.proc.pid] + self.workers)

    def stop(self):
        """Shut the daemon down, make sure its workers are gone too, and
        delete its directory.  Returns the --metrics-out dump, if any."""
        try:
            mix.call(self.ctl, '{"op":"shutdown"}', 10)
        except OSError:
            pass
        self.ctl.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        for pid in self.workers:  # normally already reaped by the daemon
            deadline = time.monotonic() + 5
            while os.path.exists("/proc/%d" % pid) and time.monotonic() < deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                time.sleep(0.01)
        dump = None
        if self.metrics_path and os.path.exists(self.metrics_path):
            with open(self.metrics_path) as f:
                dump = json.load(f)
        shutil.rmtree(os.path.join(ROOT, self.dir), ignore_errors=True)
        return dump


def with_ids(seq):
    """Attach a fresh id to every request; the daemon echoes it."""
    return [json.dumps(dict(req, id=i), separators=(",", ":")) for i, (req, _) in enumerate(seq)]


def expected_responses(lines):
    """Run the probe's `expect` over "<cached 0|1> <payload>" lines."""
    r = subprocess.run([PROBE, "expect"], input="".join(l + "\n" for l in lines),
                       capture_output=True, text=True, cwd=ROOT, timeout=OP_TIMEOUT)
    if r.returncode != 0:
        fail_exit("probe expect failed: " + r.stderr[-2000:])
    return r.stdout.splitlines()


def classify(req, first_seen, text, want):
    """(outcome, kind) of one answered request; kind is cold, hit or
    coalesced."""
    if text is None:
        return "timeout", "cold" if first_seen else "hit"
    resp = json.loads(text)
    status = resp.get("status")
    cached = resp.get("cached") is True
    kind = "cold" if first_seen else ("hit" if cached else "coalesced")
    if status == "unknown":
        return ("shed" if resp.get("reason") == "queue full" else "unknown"), kind
    if status != "ok":
        return "failed", kind
    if first_seen and cached:
        return "wrong", kind
    if oracle.check_request(req, resp.get("verdict")) or text != want:
        return "wrong", kind
    return stats.OK, kind


def serve_session(k, seq, metrics_out=False):
    """One session on a fresh daemon: (setup s, loop wall s, loop CPU s
    of (daemon, worker), peak RSS MB, stats doc, [(latency, response
    text)], --metrics-out dump)."""
    d = Daemon(k, metrics_out)
    try:
        cpu0 = d.cpu_s()
        results, wall = mix.closed_loop(os.path.join(ROOT, d.sock), with_ids(seq), CONNECTIONS, REQ_TIMEOUT)
        cpu = tuple(b - a for a, b in zip(cpu0, d.cpu_s()))
        st = d.stats()
        peak = d.peak_rss_mb()
    finally:
        dump = d.stop()
    return d.setup_s, wall, cpu, peak, st, results, dump


def run_serve(seconds, seed):
    seqs = mix.sessions(seed)
    runs = []  # (session sequence, serve_session result, speed factor)
    cals = []  # (when, calibration s)

    def op():
        if not cals or time.perf_counter() - cals[-1][0] >= CAL_EVERY_S:
            cals.append((time.perf_counter(), calibrate()))
        seq = next(seqs)
        runs.append((seq, serve_session(len(runs), seq), CAL_REF_S / cals[-1][1]))

    repeat(seconds, op)
    setup = [r[0] for _, r, _ in runs]
    walls = [r[1] for _, r, _ in runs]
    rss = [r[3] for _, r, _ in runs]
    coalesced = sum(r[4].get("coalesced", 0) for _, r, _ in runs)
    shed = sum(r[4].get("shed", 0) for _, r, _ in runs)
    answered = [(req, first, payload, latency, text, k)
                for seq, r, k in runs
                for (req, first), payload, (latency, text) in zip(seq, with_ids(seq), r[5])]
    daemon_cpu = sum(r[2][0] for _, r, _ in runs)
    worker_cpu = sum(r[2][1] for _, r, _ in runs)
    cpu_per_req = (daemon_cpu + worker_cpu) / len(answered)
    cpu_ref_per_req = sum(sum(r[2]) * k for _, r, k in runs) / len(answered)

    lines = ["%d %s" % (1 if text and json.loads(text).get("cached") else 0, payload)
             for (_, _, payload, _, text, _) in answered]
    lat = {"cold": [], "hit": [], "coalesced": []}
    hit_ref = []  # hit latencies at the reference speed
    outcomes = []
    for (req, first, payload, latency, text, k), want in zip(answered, expected_responses(lines)):
        outcome, kind = classify(req, first, text, want)
        outcomes.append(outcome)
        if outcome == stats.OK:
            lat[kind].append(latency)
            if kind == "hit":
                hit_ref.append(latency * k)
        elif len(outcomes) - outcomes.count(stats.OK) <= 5:  # the first five failures
            log("  %s: %s -> %s" % (outcome.upper(), payload, text))
    requests = len(answered)
    log("serve-mix: timedmap serve --workers 1, closed loop, %d connections, seed %d  (raw times)"
        % (CONNECTIONS, seed))
    log("  sessions %d, requests %d, distinct fingerprints %d, hit share %.3f, coalesced %d, shed %d"
        % (len(runs), requests, len({mix.key(a[0]) for a in answered}), len(lat["hit"]) / requests,
           coalesced, shed))
    log(fmt_summary("calibration_s", "s", [c for _, c in cals]))
    log(fmt_summary("setup_s", "s", setup))
    log(fmt_summary("session_wall_s", "s", walls))
    log("  %-24s %.2f 1/s" % ("serve.req_per_s", requests / sum(walls)))
    log("  %-24s %.4f ms (daemon + worker, over the closed loops)" % ("serve.cpu_ms_per_req", 1000 * cpu_per_req))
    log("  %-24s daemon %.1f%% (hits; framing, catalog and dispatch of all), worker %.1f%% (cold jobs)"
        % ("serve.cpu_share", 100 * daemon_cpu / (daemon_cpu + worker_cpu),
           100 * worker_cpu / (daemon_cpu + worker_cpu)))
    for kind in ("hit", "cold", "coalesced"):
        if lat[kind]:
            log(fmt_summary("serve.%s_ms" % kind, "ms", lat[kind], 1000))
    log(fmt_summary("peak_rss_mb", "MB", rss))
    finish(outcomes, {
        "setup_s": metric(statistics.median(r[0] * k for _, r, k in runs), "s"),
        "op_p50_ms": metric(statistics.median(hit_ref) * 1000, "ms"),
        "cpu_ms_per_op": metric(1000 * cpu_ref_per_req, "ms"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    })


# --------------------------------------------------------------------
# per layer (--trace 1)


def probe_trace(workload, stdin_text=""):
    args = [PROBE, "trace", workload]
    if workload == "serve-mix":
        args.append(fresh_dir(os.path.join(WORK, "trace")))
    r = subprocess.run(args, input=stdin_text, capture_output=True, text=True, cwd=ROOT,
                       timeout=OP_TIMEOUT)
    if r.returncode != 0:
        fail_exit("probe trace failed: " + r.stderr[-2000:])
    return json.loads(r.stdout.splitlines()[-1])


def self_sum(names, pred):
    return sum(sum(ss) for n, (_, ss) in names.items() if pred(n))


def layer_metrics(doc, workload):
    """Universal per-layer metrics of one probe run, plus the
    workload-specific ones (printed, not in the JSON line)."""
    spans = [tuple(s) for s in doc["spans"]]
    names = stats.by_name(spans)
    c = doc["counters"]
    gc = doc["gc"]
    traced, untraced = doc["traced_s"], doc["untraced_s"]
    if workload == "serve-mix":
        reach_s = self_sum(names, lambda n: n == "workers.exec")
    else:
        reach_s = self_sum(names, lambda n: n.startswith("reach."))
    stored, edges = c.get("zones.stored", 0), c.get("zones.edges", 0)
    clock = names.get("clock_enc.make", ([], []))[0]
    m = {
        "reach.time_s": (reach_s, "s"),
        "reach.share_pct": (100 * reach_s / traced, "%"),
        "reach.us_per_edge": (1e6 * reach_s / edges if edges else 0.0, "us"),
        "reach.zones_stored": (stored, "count"),
        "reach.edges": (edges, "count"),
        "reach.zones_subsumed": (c.get("zones.subsumed", 0), "count"),
        "reach.pruned_waiting": (c.get("zones.pruned_waiting", 0), "count"),
        "reach.interned": (c.get("zones.interned", 0), "count"),
        "reach.stored_per_edge": (stored / edges if edges else 0.0, "ratio"),
    }
    for op in ("canonicalize", "constrain", "up", "extrapolate", "reset", "free", "min_subsumes", "minimize"):
        m["dbm.ops." + op] = (c.get("dbm.ops{op=%s}" % op, 0), "count")
    m.update({
        "gc.minor_words_per_zone": (gc["minor_words"] / stored if stored else 0.0, "words"),
        "gc.top_heap_mb": (gc["top_heap_words"] * gc["word_bytes"] / 2 ** 20, "MB"),
        "gc.major_collections": (gc["major_collections"], "count"),
        "clock_enc.make_ms": (1000 * statistics.fmean(clock) if clock else 0.0, "ms"),
        "trace.overhead_pct": (100 * (traced - untraced) / untraced, "%"),
    })

    extra = {}
    if workload == "margin-fischer3":
        report_s = sum(names.get("margin.report", ([], []))[0])
        kinds = {k: names.get("margin.probe." + k, ([], [])) for k in ("int", "rational")}
        probes = kinds["int"][0] + kinds["rational"][0]
        extra.update({
            "margin.probes": (len(probes), "count"),
            "margin.probe_s": (sum(probes), "s"),
            "margin.probe_p50_ms": (1000 * statistics.median(probes), "ms"),
            "margin.self_s": (report_s - sum(probes), "s"),
            "margin.int_probes": (len(kinds["int"][0]), "count"),
            "margin.int_probe_s": (sum(kinds["int"][0]), "s"),
            "margin.rational_probes": (len(kinds["rational"][0]), "count"),
            "margin.rational_probe_s": (sum(kinds["rational"][0]), "s"),
            "perturb.applied": (c.get("faults.perturb_applied", 0), "count"),
        })
    if workload == "serve-mix":
        def us(name):
            # Span times tick in microseconds (gettimeofday); the mean
            # of tick-quantized durations stays unbiased where a median
            # of few-microsecond spans would read a whole tick.
            d = names.get(name, ([], []))[0]
            return (1e6 * statistics.fmean(d) if d else 0.0, "us")

        def ms(name):
            d = names.get(name, ([], []))[0]
            return (1e3 * statistics.median(d) if d else 0.0, "ms")

        hits, misses = c.get("serve.cache_hit", 0), c.get("serve.cache_miss", 0)
        n_req = len(names.get("request", ([], []))[0])
        exec_d = names.get("workers.exec", ([], []))[0]
        rt_d = names.get("workers.roundtrip", ([], []))[0]
        extra.update({
            "protocol.encode_us": us("protocol.encode"),
            "protocol.decode_us": us("protocol.decode"),
            "protocol.respond_us": us("protocol.respond"),
            "protocol.bytes_per_req": (doc["facts"]["request_bytes"] / n_req if n_req else 0.0, "bytes"),
            "catalog.parse_us": us("catalog.parse"),
            "cache.find_us": us("cache.find"),
            "cache.store_ms": ms("cache.store"),
            "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "admission.admit_us": us("admission.admit"),
            "workers.exec_ms": ms("workers.exec"),
            "workers.roundtrip_ms": ms("workers.roundtrip"),
            "workers.ipc_ms": (1e3 * statistics.median([r - e for r, e in zip(rt_d, exec_d)]) if rt_d else 0.0,
                               "ms"),
            "snapshot.write_ms": ms("snapshot.write"),
            "snapshot.bytes": (doc["facts"]["snapshot_bytes"], "bytes"),
        })
    return m, extra


def trace_check(workload, doc, requests, layers):
    """Known answers for the traced run's outputs."""
    facts = doc["facts"]
    if workload == "verify-fischer5":
        want = {"mutual_exclusion": "invariant_ok", "u_enter": "verified"}
        problems = ["%s: got %r" % (k, facts.get(k)) for k, v in want.items() if facts.get(k) != v]
        share = layers["reach.share_pct"][0]
        if share < 95:
            problems.append("reach.* spans cover %.1f%% of traced wall time (need >= 95%%)" % share)
    elif workload == "margin-fischer3":
        problems = [oracle.fischer_set_margin(facts, 3, 1, 2)]
    else:
        problems = [oracle.check_request(req, v) for req, v in zip(requests, facts["verdicts"])]
        if len(facts["verdicts"]) != len(requests):
            problems.append("replay answered %d of %d requests" % (len(facts["verdicts"]), len(requests)))
        if facts["roundtrip_mismatches"]:
            problems.append("%d worker round trips disagreed with in-process execution"
                            % facts["roundtrip_mismatches"])
    return [p for p in problems if p]


def run_trace(workload, seconds, seed):
    stdin_text, requests, payloads = "", [], []
    if workload == "serve-mix":
        seqs = list(itertools.islice(mix.sessions(seed), TRACE_SESSIONS))
        blocks = [with_ids(seq) for seq in seqs]
        requests = [req for seq in seqs for req, _ in seq]
        payloads = [p for block in blocks for p in block]
        stdin_text = "\n--\n".join("\n".join(block) for block in blocks) + "\n"
        # Admission figures need real concurrency: one daemon session.
        _, _, _, _, st, _, dump = serve_session(0, seqs[0], metrics_out=True)
        depth_max = [e.get("value") for e in (dump or {}).get("metrics", [])
                     if e.get("name") == "serve.queue_depth_max"]

    outcomes = []

    def op():
        doc = probe_trace(workload, stdin_text)
        if workload == "serve-mix":
            doc["facts"]["request_bytes"] = sum(len(p.encode()) + 4 for p in payloads)
        layers = layer_metrics(doc, workload)
        problems = trace_check(workload, doc, requests, layers[0])
        for p in problems[:5]:
            log("  WRONG: " + p)
        outcomes.append("wrong" if problems else stats.OK)
        return layers

    runs = repeat(seconds, op)

    def med(key, which):
        return statistics.median(r[which][key][0] for r in runs)

    base, extra = runs[0]
    log("%s traced: %d probe run(s), seed %d" % (workload, len(runs), seed))
    for key, (_, unit) in base.items():
        log("  %-26s %.6g %s" % (key, med(key, 0), unit))
    for key, (_, unit) in extra.items():
        log("  %-26s %.6g %s" % (key, med(key, 1), unit))
    if workload == "serve-mix":
        log("  %-26s %d count" % ("admission.coalesced", st.get("coalesced", 0)))
        log("  %-26s %d count" % ("admission.shed", st.get("shed", 0)))
        log("  %-26s %s count" % ("admission.queue_depth_max", depth_max[0] if depth_max else "n/a"))
    finish(outcomes, {k: metric(med(k, 0), u) for k, (_, u) in base.items()})


# --------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    build()
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.trace:
            run_trace(args.workload, args.seconds, args.seed)
        elif args.workload == "serve-mix":
            run_serve(args.seconds, args.seed)
        else:
            run_cli_workload(args.workload, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
