#!/usr/bin/env python3
"""The serve benchmark: one command, run from the root of a source tree.

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 20 --trace 0

Builds `mhc` and the benchmark's own OCaml helper (`perfbench/ocaml`,
`pb`) from source, then:

--trace 0  starts `mhc serve` as a child process and drives the workload's
           seeded request stream from this one process over a closed loop
           (each connection waits for its reply before sending again).
           Every response is checked against the reference the generator
           computed without mhc. Prints the end-to-end metrics.
--trace 1  runs `pb traced`, which replays the same seeded streams
           in-process and times the calls into each layer. Prints the
           per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it are
a human-readable summary (metric, value, unit, sample count) and a
`run_info` line with the seed, source revision, host steal-time share
and load average. Workload settings live in perfbench/spec.json.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "spec.json")))
MHC = os.path.join("_build", "default", "bin", "mhc.exe")
PB = os.path.join("_build", "default", "perfbench", "ocaml", "pb.exe")
CORPUS = os.path.relpath(os.path.join(HERE, "corpus"))
REPLY_TIMEOUT_S = 30
LIVE = []  # servers not yet stopped, for the watchdog


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


# ---- build ----------------------------------------------------------------

def build():
    for need in ("dune-project", os.path.join("bin", "mhc.ml"), "lib"):
        if not os.path.exists(need):
            fail(f"not a source tree: {need} is missing (run from the repository root)")
    # --root pins the workspace to this tree; the shared dune cache would
    # write outside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/mhc.exe", "./perfbench/ocaml/pb.exe"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("build failed")


def pb(*args):
    r = subprocess.run([PB, *args, "--corpus", CORPUS], capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"pb {args[0]} failed")
    return r.stdout


def stream(workload, seed, part, count=None):
    """Part 1 is the warm-up stream (its full length), part 0 the timed one."""
    args = ["--count", str(count)] if count else []
    out = pb("gen", "--workload", workload, "--seed", str(seed), "--part", str(part), *args)
    reqs = []
    for line in out.splitlines():
        rec = json.loads(line)
        rec["bytes"] = rec["line"].encode() + b"\n"
        reqs.append(rec)
    return reqs


# ---- host and process readings ----------------------------------------------

def proc_cpu_ms(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def host_cpu():
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:]]
    return vals[7] if len(vals) > 7 else 0, sum(vals[:8])


def revision():
    # only this tree's own .git: a checkout nested in another repository
    # must not report that repository's commit
    if os.path.isdir(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            if r.returncode == 0:
                return r.stdout.strip()
        except OSError:
            pass
    # not a git checkout: a digest of the program's sources names the tree
    h = hashlib.md5()
    for top in ("bin", "lib"):
        for d, _, files in sorted(os.walk(top)):
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-md5:" + h.hexdigest()


# ---- the server under test ----------------------------------------------------

class Server:
    """One `mhc serve` child over TCP (two connections) or stdio (one pipe)."""

    def __init__(self, cfg):
        self.cfg = cfg
        args = [MHC, "serve", "--workers", str(cfg["workers"]),
                "--cache-mb", str(cfg["cache_mb"])]
        self.tcp = cfg["transport"] == "tcp"
        if self.tcp:
            args += ["--listen", "127.0.0.1:0"]
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        LIVE.append(self)
        self.stderr = []
        self.port = None
        listening = threading.Event()

        def drain_stderr():
            for raw in self.proc.stderr:
                line = raw.decode(errors="replace").rstrip("\n")
                self.stderr.append(line)
                if "listening on" in line:
                    self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
                    listening.set()
            listening.set()

        self.stderr_thread = threading.Thread(target=drain_stderr, daemon=True)
        self.stderr_thread.start()
        if self.tcp:
            if not listening.wait(60) or self.port is None:
                self.stop()
                fail("mhc serve did not start listening: " + " | ".join(self.stderr[-5:]))
            self.conn = self.connect()
        else:
            self.conn = (self.proc.stdin, self.proc.stdout)
        # ready: the first probe that answers true
        while True:
            resp = self.call(self.conn, b'{"op":"ready"}\n')
            if resp is None:
                self.stop()
                fail("mhc serve exited before it was ready")
            if json.loads(resp).get("ready") is True:
                break
            time.sleep(0.01)

    def connect(self):
        s = socket.create_connection(("127.0.0.1", self.port))
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.settimeout(REPLY_TIMEOUT_S)
        return (s, s.makefile("rb"))

    def call(self, conn, data):
        """Send one request line, return the reply line (None on EOF)."""
        out, inp = conn
        if self.tcp:
            out.sendall(data)
        else:
            out.write(data)
            out.flush()
        line = inp.readline()
        return line.decode() if line else None

    def metrics(self):
        resp = self.call(self.conn, b'{"op":"metrics"}\n')
        return json.loads(resp)["metrics"] if resp else {}

    def stop(self):
        try:
            if self.tcp:
                self.proc.send_signal(signal.SIGTERM)  # graceful drain
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.stderr_thread.join(5)
        if self.tcp and hasattr(self, "conn"):
            self.conn[0].close()
        if self in LIVE:
            LIVE.remove(self)


def judge(rec, line):
    """A reply line against the generated request's reference: "good",
    "failed" (no reply, or an error reply) or "wrong" (a reply claiming
    success with the wrong answer, or not JSON at all)."""
    if line is None:
        return "failed"
    try:
        resp = json.loads(line)
    except ValueError:
        return "wrong"
    if resp.get("ok") is not True:
        return "failed"
    exp = rec["expect"]
    if "value" in exp:
        right = resp.get("value") == exp["value"]
    else:
        right = resp.get("errors") == exp["errors"]
    return "good" if right else "wrong"


def drive(srv, reqs, seconds):
    """The timed phase: closed loop over the server's connections, handing
    out the stream in order until `seconds` have passed. Returns the
    samples [(index, send_ns, reply_ns, line)] and the phase's length."""
    lock = threading.Lock()
    nxt = [0]
    samples = []
    start = time.perf_counter_ns()
    stop_at = start + int(seconds * 1e9)
    conns = [srv.conn] + [srv.connect() for _ in range(srv.cfg["conns"] - 1)] \
        if srv.tcp else [srv.conn]

    def client(conn):
        mine = []
        while True:
            with lock:
                i = nxt[0]
                if time.perf_counter_ns() >= stop_at or i >= len(reqs):
                    break
                nxt[0] = i + 1
            t0 = time.perf_counter_ns()
            try:
                line = srv.call(conn, reqs[i]["bytes"])
            except (OSError, socket.timeout):
                line = None
            t1 = time.perf_counter_ns()
            mine.append((i, t0, t1, line))
            if line is None:
                break  # a dead or silent connection: stop using it
        with lock:
            samples.extend(mine)

    threads = [threading.Thread(target=client, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for c in conns[1:]:
        c[0].close()
    if nxt[0] >= len(reqs):
        fail(f"request stream exhausted after {len(reqs)} requests; lengthen it in spec.json")
    end = max(s[2] for s in samples)
    return samples, (end - start) / 1e9


# ---- statistics ----------------------------------------------------------------

def order_stat(sorted_xs, q):
    """Exact order statistic: the smallest sample with at least q of the
    samples at or below it."""
    k = max(0, min(len(sorted_xs) - 1, math.ceil(q * len(sorted_xs)) - 1))
    return sorted_xs[k]


def counter(snap, name):
    return snap.get("counters", {}).get(name, 0)


# ---- the untraced run -------------------------------------------------------------

def untraced(workload, seed, seconds):
    cfg = SPEC["workloads"][workload]
    warm = stream(workload, seed, 1)
    timed = stream(workload, seed, 0, cfg["stream"])
    verdicts = {"good": 0, "failed": 0, "wrong": 0}

    # set-up, repeated: spawn, first ready answering true, serial warm-up
    setups = []
    for rep in range(SPEC["setup_reps"]):
        t0 = time.perf_counter()
        srv = Server(cfg)
        for rec in warm:
            verdicts[judge(rec, srv.call(srv.conn, rec["bytes"]))] += 1
        setups.append(time.perf_counter() - t0)
        if rep < SPEC["setup_reps"] - 1:
            srv.stop()

    try:
        before = srv.metrics()
        cpu0 = proc_cpu_ms(srv.proc.pid)
        steal0, total0 = host_cpu()
        samples, elapsed = drive(srv, timed, seconds)
        steal1, total1 = host_cpu()
        cpu1 = proc_cpu_ms(srv.proc.pid)
        after = srv.metrics()
        hwm = proc_hwm_mb(srv.proc.pid)
    finally:
        srv.stop()

    limit_ns = cfg["latency_limit_ms"] * 1e6
    lat_ms = []
    in_limit = 0
    timed_verdicts = {"good": 0, "failed": 0, "wrong": 0}
    tags = {}
    for i, t0, t1, line in samples:
        v = judge(timed[i], line)
        timed_verdicts[v] += 1
        if v == "good":
            lat_ms.append((t1 - t0) / 1e6)
            in_limit += (t1 - t0) <= limit_ns
        tag = timed[i]["tag"]
        tags[tag] = tags.get(tag, 0) + 1
    n = len(samples)
    completed = sum(1 for s in samples if s[3] is not None)
    good = timed_verdicts["good"]
    for k, v in timed_verdicts.items():
        verdicts[k] += v
    if verdicts["wrong"]:
        print(f"perfbench: {verdicts['wrong']} replies claimed success with the wrong answer",
              file=sys.stderr)

    # the workload's defining property, from the server's own cache counters
    delta = {k: counter(after, "scale/cache/" + k) - counter(before, "scale/cache/" + k)
             for k in ("hits", "misses", "evictions")}
    shares = {
        "hit": delta["hits"] / n,
        "error": sum(1 for i, *_ in samples if timed[i]["expect"].get("errors", 0) > 0) / n,
        "eviction": delta["evictions"] / n,
    }
    broken = None
    if workload == "cold-compile" and (delta["hits"], delta["misses"]) != (0, n):
        broken = f"{delta['hits']} hits and {delta['misses']} misses in {n} timed requests " \
                 "(every request must miss)"
    elif workload == "hot-exec" and (delta["hits"], delta["misses"]) != (n, 0):
        broken = f"{delta['hits']} hits and {delta['misses']} misses in {n} timed requests " \
                 "(every request must hit)"
    elif "shares" in cfg:
        for k, (lo, hi) in cfg["shares"].items():
            if not lo <= shares[k] <= hi:
                broken = f"{k} share {shares[k]:.3f} outside [{lo}, {hi}]"
    if broken:
        fail(f"{workload} broke its defining property: {broken}")

    lat_ms.sort()
    beyond_p99 = len(lat_ms) - math.ceil(0.99 * len(lat_ms))
    if beyond_p99 < 10:
        fail(f"only {beyond_p99} samples beyond p99 (need 10) from {good} correct of {n} "
             f"timed replies ({timed_verdicts['failed']} failed, {timed_verdicts['wrong']} wrong)")

    metrics = {
        "goodput_rps": (in_limit / elapsed, "req/s", n),
        "latency_p50_ms": (order_stat(lat_ms, 0.50), "ms", len(lat_ms)),
        "latency_p99_ms": (order_stat(lat_ms, 0.99), "ms", len(lat_ms)),
        "success_rate": (good / n, "ratio", n),
        "server_cpu_ms_per_req": ((cpu1 - cpu0) / max(1, completed), "ms/req", completed),
        "peak_rss_mb": (hwm, "MB", 1),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    info = {
        "workload": workload, "seed": seed, "revision": revision(),
        "seconds": round(elapsed, 3), "requests": n, "tags": tags,
        "cache_delta": delta, "shares": {k: round(v, 4) for k, v in shares.items()},
        "setup_s_reps": [round(s, 4) for s in setups],
        "latency_ms": {q: round(order_stat(lat_ms, float(q)), 3)
                       for q in ("0.9", "0.95", "0.99", "0.999", "1")},
        "host_steal_share": round((steal1 - steal0) / max(1, total1 - total0), 4),
        "loadavg": open("/proc/loadavg").read().split()[:3],
        "server_failures": [l for l in srv.stderr if "failed" in l][-1:],
    }
    print(f"workload {workload}  seed {seed}  {n} timed requests in {elapsed:.2f} s  "
          f"(latency limit {cfg['latency_limit_ms']} ms)")
    for name, (v, unit, count) in metrics.items():
        print(f"  {name:24s} {v:14.6f} {unit:7s} n={count}")
    print(f"  property: {cfg['property']}; measured shares "
          + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print(json.dumps({"run_info": info}))
    return {
        "correct": verdicts["wrong"] == 0,
        "attempted": sum(verdicts.values()),
        "failed": verdicts["failed"] + verdicts["wrong"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


# ---- the traced run ------------------------------------------------------------------

def traced(workload, seed, seconds):
    cfg = SPEC["workloads"][workload]
    steal0, total0 = host_cpu()
    out = pb("traced", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--cache-mb", str(cfg["cache_mb"]),
             "--conns", str(cfg["conns"]), "--workers", str(cfg["workers"]))
    steal1, total1 = host_cpu()
    res = json.loads(out.strip().splitlines()[-1])
    wanted = [m["name"] for m in json.load(open("BENCHMARK.json"))["per_layer"]]
    missing = [m for m in wanted if m not in res["metrics"]]
    if missing:
        fail("traced run lacks per-layer metrics: " + ", ".join(missing))
    print(f"traced workload {workload}  seed {seed}  ({res['traced_s']:.1f} s in-process)")
    for name in wanted:
        m = res["metrics"][name]
        exact = " (exact)" if name in res["exact"] else ""
        print(f"  {name:28s} {m['value']:16.6f} {m['unit']}{exact}")
    print(json.dumps({"run_info": {
        "workload": workload, "seed": seed, "revision": revision(),
        "stream_md5": res["stream_md5"], "exact": res["exact"],
        "host_steal_share": round((steal1 - steal0) / max(1, total1 - total0), 4),
        "loadavg": open("/proc/loadavg").read().split()[:3]}}))
    return {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: res["metrics"][n] for n in wanted},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()

    # a hung server must not hang the benchmark: past the limit, kill it
    # and exit without a result
    def watchdog(_signum, _frame):
        for srv in LIVE:
            srv.proc.kill()
        fail("the run overran its time limit")

    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(int(a.seconds) + 120)
    run = traced if a.trace else untraced
    print(json.dumps(run(a.workload, a.seed, a.seconds)))


if __name__ == "__main__":
    main()
