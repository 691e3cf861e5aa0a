#!/usr/bin/env python3
"""The fcrit benchmark: one command, three workloads, checked outputs.

    python3 fcritbench/run.py --workload analyze_zonal|fi_sweep|score_mix \
        --seed N --seconds T --trace 0|1
    python3 fcritbench/run.py --self-test

Run from the root of an fcrit checkout. The first run configures and builds
fcritbench/ (the repo's library and CLI plus the fcritbench runner) into
.bench_build/. The same --seed gives the same inputs. The last line of stdout
is one JSON object: correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. A
provenance record of each run is written under .bench_build/results/.
See fcritbench/README.md for the workloads and metrics.
"""

import argparse
import asyncio
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_BIN = os.path.join(BUILD, "fcritbench")
FCRIT_BIN = os.path.join(BUILD, "fcrit_apps", "fcrit")

DEFAULT_SEED = 7  # reproduces bench::standard_config(); refs.json holds its references
THREADS = 2       # ML kernels, campaign shards and daemon workers
WORKLOADS = ("analyze_zonal", "fi_sweep", "score_mix")
DESIGNS = ("or1200_icfsm", "sdram_ctrl", "or1200_if", "ee_zonal")

# score_mix: open-loop SCORE traffic at a fixed ladder of Poisson rates (req/s),
# sized from the daemon's capacity on the recorded host (README.md).
# (rate, share of --seconds); latency_ms is read at the middle step and
# throughput_per_s at the last, which is above the daemon's capacity.
LADDER = ((4.0, 0.1), (8.0, 0.7), (32.0, 0.4))
LATENCY_LIMIT_MS = 500.0
MAX_CONNECTIONS = 4
TOP = 10
REQUEST_TIMEOUT_S = 30.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"fcritbench: {msg}", file=sys.stderr, flush=True)


def run(cmd):
    """Runs a command to completion; returns its stdout."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if p.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {p.returncode}: "
                         f"{p.stderr.strip()[-2000:]}")
    return p.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError("no output from fcritbench")
    return json.loads(lines[-1])


# ---- build -----------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no fcrit sources under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    cmds = [["cmake", "--build", BUILD, "-j", "4",
             "--target", "fcritbench", "fcrit_cli"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed, see {out.name}")


def steal_seconds():
    """Host-wide CPU time the hypervisor gave to other guests (/proc/stat
    "steal"), summed over CPUs: one cause of wall-time drift between
    identical runs on a shared host, recorded with each run."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def provenance(args):
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if rev.returncode == 0:
        rev = rev.stdout.strip()
    else:  # a checkout without .git: name the sources by content
        h = hashlib.sha1()
        for top in ("src", "apps", "fcritbench"):
            for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
                dirs.sort()
                for f in sorted(files):
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(fh.read())
        rev = "tree:" + h.hexdigest()[:12]
    return {"git_rev": rev, "nproc": os.cpu_count(), "threads": THREADS,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# ---- campaign references -------------------------------------------------------

def references(workload, plant_wrong):
    """--refs for a campaign workload: the digest per "<design>#<batch>".
    Both workloads run the standard stimulus seed's campaigns, whose
    references refs.json records."""
    with open(os.path.join(HERE, "refs.json")) as f:
        refs = json.load(f)["campaigns"]
    if workload == "analyze_zonal":
        refs = {"ee_zonal#0": refs["ee_zonal#0"]}
    if plant_wrong:  # self-test: a wrong reference must fail the run
        refs = {k: v[:-1] + ("0" if v[-1] != "0" else "1")
                for k, v in refs.items()}
    return ",".join(f"{k}={v}" for k, v in refs.items())


# ---- analyze_zonal / fi_sweep ---------------------------------------------------

def run_inprocess(args, refs):
    cmd = [BENCH_BIN, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--refs", refs]
    if args.trace:
        trace_path = os.path.join(BUILD, "results",
                                  f"{args.workload}-{args.seed}-spans.json")
        cmd += ["--trace", trace_path]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if not p.stdout.strip():
        raise BenchError(f"{args.workload} exited {p.returncode}: {p.stderr[-2000:]}")
    res = last_json(p.stdout)
    return res["metrics"], res["attempted"], res["failed"], res["errors"], res["info"]


# ---- score_mix ------------------------------------------------------------------

def schedule(seed, seconds):
    """The open-loop request plan. Per ladder step: a rate, a duration (its
    share of --seconds) and Poisson arrivals at that rate (a count fixed by
    rate x duration, times as uniform order statistics). Each request picks
    a bundle uniformly and targets the bundle's own design or, with
    probability 1/2, a random netlist of similar size used only once. The
    picks are balanced within a step (each (bundle, own|rand) class an equal
    share, in shuffled order), so a seed changes the order, not the mix."""
    rng = random.Random(f"score_mix-{seed}")
    classes = [(d, kind) for d in DESIGNS for kind in ("own", "rand")]
    used = {d: 0 for d in DESIGNS}
    steps = []
    for rate, share in LADDER:
        step_s = seconds * share
        n = max(1, round(rate * step_s))
        picks = classes * (n // len(classes)) + rng.sample(classes, n % len(classes))
        rng.shuffle(picks)
        reqs = []
        times = sorted(rng.uniform(0.0, step_s) for _ in range(n))
        for t, (d, kind) in zip(times, picks):
            if kind == "own":
                reqs.append((t, d, f"{d}.v", kind))
            else:
                reqs.append((t, d, f"rand_{d}_{used[d]}.v", kind))
                used[d] += 1
        steps.append((rate, step_s, reqs))
    return steps, max(used.values())


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Daemon:
    """`fcrit serve` started in its bundle directory, so targets are named
    relative to it; global flags go after the verb."""

    def __init__(self, bundle_dir, log_path, trace_ring):
        self.log = open(log_path, "w")
        for _ in range(3):  # another process may take the free port first
            self.port = free_port()
            self.proc = subprocess.Popen(
                [FCRIT_BIN, "serve", ".", "--port", str(self.port),
                 "--threads", str(THREADS), "--jobs", str(THREADS),
                 "--trace-ring", str(trace_ring)],
                cwd=bundle_dir, stdout=self.log, stderr=subprocess.STDOUT)
            deadline = time.monotonic() + 30
            while self.proc.poll() is None and time.monotonic() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", self.port), 1).close()
                    return
                except OSError:
                    time.sleep(0.01)
            self.stop()
        raise BenchError("fcrit serve did not start")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def cpu_seconds(self):
        """User + system CPU seconds of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def close(self):
        self.stop()
        self.log.close()


async def connect(port):
    return await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)


async def read_response(reader):
    lines = []
    while True:
        line = await reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        line = line.decode().rstrip("\n")
        if line == ".":
            return lines
        lines.append(line)


async def command(port, line):
    reader, writer = await connect(port)
    writer.write((line + "\nQUIT\n").encode())
    await writer.drain()
    resp = await read_response(reader)
    await read_response(reader)  # BYE
    writer.close()
    await writer.wait_closed()
    return resp


class Conn:
    """One pipelined connection: requests are written when due and their
    responses read back in order."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.pending = asyncio.Queue()
        self.outstanding = 0


def percentile(sorted_values, p):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(p / 100 * len(sorted_values)))]


async def run_step(conns, rate, step_s, reqs, expected, next_id):
    """One ladder step: send each request when due, on the connection with
    the fewest outstanding, and time it from its due time."""
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    done_reqs, late, in_flight = [], [], []  # in_flight: (t, outstanding)
    state = {"outstanding": 0, "errors": []}

    async def reader_task(c):
        while True:
            item = await c.pending.get()
            if item is None:
                return
            try:
                resp = await asyncio.wait_for(read_response(c.reader),
                                              REQUEST_TIMEOUT_S)
                error = None
            except (asyncio.TimeoutError, ConnectionError) as e:
                resp, error = [], type(e).__name__
            c.outstanding -= 1
            state["outstanding"] -= 1
            item["done"] = loop.time()
            if error is None and resp and resp[0].startswith("OK "):
                want = expected[f"{item['bundle']} {item['target']}"]
                if "\n".join(resp[1:]) + "\n" != want:
                    error = "ranked lines differ from in-process scoring"
            elif error is None:
                error = resp[0] if resp else "empty response"
            item["ok"] = error is None
            if error:
                state["errors"].append(f"{item['bundle']} {item['target']}: {error}")
            done_reqs.append(item)

    readers = [asyncio.create_task(reader_task(c)) for c in conns]
    for t, bundle, target, kind in reqs:
        due = start + t
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = loop.time()
        late.append(max(0.0, sent - due) * 1e3)
        c = min(conns, key=lambda c: c.outstanding)
        c.outstanding += 1
        state["outstanding"] += 1
        in_flight.append((sent - start, state["outstanding"]))
        rid = next_id()
        c.writer.write(f"SCORE {bundle} {target} {TOP} id={rid}\n".encode())
        c.pending.put_nowait({"id": rid, "bundle": bundle, "target": target,
                              "kind": kind, "due": due, "sent": sent})
    for c in conns:
        await c.writer.drain()
        c.pending.put_nowait(None)
    await asyncio.gather(*readers)

    lat = sorted(latency_ms(r) for r in done_reqs)
    # The backlog grew if, when the step's last request was sent, more than
    # a tenth of the step's requests (and more than 4) were still
    # outstanding; a step starts with none.
    growing = in_flight[-1][1] > max(4, len(reqs) / 10)
    failed = sum(not r["ok"] for r in done_reqs)
    # The limit holds at the highest percentile with ten samples beyond it:
    # p99 from 1000 requests; for a step of tens of requests p99 is just
    # its slowest one, which flips the verdict from seed to seed.
    tail_p = min(99.0, max(50.0, 100.0 * (1 - 10 / len(lat))))
    tail = percentile(lat, tail_p)
    # The rate the daemon completed requests at, from the step's first send
    # to its last response: its service rate when the step is over capacity.
    busy_s = (max(r["done"] for r in done_reqs) -
              min(r["sent"] for r in done_reqs))
    return {"rate": rate, "seconds": step_s, "sent": len(reqs),
            "ok": len(reqs) - failed, "failed": failed,
            "p50_ms": percentile(lat, 50), "p99_ms": percentile(lat, 99),
            "tail_p": tail_p, "tail_ms": tail, "growing_backlog": growing,
            "meets_limit": tail <= LATENCY_LIMIT_MS and not growing,
            "served_rps": (len(reqs) - failed) / busy_s,
            "late_ms": late, "requests": done_reqs,
            "errors": state["errors"][:10]}


async def score_session(port, steps, expected):
    conns = [Conn(*await connect(port)) for _ in range(MAX_CONNECTIONS)]
    ids = iter(range(1, 1 << 62))
    records = []
    for rate, step_s, reqs in steps:
        records.append(await run_step(conns, rate, step_s, reqs, expected,
                                      lambda: next(ids)))
    for c in conns:
        c.writer.write(b"QUIT\n")
        await c.writer.drain()
        c.writer.close()
    server = json.loads((await command(port, "METRICS"))[0])
    n = sum(r["sent"] for r in records)
    traces = json.loads((await command(port, f"TRACE LAST {n}"))[0])["traces"]
    return records, server, traces


def score_setup(args, bundle_dir, randoms, trace_ring):
    """Inputs built, bundles packed, daemon started and warmed."""
    if os.path.isdir(bundle_dir):
        shutil.rmtree(bundle_dir)
    os.makedirs(bundle_dir)
    run([BENCH_BIN, "score_setup", "--seed", str(args.seed), "--dir",
         bundle_dir, "--randoms", str(randoms)])
    daemon = Daemon(bundle_dir, os.path.join(BUILD, "run", "serve.log"),
                    trace_ring)
    try:
        for d in DESIGNS:  # fills the bundle cache
            resp = asyncio.run(command(daemon.port, f"SCORE {d} {d}.v {TOP}"))
            if not resp or not resp[0].startswith("OK "):
                raise BenchError(f"warm-up SCORE {d} failed: {resp[:1]}")
    except BaseException:
        daemon.close()
        raise
    return daemon


def latency_ms(r):
    """From due time to the end of the response; a failed request counts as
    taking the whole timeout, so it misses the latency limit."""
    return (r["done"] - r["due"]) * 1e3 if r["ok"] else REQUEST_TIMEOUT_S * 1e3


def class_median_ms(records):
    """Median latency per (bundle, own|rand) class, averaged over classes.
    The mix's latencies cluster by design size (about 13 to 250 ms on the
    recorded host) with a quarter of requests per design, so the plain
    median sits between two clusters and jumps between them with the seed;
    each class median lies inside its cluster."""
    by_class = {}
    for r in records["requests"]:
        by_class.setdefault((r["bundle"], r["kind"]), []).append(latency_ms(r))
    return statistics.fmean(statistics.median(v) for v in by_class.values())


def run_score_mix(args):
    steps, randoms = schedule(args.seed, args.seconds)
    bundle_dir = os.path.join(BUILD, "run", "score_mix")
    # The daemon keeps the trace of every request the run sends, so the
    # traced run can match each one by id.
    trace_ring = sum(len(reqs) for _, _, reqs in steps) + len(DESIGNS)
    setup_s, daemon = [], None
    for _ in range(3):
        if daemon:
            daemon.close()
        t = time.monotonic()
        daemon = score_setup(args, bundle_dir, randoms, trace_ring)
        setup_s.append(time.monotonic() - t)
    try:
        pairs = sorted({(b, tg) for _, _, reqs in steps for _, b, tg, _ in reqs})
        pairs_path = os.path.join(BUILD, "run", "score_pairs.txt")
        with open(pairs_path, "w") as f:
            f.writelines(f"{b} {tg}\n" for b, tg in pairs)
        expected = last_json(run([BENCH_BIN, "score_expect", "--dir", bundle_dir,
                                  "--pairs", pairs_path, "--top", str(TOP)]))
        if args.plant_wrong_ref:  # self-test: wrong expectations must fail
            expected = {k: v.replace(" ", "  ", 1) for k, v in expected.items()}
        cpu0 = daemon.cpu_seconds()
        records, server, traces = asyncio.run(
            score_session(daemon.port, steps, expected))
        rss = daemon.peak_rss_mb()
        cpu_ms = (daemon.cpu_seconds() - cpu0) * 1e3
    finally:
        daemon.close()

    sent = sum(r["sent"] for r in records)
    failed = sum(r["failed"] for r in records)
    errors = [e for r in records for e in r["errors"]][:20]
    mid = records[len(records) // 2]
    passing = [r for r in records if r["meets_limit"] and not r["failed"]]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss,
        "latency_ms": class_median_ms(mid),
        "cpu_ms": cpu_ms / sent,
        # The daemon's service rate under the over-capacity last step.
        "throughput_per_s": records[-1]["served_rps"],
    }
    if args.trace:
        metrics = serve_layers(records, mid, server, traces)
    info = {"setup_runs_s": setup_s,
            "max_passing_rps": passing[-1]["rate"] if passing else 0.0,
            "steps": [{k: v for k, v in r.items()
                       if k not in ("requests", "late_ms")} for r in records]}
    return metrics, sent, failed, errors, info


def serve_layers(records, mid, server, traces):
    """Per-layer split of the serving path at the middle ladder step, from
    the daemon's METRICS and TRACE LAST verbs and the client's own
    timestamps, matched by request id. Spans of a SCORE: queue_wait and
    bundle_load (serve), golden_sim (lint preflight, graph, golden
    simulation and features: counted as sim), forward (ml); the rest of the
    daemon's request time (netlist parse, response) is serve. A coalesced
    batch puts its one bundle_load and forward span, and its one golden_sim
    per distinct target, in every trace that rode on it; self time counts
    each shared span once, split evenly over the traces sharing it."""
    by_id = {int(t["id"]): t for t in traces}
    spans = {"queue_wait": [], "bundle_load": [], "golden_sim": [], "forward": []}
    wire, self_ms = [], {"sim": 0.0, "ml": 0.0, "serve": 0.0}
    calls, traced_ms = 0, 0.0
    for r in mid["requests"]:
        t = by_id.get(r["id"])
        if not t or not r["ok"]:
            continue
        calls += 1
        traced_ms += t["total_ms"]
        dur = {s["name"]: s["dur_ms"] for s in t["spans"]}
        for name in spans:
            spans[name].append(dur.get(name, 0.0))
        wire.append((r["done"] - r["sent"]) * 1e3 - t["total_ms"])
        batch = [t] + [by_id[int(p)] for p in t["batched_with"]
                       if int(p) in by_id]
        same_target = sum(b["target"] == t["target"] for b in batch)
        share = {"bundle_load": dur.get("bundle_load", 0.0) / len(batch),
                 "forward": dur.get("forward", 0.0) / len(batch),
                 "golden_sim": dur.get("golden_sim", 0.0) / same_target}
        self_ms["sim"] += share["golden_sim"]
        self_ms["ml"] += share["forward"]
        self_ms["serve"] += (t["total_ms"] - dur.get("golden_sim", 0.0)
                             - dur.get("forward", 0.0) - dur.get("bundle_load", 0.0)
                             + share["bundle_load"])
    m = {}
    for name, key in (("queue_wait", "queue_wait"), ("bundle_load", "load"),
                      ("golden_sim", "stats"), ("forward", "forward")):
        v = sorted(spans[name])
        m[f"serve.{key}_ms.p50"] = percentile(v, 50)
        m[f"serve.{key}_ms.p99"] = percentile(v, 99)
    for layer, ms in self_ms.items():
        m[f"{layer}.self_ms"] = ms
        m[f"{layer}.calls"] = calls
    # Both daemon-wide, over the whole ladder.
    m["serve.cache_hit_ratio"] = server["cache_hit_ratio"]
    m["serve.queue_high_water"] = server["queue_high_water"]
    m["serve.wire_ms"] = statistics.median(wire) if wire else 0.0
    m["gen.late_ms"] = percentile(sorted(l for r in records for l in r["late_ms"]), 99)
    lat = sorted((r["done"] - r["due"]) * 1e3 for r in mid["requests"] if r["ok"])
    m["score.p50_ms"] = percentile(lat, 50)
    m["score.p99_ms"] = percentile(lat, 99)
    # The daemon traces every request whether or not this run reads the
    # traces, so the traced run adds no work on the measured path.
    m["trace.overhead_pct"] = 0.0
    m["trace.span_coverage"] = (sum(sum(v) for v in spans.values()) /
                                max(1e-9, traced_ms))
    return m


# ---- result ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong-ref", action="store_true",
                    help="corrupt the reference outputs (the run must fail)")
    ap.add_argument("--self-test", action="store_true",
                    help="check that a planted wrong reference fails the run")
    args = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        return measure(args, spec)
    except (BenchError, OSError, json.JSONDecodeError) as e:
        log(str(e))
        return 1


def measure(args, spec):
    os.makedirs(os.path.join(BUILD, "run"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    steal0 = steal_seconds()
    if args.workload == "score_mix":
        metrics, attempted, failed, errors, info = run_score_mix(args)
    else:
        refs = references(args.workload, args.plant_wrong_ref)
        metrics, attempted, failed, errors, info = run_inprocess(args, refs)
    info["host_steal_s"] = steal_seconds() - steal0
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0.0 if args.trace else None)
        if value is None:
            raise BenchError(f"{args.workload} did not measure {m['name']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and attempted > 0
    record = {"provenance": provenance(args),
              "correct": correct, "attempted": attempted, "failed": failed,
              "errors": errors, "metrics": out, "raw": metrics, "info": info}
    with open(os.path.join(BUILD, "results",
                           f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    for e in errors:
        log(f"check failed: {e}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


def self_test():
    """A planted wrong reference must fail the run: campaign digests in
    fi_sweep, expected ranked lines in score_mix."""
    for workload in ("fi_sweep", "score_mix"):
        p = subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", workload, "--seed", str(DEFAULT_SEED),
                            "--seconds", "2", "--plant-wrong-ref"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        res = last_json(p.stdout)
        if p.returncode == 0 or res["correct"] or res["failed"] == 0:
            log(f"SELF-TEST FAILED: {workload} accepted a planted wrong reference")
            return 1
        print(f"self-test: {workload} with a planted wrong reference failed "
              f"{res['failed']} of {res['attempted']} operations")
    print("self-test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
