#!/usr/bin/env python3
# Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
"""webrbd benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload corpus_full --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the library, the
serving daemon and the benchmark driver from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
reuse the build. Scratch files (stores, span dumps) go to .bench_out/.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced replay. The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is non-zero when a correctness gate fails or the sources
are missing. See perfbench/README.md for the metric map.
"""

import argparse
import json
import math
import os
import pathlib
import random
import re
import selectors
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus_full", "template_skew", "serve_mixed")

# serve_mixed traffic. Open loop: requests are due on a seeded Poisson
# schedule whatever the daemon's progress. The nominal rate, at which
# latency is reported, runs for --seconds in SERVE_NOMINAL_BLOCKS blocks
# of at least SERVE_SAMPLES requests (3 x 1000 at 30 s); the other rates
# get SERVE_SAMPLES requests behind their p99. Each rate's p50 and p99 are
# the lower quartile, over SERVE_SLICES consecutive slices of that rate's
# requests (10 x 300 at the nominal rate at 30 s, about 3 s each), of the
# slice's percentile. On a shared host, episodes of 5-15 s in which every
# request runs up to twice as long come and go, often in the first 15 s
# after the daemon starts; they only ever add latency, so the calmer slices
# give the daemon's own figures, and a change to the daemon moves every
# slice. The daemon's capacity on a 4-core machine (450-900 requests/s at
# HEAD, depending on how busy the host is) sits between the two upper rates
# with a wide margin, so host speed swings do not move max_rate_per_s.
SERVE_RATES = (100, 300, 1200)  # requests per second
SERVE_NOMINAL_RATE = 100
SERVE_NOMINAL_BLOCKS = 3
SERVE_SAMPLES = 1000
SERVE_SLICES = 10
SERVE_WARMUP = 500  # requests at the nominal rate before any phase
SERVE_P99_LIMIT_MS = 200.0
SERVE_KEEP_UP = 0.9  # keep-up ratio (LoadClient.phase) without a backlog
SERVE_BATCH_SHARE = 0.2
SERVE_BATCH_PAGES = 8
SERVE_TIMEOUT_S = 30.0
# Traced replay of serve_mixed: the document-level replay covers this
# many requests (the request-level replay covers all of them).
SERVE_DOC_REPLAY_REQUESTS = 250


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("run.py: " + message)
    sys.exit(code)


# ---- Build -------------------------------------------------------------------

def build():
    """Builds webrbd_bench and webrbd_serve; returns their paths."""
    if not (ROOT / "src" / "extract" / "extraction_context.h").is_file():
        fail("webrbd sources not found next to perfbench/ (run from a "
             "repository checkout)")
    build_dir = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "webrbd_bench", "webrbd_serve"],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if compiled.returncode != 0:
        fail("build failed")
    return build_dir / "webrbd_bench", build_dir / "webrbd_serve"


def run_driver(bench, args, timeout=170):
    """Runs webrbd_bench; returns (exit code, parsed last JSON line)."""
    proc = subprocess.run([str(bench)] + [str(a) for a in args],
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=timeout, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


# ---- serve_mixed ---------------------------------------------------------------

def read_blobs(path):
    data = pathlib.Path(path).read_bytes()
    blobs, at = [], 0
    while at < len(data):
        (size,) = struct.unpack_from("<Q", data, at)
        blobs.append(data[at + 8:at + 8 + size])
        at += 8 + size
    return blobs


def write_blobs(path, blobs):
    with open(path, "wb") as out:
        for blob in blobs:
            out.write(struct.pack("<Q", len(blob)))
            out.write(blob)


class Daemon:
    """webrbd_serve with its default settings plus --port 0 and --store."""

    def __init__(self, binary, store_path, log_path):
        self.log = open(log_path, "ab")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(binary), "--port", "0", "--store", str(store_path)],
            stdout=subprocess.PIPE, stderr=self.log)
        line = self.proc.stdout.readline().decode()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError("daemon did not start: " + line)
        self.host, self.port = match.group(1), int(match.group(2))
        while True:
            try:
                status, _, _ = http_call(self.host, self.port, b"GET", "/healthz", b"")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - self.start > 30:
                self.stop()
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.001)
        self.ready_seconds = time.perf_counter() - self.start

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return code


def encode_request(method, path, body):
    head = "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n" % (
        method.decode(), path, len(body))
    return head.encode() + body


def parse_response(buffer):
    """Parses one HTTP/1.1 response off the front of `buffer`; returns
    (status, body, rest of buffer), or None while it is incomplete."""
    head, sep, rest = buffer.partition(b"\r\n\r\n")
    if not sep:
        return None
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    if len(rest) < length:
        return None
    return status, rest[:length], rest[length:]


def read_response(sock, buffer):
    """Reads one HTTP/1.1 response; returns (status, body, rest of buffer)."""
    while (parsed := parse_response(buffer)) is None:
        chunk = sock.recv(65536)
        if not chunk:
            raise OSError("connection closed")
        buffer += chunk
    return parsed


def http_call(host, port, method, path, body):
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(encode_request(method, path, body))
        status, payload, _ = read_response(sock, b"")
        return status, payload, None


def make_schedule(rng, pool_size, rate, count):
    """Seeded open-loop schedule: (due offset s, page indexes) per request."""
    schedule, due = [], 0.0
    for _ in range(count):
        due += rng.expovariate(rate)
        if rng.random() < SERVE_BATCH_SHARE:
            pages = [rng.randrange(pool_size) for _ in range(SERVE_BATCH_PAGES)]
        else:
            pages = [rng.randrange(pool_size)]
        schedule.append((due, pages))
    return schedule


def request_bytes(pages, pool):
    if len(pages) == 1:
        return encode_request(b"POST", "/extract", pool[pages[0]])
    body = "".join(json.dumps({"html": pool[p].decode()}) + "\n" for p in pages)
    return encode_request(b"POST", "/extract-batch", body.encode())


class LoadClient:
    """Open-loop load generator: one thread driving `connections`
    keep-alive connections held for the whole run. A due request goes out
    on a free connection, or waits in order for one to free up. A single
    select loop keeps hand-offs between generator threads, which a busy
    host delays, out of the measured latency."""

    def __init__(self, daemon, connections):
        self.daemon = daemon
        self.selector = selectors.DefaultSelector()
        self.free = [None] * connections  # None: connect on first use

    def _connect(self):
        sock = socket.create_connection((self.daemon.host, self.daemon.port),
                                        timeout=SERVE_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def phase(self, pool, schedule):
        """Sends `schedule` open loop. Each request is timed from its due
        time; `sent` - `due` is the generator's lateness. Returns the
        per-request records, the request bytes, and the keep-up ratio: the
        span of due times over the span to the last completion, which falls
        below 1 as a backlog builds."""
        wire = [request_bytes(pages, pool) for _, pages in schedule]
        results = [None] * len(schedule)
        busy = {}  # socket -> [index, due, sent, bytes received]
        start = time.perf_counter() + 0.05
        next_index = 0

        def finish(sock, status, body):
            index, due, sent, _ = busy.pop(sock)
            results[index] = (status, body, due, sent, time.perf_counter())
            self.selector.unregister(sock)
            if status == 0:
                sock.close()
                sock = None
            self.free.append(sock)

        while next_index < len(schedule) or busy:
            while (next_index < len(schedule) and self.free
                   and start + schedule[next_index][0] <= time.perf_counter()):
                index, sock = next_index, self.free.pop()
                next_index += 1
                due, sent = start + schedule[index][0], time.perf_counter()
                try:
                    if sock is None:
                        sock = self._connect()
                    sock.sendall(wire[index])
                except OSError:
                    if sock is not None:
                        sock.close()
                    results[index] = (0, b"", due, sent, time.perf_counter())
                    self.free.append(None)
                    continue
                busy[sock] = [index, due, sent, b""]
                self.selector.register(sock, selectors.EVENT_READ)
            timeout = SERVE_TIMEOUT_S
            if next_index < len(schedule) and self.free:
                timeout = max(0.0, start + schedule[next_index][0]
                              - time.perf_counter())
            for key, _ in self.selector.select(timeout):
                sock = key.fileobj
                entry = busy[sock]
                try:
                    chunk = sock.recv(65536)
                except OSError:
                    chunk = b""
                if not chunk:
                    finish(sock, 0, b"")
                    continue
                entry[3] += chunk
                parsed = parse_response(entry[3])
                if parsed is not None:
                    finish(sock, parsed[0], parsed[1])
            now = time.perf_counter()
            for sock in [s for s, e in busy.items()
                         if now - e[2] > SERVE_TIMEOUT_S]:
                finish(sock, 0, b"")
        finished = max(done for _, _, _, _, done in results)
        last_due = start + schedule[-1][0]
        return results, wire, (last_due - start) / (finished - start)

    def close(self):
        for sock in self.free:
            if sock is not None:
                sock.close()
        self.selector.close()


CERTAINTY = re.compile(rb'"certainty":[-0-9.eE+]+')


def match_bodies(results, schedule, alternatives, gates):
    """Matches every 200 body to the in-process extraction of its pages.

    /extract bodies must equal the page's own extraction byte for byte.
    An /extract-batch line may also be the page's extraction under the
    boundary a template-mate memoized first in the daemon's shared template
    cache (see serve-prep); its certainty is then that page's, so lines are
    compared with the certainty diagnostic removed. Returns, per 200
    response, the matched alternative index of each page."""
    matched = []
    for (status, body, _, _, _), (_, pages) in zip(results, schedule):
        if status != 200:
            matched.append(None)
            continue
        if len(pages) == 1:
            if body != alternatives[pages[0]][0]["render"].encode():
                gates.append("serve /extract body differs from the in-process "
                             "extraction of page %d" % pages[0])
            matched.append([0])
            continue
        lines = body.rstrip(b"\n").split(b"\n")
        if len(lines) != len(pages):
            gates.append("serve /extract-batch line count")
            matched.append(None)
            continue
        chosen = []
        for j, (line, page) in enumerate(zip(lines, pages)):
            line = CERTAINTY.sub(b"", line)
            for a, alt in enumerate(alternatives[page]):
                want = b'{"index":%d,"result":%s}' % (j, alt["render"].encode())
                if line == CERTAINTY.sub(b"", want):
                    chosen.append(a)
                    break
            else:
                gates.append("serve /extract-batch line differs from every "
                             "in-process extraction of page %d" % page)
                chosen.append(0)
        matched.append(chosen)
    return matched


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 1] (the driver's convention)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(1, math.ceil(q * len(ordered))) - 1)]


def slice_percentile(latencies, q):
    """The lower quartile, over SERVE_SLICES consecutive slices of
    `latencies` (in the order the requests were due), of each slice's
    percentile `q`."""
    slices = min(SERVE_SLICES, len(latencies))
    size = len(latencies) // slices
    values = [percentile(latencies[i * size:(i + 1) * size], q)
              for i in range(slices)]
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def spawn_sample(serve, out, index, gates):
    """One set-up sample: a fresh daemon on its own store, then drained."""
    daemon = Daemon(serve, out / ("setup-%d.store" % index), out / "daemon.log")
    if daemon.stop() != 0:
        gates.append("daemon drain exit code")
    return daemon.ready_seconds


def serve_throughput(bench, seed, gates):
    """In-process ExtractCorpusInto passes over the page pool."""
    code, result = run_driver(bench, ["serve-throughput", "--seed", seed,
                                      "--passes", 2])
    if result is None or code != 0 or not result["correct"]:
        gates.append("serve-throughput gates")
        return 0.0, 1.0
    return (result["metrics"]["pool_bytes"]["value"],
            result["metrics"]["pool_seconds"]["value"])


def run_serve(bench, serve, seed, trace, out, samples, nominal_samples):
    gates = []
    code, prep = run_driver(bench, ["serve-prep", "--seed", seed, "--out", out])
    if prep is None or code != 0 or not prep["correct"]:
        gates.append("serve-prep gates")
        return gates, 1, 1, {}
    pool = read_blobs(out / "pages.bin")
    alternatives = json.loads((out / "alternatives.json").read_text())
    connections = os.cpu_count() or 1

    # The plan: warm-up, then the nominal blocks with the other rates
    # between them, so every rate's samples and the set-up and throughput
    # samples taken after the upper-rate blocks spread over the whole run.
    others = [r for r in SERVE_RATES if r != SERVE_NOMINAL_RATE]
    if trace:
        plan = [(None, SERVE_WARMUP), (SERVE_NOMINAL_RATE, nominal_samples)]
    else:
        block = (SERVE_NOMINAL_RATE, nominal_samples // SERVE_NOMINAL_BLOCKS)
        plan = [(None, SERVE_WARMUP), block]
        for rate in others:
            plan += [(rate, samples), block]

    setups = ([spawn_sample(serve, out, i, gates) for i in range(6)]
              if not trace else [])
    store = out / "serve.store"
    store.unlink(missing_ok=True)
    daemon = Daemon(serve, store, out / "daemon.log")
    setups.append(daemon.ready_seconds)
    rng = random.Random(seed)
    phases, pool_bytes, pool_seconds = [], 0.0, 0.0
    client = LoadClient(daemon, connections)
    try:
        for rate, count in plan:
            schedule = make_schedule(rng, len(pool), rate or SERVE_NOMINAL_RATE,
                                     count)
            results, wire, keep_up = client.phase(pool, schedule)
            matched = match_bodies(results, schedule, alternatives, gates)
            phases.append((rate, schedule, results, wire, keep_up, matched))
            if not trace and rate is not None:
                if rate != SERVE_NOMINAL_RATE:
                    setups.append(spawn_sample(serve, out, len(setups), gates))
                done_bytes, done_seconds = serve_throughput(bench, seed, gates)
                pool_bytes += done_bytes
                pool_seconds += done_seconds
        peak_rss = daemon.peak_rss_mb()
    finally:
        client.close()
        if daemon.stop() != 0:
            gates.append("daemon drain exit code")

    # Acknowledged records (the store gate) and the quality of what was
    # served, scored against the generator's ground truth.
    expected, attempted, failed, rejected = [], 0, 0, 0
    served = {"results": 0, "separator_correct": 0, "truth": 0,
              "extracted": 0, "correct": 0}
    for _, schedule, results, _, _, matched in phases:
        for (status, _, _, _, _), (_, pages), chosen in zip(
                results, schedule, matched):
            attempted += 1
            if status != 200 or chosen is None:
                failed += 1
                rejected += status == 503
                continue
            for j, (page, a) in enumerate(zip(pages, chosen)):
                alt = alternatives[page][a]
                expected.extend("%d %s\n" % (j, d) for d in alt["digests"].split())
                served["results"] += 1
                for key in ("separator_correct", "truth", "extracted", "correct"):
                    served[key] += alt[key]
    (out / "expected.txt").write_text("".join(expected))
    code, check = run_driver(bench, [
        "serve-check", "--store", store, "--expected",
        out / "expected.txt", "--seed", seed, "--trace", 1 if trace else 0])
    if check is None or code != 0 or not check["correct"]:
        gates.append("serve-check gates")
        return gates, attempted, failed, {}
    cm = {k: v["value"] for k, v in check["metrics"].items()}

    # Per rate: the blocks of that rate pooled.
    by_rate = {}
    for rate, schedule, results, wire, keep_up, _ in phases:
        if rate is None:
            continue
        entry = by_rate.setdefault(rate, {"schedule": [], "results": [],
                                          "wire": [], "keep_up": []})
        entry["schedule"] += schedule
        entry["results"] += results
        entry["wire"] += wire
        entry["keep_up"].append(keep_up)

    def latencies_ms(results):
        return [(done - due) * 1e3 for status, _, due, _, done in results]

    nominal = by_rate[SERVE_NOMINAL_RATE]
    nominal_ms = latencies_ms(nominal["results"])
    late_ms = [(sent - due) * 1e3 for _, _, due, sent, _ in nominal["results"]]

    if not trace:
        max_rate = 0
        for rate in sorted(by_rate):
            results = by_rate[rate]["results"]
            ok = [status == 200 for status, _, _, _, _ in results]
            rate_ms = latencies_ms(results)
            p99 = slice_percentile(rate_ms, 0.99)
            keep_up = min(by_rate[rate]["keep_up"])
            log("serve rate %d: p50 %.2f ms p99 %.2f ms keep-up %.2f, "
                "failed %d" % (rate, slice_percentile(rate_ms, 0.5), p99,
                               keep_up, ok.count(False)))
            # A growing backlog shows as completions falling behind the
            # schedule over a block.
            if (all(ok) and p99 <= SERVE_P99_LIMIT_MS
                    and keep_up >= SERVE_KEEP_UP):
                max_rate = max(max_rate, rate)
        precision = (served["correct"] / served["extracted"]
                     if served["extracted"] else 1.0)
        recall = served["correct"] / served["truth"] if served["truth"] else 1.0
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "corpus_mb_s": (pool_bytes / 1e6 / pool_seconds, "MB/s"),
            "field_f1": (2 * precision * recall / (precision + recall)
                         if precision + recall else 0.0, "ratio"),
            "separator_accuracy":
                (served["separator_correct"] / served["results"], "ratio"),
            "query_p50_us": (cm["query_p50_us"], "us"),
            "query_p99_us": (cm["query_p99_us"], "us"),
            "latency_p50_ms": (slice_percentile(nominal_ms, 0.5), "ms"),
            "latency_p99_ms": (slice_percentile(nominal_ms, 0.99), "ms"),
            "max_rate_per_s": (max_rate, "1/s"),
            "success_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        return gates, attempted, failed, metrics

    # Traced run: replay the nominal requests in process.
    write_blobs(out / "requests.bin", nominal["wire"])
    (out / "replay_acks.txt").write_text(
        "".join(" ".join(map(str, pages)) + "\n"
                for _, pages in nominal["schedule"]))
    code, replay = run_driver(bench, [
        "serve-replay", "--requests", out / "requests.bin", "--acks",
        out / "replay_acks.txt", "--pages", out / "pages.bin",
        "--doc-requests", SERVE_DOC_REPLAY_REQUESTS,
        "--out", out])
    if replay is None or code != 0 or not replay["correct"]:
        gates.append("serve-replay gates")
        return gates, attempted, failed, {}
    handle_ms = {}
    for line in (out / "handle_ms.txt").read_text().splitlines():
        index, value = line.split()
        handle_ms[int(index)] = float(value)
    outside = [nominal_ms[k] - handle_ms[k] for k in handle_ms]
    metrics = {k: (v["value"], v["unit"]) for k, v in replay["metrics"].items()}
    metrics["store.open_s"] = (cm["store.open_s"], "s")
    metrics["store.query_useful_ratio"] = (cm["store.query_useful_ratio"], "ratio")
    metrics["serve.outside_handle_p50_ms"] = (percentile(outside, 0.5), "ms")
    metrics["serve.rejected_503"] = (rejected, "count")
    metrics["loadgen.late_p99_ms"] = (percentile(late_ms, 0.99), "ms")
    return gates, attempted, failed, metrics


# ---- Entry -------------------------------------------------------------------

def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's own tests: 100 serve samples "
                             "per phase instead of %d" % SERVE_SAMPLES)
    args = parser.parse_args()

    bench, serve = build()
    out = pathlib.Path(".bench_out").resolve() / (
        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve_mixed":
            gates, attempted, failed, metrics = run_serve(
                bench, serve, args.seed, args.trace == 1, out,
                100 if args.smoke else SERVE_SAMPLES,
                100 if args.smoke else max(SERVE_NOMINAL_BLOCKS * SERVE_SAMPLES,
                                           SERVE_NOMINAL_RATE * args.seconds))
            result = {
                "correct": not gates,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()},
            }
            for gate in gates:
                log("GATE FAILED: " + gate)
        else:
            code, result = run_driver(bench, [
                "corpus", "--workload", args.workload, "--seed", args.seed,
                "--seconds", args.seconds, "--trace", args.trace,
                "--out", out])
            if result is None:
                fail("driver printed no result", 1)
            if code != 0:
                result["correct"] = False
    finally:
        for leftover in out.glob("*.store"):
            leftover.unlink()

    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if result["correct"] and got != want:
        log("metric names/units differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
