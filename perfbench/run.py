#!/usr/bin/env python3
"""Repository benchmark: times the release `mojo-hpc` binary end to end.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--short]

Run it from the repository root (any directory works; paths are resolved
from this file). It builds the binary and the in-process tracer with cargo
(`CARGO_TARGET_DIR`, default `.bench_build`), generates the workload's op
sequence from `--seed`, sets the workload up, then drives it closed loop for
`--seconds` and checks every output. Scratch files (and the traced run's
spans, `trace/spans.tsv`) go to `.perfbench_work/`, emptied at each start.

Workloads (see perfbench/NOTES.md for why each exists):
  regen          `mojo-hpc run --all --format json` processes vs the goldens
  stream-sweep   one `sweep` process per seeded memory-bound point
  compute-sweep  one `sweep` process per seeded compute/atomics point,
                 deterministic and auto lane interleaved
  serve-mix      one `serve` daemon, two connections, a seeded hit/miss mix

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of a separate traced run. The last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the lines above it are the
human-readable table and the benchmark record (machine fingerprint, lines
per crate). Exit status 1 means some output was wrong, 2 a usage or set-up
error. `--short` runs a handful of ops per workload, for the self-test.
"""

import argparse
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
DEFAULT_SEED = 1
# Later claims must also hold on this seed (never used while tuning).
HELD_OUT_SEED = 9001
WORKLOADS = ("regen", "stream-sweep", "compute-sweep", "serve-mix")
# A p90 needs at least ten samples beyond it.
MIN_OPS = 100
# Each set-up is repeated and the median reported.
SETUP_REPS = 3
NPROC = os.cpu_count() or 1


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build():
    """Builds `mojo-hpc` and the tracer; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise SetupError("no repository sources next to perfbench/ (Cargo.toml, crates/)")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "mojo-hpc", "--bin", "mojo-hpc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "tracer", "Cargo.toml")],
    ]
    for command in commands:
        result = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise SetupError("build failed: " + " ".join(command))
    exe = os.path.join(target, "release", "mojo-hpc")
    tracer = os.path.join(target, "release", "perfbench-tracer")
    for path in (exe, tracer):
        if not os.access(path, os.X_OK):
            raise SetupError("build produced no " + path)
    return exe, tracer


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


class Op:
    """One operation: a `run` or `sweep` (CLI process or serve request), or
    a serve `stats` / `shutdown` request. `kind` tags the serve-mix category."""

    def __init__(self, cmd, workload=None, sizes=(), params=(), lane=None,
                 experiments=None, kind=None, threads=None):
        self.cmd = cmd
        self.workload = workload
        self.sizes = list(sizes)
        self.params = list(params)
        self.lane = lane
        self.experiments = experiments
        self.kind = kind or cmd
        self.threads = threads

    def key(self):
        return "|".join([self.cmd, str(self.workload), ",".join(map(str, self.sizes)),
                          ",".join(self.params), str(self.lane), ",".join(self.experiments or ["all"])])

    def argv(self, exe, out_dir):
        if self.cmd == "run":
            argv = [exe, "run", "--all", "--format", "json", "--out", out_dir]
            if self.threads:
                argv += ["--threads", str(self.threads)]
            return argv
        argv = [exe, "sweep", self.workload, "--sizes", ",".join(map(str, self.sizes))]
        argv += self.params + ["--format", "json", "--out", out_dir]
        if self.lane:
            argv += ["--lane", self.lane]
        return argv

    def request(self):
        if self.cmd in ("stats", "shutdown"):
            body = {"cmd": self.cmd}
        elif self.cmd == "run":
            body = {"cmd": "run", "format": "json"}
            if self.experiments:
                body["experiments"] = self.experiments
        else:
            body = {"cmd": "sweep", "workload": self.workload, "sizes": self.sizes,
                    "params": dict(p.split("=", 1) for p in self.params), "format": "json"}
        return (json.dumps(body) + "\n").encode()

    def trace_line(self):
        if self.cmd == "run":
            return "run - - - " + ",".join(self.experiments or ["all"])
        return "sweep {} {} {} {}".format(self.lane or "-", self.workload,
                                          ",".join(map(str, self.sizes)),
                                          ",".join(self.params) or "-")


def pick(rng, stratum):
    workload, candidates = stratum
    size, params = rng.choice(candidates)
    return workload, size, params


# Strata of the two sweep workloads. Each cycle runs every stratum once in a
# seeded order, and each op draws one of its stratum's candidates, which
# cost the same and differ in a parameter that changes the output bytes but
# not the work. The mix is thus the same for every seed. A stratum listed
# more than once sits where a quantile falls, so p50 and p90 land inside a
# group of like ops instead of on the edge between a fast and a slow one.

# Memory-bound: every family from L2-resident to LLC-sized working sets,
# within its functional limit (stencil FP32 <= 40, babelstream <= 2^20).
STENCIL_MID = ("stencil", [(64, []), (64, ["block=32"])])
STREAM_STRATA = [
    ("stencil", [(32, []), (32, ["block=16"])]),
    STENCIL_MID, STENCIL_MID, STENCIL_MID,
    ("stencil", [(96, []), (96, ["block=32"])]),
    ("stencil", [(40, ["precision=fp32"]), (40, ["precision=fp32", "block=20"])]),
    ("babelstream", [(1 << 15, ["op=copy"]), (1 << 15, ["op=mul"])]),
    ("babelstream", [(1 << 18, ["op=add"]), (1 << 18, ["op=triad"])]),
    ("babelstream", [(1 << 20, ["op=copy"]), (1 << 20, ["op=mul"])]),
    ("babelstream", [(1 << 16, ["op=dot"])]),
    ("jacobi", [(10, [])]),
    ("jacobi", [(16, [])]),
    ("framestream", [(8192, [])]),
    ("framestream", [(65536, [])]),
    ("framestream", [(16384, ["frames=256"])]),
]

# Compute- and atomics-bound; each point runs under both lanes, back to back.
SAMPLED_MID = ("hartree-fock-sampled", [(512, ["samples=512"]), (512, ["samples=512", "shards=16"])])
BUDE_BIG = ("minibude", [(8, ["poses=4096", "natpro=256"]), (8, ["poses=4096", "natpro=256", "wg=128"])])
COMPUTE_STRATA = [
    ("hartree-fock", [(8, [])]),
    ("hartree-fock-sampled", [(256, ["samples=512"]), (256, ["samples=512", "shards=16"])]),
    ("hartree-fock", [(12, [])]),
    SAMPLED_MID, SAMPLED_MID,
    ("hartree-fock", [(16, [])]),
    ("minibude", [(4, ["poses=4096", "natpro=128"]), (4, ["poses=4096", "natpro=128", "wg=128"])]),
    BUDE_BIG, BUDE_BIG,
]


def regen_ops(rng):
    while True:
        yield Op("run", threads=rng.choice([1, 2]))


def stream_ops(rng):
    while True:
        order = list(STREAM_STRATA)
        rng.shuffle(order)
        for stratum in order:
            workload, size, params = pick(rng, stratum)
            yield Op("sweep", workload, [size], params)


def compute_ops(rng):
    while True:
        order = list(COMPUTE_STRATA)
        rng.shuffle(order)
        for stratum in order:
            workload, size, params = pick(rng, stratum)
            yield Op("sweep", workload, [size], params, lane="deterministic")
            yield Op("sweep", workload, [size], params, lane="auto")


# serve-mix: hot keys prefilled during set-up (small sweep-point payloads of
# ~2 KB and large `run` payloads), unique misses, spilled sweeps, stats.
SERVE_HOT_POINTS = [
    ("stencil", 16, []), ("stencil", 24, []), ("stencil", 32, ["precision=fp32"]),
    ("babelstream", 1 << 12, ["op=copy"]), ("babelstream", 1 << 14, ["op=triad"]),
    ("jacobi", 8, []), ("jacobi", 10, []),
    ("framestream", 2048, []), ("framestream", 4096, []),
    ("minibude", 4, ["poses=1024", "natpro=64"]),
    ("hartree-fock", 8, []), ("hartree-fock-sampled", 128, ["samples=256"]),
]
SERVE_HOT_RUNS = [None, ["fig3", "table2"]]
SERVE_MIX = (("hit", 0.72), ("large", 0.08), ("miss", 0.14), ("spill", 0.03), ("stats", 0.03))
SPILL_THRESHOLD = 3
SPILL_WORKERS = 2


def serve_hot_ops():
    ops = [Op("sweep", w, [s], p, kind="hit") for w, s, p in SERVE_HOT_POINTS]
    ops += [Op("run", experiments=e, kind="large") for e in SERVE_HOT_RUNS]
    return ops


# Points the program rejects at HEAD: the FP32 stencil at L = 39 fails its own
# verification (relative error 5.7e-4), while every other L <= 40 passes.
# Kept out of the mix so failed ops mean a regression; see perfbench/NOTES.md.
KNOWN_FAILING = {("stencil", 39, ("precision=fp32", "block=0")), ("stencil", 39, ("precision=fp32", "block=32"))}


def serve_miss_pool(rng):
    """Distinct cheap sweep points, none of them hot."""
    hot = {(w, s, tuple(p)) for w, s, p in SERVE_HOT_POINTS} | KNOWN_FAILING
    pool = []
    for l in range(8, 49):
        for block in ("0", "32"):
            pool.append(("stencil", l, ("precision=fp64", "block=" + block)))
            if l <= 40:
                pool.append(("stencil", l, ("precision=fp32", "block=" + block)))
    for n in range(1024, 65537, 1024):
        for frames in ("16", "32"):
            pool.append(("framestream", n, ("frames=" + frames,)))
    for l in range(6, 13):
        for iters in ("100", "200"):
            pool.append(("jacobi", l, ("iters=" + iters,)))
    pool = [p for p in pool if p not in hot]
    rng.shuffle(pool)
    return pool


def serve_ops(rng):
    hot = serve_hot_ops()
    small = [op for op in hot if op.kind == "hit"]
    large = [op for op in hot if op.kind == "large"]
    misses = serve_miss_pool(rng)
    used_spills = set()
    kinds = [k for k, _ in SERVE_MIX]
    weights = [w for _, w in SERVE_MIX]
    while True:
        kind = rng.choices(kinds, weights)[0]
        if kind == "hit":
            yield rng.choice(small)
        elif kind == "large":
            yield rng.choice(large)
        elif kind == "miss" and misses:
            workload, size, params = misses.pop()
            yield Op("sweep", workload, [size], list(params), kind="miss")
        elif kind == "spill":
            while True:
                sizes = tuple(sorted(rng.sample(range(1024, 65537, 1024), SPILL_THRESHOLD)))
                if sizes not in used_spills:
                    break
            used_spills.add(sizes)
            yield Op("sweep", "babelstream", list(sizes), ["op=copy"], kind="spill")
        else:
            yield Op("stats", kind="stats")


GENERATORS = {"regen": regen_ops, "stream-sweep": stream_ops,
              "compute-sweep": compute_ops, "serve-mix": serve_ops}


class OpStream:
    """Thread-safe view of a seeded op generator."""

    def __init__(self, workload, seed):
        self._gen = GENERATORS[workload](random.Random("{}:{}".format(workload, seed)))
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            return next(self._gen)

    def take(self, n):
        return [self.next() for _ in range(n)]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

GOLDEN_IDS = ["table1", "fig2", "fig3", "table2", "fig4", "table3", "fig5", "fig6", "fig7", "table4", "table5"]


def golden(experiment):
    with open(os.path.join(ROOT, "tests", "golden", "json", experiment + ".json"), "rb") as f:
        return f.read()


def golden_array(ids):
    """The stdout of `run <ids> --format json`: the golden reports as an
    indented JSON array."""
    parts = []
    for experiment in ids:
        text = golden(experiment).decode().rstrip("\n")
        parts.append("\n".join(("  " + line) if line else line for line in text.split("\n")))
    return ("[\n" + ",\n".join(parts) + "\n]\n").encode()


# Exact Hartree-Fock accumulates the Fock matrix with floating-point atomics
# across threads, so the `max_abs_err` it reports varies run to run (it is
# byte-stable only at --threads 1). Its repeats are compared with that number
# masked; every such mismatch is counted and printed as `nondeterministic`.
NONDETERMINISTIC_ERR = {"hartree-fock": re.compile(rb"max_abs_err=[-+.e0-9]+")}


class Checker:
    """Decides whether one op's output is correct; remembers the first
    output of each op key so repeats must match it byte for byte."""

    def __init__(self):
        self.first = {}
        self.lock = threading.Lock()
        self.goldens = {e: golden(e) for e in GOLDEN_IDS}
        self.all_stdout = golden_array(GOLDEN_IDS)
        self.errors = []
        self.nondeterministic = 0

    def fail(self, op, why):
        with self.lock:
            if len(self.errors) < 5:
                self.errors.append("{}: {}".format(op.key(), why))
        return False

    def same_as_first(self, op, data):
        with self.lock:
            previous = self.first.setdefault(op.key(), data)
            if previous == data:
                return True
            mask = NONDETERMINISTIC_ERR.get(op.workload)
            if mask and mask.sub(b"", previous) == mask.sub(b"", data):
                self.nondeterministic += 1
                return True
        return False

    def sweep_rows_pass(self, op, data):
        try:
            doc = json.loads(data)
            table = doc["tables"][0]
            column = table["header"].index("verification")
            rows = table["rows"]
        except (ValueError, KeyError, IndexError) as e:
            return self.fail(op, "unparseable sweep output: {}".format(e))
        if not rows:
            return self.fail(op, "sweep output has no rows")
        for row in rows:
            if not row[column].startswith("passed("):
                return self.fail(op, "row not verified: " + row[column])
        return True

    def cli(self, op, code, stdout, out_dir):
        if code != 0:
            return self.fail(op, "exit status {}".format(code))
        if op.cmd == "run":
            if stdout != self.all_stdout:
                return self.fail(op, "stdout differs from tests/golden/json")
            for experiment, data in self.goldens.items():
                path = os.path.join(out_dir, experiment + ".json")
                try:
                    with open(path, "rb") as f:
                        if f.read() != data:
                            return self.fail(op, path + " differs from its golden")
                except OSError:
                    return self.fail(op, path + " missing")
            return True
        if not self.sweep_rows_pass(op, stdout):
            return False
        path = os.path.join(out_dir, "sweep_{}.json".format(op.workload.replace("-", "_")))
        try:
            with open(path, "rb") as f:
                if f.read() != stdout:
                    return self.fail(op, path + " differs from stdout")
        except OSError:
            return self.fail(op, path + " missing")
        if not self.same_as_first(op, stdout):
            return self.fail(op, "stdout differs from the first run of the same op")
        return True

    def served(self, op, header, payload):
        if header.get("status") != "ok":
            return self.fail(op, "serve replied " + json.dumps(header))
        if op.cmd == "stats":
            return "stats" in header
        if op.cmd == "run":
            expected = self.all_stdout if not op.experiments else golden_array(op.experiments)
            if payload != expected:
                return self.fail(op, "payload differs from tests/golden/json")
            return True
        if not self.sweep_rows_pass(op, payload):
            return False
        if not self.same_as_first(op, payload):
            return self.fail(op, "payload differs from the first response for this key")
        return True


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def spawn_wait(argv, stdout_path):
    """Runs one process with stdout to a file; returns (exit code, wall s,
    cpu s, max RSS KiB) measured by `wait4` on that child alone."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class Samples:
    def __init__(self):
        self.latency_ms = []
        self.attempted = 0
        self.failed = 0
        self.cpu_s = 0.0
        self.max_rss_kib = 0
        self.lock = threading.Lock()

    def add(self, latency_ms, ok, cpu_s=0.0, rss_kib=0):
        with self.lock:
            self.latency_ms.append(latency_ms)
            self.attempted += 1
            self.failed += 0 if ok else 1
            self.cpu_s += cpu_s
            self.max_rss_kib = max(self.max_rss_kib, rss_kib)


def cli_client(client, exe, ops, checker, samples, deadline, min_ops):
    out_dir = os.path.join(WORK, "client{}".format(client))
    os.makedirs(out_dir, exist_ok=True)
    stdout_path = os.path.join(WORK, "client{}.stdout".format(client))
    while time.perf_counter() < deadline or samples.attempted < min_ops:
        op = ops.next()
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))
        code, wall, cpu, rss = spawn_wait(op.argv(exe, out_dir), stdout_path)
        with open(stdout_path, "rb") as f:
            stdout = f.read()
        ok = checker.cli(op, code, stdout, out_dir)
        samples.add(wall * 1e3, ok, cpu, rss)


def run_clients(target, clients, *args):
    """Runs `clients` closed-loop client threads; returns the wall time."""
    threads = [threading.Thread(target=target, args=(i,) + args) for i in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start


CLI_CLIENTS = {"regen": 2, "stream-sweep": 1, "compute-sweep": 1}


def cli_warm_ops(workload):
    """Set-up ops: the first point of every stratum, the same for every seed."""
    if workload == "regen":
        return [Op("run")]
    strata = STREAM_STRATA if workload == "stream-sweep" else COMPUTE_STRATA
    unique = [s for i, s in enumerate(strata) if s not in strata[:i]]
    lanes = (None,) if workload == "stream-sweep" else ("deterministic", "auto")
    return [Op("sweep", name, [c[0][0]], c[0][1], lane=lane) for name, c in unique for lane in lanes]


def cli_setup(exe, workload, checker):
    """Warms the binary's page cache and the OS caches: `list` plus one op
    per family. Returns its wall time."""
    start = time.perf_counter()
    out_dir = os.path.join(WORK, "setup")
    os.makedirs(out_dir, exist_ok=True)
    stdout_path = os.path.join(WORK, "setup.stdout")
    code, _, _, _ = spawn_wait([exe, "list"], stdout_path)
    if code != 0:
        raise SetupError("`mojo-hpc list` failed")
    for op in cli_warm_ops(workload):
        code, _, _, _ = spawn_wait(op.argv(exe, out_dir), stdout_path)
        with open(stdout_path, "rb") as f:
            if not checker.cli(op, code, f.read(), out_dir):
                raise SetupError("set-up op failed: " + op.key())
    return time.perf_counter() - start


def measure_cli(exe, workload, seed, seconds, min_ops, setup_reps):
    checker = Checker()
    setups = [cli_setup(exe, workload, checker) for _ in range(setup_reps)]
    ops = OpStream(workload, seed)
    samples = Samples()
    deadline = time.perf_counter() + seconds
    wall = run_clients(cli_client, CLI_CLIENTS[workload], exe, ops, checker, samples, deadline, min_ops)
    return samples, wall, statistics.median(setups), samples.max_rss_kib / 1024.0, checker


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


class Daemon:
    def __init__(self, exe, tag):
        scratch = os.path.join(WORK, "spill")
        os.makedirs(scratch, exist_ok=True)
        self.stderr_path = os.path.join(WORK, "serve-{}.stderr".format(tag))
        argv = [exe, "serve", "--listen", "127.0.0.1:0", "--threads", str(NPROC),
                "--spill-threshold", str(SPILL_THRESHOLD), "--spill-workers", str(SPILL_WORKERS),
                "--scratch", scratch]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, self.stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        self.pid = os.posix_spawn(exe, argv, os.environ, file_actions=actions)
        self.alive = True
        deadline = time.perf_counter() + 20
        while True:
            with open(self.stderr_path) as f:
                found = re.search(r"listening on (\S+)", f.read())
            if found:
                host, port = found.group(1).rsplit(":", 1)
                self.addr = (host, int(port))
                return
            if time.perf_counter() > deadline or os.waitpid(self.pid, os.WNOHANG)[0] != 0:
                self.alive = False
                self.stop()
                raise SetupError("serve did not announce its address")
            time.sleep(0.002)

    def proc_status(self, field):
        with open("/proc/{}/status".format(self.pid)) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        return 0

    def cpu_s(self):
        with open("/proc/{}/stat".format(self.pid)) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.alive:
            try:
                conn = Connection(self.addr)
                conn.call(Op("shutdown"))
                conn.close()
            except OSError:
                pass
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline:
            if os.waitpid(self.pid, os.WNOHANG)[0] != 0:
                self.alive = False
                return
            time.sleep(0.01)
        os.kill(self.pid, 9)
        os.waitpid(self.pid, 0)
        self.alive = False


class Connection:
    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=60)
        self.reader = self.sock.makefile("rb")

    def call(self, op):
        """Sends one request; returns (header dict, payload bytes, header
        ms, payload ms)."""
        start = time.perf_counter()
        self.sock.sendall(op.request())
        line = self.reader.readline()
        got_header = time.perf_counter()
        if not line:
            raise OSError("serve closed the connection")
        header = json.loads(line)
        payload = b""
        if "bytes" in header:
            payload = self.reader.read(header["bytes"])
        done = time.perf_counter()
        return header, payload, (got_header - start) * 1e3, (done - got_header) * 1e3

    def close(self):
        self.reader.close()
        self.sock.close()


def serve_setup(exe, checker, tag):
    """Spawns the daemon, opens the connections and prefills the hot set."""
    start = time.perf_counter()
    daemon = Daemon(exe, tag)
    try:
        conns = [Connection(daemon.addr) for _ in range(min(2, NPROC))]
        for op in serve_hot_ops():
            header, payload, _, _ = conns[0].call(op)
            if not checker.served(op, header, payload):
                raise SetupError("prefill failed: " + op.key())
        header, _, _, _ = conns[0].call(Op("stats"))
    except Exception:
        daemon.stop()
        raise
    return time.perf_counter() - start, daemon, conns, header["stats"]


class ServeSamples(Samples):
    def __init__(self):
        super().__init__()
        self.split = {}

    def add_split(self, kind, header_ms, payload_ms):
        with self.lock:
            self.split.setdefault(kind, []).append((header_ms, payload_ms))


def serve_client(client, conns, ops, checker, samples, deadline, min_ops):
    conn = conns[client]
    while time.perf_counter() < deadline or samples.attempted < min_ops:
        op = ops.next()
        try:
            header, payload, header_ms, payload_ms = conn.call(op)
            ok = checker.served(op, header, payload)
        except (OSError, ValueError) as e:
            checker.fail(op, str(e))
            samples.add(0.0, False)
            return
        samples.add(header_ms + payload_ms, ok)
        if op.cmd == "sweep" and op.kind in ("hit", "miss"):
            samples.add_split("hit" if header.get("cached") else "miss", header_ms, payload_ms)


def measure_serve(exe, seed, seconds, min_ops, setup_reps):
    checker = Checker()
    setups = []
    for rep in range(setup_reps - 1):
        took, daemon, conns, _ = serve_setup(exe, checker, "setup{}".format(rep))
        setups.append(took)
        for conn in conns:
            conn.close()
        daemon.stop()
    took, daemon, conns, stats_before = serve_setup(exe, checker, "run")
    setups.append(took)
    try:
        ops = OpStream("serve-mix", seed)
        samples = ServeSamples()
        cpu_before = daemon.cpu_s()
        deadline = time.perf_counter() + seconds
        wall = run_clients(serve_client, len(conns), conns, ops, checker, samples, deadline, min_ops)
        samples.cpu_s = daemon.cpu_s() - cpu_before
        header, _, _, _ = conns[0].call(Op("stats"))
        stats_after = header["stats"]
        rss_mib = daemon.proc_status("VmHWM") / 1024.0
        for conn in conns:
            conn.close()
    finally:
        daemon.stop()
    return samples, wall, statistics.median(setups), rss_mib, checker, (stats_before, stats_after)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def end_to_end(samples, wall, setup_s, rss_mib):
    lat = samples.latency_ms
    return {
        "throughput_ops_s": (len(lat) / wall, "ops/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (p90(lat), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }


def run_tracer(tracer, mode, ops_path, exe=None, work=None):
    argv = [tracer, mode, "--ops", ops_path]
    if exe:
        argv += ["--exe", exe, "--work", work]
    result = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr)
    if result.returncode != 0:
        raise SetupError("tracer {} failed".format(mode))
    return json.loads(result.stdout.decode().strip().splitlines()[-1])


TRACE_OPS = {"regen": 4, "stream-sweep": 26, "compute-sweep": 28, "serve-mix": 40}


def serve_layer_metrics(samples, stats):
    before, after = stats
    out = {}
    for kind in ("hit", "miss"):
        split = samples.split.get(kind) or [(0.0, 0.0)]
        out["serve.{}.header_ms".format(kind)] = (statistics.median(h for h, _ in split), "ms")
        out["serve.{}.payload_ms".format(kind)] = (statistics.median(p for _, p in split), "ms")
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    out["serve.cache.hit_frac"] = (hits / max(1, hits + misses), "ratio")
    for name in ("coalesced", "spilled"):
        out["serve.compute." + name] = (after["compute"][name] - before["compute"][name], "count")
    out["serve.errors"] = (after["errors"] - before["errors"], "count")
    return out


UNIT_SUFFIXES = (
    ("fresh_bytes_per_op", "B"), ("_per_op", "count"), ("_ms", "ms"), (".ms", "ms"), ("_us", "us"),
    ("_gbs", "GB/s"), ("_mb_s", "MB/s"), ("_mb", "MiB"), ("_frac", "ratio"), (".speedup", "ratio"),
    ("_share", "ratio"),
)


def unit_of(name):
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def traced_run(exe, tracer, workload, seed, seconds, short):
    """The separate traced run: in-process layers through the tracer, plus
    the client-side CLI and serve layers."""
    metrics = {}
    failed = attempted = 0
    ops = OpStream(workload, seed).take(3 if short else TRACE_OPS[workload])
    ops_path = os.path.join(WORK, "trace-ops.txt")
    with open(ops_path, "w") as f:
        f.write("".join(op.trace_line() + "\n" for op in ops if op.cmd != "stats"))

    colds = [run_tracer(tracer, "cold", ops_path) for _ in range(1 if short else 3)]
    for name in colds[0]:
        metrics[name] = (statistics.median(c[name] for c in colds), "ms")
    replay = run_tracer(tracer, "replay", ops_path, exe, os.path.join(WORK, "trace"))
    attempted += int(replay.pop("replay.ops"))
    failed += int(replay.pop("replay.failures"))
    for name, value in replay.items():
        metrics[name] = (value, unit_of(name))

    spawn = [spawn_wait([exe, "list"], os.path.join(WORK, "list.stdout")) for _ in range(5 if short else 15)]
    metrics["cli.spawn_ms"] = (statistics.median(s[1] for s in spawn) * 1e3, "ms")

    window = 1.0 if short else min(seconds, 6.0)
    min_ops = 3 if short else 20
    if workload == "serve-mix":
        samples, wall, _, _, checker, stats = measure_serve(exe, seed, window, min_ops, 1)
        serve_samples, checkers = samples, [checker]
    else:
        samples, wall, _, _, checker = measure_cli(exe, workload, seed, window, min_ops, 1)
        # The serve layer is off this workload's path: a short probe of the
        # serve-mix traffic gives its metrics a number.
        serve_samples, _, _, _, probe_checker, stats = measure_serve(
            exe, seed, 0.5 if short else 3.0, min_ops, 1)
        attempted += serve_samples.attempted
        failed += serve_samples.failed
        checkers = [checker, probe_checker]
    metrics["proc.cpu_util"] = (samples.cpu_s / (wall * NPROC), "ratio")
    metrics.update(serve_layer_metrics(serve_samples, stats))
    attempted += samples.attempted
    failed += samples.failed
    return metrics, attempted, failed, checkers


# ---------------------------------------------------------------------------
# The benchmark record
# ---------------------------------------------------------------------------


def fingerprint():
    info = {"nproc": NPROC, "cpu_model": "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"

    def read(index, name):
        with open(os.path.join(base, index, name)) as f:
            return f.read().strip()

    if os.path.isdir(base):
        for index in sorted(os.listdir(base)):
            try:
                level, kind, size = (read(index, n) for n in ("level", "type", "size"))
            except OSError:
                continue
            if kind != "Instruction":
                info["caches"]["L{}".format(level)] = size
    return info


def lines_per_crate():
    counts = {}
    for group in ("crates", "shims"):
        top = os.path.join(ROOT, group)
        if not os.path.isdir(top):
            continue
        for crate in sorted(os.listdir(top)):
            total = 0
            for dirpath, _, files in os.walk(os.path.join(top, crate)):
                for name in files:
                    if name.endswith(".rs"):
                        with open(os.path.join(dirpath, name), errors="replace") as f:
                            total += sum(1 for line in f if line.strip())
            counts["{}/{}".format(group, crate)] = total
    return counts


def llc_bytes(info):
    sizes = info["caches"]
    if not sizes:
        return 0
    size = sizes[max(sizes)]
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
    return int(size.rstrip("KMG")) * scale


def array_sizes_line(workload, llc):
    """stream-sweep working sets next to the LLC: every point here stays
    inside it, so host bandwidth is in-LLC bandwidth."""
    if workload != "stream-sweep":
        return None
    sizes = set()
    for name, candidates in STREAM_STRATA:
        for size, params in candidates:
            elements = size ** 3 if name in ("stencil", "jacobi") else size
            width = 4 if "precision=fp32" in params else 8
            sizes.add(elements * width)
    return "array bytes (LLC {} B): {}".format(llc, " ".join(str(s) for s in sorted(sizes)))


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="a handful of ops (self-test)")
    args = parser.parse_args()

    try:
        exe, tracer = build()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        min_ops = 4 if args.short else MIN_OPS
        seconds = 0.0 if args.short else args.seconds
        reps = 1 if args.short else SETUP_REPS
        if args.trace:
            metrics, attempted, failed, checkers = traced_run(exe, tracer, args.workload, args.seed,
                                                              args.seconds, args.short)
            counts = ""
        else:
            if args.workload == "serve-mix":
                samples, wall, setup_s, rss, checker, _ = measure_serve(exe, args.seed, seconds, min_ops, reps)
            else:
                samples, wall, setup_s, rss, checker = measure_cli(exe, args.workload, args.seed, seconds,
                                                                   min_ops, reps)
            metrics = end_to_end(samples, wall, setup_s, rss)
            attempted, failed, checkers = samples.attempted, samples.failed, [checker]
            counts = " over {} ops ({} beyond p90)".format(len(samples.latency_ms),
                                                           sum(1 for v in samples.latency_ms
                                                               if v > metrics["latency_p90_ms"][0]))
    except SetupError as e:
        print("perfbench: " + str(e), file=sys.stderr, flush=True)
        return 2

    info = fingerprint()
    print("# workload {} seed {} (held-out seed {}) trace {}{}".format(
        args.workload, args.seed, HELD_OUT_SEED, args.trace, counts))
    print("# machine: nproc={} cpu={} caches={}".format(info["nproc"], info["cpu_model"], info["caches"]))
    sizes = array_sizes_line(args.workload, llc_bytes(info))
    if sizes:
        print("# " + sizes)
    print("# lines: " + " ".join("{}={}".format(k, v) for k, v in lines_per_crate().items()))
    print("# nondeterministic outputs (hartree-fock max_abs_err masked): {}".format(
        sum(c.nondeterministic for c in checkers)))
    for checker in checkers:
        for error in checker.errors:
            print("# WRONG OUTPUT " + error)
    print("{:<36} {:>16}  {}".format("failed_frac", "{:.6f}".format(failed / max(1, attempted)), "ratio"))
    for name, (value, unit) in sorted(metrics.items()):
        print("{:<36} {:>16.6f}  {}".format(name, value, unit))
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
