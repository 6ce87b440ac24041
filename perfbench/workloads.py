"""The four workloads and the closed loop that drives them.

Each workload has a set-up (timed, and repeated for ``setup_s``), a
seeded op sequence, an op, the patches its traced run installs, and a
check of every answer that runs after the timed window.
"""

from __future__ import annotations

import bisect
import gc
import http.client
import hashlib
import itertools
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import sopal.client
import sopal.psi
import sopal.sim
from sopal.client import DiscoveryClient, HttpServerHandle, LocalServerHandle
from sopal.crypto import BloomFilter
from sopal.graph import SocialGraph
from sopal.psi import HEADER_LEN, MSG_BF, MSG_CHAL, MSG_HELLO, MSG_RESP, TAG_BYTES
from sopal.server import MockOsnConnector
from sopal.sim import SimConfig, run_coverage
from sopal.store import CapabilityStore, DistributionResult

import world
from tracing import NoTrace, spanned, timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = os.cpu_count() or 1
CPUS = sorted(os.sched_getaffinity(0))
# Every process of a run shares one CPU; see pin_to_one_cpu().
BENCH_CPU = CPUS[0]
D_MAX = 2
ENROLL_READ_DMAX = 1
# Wire bytes are averaged over this fixed prefix of the op sequence, so
# they repeat for a seed however many ops a run completes.
WIRE_PREFIX_OPS = 40
AEAD_TAG_BYTES = 16
TAG_COUNT_BYTES = 4
SERVER_START_TIMEOUT_S = 120

perf = time.perf_counter


# The host's speed swings by a third or more within seconds and over
# minutes, so raw wall-clock rates from two runs of the same code differ
# by more than any useful bound.  The loop therefore times speed_probe(), a
# fixed mix of hashing and small allocations, every PROBE_EVERY_S, and
# scales each op's time by REFERENCE_PROBE_S over the median probe time
# within PROBE_SPAN_S of it: times at one reference speed.  The median
# keeps one probe that the host happened to stall from rescaling the ops
# next to it.  Raw times are reported beside them.  Probe time is left
# out of both.
PROBE_EVERY_S = 0.2
PROBE_SPAN_S = 1.0
REFERENCE_PROBE_S = 0.0025


def speed_probe() -> float:
    """Seconds a fixed amount of hashing and allocation takes right now.
    Garbage collection is held off so that it cannot land in the probe."""
    gc.disable()
    try:
        t0 = perf()
        seen = {}
        x = b"speed-probe"
        for i in range(3000):
            x = hashlib.sha256(x).digest()
            seen[x[:6]] = [i]
        return perf() - t0
    finally:
        gc.enable()


@dataclass
class OpRecord:
    index: int
    kind: str
    start: float
    end: float
    latency_s: float
    ok: bool
    value: object
    scale: float = 1.0

    @property
    def ref_latency_s(self) -> float:
        """Latency at the reference speed."""
        return self.latency_s * self.scale


@dataclass
class LoopResult:
    records: list[OpRecord]
    elapsed_s: float
    ref_elapsed_s: float
    cpu_s: float
    probes: list[tuple[float, float]]
    steal_s: float | None

    @property
    def completed(self) -> int:
        return sum(r.ok for r in self.records)

    @property
    def ops_per_s(self) -> float:
        """Completed ops per second at the reference speed."""
        return self.completed / self.ref_elapsed_s

    @property
    def raw_ops_per_s(self) -> float:
        return self.completed / self.elapsed_s


def pin_to_one_cpu() -> None:
    """Run this process, and the server process it starts, on BENCH_CPU.

    On a shared host a request that wakes a process on another virtual CPU
    waits until the hypervisor runs that CPU, and how long that takes
    swings with the neighbours' load: with the generator and the server on
    two CPUs, the same enroll run gave up to three times the tail latency
    from one minute to the next.  On one CPU the work is serialised, the
    wake-ups stay on a running CPU, and the speed probe runs where the
    work runs.
    """
    os.sched_setaffinity(0, {BENCH_CPU})


def host_steal_s() -> float | None:
    """CPU seconds the hypervisor gave to others while BENCH_CPU wanted to
    run (``steal`` in /proc/stat), or None where it is not reported."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = next(ln for ln in fh if ln.startswith(f"cpu{BENCH_CPU} ")).split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, StopIteration, IndexError, ValueError):
        return None


def closed_loop(ops, run_op, tracer, threads: int, seconds: float) -> LoopResult:
    """Run ops from the shared iterator ``ops`` on ``threads`` threads, each
    starting its next op when the last one ends, until ``seconds`` pass.
    Every attempt is recorded as ok or failed.

    With one thread the ops run on the calling thread, which must be the
    main thread: a timer signal interrupts them for each probe, so a long
    op is scaled by the speed while it ran.  With more, the calling thread
    pauses the workers and lets in-flight ops finish before each probe, so
    that no other thread holds the interpreter lock while it runs.
    """
    records: list[OpRecord] = []
    errors: list[str] = []
    probes: list[tuple[float, float]] = []
    in_op_probe_s = 0.0

    def probe() -> float:
        t0 = perf()
        probes.append((t0, speed_probe()))
        return probes[-1][1]

    def run_one(index, kind, arg):
        paused = in_op_probe_s
        t0 = perf()
        try:
            value, ok = run_op(index, kind, arg, tracer), True
        except Exception as exc:  # every attempt counts; the run goes on
            value, ok = repr(exc), False
            errors.append(f"op {index} ({kind}): {exc!r}")
        end = perf()
        records.append(OpRecord(index, kind, t0, end, end - t0 - (in_op_probe_s - paused), ok, value))

    start = perf()
    deadline = start + seconds
    cpu0 = time.process_time()
    steal0 = host_steal_s()
    probe()
    if threads == 1:

        def on_timer(signum, frame):
            nonlocal in_op_probe_s
            in_op_probe_s += probe()

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            while perf() < deadline:
                run_one(*next(ops))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    else:
        _threaded_loop(ops, run_one, probe, threads, deadline)
    elapsed = perf() - start
    probe()
    steal1 = host_steal_s()

    edges = [t for t, _ in probes]

    def scale(t0, t1):
        lo = bisect.bisect_left(edges, t0 - PROBE_SPAN_S)
        around = probes[lo : bisect.bisect_right(edges, t1 + PROBE_SPAN_S)]
        return REFERENCE_PROBE_S / statistics.median(p for _, p in around)

    ref_elapsed = sum(
        (t1 - t0 - p0) * scale(t0, t1) for (t0, p0), (t1, _) in zip(probes, probes[1:])
    )
    for r in records:
        r.scale = scale(r.start, r.end)
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    result = LoopResult(records, elapsed, ref_elapsed, time.process_time() - cpu0, probes, steal)
    for line in errors[:5]:
        print(f"perfbench: failed {line}", file=sys.stderr)
    return result


def _threaded_loop(ops, run_one, probe, threads: int, deadline: float) -> None:
    cond = threading.Condition()
    go = threading.Event()
    active = 0

    def worker():
        nonlocal active
        while True:
            go.wait()
            with cond:
                if perf() >= deadline:
                    return
                if not go.is_set():
                    continue
                active += 1
                op = next(ops)
            try:
                run_one(*op)
            finally:
                with cond:
                    active -= 1
                    cond.notify_all()

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    go.set()
    while (now := perf()) < deadline:
        time.sleep(min(PROBE_EVERY_S, deadline - now))
        if perf() < deadline:
            go.clear()
            with cond:
                cond.wait_for(lambda: active == 0)
            probe()
            go.set()
    for t in pool:
        t.join()


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def proc_status(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise LookupError(field)


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _connect_counter(tracer, fn):
    def connect(self):
        tracer.count("http.connects")
        return fn(self)

    return connect


# Installed in every traced run; a workload that never calls a wrapped
# function reports zero for it.
CLIENT_PATCHES = [
    (BloomFilter, "insert", timed("crypto.bf_insert")),
    (BloomFilter, "__contains__", timed("crypto.bf_probe")),
    (sopal.psi, "establish_session", timed("crypto.establish_session")),
    (sopal.client, "hash_chain",
     timed("crypto.hash_chain", lambda a, r: {"crypto.hash_chain.steps": a[1]})),
    (sopal.client, "build_input_set", spanned("client.build_input_set")),
    (DistributionResult, "from_json", timed("store.from_json")),
    (sopal.sim, "hop_layers", timed("graph.hop_layers")),
    (sopal.sim, "known_adjacency", timed("sim.known_adjacency")),
    (http.client.HTTPConnection, "connect", _connect_counter),
]


class Workload:
    name = ""
    threads = 1
    # Op kinds whose latency is the gated latency_p50_ms / latency_p90_ms.
    latency_kinds: tuple[str, ...] = ()
    # Set-up runs in this process, where the speed probe sees the host's
    # speed, so set-up time is scaled to the reference speed like op times.
    setup_in_process = True

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.digest = ""

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self):
        """Endless seeded sequence of ``(index, kind, argument)``."""
        raise NotImplementedError

    def run_op(self, index, kind, arg, tracer):
        raise NotImplementedError

    def verify_world(self) -> None:
        """Record the world digest, after the set-up timing ends."""
        self.digest = self.world.digest

    def check(self, records: list[OpRecord]) -> dict[int, str]:
        """Wrong answers among the ok records, by op index."""
        raise NotImplementedError

    def wire_bytes(self, record: OpRecord) -> int | None:
        return None

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def trace_on(self, tracer, trace_path: Path) -> None:
        pass

    def trace_stats(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# -- meet ------------------------------------------------------------------------

# (message type, receiver is the initiator) -> span name
_STEP_SPANS = {
    (MSG_HELLO, False): "psi.hello",
    (MSG_HELLO, True): "psi.bf_build",
    (MSG_BF, False): "psi.bf_probe",
    (MSG_CHAL, True): "psi.challenge",
    (MSG_RESP, False): "psi.response",
}
_FRAME_BYTES = {MSG_HELLO: "psi.hello.bytes", MSG_BF: "psi.bf.bytes",
                MSG_CHAL: "psi.chal.bytes", MSG_RESP: "psi.resp.bytes"}


def tag_count(frame: bytes) -> int:
    """Tags in an encrypted challenge or response frame."""
    return (len(frame) - HEADER_LEN - AEAD_TAG_BYTES - TAG_COUNT_BYTES) // TAG_BYTES


class Meet(Workload):
    """One full PSI session between two pool members, in-process."""

    name = "meet"
    latency_kinds = ("session",)

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        # Drawn from a world of its own, which is freed before set-up.
        self.pool = world.make_world(smoke).cost_ranked_pool(
            6 if smoke else 24, D_MAX, seed, "meet-pool"
        )

    def setup(self):
        self.close()
        w = self.world = world.make_world(self.smoke)
        connector = MockOsnConnector(w.ground)
        store = CapabilityStore(SocialGraph(), connector)
        w.enroll(store)
        handle = LocalServerHandle(store, connector)
        self.clients = {uid: DiscoveryClient(uid, handle, d_max=D_MAX) for uid in self.pool}
        for client in self.clients.values():
            client.renew_capability()
        for client in self.clients.values():
            client.update_capabilities()
        self.items = {uid: len(c.input_items()) for uid, c in self.clients.items()}

    def close(self):
        self.world = self.clients = None

    def ops(self):
        rng = random.Random(f"{self.seed}/meet-ops")
        pairs = [
            (a, b) if rng.random() < 0.5 else (b, a)
            for a, b in itertools.combinations(self.pool, 2)
        ]
        rng.shuffle(pairs)
        for index in itertools.count():
            yield index, "session", pairs[index % len(pairs)]

    def run_op(self, index, kind, pair, tr):
        a, b = self.clients[pair[0]], self.clients[pair[1]]
        sizes: dict[int, int] = {}
        with tr.span("op.meet", op=index):
            try:
                with tr.span("client.start_session"):
                    frame = a.start_session(b.uid)
                sender, receiver = a, b
                while frame is not None:
                    sizes[frame[1]] = sizes.get(frame[1], 0) + len(frame)
                    if frame[1] == MSG_CHAL:
                        tr.count("psi.candidates", tag_count(frame))
                    elif frame[1] == MSG_RESP:
                        tr.count("psi.matches", tag_count(frame))
                    with tr.span(_STEP_SPANS[(frame[1], receiver is a)]):
                        frame, _ = receiver.handle_message(sender.uid, frame)
                    sender, receiver = receiver, sender
                dist_a = a.get_result(b.uid).dist
                dist_b = b.get_result(a.uid).dist
            finally:
                a.end_session(b.uid)
                b.end_session(a.uid)
        for msg_type, n in sizes.items():
            tr.count(_FRAME_BYTES[msg_type], n)
        tr.count("psi.items", self.items[a.uid] + self.items[b.uid])
        return pair, dist_a, dist_b, sum(sizes.values())

    def check(self, records):
        oracle = world.Oracle(self.world, D_MAX)
        wrong = {}
        for r in records:
            (a, b), dist_a, dist_b, _ = r.value
            want = oracle.distance(a, b)
            if dist_a != want or dist_b != want:
                wrong[r.index] = f"{a}-{b}: got {dist_a}/{dist_b}, model says {want}"
        return wrong

    def wire_bytes(self, record):
        return record.value[3]


# -- coverage --------------------------------------------------------------------


class Coverage(Workload):
    """One repetition of ``run_coverage`` on a fixed preferential-attachment graph."""

    name = "coverage"
    latency_kinds = ("repetition",)

    def setup(self):
        self.graph = world.coverage_graph(self.smoke)
        self.world = world.World(self.graph, [])

    def ops(self):
        for index in itertools.count():
            yield index, "repetition", SimConfig(repetitions=1, seed=self.seed * 1_000_000 + index)

    def run_op(self, index, kind, config, tr):
        with tr.span("op.coverage", op=index), tr.span("sim.run_coverage"):
            report = run_coverage(config, self.graph)
        n = len(self.graph)
        sizes = [max(2, round(f * n)) for f in config.member_fractions]
        tr.count("sim.pairs_scanned", sum(m * (m - 1) // 2 for m in sizes))
        tr.count("sim.pairs_classified", sum(c.pairs_sampled for c in report.cells))
        return report

    def check(self, records):
        wrong = {}
        for r in records:
            guaranteed = [
                (c, want)
                for c in r.value.cells
                if (want := world.guaranteed_coverage(c.length, c.ersatz)) is not None
            ]
            bad = [c for c, want in guaranteed if c.mean_coverage != want]
            if not guaranteed or bad:
                wrong[r.index] = f"guaranteed cells missing or below target: {bad}"
        return wrong


# -- server workloads ------------------------------------------------------------


class ServerProcess:
    """A ``server_proc.py`` child serving the benchmark world."""

    def __init__(self, smoke: bool):
        cmd = [sys.executable, str(HERE / "server_proc.py")]
        if smoke:
            cmd.append("--smoke")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        try:
            word, _, port = self._read(SERVER_START_TIMEOUT_S).partition(" ")
            if word != "ready":
                raise RuntimeError(f"server process said {word!r}, not ready")
        except BaseException:
            self.stop()
            raise
        self.pid = self.proc.pid
        self.url = f"http://127.0.0.1:{port}"

    def _read(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"server process gave no answer (exit code {self.proc.poll()})")
        return line.strip()

    def ask(self, command: str, timeout: float = 60) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class RecordingHandle:
    """``HttpServerHandle`` with spans around each request and a per-thread
    copy of the last download, which the checks read."""

    def __init__(self, url: str):
        self._inner = HttpServerHandle(url)
        self._last = threading.local()
        self.tracer = NoTrace()

    def upload(self, token, cap):
        with self.tracer.span("client.upload"):
            self._inner.upload(token, cap)

    def download(self, token, d_max):
        with self.tracer.span("client.download"):
            result = self._inner.download(token, d_max)
        self._last.value = result
        return result

    def last(self) -> DistributionResult:
        return self._last.value


class ServerWorkload(Workload):
    threads = min(2, NPROC)
    # Set-up is mostly the server process's; scaling it by the few probes
    # around it made its spread worse, so it stays raw.
    setup_in_process = False

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.server: ServerProcess | None = None
        self.world = world.make_world(smoke)
        self.oracle = world.Oracle(self.world, D_MAX)

    def start_server(self):
        self.close()
        self.server = ServerProcess(self.smoke)
        self.handle = RecordingHandle(self.server.url)

    def verify_world(self) -> None:
        theirs = self.server.ask("digest")
        if theirs != self.world.digest:
            raise RuntimeError(f"world digest differs: server {theirs}, generator {self.world.digest}")
        self.digest = theirs

    def peak_rss_mb(self):
        return proc_status(self.server.pid, "VmHWM") / 1024

    def trace_on(self, tracer, trace_path):
        self.handle.tracer = tracer
        self.server.ask(f"trace {trace_path}")
        self._cpu0 = proc_cpu_s(self.server.pid)
        self._threads_peak = 0
        self._sampling = threading.Event()
        self._sampler = threading.Thread(target=self._sample_threads)
        self._sampler.start()

    def _sample_threads(self):
        while not self._sampling.wait(0.02):
            self._threads_peak = max(self._threads_peak, proc_status(self.server.pid, "Threads"))

    def trace_stats(self):
        self._sampling.set()
        self._sampler.join()
        body = json.loads(self.server.ask("stats"))
        body["cpu_s"] = proc_cpu_s(self.server.pid) - self._cpu0
        body["threads_peak"] = self._threads_peak
        return body

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None


class Refresh(ServerWorkload):
    """``DiscoveryClient.update_capabilities()`` at d_max=2 over HTTP."""

    name = "refresh"
    latency_kinds = ("update",)

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.pool = self.world.cost_ranked_pool(8 if smoke else 64, D_MAX, seed, "refresh-pool")

    def setup(self):
        self.start_server()
        self.clients = {uid: DiscoveryClient(uid, self.handle, d_max=D_MAX) for uid in self.pool}
        for client in self.clients.values():
            client.renew_capability()

    def ops(self):
        rng = random.Random(f"{self.seed}/refresh-ops")
        index = itertools.count()
        while True:
            order = list(self.pool)
            rng.shuffle(order)
            for uid in order:
                yield next(index), "update", uid

    def run_op(self, index, kind, uid, tr):
        client = self.clients[uid]
        with tr.span("op.refresh", op=index), tr.span("client.update_capabilities"):
            client.update_capabilities()
        dist = self.handle.last()
        items = len(client.input_items())
        tr.count("client.input_items", items)
        by_degree = Counter(degree for degree, _ in dist.r_h)
        keep = dist if index < WIRE_PREFIX_OPS else None
        return uid, tuple(fid for fid, _ in dist.r_u), by_degree, items, keep

    def check(self, records):
        wrong = {}
        for r in records:
            uid, ids, by_degree, items, _ = r.value
            if list(ids) != self.oracle.friend_ids(uid):
                wrong[r.index] = f"{uid}: layer-1 ids differ from its friend list"
            expected = world.input_set_size(len(ids), by_degree, D_MAX)
            if items != expected:
                wrong[r.index] = f"{uid}: {items} input items, formula gives {expected}"
        return wrong

    def wire_bytes(self, record):
        dist = record.value[4]
        return None if dist is None else len(dist.to_json().encode())


class Enroll(ServerWorkload):
    """A seeded mix of first enrollments, renewals and d_max=1 downloads."""

    name = "enroll"
    latency_kinds = ("enroll", "renew")

    def setup(self):
        self.start_server()

    def ops(self):
        rng = random.Random(f"{self.seed}/enroll-ops")
        fresh = self.world.non_members()
        rng.shuffle(fresh)
        fresh_iter = iter(fresh)
        members = self.world.members
        for index in itertools.count():
            roll = rng.random()
            cap = world.seeded_capability(rng)
            newcomer = next(fresh_iter, None) if 0.5 <= roll < 0.8 else None
            if roll < 0.5:
                yield index, "download", rng.choice(members)
            elif newcomer is not None:
                yield index, "enroll", (newcomer, cap)
            else:
                yield index, "renew", (rng.choice(members), cap)

    def run_op(self, index, kind, arg, tr):
        with tr.span("op.enroll", op=index):
            if kind == "download":
                dist = self.handle.download(f"mock:{arg}", ENROLL_READ_DMAX)
                keep = dist if index < WIRE_PREFIX_OPS else None
                return arg, tuple(fid for fid, _ in dist.r_u), keep
            uid, cap = arg
            self.handle.upload(f"mock:{uid}", cap)
            return uid, None, None

    def check(self, records):
        wrong = {}
        for r in records:
            uid, ids, _ = r.value
            if ids is not None and list(ids) != self.oracle.friend_ids(uid):
                wrong[r.index] = f"{uid}: layer-1 ids differ from its friend list"
        newcomers = {r.value[0]: r.index for r in records if r.kind == "enroll"}
        handle = HttpServerHandle(self.server.url)

        def first_download(uid):
            return [fid for fid, _ in handle.download(f"mock:{uid}", ENROLL_READ_DMAX).r_u]

        with ThreadPoolExecutor(self.threads) as pool:
            futures = {uid: pool.submit(first_download, uid) for uid in newcomers}
        for uid, fut in futures.items():
            try:
                ids = fut.result()
            except Exception as exc:  # a refused download is a wrong answer
                wrong[newcomers[uid]] = f"new member {uid} cannot download: {exc!r}"
                continue
            if ids != self.oracle.friend_ids(uid):
                wrong[newcomers[uid]] = f"new member {uid}: layer-1 ids differ"
        return wrong

    def wire_bytes(self, record):
        uid, ids, dist = record.value
        if record.kind == "download":
            return None if dist is None else len(dist.to_json().encode())
        return 2 * 32 + len(b'{"status":"ok"}')


WORKLOADS = {cls.name: cls for cls in (Meet, Refresh, Enroll, Coverage)}
