"""sopal benchmark: one workload, one run, one JSON result line.

Usage:
    python3 perfbench/run.py --workload {meet,refresh,enroll,coverage} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root.  The run sets up the workload (several
times with ``--trace 0``, reporting the median as ``setup_s``), drives a
closed loop for ``--seconds``, checks every answer, and prints a report
followed by one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
runs half the time untraced and half traced, reports the per-layer
metrics and the tracing overhead, and writes the spans under
``perfbench/out/``.  ``--smoke`` shrinks the worlds for the self-tests.
The exit code is 0 only when every op succeeded with a correct answer.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "sopal" / "__init__.py").is_file():
    sys.exit(f"perfbench: sopal sources not found under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import cryptography  # noqa: E402

from tracing import NoTrace, Tracer, install, self_ms  # noqa: E402
from workloads import (  # noqa: E402
    CLIENT_PATCHES,
    NPROC,
    REFERENCE_PROBE_S,
    WIRE_PREFIX_OPS,
    WORKLOADS,
    closed_loop,
    pin_to_one_cpu,
    speed_probe,
)

# Set-up runs at least SETUP_REPS times and for at least SETUP_MIN_S, so
# that a set-up of a few milliseconds still has a steady median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
OUT = HERE / "out"
LAYERS = ("crypto", "psi", "client", "store", "graph", "sim")


def percentile_ms(latencies: list[float], q: int) -> float:
    """The ``q``-th percentile in ms (inclusive method)."""
    if len(latencies) == 1:
        return 1000 * latencies[0]
    if q == 50:
        return 1000 * statistics.median(latencies)
    return 1000 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def environment(seed: int, digest: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = got.stdout.strip() or commit
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": NPROC,
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "world_digest": digest,
    }


def end_to_end(wl, setup_s, loop, rss_mb) -> tuple[dict, dict]:
    """Gated metrics, and report-only ones: raw wall-clock figures, and
    figures that not every workload has."""
    ok = [r for r in loop.records if r.ok]
    gated_ops = [r for r in ok if r.kind in wl.latency_kinds]
    ref_lat = [r.ref_latency_s for r in gated_ops]
    raw_lat = [r.latency_s for r in gated_ops]
    gated = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "latency_p50_ms": (percentile_ms(ref_lat, 50), "ms"),
        "latency_p90_ms": (percentile_ms(ref_lat, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    attempted = len(loop.records)
    probes = [p for _, p in loop.probes]
    extra = {
        "raw_ops_per_s": (loop.raw_ops_per_s, "1/s"),
        "raw_latency_p50_ms": (percentile_ms(raw_lat, 50), "ms"),
        "raw_latency_p90_ms": (percentile_ms(raw_lat, 90), "ms"),
        "speed_probe_ms": (1000 * statistics.median(probes), "ms"),
        "speed_probes": (len(probes), "count"),
        "failed_ratio": ((attempted - len(ok)) / attempted, "ratio"),
        "latency_samples": (len(gated_ops), "count"),
        "generator_cpu_ms_per_op": (1000 * loop.cpu_s / max(1, len(ok)), "ms"),
    }
    if loop.steal_s is not None:
        extra["host_steal_pct"] = (100 * loop.steal_s / loop.elapsed_s, "%")
    wire = [wl.wire_bytes(r) for r in ok if r.index < WIRE_PREFIX_OPS]
    wire = [b for b in wire if b is not None]
    if wire:
        extra["wire_kb_per_op"] = (statistics.fmean(wire) / 1000, "kB")
    downloads = [r.ref_latency_s for r in ok if r.kind == "download"]
    if downloads:
        extra["download_p50_ms"] = (percentile_ms(downloads, 50), "ms")
        extra["download_p90_ms"] = (percentile_ms(downloads, 90), "ms")
    return gated, extra


def per_layer(t: defaultdict, ops: int, server: dict, traced, plain) -> dict:
    """Per-layer metrics from the traced half; counts and times are per op."""

    def ms(name):
        return 1000 * t[name + ".s"] / ops

    def calls(name):
        return t[name + ".calls"] / ops

    def per_op(name, scale=1.0):
        return t[name] * scale / ops

    def ratio(a, b):
        return a / b if b else 0.0

    requests = t["client.download.calls"] + t["client.upload.calls"]
    http_s = t["client.download.s"] - t["store.from_json.s"] + t["client.upload.s"]
    store_s = t["store.distribute.d1.s"] + t["store.distribute.d2.s"] + t["store.upload.s"]
    frame_bytes = sum(t[f"psi.{m}.bytes"] for m in ("hello", "bf", "chal", "resp"))
    upload_bytes = t["client.upload.calls"] * (64 + len(b'{"status":"ok"}'))
    rows = {
        "crypto.bf_insert_calls": (calls("crypto.bf_insert"), "count"),
        "crypto.bf_insert_ms": (ms("crypto.bf_insert"), "ms"),
        "crypto.bf_probe_calls": (calls("crypto.bf_probe"), "count"),
        "crypto.bf_probe_ms": (ms("crypto.bf_probe"), "ms"),
        "crypto.hash_chain_calls": (calls("crypto.hash_chain"), "count"),
        "crypto.hash_chain_steps": (per_op("crypto.hash_chain.steps"), "count"),
        "crypto.hash_chain_ms": (ms("crypto.hash_chain"), "ms"),
        "crypto.establish_session_ms": (ms("crypto.establish_session"), "ms"),
        "psi.hello_ms": (ms("psi.hello"), "ms"),
        "psi.bf_build_ms": (ms("psi.bf_build"), "ms"),
        "psi.bf_probe_ms": (ms("psi.bf_probe"), "ms"),
        "psi.challenge_ms": (ms("psi.challenge"), "ms"),
        "psi.response_ms": (ms("psi.response"), "ms"),
        "psi.hello_kb": (per_op("psi.hello.bytes", 1e-3), "kB"),
        "psi.bf_kb": (per_op("psi.bf.bytes", 1e-3), "kB"),
        "psi.chal_kb": (per_op("psi.chal.bytes", 1e-3), "kB"),
        "psi.resp_kb": (per_op("psi.resp.bytes", 1e-3), "kB"),
        "psi.items_per_session": (per_op("psi.items"), "count"),
        "psi.candidates": (per_op("psi.candidates"), "count"),
        "psi.matches": (per_op("psi.matches"), "count"),
        "psi.candidates_per_match": (ratio(t["psi.candidates"], t["psi.matches"]), "ratio"),
        "client.start_session_ms": (ms("client.start_session"), "ms"),
        "client.build_input_set_ms": (ms("client.build_input_set"), "ms"),
        "client.input_items": (per_op("client.input_items"), "count"),
        "client.download_ms": (ms("client.download"), "ms"),
        "client.upload_ms": (ms("client.upload"), "ms"),
        "client.update_capabilities_ms": (ms("client.update_capabilities"), "ms"),
        "client.wire_kb_per_op": (
            (frame_bytes + t["store.download_bytes"] + upload_bytes) / 1000 / ops, "kB"),
        "store.distribute_ms.d1": (ms("store.distribute.d1"), "ms"),
        "store.distribute_ms.d2": (ms("store.distribute.d2"), "ms"),
        "store.distribute_entries": (per_op("store.distribute_entries"), "count"),
        "store.to_json_ms": (ms("store.to_json"), "ms"),
        "store.from_json_ms": (ms("store.from_json"), "ms"),
        "store.download_kb": (per_op("store.download_bytes", 1e-3), "kB"),
        "store.upload_ms": (ms("store.upload"), "ms"),
        "store.ersatz_created": (calls("store.new_capability"), "count"),
        "store.records": (server.get("records", 0), "count"),
        "graph.layer_friend_sets_ms": (ms("graph.layer_friend_sets"), "ms"),
        "graph.layer_nodes": (per_op("graph.layer_nodes"), "count"),
        "graph.record_member_ms": (ms("graph.record_member"), "ms"),
        "graph.hop_layers_calls": (calls("graph.hop_layers"), "count"),
        "graph.hop_layers_ms": (ms("graph.hop_layers"), "ms"),
        "server.requests": (per_op("server.requests"), "count"),
        "server.non200": (per_op("server.non200"), "count"),
        "server.handler_overhead_ms": (1000 * (http_s - store_s) / ops if requests else 0.0, "ms"),
        "server.connections_per_request": (ratio(t["http.connects"], requests), "ratio"),
        "server.threads_peak": (server.get("threads_peak", 0), "count"),
        "server.cpu_ms_per_op": (1000 * server.get("cpu_s", 0.0) / ops, "ms"),
        "sim.run_coverage_ms": (ms("sim.run_coverage"), "ms"),
        "sim.known_adjacency_ms": (ms("sim.known_adjacency"), "ms"),
        "sim.pairs_scanned": (per_op("sim.pairs_scanned"), "count"),
        "sim.pairs_classified": (per_op("sim.pairs_classified"), "count"),
        "sim.classified_per_scanned": (
            ratio(t["sim.pairs_classified"], t["sim.pairs_scanned"]), "ratio"),
    }
    for layer in LAYERS:
        rows[f"{layer}.self_ms"] = (self_ms(t, layer) / ops, "ms")
    rows["bench.generator_cpu_ms_per_op"] = (1000 * traced.cpu_s / ops, "ms")
    rows["trace.overhead_ratio"] = (1 - traced.ops_per_s / plain.ops_per_s, "ratio")
    return rows


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small worlds, for self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    try:
        setups, probes = [], [speed_probe()]
        reps, min_s = (1, 0.0) if args.trace else (SETUP_REPS, SETUP_MIN_S)
        while len(setups) < reps or sum(setups) < min_s:
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
            probes.append(speed_probe())
        raw_setup_s = setup_s = statistics.median(setups)
        if wl.setup_in_process:
            setup_s *= REFERENCE_PROBE_S / statistics.median(probes)
        wl.verify_world()
        ops = wl.ops()
        if args.trace:
            half = args.seconds / 2
            plain = closed_loop(ops, wl.run_op, NoTrace(), wl.threads, half)
            tracer = Tracer()
            with contextlib.ExitStack() as stack:
                install(tracer, stack, CLIENT_PATCHES)
                wl.trace_on(tracer, trace_path.with_name(trace_path.stem + "-server.jsonl"))
                loop = closed_loop(ops, wl.run_op, tracer, wl.threads, half)
            server = wl.trace_stats()
            loops = [plain, loop]
        else:
            loop = closed_loop(ops, wl.run_op, NoTrace(), wl.threads, args.seconds)
            loops = [loop]
        rss_mb = wl.peak_rss_mb()
        records = [r for lp in loops for r in lp.records]
        wrong = wl.check([r for r in records if r.ok])
    finally:
        wl.close()

    env = environment(args.seed, wl.digest)
    if args.trace:
        totals = defaultdict(float, tracer.totals)
        for key, value in server.get("totals", {}).items():
            totals[key] += value
        metrics = per_layer(totals, max(1, loop.completed), server, loop, plain)
        tracer.dump(trace_path, {"workload": args.workload, **env})
        shown = metrics
    else:
        metrics, extra = end_to_end(wl, setup_s, loop, rss_mb)
        extra["raw_setup_s"] = (raw_setup_s, "s")
        shown = {**metrics, **extra}
    failed = sum(not r.ok for r in records) + len(wrong)
    correct = not wrong

    print(f"# sopal benchmark: workload={args.workload} trace={args.trace} "
          f"seconds={args.seconds:g} threads={wl.threads}")
    print("# env " + json.dumps(env))
    for name, (value, unit) in shown.items():
        print(f"# {name:34s} {value:14.4f} {unit}")
    for index, why in sorted(wrong.items())[:10]:
        print(f"# WRONG op {index}: {why}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
