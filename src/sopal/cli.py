"""Operator entry points.

Subcommands: ``serve`` (run the capability server), ``enroll`` (upload
capabilities for listed users), ``discover`` (two local clients over a
socket pair), ``simulate`` (coverage CSV), and ``loadprobe`` (throughput
report).  Each error class has one exit code: 3 for a missing file, 4
for any failure on the server's side (``ServerError``), 5 for malformed
configuration or a local file or address that cannot be used, 6 for a
refused token or an unenrolled user.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import signal
import socket
import sys
import threading

from sopal.client import AuthError, DiscoveryClient, HttpServerHandle, ServerError
from sopal.crypto import new_capability
from sopal.graph import load_edge_list, load_membership
from sopal.psi import DEFAULT_FP_TARGET, recv_frame
from sopal.server import MockOsnConnector, SopalHttpServer, load_probe
from sopal.sim import SimConfig, load_graph_source, run_coverage
from sopal.store import DEFAULT_TTL_S, CapabilityStore, NotEnrolledError

EXIT_MISSING_FILE = 3
EXIT_UNREACHABLE = 4
EXIT_BAD_CONFIG = 5
EXIT_DENIED = 6

DEFAULT_ADDR = "127.0.0.1:7468"
CLIENT_ADDR_HELP = "server as host:port (plaintext) or https://host:port"
# Seconds between two TTL sweeps of a running server's store.
EXPIRY_SWEEP_S = 60.0


def _parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {addr!r}")
    return host, int(port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sopal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the capability server")
    serve.add_argument("--graph", required=True, help="ground-truth edge-list file")
    serve.add_argument("--members", help="optionally pre-enroll ids from this file")
    serve.add_argument("--addr", default=DEFAULT_ADDR, help="host:port to bind")
    serve.add_argument("--dmax", type=int, default=1)
    serve.add_argument("--ttl-hours", type=float, default=DEFAULT_TTL_S / 3600.0)
    serve.add_argument("--tls-cert", help="PEM certificate; omit for plaintext test mode")
    serve.add_argument("--tls-key", help="PEM private key")
    serve.add_argument(
        "--insecure-plaintext",
        action="store_true",
        help="allow serving without TLS (test mode only)",
    )
    serve.add_argument(
        "--state",
        help="store snapshot: loaded at start when present, written at start and on shutdown",
    )

    enroll = sub.add_parser("enroll", help="upload capabilities for listed users")
    enroll.add_argument("--members", required=True, help="one id per line")
    enroll.add_argument("--addr", default=DEFAULT_ADDR, help=CLIENT_ADDR_HELP)

    discover = sub.add_parser("discover", help="run discovery between two users")
    discover.add_argument("uid_a")
    discover.add_argument("uid_b")
    discover.add_argument("--addr", default=DEFAULT_ADDR, help=CLIENT_ADDR_HELP)
    discover.add_argument("--dmax", type=int, default=1)
    discover.add_argument("--fp-target", type=float, default=DEFAULT_FP_TARGET)

    simulate = sub.add_parser("simulate", help="run the coverage simulation")
    simulate.add_argument(
        "--graph",
        required=True,
        help="edge-list file, or a synthetic spec: pa:N:M, ff:N:P, gnp:N:P",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--dmax", type=int, default=1)
    simulate.add_argument("--fractions", default="0.2,0.4,0.6,0.8")
    simulate.add_argument("--lengths", default="2,3,4")
    simulate.add_argument("--pairs", type=int, default=200)
    simulate.add_argument("--reps", type=int, default=10)
    simulate.add_argument("--ersatz", choices=("on", "off", "both"), default="both")
    simulate.add_argument("--out", help="CSV output path (default: stdout)")

    probe = sub.add_parser("loadprobe", help="measure server throughput and latency")
    probe.add_argument("--addr", default=DEFAULT_ADDR, help=CLIENT_ADDR_HELP)
    probe.add_argument("--uid", required=True, help="enrolled user to download as")
    probe.add_argument("--rates", default="1,5,10,20,40")
    probe.add_argument("--duration", type=float, default=5.0)
    probe.add_argument("--dmax", type=int, default=1)
    probe.add_argument("--out", help="report output path (default: stdout)")

    return parser


def cmd_serve(args) -> int:
    adjacency = load_edge_list(args.graph)
    connector = MockOsnConnector(adjacency)
    ttl_s = args.ttl_hours * 3600.0
    try:
        if args.state and os.path.exists(args.state):
            store = CapabilityStore.load_snapshot(args.state, connector)
            store.default_ttl_s = ttl_s
        else:
            store = CapabilityStore(connector=connector, default_ttl_s=ttl_s)
    except OSError as exc:
        raise ValueError(f"cannot use state file {args.state}: {exc}") from exc
    if args.members:
        for uid in load_membership(args.members):
            store.upload_capability(uid, new_capability())
    host, port = _parse_addr(args.addr)
    try:
        server = SopalHttpServer(
            store,
            connector,
            host,
            port,
            d_max=args.dmax,
            tls_cert=args.tls_cert,
            tls_key=args.tls_key,
            insecure_plaintext=args.insecure_plaintext,
        )
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot listen on {host}:{port}: {exc}") from exc
    if args.state:
        # Written after every other check passed and before serving, so an
        # unusable path fails now instead of losing the records at shutdown.
        try:
            store.save_snapshot(args.state)
        except OSError as exc:
            server.stop()
            raise ValueError(f"cannot use state file {args.state}: {exc}") from exc
    # Set before the announcement, so a SIGTERM sent on reading it stops cleanly.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    server.start()
    print(f"serving on {server.url} (dmax={args.dmax}, records={store.record_count()})", flush=True)
    try:
        while not stop.wait(EXPIRY_SWEEP_S):
            store.expire_and_refresh()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if args.state:
            store.save_snapshot(args.state)
            print(f"snapshot written to {args.state}")
    return 0


def cmd_enroll(args) -> int:
    members = load_membership(args.members)
    if not members:
        print("membership file is empty; nothing to do")
        return 0
    with contextlib.closing(HttpServerHandle(_addr_url(args.addr))) as handle:
        for uid in members:
            handle.upload(f"mock:{uid}", new_capability())
    print(f"enrolled {len(members)} users")
    return 0


def _addr_url(addr: str) -> str:
    if "://" in addr:
        return addr
    host, port = _parse_addr(addr)
    # An IPv6 host goes in brackets, whether or not it came with them.
    host = host.strip("[]")
    return f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"


def cmd_discover(args) -> int:
    handle = HttpServerHandle(_addr_url(args.addr))
    client_a = DiscoveryClient(args.uid_a, handle, d_max=args.dmax, fp_target=args.fp_target)
    client_b = DiscoveryClient(args.uid_b, handle, d_max=args.dmax, fp_target=args.fp_target)
    with contextlib.closing(handle):
        for client in (client_a, client_b):
            client.renew_capability()
            client.update_capabilities()

    results = [None, None]

    def run(side, client, peer, sock):
        with sock.makefile("rb") as reader:
            results[side] = client.run_discovery(
                peer, sock.sendall, lambda: recv_frame(reader), initiate=side == 0
            )

    sock_a, sock_b = socket.socketpair()
    with sock_a, sock_b:
        responder = threading.Thread(target=run, args=(1, client_b, args.uid_a, sock_b))
        responder.start()
        run(0, client_a, args.uid_b, sock_a)
        responder.join()

    for uid, res in zip((args.uid_a, args.uid_b), results):
        dist = res.dist if res.dist is not None else "none"
        print(f"{uid}: Dist={dist} matches={res.match_count}", end="")
        if res.common_friend_ids:
            print(f" common_friends={','.join(sorted(res.common_friend_ids))}")
        else:
            print()
    return 0


def _open_out(path: str | None):
    """The ``--out`` file, opened before the command's work so that an
    unusable path costs no run; stdout when there is none."""
    try:
        return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write output file {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    fractions = tuple(float(x) for x in args.fractions.split(","))
    lengths = tuple(int(x) for x in args.lengths.split(","))
    modes = {"on": (True,), "off": (False,), "both": (True, False)}[args.ersatz]
    config = SimConfig(
        member_fractions=fractions,
        path_lengths=lengths,
        pairs_per_cell=args.pairs,
        repetitions=args.reps,
        d_max=args.dmax,
        ersatz_modes=modes,
        seed=args.seed,
    )
    adjacency = load_graph_source(args.graph, args.seed)
    with _open_out(args.out) as out:
        report = run_coverage(config, adjacency)
        out.write(report.to_csv())
    if args.out:
        print(f"wrote {len(report.cells)} cells to {args.out}")
    return 0


def cmd_loadprobe(args) -> int:
    rates = [int(x) for x in args.rates.split(",")]
    url = _addr_url(args.addr)
    with _open_out(args.out) as out:
        report = load_probe(url, f"mock:{args.uid}", rates, args.duration, dmax=args.dmax)
        out.write(report.to_text() + "\n")
    if args.out:
        print(f"wrote report to {args.out}")
    return 0


_COMMANDS = {
    "serve": cmd_serve,
    "enroll": cmd_enroll,
    "discover": cmd_discover,
    "simulate": cmd_simulate,
    "loadprobe": cmd_loadprobe,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ServerError as exc:
        print(f"error: server unreachable: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (AuthError, NotEnrolledError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DENIED
    except (OSError, ValueError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
