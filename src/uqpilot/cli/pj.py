"""The `pj` command: serve a pilot manager and talk to a running one."""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"pj: {message}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run a manager (batch file or socket service)")
    p.add_argument("--batch", help="batch JSON file; runs to completion and exits")
    p.add_argument("--socket", action="store_true", help="serve the network interface")
    p.add_argument("--workdir", default=".")
    p.add_argument("--clock", choices=["wall", "simulated"], default="wall")
    p.add_argument("--allocation-cores", type=int, default=None)
    p.add_argument("--virtual", action="store_true",
                   help="virtual allocation (no hardware core cap)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--report", default=None, help="report path (default pj-report.json)")

    for name in ("submit", "status", "cancel", "finish"):
        p = sub.add_parser(name)
        p.add_argument("--manager", default=".",
                       help="manager workdir or host:port")
        if name == "submit":
            p.add_argument("--name", required=True)
            p.add_argument("--cores", type=int, default=1)
            p.add_argument("--iterations", type=int, default=1)
            p.add_argument("--after", nargs="*", default=[])
            p.add_argument("--job-workdir", default=None)
            p.add_argument("--duration", type=float, default=None)
            # not dest "command": that names the subcommand
            p.add_argument("job_command", metavar="command", nargs=argparse.REMAINDER,
                           help="command and arguments (prefix with --)")
        elif name in ("status", "cancel"):
            p.add_argument("--name", required=(name == "cancel"), default=None)
    return parser


def cmd_serve(args) -> int:
    from uqpilot.errors import BindError, ParseError, ValidationError
    from uqpilot.pilotjob.jobs import Allocation
    from uqpilot.pilotjob.manager import run_batch, serve_socket

    try:
        if args.batch:
            report = run_batch(
                args.batch, workdir=args.workdir, clock=args.clock,
                report_path=args.report,
            )
        elif args.socket:
            if args.allocation_cores:
                allocation = (
                    Allocation.virtual(args.allocation_cores)
                    if args.virtual
                    else Allocation.local(args.allocation_cores)
                )
            else:
                allocation = Allocation.local()
            report = serve_socket(
                allocation, workdir=args.workdir, clock=args.clock,
                host=args.host, port=args.port, report_path=args.report,
            )
        else:
            return _fail("serve needs --batch FILE or --socket")
    except (ParseError, ValidationError, BindError) as exc:
        return _fail(str(exc))
    if report is None:
        return EXIT_OK
    failed = sum(1 for j in report["jobs"] if j["status"] != "SUCCEEDED")
    print(
        f"jobs={len(report['jobs'])} failed={failed} "
        f"makespan={report['makespan']:.3f}s overhead={report['overhead']:.3f}s"
    )
    return EXIT_OK if failed == 0 else EXIT_FAILURES


def _client(manager: str):
    from uqpilot.pilotjob.manager import discover
    from uqpilot.pilotjob.protocol import PjClient

    host, port = discover(manager)
    return PjClient(host, port)


def cmd_submit(args) -> int:
    from uqpilot.errors import UqError

    command = args.job_command
    if command and command[0] == "--":
        command = command[1:]
    payload = {
        "name": args.name,
        "command": command,
        "cores": args.cores,
        "iterations": args.iterations,
        "after": args.after,
        "workdir": args.job_workdir,
        "duration": args.duration,
    }
    try:
        with _client(args.manager) as client:
            data = client.call("submit", payload)
    except UqError as exc:
        return _fail(str(exc))
    print(data["name"])
    return EXIT_OK


def cmd_status(args) -> int:
    from uqpilot.errors import UqError

    try:
        with _client(args.manager) as client:
            data = client.call("status", {"name": args.name} if args.name else {})
    except UqError as exc:
        return _fail(str(exc))
    print(json.dumps(data, indent=2))
    return EXIT_OK


def cmd_cancel(args) -> int:
    from uqpilot.errors import UqError

    try:
        with _client(args.manager) as client:
            data = client.call("cancel", {"name": args.name})
    except UqError as exc:
        return _fail(str(exc))
    print(f"{data['name']}: {data['status']}")
    return EXIT_OK


def cmd_finish(args) -> int:
    from uqpilot.errors import UqError

    try:
        with _client(args.manager) as client:
            data = client.call("finish")
    except UqError as exc:
        return _fail(str(exc))
    print(
        f"finished: jobs={data['jobs']} makespan={data['makespan']:.3f}s "
        f"overhead={data['overhead']:.3f}s"
    )
    return EXIT_OK


HANDLERS = {
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "cancel": cmd_cancel,
    "finish": cmd_finish,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
