"""The `pj` command: serve a pilot manager and talk to a running one.

`serve --socket` serves an allocation of `--allocation-cores` cores
(default: the detected cores); `serve --batch` takes its allocation from
the batch file. A wall-clock manager refuses more cores than 4 times the
detected ones (`PJ_VIRTUAL_CORES` raises that count); `--clock
simulated` takes any count.

Subcommands parse, call the manager and print; `main` alone maps errors
to the exit codes: 0 success; 1 a served workload with jobs that did not
succeed; 2 usage problems, which is every `UqError`: a bad batch file or
job (a job field of the wrong type, such as `"cores": "two"`, names the
job and the field), a bad allocation, a `PJ_VIRTUAL_CORES` that is not a
whole number, a `--report` whose directory does not exist (refused
before any job starts) or a report that cannot be written, a socket that
cannot be bound, no manager listening at `--manager`, or a request the
manager refused. A SIGTERM or SIGHUP ends `serve` as Ctrl-C does,
stopping the jobs in flight, and then exits 128 + the signal number
(143, 129).
"""

from __future__ import annotations

import argparse
import json
import sys

from uqpilot.cli import stop_on_termination

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
    p.add_argument("--socket", action="store_true",
                   help="serve the control protocol on <workdir>/pj.sock")
    p.add_argument("--workdir", default=".")
    p.add_argument("--clock", choices=["wall", "simulated"], default="wall")
    p.add_argument("--allocation-cores", type=int, default=None,
                   help="socket allocation size (default: the detected cores)")
    p.add_argument("--report", default=None, help="report path (default pj-report.json)")

    for name in ("submit", "status", "cancel", "finish"):
        p = sub.add_parser(name)
        p.add_argument("--manager", default=".",
                       help="manager workdir or its pj.sock path")
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
    from uqpilot.pilotjob.jobs import detected_cores
    from uqpilot.pilotjob.manager import run_batch, serve_socket

    if args.batch:
        if args.allocation_cores is not None:
            return _fail("--allocation-cores does not apply to --batch; "
                         "the batch file names its allocation")
        with stop_on_termination():
            report = run_batch(args.batch, workdir=args.workdir, clock=args.clock,
                               report_path=args.report)
    elif args.socket:
        cores = detected_cores() if args.allocation_cores is None else args.allocation_cores
        with stop_on_termination():
            report = serve_socket(cores, workdir=args.workdir, clock=args.clock,
                                  report_path=args.report)
    else:
        return _fail("serve needs --batch FILE or --socket")
    failed = sum(1 for j in report["jobs"] if j["status"] != "SUCCEEDED")
    print(
        f"jobs={len(report['jobs'])} failed={failed} "
        f"makespan={report['makespan']:.3f}s overhead={report['overhead']:.3f}s"
    )
    return EXIT_OK if failed == 0 else EXIT_FAILURES


def _call(manager: str, cmd: str, payload: dict | None = None) -> dict:
    """One request to the manager at `manager` (workdir or socket path)."""
    from uqpilot.pilotjob.manager import discover
    from uqpilot.pilotjob.protocol import PjClient

    with PjClient(discover(manager)) as client:
        return client.call(cmd, payload)


def cmd_submit(args) -> int:
    command = args.job_command
    if command and command[0] == "--":
        command = command[1:]
    data = _call(args.manager, "submit", {
        "name": args.name,
        "command": command,
        "cores": args.cores,
        "iterations": args.iterations,
        "after": args.after,
        "workdir": args.job_workdir,
        "duration": args.duration,
    })
    print(data["name"])
    return EXIT_OK


def cmd_status(args) -> int:
    data = _call(args.manager, "status", {"name": args.name} if args.name else {})
    print(json.dumps(data, indent=2))
    return EXIT_OK


def cmd_cancel(args) -> int:
    data = _call(args.manager, "cancel", {"name": args.name})
    print(f"{data['name']}: {data['status']}")
    return EXIT_OK


def cmd_finish(args) -> int:
    data = _call(args.manager, "finish")
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
    from uqpilot.errors import UqError

    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except UqError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
