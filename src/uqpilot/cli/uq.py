"""The `uq` command: init, sample, run, collate, analyze, validate, status, resume.

Subcommands parse, call the library and print; `main` alone maps errors
to the published exit codes: 0 success; 1 run failures, including
`MissingRunError` (analysis or validation over runs not collated); 2
usage and configuration problems, which is every other `UqError`; 3
refusals (`init` into a non-empty workdir); 4 `StoreCorrupt`. A SIGTERM
or SIGHUP ends `uq run` as Ctrl-C does, stopping the runs in flight, and
then exits 128 + the signal number (143, 129).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from uqpilot.campaign.ops import Campaign
from uqpilot.cli import stop_on_termination

EXIT_OK = 0
EXIT_RUN_FAILURES = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_CORRUPT = 4


def _fail(code: int, message: str) -> int:
    print(f"uq: {message}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a campaign from a config document")
    p.add_argument("--config", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--force", action="store_true",
                   help="allow a non-empty working directory")

    p = sub.add_parser("sample", help="append a sampling stage")
    p.add_argument("--workdir", required=True)
    p.add_argument("--sampler", required=True, choices=["mc", "halton", "sc", "pce"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip", type=int, default=0)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--growth", choices=["linear", "exp2"], default=None,
                   help="per-dimension growth rule (default: exp2 for sparse, else linear)")
    p.add_argument("--sparse", action="store_true")
    p.add_argument("--dump-grid", metavar="CSV",
                   help="also write the stage's points/weights as CSV")

    p = sub.add_parser("run", help="execute pending runs")
    p.add_argument("--workdir", required=True)
    p.add_argument("--executor", choices=["serial", "pilotjob"], default="serial",
                   help="serial: one run at a time; pilotjob: --allocation-cores at once")
    p.add_argument("--cores-per-run", type=int, default=1)
    p.add_argument("--allocation-cores", type=int, default=None,
                   help="pilotjob allocation size (default: the detected cores)")
    p.add_argument("--retries", type=int, default=0)
    p.add_argument("--stage", type=int, default=None)

    p = sub.add_parser("collate", help="decode completed runs into the store")
    p.add_argument("--workdir", required=True)

    p = sub.add_parser("analyze", help="moments and Sobol indices for a stage")
    p.add_argument("--workdir", required=True)
    p.add_argument("--qoi", required=True)
    p.add_argument("--stage", type=int, default=None, help="default: latest stage")
    p.add_argument("--allow-missing", action="store_true",
                   help="tolerate missing runs (MC stages only)")

    p = sub.add_parser("validate", help="similarity or ensemble validation")
    p.add_argument("--workdir", required=True)
    p.add_argument("--pattern", required=True, choices=["similarity", "ensemble"])
    p.add_argument("--qoi")
    p.add_argument("--metric", default="hellinger")
    p.add_argument("--reference",
                   help="CSV with a --qoi column: for similarity, samples of the observed or "
                        "benchmark distribution; for the mare scorer, one reference vector")
    p.add_argument("--at", default="final",
                   help="similarity: time index into the vectors, 'final', or 'flat'")
    p.add_argument("--scorer", nargs="+", default=["mare"],
                   help="'mare' or an external command")
    p.add_argument("--aggregator", default="mean", choices=["mean", "max"])

    p = sub.add_parser("status", help="status counts per stage")
    p.add_argument("--workdir", required=True)

    p = sub.add_parser("resume", help="reconcile statuses after an interruption")
    p.add_argument("--workdir", required=True)

    return parser


# --- helpers -------------------------------------------------------------


def _unknown_stage(store, stage_id: int | None) -> bool:
    return stage_id is not None and stage_id not in {s["stage_id"] for s in store.stages()}


def _write_report(workdir: str, stem: str, writers: dict) -> list[Path]:
    """Write reports/<stem>-<stamp><suffix> with each `writers[suffix]`,
    one stamp for all, and point reports/<stem>-latest<suffix> at it."""
    reports = Path(workdir) / "reports"
    reports.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    paths = []
    for suffix, write in writers.items():
        path = reports / f"{stem}-{stamp}{suffix}"
        write(path)
        latest = reports / f"{stem}-latest{suffix}"
        latest.unlink(missing_ok=True)
        try:
            latest.symlink_to(path.name)
        except OSError:
            shutil.copyfile(path, latest)
        paths.append(path)
    return paths


# --- subcommands ----------------------------------------------------------


def cmd_init(args) -> int:
    workdir = Path(args.workdir)
    if workdir.exists() and any(workdir.iterdir()) and not args.force:
        return _fail(EXIT_REFUSED, f"workdir {workdir} is not empty (use --force)")
    with Campaign.create(args.config, workdir) as campaign:
        print(campaign.store.path)
    return EXIT_OK


def cmd_sample(args) -> int:
    from uqpilot.sampling.samplers import SamplerSpec

    spec = SamplerSpec.from_json({"variant": args.sampler, **vars(args)})
    with Campaign.open(args.workdir) as campaign:
        stage_id = campaign.add_stage(spec)
        rows = campaign.store.runs(stage_id=stage_id)
        if args.dump_grid:
            _dump_grid(campaign, rows, args.dump_grid)
    print(f"stage {stage_id}: {len(rows)} runs")
    return EXIT_OK


def _dump_grid(campaign, rows, out_path: str):
    import csv

    names = [p.name for p in campaign.store.parameters()]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", *names, "weight"])
        for i, row in enumerate(rows):
            params = campaign.store.run_params(row)
            weight = row["weight"]
            writer.writerow(
                [i, *[repr(params[n]) for n in names],
                 "" if weight is None else repr(weight)]
            )


def cmd_run(args) -> int:
    from uqpilot.executors import RunPlan, execute_campaign
    from uqpilot.pilotjob.jobs import detected_cores

    cores = args.cores_per_run            # serial: one run at a time
    if args.executor == "pilotjob":
        cores = detected_cores() if args.allocation_cores is None else args.allocation_cores
    elif args.allocation_cores is not None:
        return _fail(EXIT_USAGE, "--allocation-cores needs --executor pilotjob")
    plan = RunPlan(cores=cores, cores_per_run=args.cores_per_run,
                   retries=args.retries, stage_id=args.stage)
    with Campaign.open(args.workdir) as campaign:
        if _unknown_stage(campaign.store, args.stage):
            return _fail(EXIT_USAGE, f"no stage {args.stage}")
        with stop_on_termination():
            summary = execute_campaign(campaign, plan)
        counts = campaign.store.status_counts()
    print(
        f"executed={summary.executed} completed={summary.completed} "
        f"failed={summary.failed} collated={counts['COLLATED']}"
    )
    for line in summary.errors:
        print(f"uq: {line}", file=sys.stderr)
    return EXIT_OK if summary.ok else EXIT_RUN_FAILURES


def cmd_collate(args) -> int:
    failures = 0
    with Campaign.open(args.workdir) as campaign:
        for row in campaign.store.runs(status="COMPLETED"):
            error = campaign.collate(row["run_id"])
            if error:
                failures += 1
                print(f"uq: {error}", file=sys.stderr)
        counts = campaign.store.status_counts()
    print(f"collated={counts['COLLATED']} pending={counts['COMPLETED']}")
    return EXIT_OK if failures == 0 else EXIT_RUN_FAILURES


def cmd_analyze(args) -> int:
    from uqpilot.analysis.pipeline import (
        analyze_mc_stage,
        analyze_quadrature_stage,
        stage_sampler,
    )
    from uqpilot.analysis.report import (
        format_final_table,
        mc_document,
        sobol_document,
        write_csv,
        write_json,
    )

    with Campaign.open(args.workdir) as campaign:
        store = campaign.store
        if _unknown_stage(store, args.stage):
            return _fail(EXIT_USAGE, f"no stage {args.stage}")
        stage_id = store.latest_stage_id() if args.stage is None else args.stage
        if stage_id is None:
            return _fail(EXIT_USAGE, "campaign has no stages to analyze")
        qois = store.qoi_names()
        if args.qoi not in qois:
            return _fail(
                EXIT_USAGE,
                f"unknown qoi {args.qoi!r}; available: {', '.join(qois) or '(none)'}",
            )
        stem = f"analysis-{args.qoi}"
        if stage_sampler(store, stage_id).is_quadrature:
            report = analyze_quadrature_stage(store, stage_id, args.qoi)
            doc = sobol_document(report, args.qoi)
            json_path, csv_path = _write_report(args.workdir, stem, {
                ".json": lambda path: write_json(doc, path),
                ".csv": lambda path: write_csv(report, path),
            })
            print(format_final_table(report, args.qoi))
            print(f"reports: {json_path} {csv_path}")
        else:
            result = analyze_mc_stage(store, stage_id, args.qoi,
                                      allow_missing=args.allow_missing)
            if result["missing"]:
                print(f"uq: warning: {len(result['missing'])} runs missing from stage "
                      f"{stage_id}", file=sys.stderr)
            doc = mc_document(result, args.qoi, stage_id)
            (path,) = _write_report(args.workdir, stem,
                                    {".json": lambda path: write_json(doc, path)})
            print(f"qoi {args.qoi!r}: n={doc['n_runs']} final mean={doc['mean'][-1]!r}")
            print(f"report: {path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    import dataclasses

    import numpy as np

    from uqpilot.analysis.report import write_json
    from uqpilot.vvp.patterns import ensemble_validate, validate_similarity

    if args.pattern == "similarity" and not (args.qoi and args.reference):
        return _fail(EXIT_USAGE, "similarity validation needs --qoi and --reference")
    if args.pattern == "ensemble" and args.scorer == ["mare"] and not (args.qoi and args.reference):
        return _fail(EXIT_USAGE, "mare scorer needs --qoi and --reference")
    with Campaign.open(args.workdir) as campaign:
        store = campaign.store
        qois = campaign.app.decoder.qoi_columns   # all that collation can ever store
        if args.qoi is not None and args.qoi not in qois:
            return _fail(EXIT_USAGE, f"unknown qoi {args.qoi!r}; available: {', '.join(qois)}")
        if args.pattern == "similarity":
            reference = _read_reference(args.reference, args.qoi)
            result = validate_similarity(store, args.qoi, reference, args.metric, at=args.at)
            print(f"{result.metric} distance: {result.distance:.6g}")
        else:
            mare = args.scorer == ["mare"]
            reference = np.asarray(_read_reference(args.reference, args.qoi)) if mare else None
            result = ensemble_validate(store, "mare" if mare else args.scorer,
                                       aggregator=args.aggregator, qoi=args.qoi,
                                       reference=reference)
            print(f"aggregate ({result.aggregator}): {result.aggregate:.6g}")
        doc = {"pattern": args.pattern, **dataclasses.asdict(result)}
        (path,) = _write_report(args.workdir, f"validation-{args.pattern}",
                                {".json": lambda path: write_json(doc, path)})
        print(f"report: {path}")
    return EXIT_OK


def _read_reference(path: str, qoi: str) -> list[float]:
    import csv

    from uqpilot.errors import ParseError

    try:
        with open(path, newline="") as fh:
            values = [float(row[qoi]) for row in csv.DictReader(fh)]
    except KeyError as exc:
        raise ParseError(f"reference lacks column {qoi!r}") from exc
    except (OSError, csv.Error, TypeError, ValueError) as exc:
        raise ParseError(f"cannot read reference {path}: {exc}") from exc
    if not values:
        raise ParseError(f"cannot read reference {path}: no data rows")
    return values


def cmd_status(args) -> int:
    with Campaign.open(args.workdir) as campaign:
        doc = campaign.describe()
    print(f"campaign {doc['name']!r} ({len(doc['parameters'])} parameters)")
    for stage in doc["stages"]:
        counts = ", ".join(
            f"{k}={v}" for k, v in stage["status_counts"].items() if v
        ) or "empty"
        print(f"  stage {stage['stage_id']}: {stage['sampler']['variant']} "
              f"n={stage['n_runs']} [{counts}]")
    totals = ", ".join(f"{k}={v}" for k, v in doc["status_counts"].items() if v)
    print(f"  totals: {totals or 'no runs'}")
    return EXIT_OK


def cmd_resume(args) -> int:
    with Campaign.open(args.workdir) as campaign:
        summary = campaign.resume()
    print(json.dumps(summary))
    return EXIT_OK


HANDLERS = {
    "init": cmd_init,
    "sample": cmd_sample,
    "run": cmd_run,
    "collate": cmd_collate,
    "analyze": cmd_analyze,
    "validate": cmd_validate,
    "status": cmd_status,
    "resume": cmd_resume,
}


def main(argv: list[str] | None = None) -> int:
    from uqpilot.errors import MissingRunError, StoreCorrupt, UqError

    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except StoreCorrupt as exc:
        return _fail(EXIT_CORRUPT, f"{exc} (store may need manual recovery)")
    except MissingRunError as exc:
        return _fail(EXIT_RUN_FAILURES, str(exc))
    except UqError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
