"""Campaign operations: create, sample in stages, encode, decode, recover.

`Campaign.recover` is the one place that decides what a run left behind
by an interrupted or failed execution becomes: `uq run` applies it to
each run of the stage it executes, in the same pass that submits them,
and `uq resume` applies it to every run through `Campaign.resume`.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path

from uqpilot.campaign.config import AppSpec, CampaignConfig, load_config
from uqpilot.campaign.decode import decode_output
from uqpilot.campaign.encode import render
from uqpilot.campaign.store import STATUSES, CampaignStore
from uqpilot.errors import DecodeError, SamplerError

RUNS_SUBDIR = "runs"


class Campaign:
    """A campaign workdir: the store plus its run directories."""

    def __init__(self, workdir: str | Path, store: CampaignStore):
        self.workdir = Path(workdir)
        self.store = store

    # --- construction -------------------------------------------------

    @classmethod
    def create(cls, config: CampaignConfig | str | Path, workdir: str | Path) -> "Campaign":
        if not isinstance(config, CampaignConfig):
            config = load_config(config)
        workdir = Path(workdir)
        store = CampaignStore.create(workdir, config)
        (workdir / RUNS_SUBDIR).mkdir(exist_ok=True)
        return cls(workdir, store)

    @classmethod
    def open(cls, workdir: str | Path) -> "Campaign":
        return cls(workdir, CampaignStore.open(workdir))

    def close(self):
        self.store.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # --- sampling -------------------------------------------------------

    def add_stage(self, spec) -> int:
        """Draw a stage from the sampler spec and append it to the store."""
        from uqpilot.sampling.samplers import RNG_ALGORITHM, draw

        params = self.store.parameters()
        space = [(p.name, p.distribution) for p in params]
        if spec.is_quadrature and all(p.distribution.is_constant for p in params):
            raise SamplerError("quadrature sampler over a constant-only space")
        integers = [p.name for p in params if p.kind == "integer" and not p.distribution.is_constant]
        if spec.is_quadrature and integers:   # rounded nodes are off the grid analysis rebuilds
            raise SamplerError(f"quadrature sampler over integer parameters "
                               f"{', '.join(integers)}; use mc or halton")
        sets, weights = draw(space, spec)
        by_name = {p.name: p for p in params}
        sets = [{k: by_name[k].coerce(v) for k, v in s.items()} for s in sets]
        return self.store.add_stage(
            sampler_json=spec.to_json(),
            param_sets=sets,
            weights=weights,
            rng_algorithm=RNG_ALGORITHM if spec.variant == "mc" else None,
            seed=spec.seed if spec.variant == "mc" else None,
        )

    # --- encode / decode ---------------------------------------------------

    @cached_property
    def app(self) -> AppSpec:
        """The app row, parsed once: the store writes it at create only."""
        return self.store.app_spec()

    @cached_property
    def template(self) -> str:
        return Path(self.app.template_path).read_text()

    def run_dir(self, run_id: int) -> Path:
        return self.workdir / RUNS_SUBDIR / f"run_{run_id:06d}"

    def encode(self, run_id: int) -> Path:
        """Render the template into the run directory; NEW/FAILED -> ENCODED."""
        row = self.store.run(run_id)
        params = self.store.run_params(row)
        rdir = self.run_dir(run_id)
        rdir.mkdir(parents=True, exist_ok=True)
        (rdir / self.app.target).write_text(render(self.template, params, self.app.delimiter))
        self.store.set_status(run_id, "ENCODED", run_dir=str(rdir))
        return rdir

    def decode(self, run_id: int):
        """Parse the run's output and collate it; SUBMITTED/COMPLETED -> COLLATED."""
        row = self.store.run(run_id)
        index, columns = decode_output(row["run_dir"], self.app.decoder)
        self.store.insert_qoi(run_id, index, columns)
        return index, columns

    def collate(self, run_id: int) -> str | None:
        """The collate step of `uq run` and `uq collate`: decode a run that
        ended well, or return the error that leaves it COMPLETED."""
        try:
            self.decode(run_id)
        except DecodeError as exc:
            if self.store.run(run_id)["status"] == "SUBMITTED":
                self.store.set_status(run_id, "COMPLETED")
            return f"run {run_id}: {exc}"
        return None

    # --- recovery ---------------------------------------------------------------

    def recover(self, row) -> str:
        """Reconcile one run after an interruption; returns its new status.

        A SUBMITTED run whose own output decodes is collated, or left
        COMPLETED when that output does not fit the frame (`uq collate`
        reports it). Without usable output it goes FAILED -> ENCODED in
        one commit. A FAILED run goes to ENCODED; both retries count an
        attempt. Any other run is returned unchanged.
        """
        run_id, status = row["run_id"], row["status"]
        if status == "FAILED":
            self.store.set_status(run_id, "ENCODED")
            return "ENCODED"
        if status != "SUBMITTED":
            return status
        try:
            index, columns = decode_output(row["run_dir"], self.app.decoder)
        except DecodeError:
            self.store.set_status(run_id, "FAILED", "ENCODED")
            return "ENCODED"
        try:
            self.store.insert_qoi(run_id, index, columns)
        except DecodeError:
            self.store.set_status(run_id, "COMPLETED")
            return "COMPLETED"
        return "COLLATED"

    def resume(self) -> dict:
        """Recover every run of every stage: the per-status counts before,
        plus how many runs were set to retry and how many were recovered
        from their output."""
        summary = {s.lower(): 0 for s in STATUSES}
        summary.update(retry=0, recovered=0)
        for row in self.store.runs():
            summary[row["status"].lower()] += 1
            status = self.recover(row)
            if status != row["status"]:
                summary["retry" if status == "ENCODED" else "recovered"] += 1
        return summary

    # --- inspection ------------------------------------------------------------

    def describe(self) -> dict:
        store = self.store
        stages = []
        for s in store.stages():
            stages.append(
                {
                    "stage_id": s["stage_id"],
                    "sampler": json.loads(s["sampler_json"]),
                    "n_runs": s["n_runs"],
                    "status_counts": store.status_counts(stage_id=s["stage_id"]),
                }
            )
        return {
            "name": store.meta("name"),
            "created_at": store.meta("created_at"),
            "parameters": [p.name for p in store.parameters()],
            "stages": stages,
            "status_counts": store.status_counts(),
            "qois": store.qoi_names(),
        }
