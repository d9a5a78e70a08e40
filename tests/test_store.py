import json
import sqlite3
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import uniform_param, write_config
from uqpilot.campaign.config import load_config
from uqpilot.campaign.ops import Campaign
from uqpilot.campaign.store import ALLOWED_TRANSITIONS, CampaignStore, IllegalTransition
from uqpilot.errors import StoreCorrupt, StoreMissing

TEMPLATE = "a=$a\n"


def make_store(tmp_path, n_params: int = 1) -> CampaignStore:
    params = [uniform_param(f"a{'' if i == 0 else i}", 0, 1) for i in range(n_params)]
    template = "".join(f"{p['name']}=${p['name']}\n" for p in params)
    cfg = write_config(tmp_path, params, template, ["true"])
    return CampaignStore.create(tmp_path / "camp", load_config(cfg))


def make_campaign(tmp_path) -> Campaign:
    """A one-parameter campaign whose runs write `y` to `out.csv`."""
    cfg = write_config(tmp_path, [uniform_param("a", 0, 1)], TEMPLATE, ["true"],
                       decoder={"output_relpath": "out.csv", "format": "csv",
                                "qoi_columns": ["y"]})
    return Campaign.create(cfg, tmp_path / "camp")


def submit(campaign: Campaign, run_id: int, output: list[float] | None = None):
    """Encode the run and mark it SUBMITTED; `output` is the `y` column its
    attempt wrote before the engine was interrupted."""
    run_dir = campaign.encode(run_id)
    campaign.store.set_status(run_id, "SUBMITTED")
    if output is not None:
        (run_dir / "out.csv").write_text("y\n" + "".join(f"{v}\n" for v in output))


def add_mc_stage(store: CampaignStore, n: int, seed: int = 0):
    sets = [{"a": i / max(n, 1)} for i in range(n)]
    return store.add_stage({"variant": "mc", "n": n, "seed": seed}, sets, None,
                           rng_algorithm="philox4x64-numpy", seed=seed)


class TestLifecycle:
    def test_dense_increasing_run_ids(self, tmp_path):
        store = make_store(tmp_path)
        add_mc_stage(store, 3)
        add_mc_stage(store, 2)
        assert [r["run_id"] for r in store.runs()] == [1, 2, 3, 4, 5]

    def test_legal_path_to_collated(self, tmp_path):
        store = make_store(tmp_path)
        add_mc_stage(store, 1)
        for status in ("ENCODED", "SUBMITTED", "COMPLETED"):
            store.set_status(1, status)
        store.insert_qoi(1, [0.0, 1.0], {"y": [1.0, 2.0]})
        assert store.run(1)["status"] == "COLLATED"

    def test_retry_edge(self, tmp_path):
        store = make_store(tmp_path)
        add_mc_stage(store, 1)
        store.set_status(1, "ENCODED")
        store.set_status(1, "SUBMITTED")
        store.set_status(1, "FAILED")
        store.set_status(1, "ENCODED")
        assert store.run(1)["attempts"] == 1

    @given(ops=st.lists(st.sampled_from(
        ["NEW", "ENCODED", "SUBMITTED", "COMPLETED", "FAILED", "COLLATED"]
    ), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_random_sequences_never_escape_the_graph(self, tmp_path_factory, ops):
        tmp = tmp_path_factory.mktemp("life")
        store = make_store(tmp)
        add_mc_stage(store, 1)
        state = "NEW"
        retries = 0
        for target in ops:
            if target in ALLOWED_TRANSITIONS[state]:
                store.set_status(1, target)
                retries += (state, target) == ("FAILED", "ENCODED")
                state = target
            else:
                with pytest.raises(IllegalTransition):
                    store.set_status(1, target)
                assert store.run(1)["status"] == state
        assert store.run(1)["status"] == state
        assert store.run(1)["attempts"] == retries
        store.close()


class TestStagedSampling:
    @staticmethod
    def dump_runs(store, stage_id) -> bytes:
        """Canonical serialization of a stage's run rows."""
        rows = [dict(r) for r in store.runs(stage_id=stage_id)]
        return json.dumps(rows, sort_keys=True).encode()

    def test_prior_rows_bitwise_identical(self, tmp_path):
        store = make_store(tmp_path)
        first = add_mc_stage(store, 100, seed=42)
        before = self.dump_runs(store, first)
        second = add_mc_stage(store, 100, seed=42)
        after = self.dump_runs(store, first)
        assert before == after
        assert first != second
        assert len(store.runs()) == 200

    def test_two_stages_same_args_distinct(self, tmp_path):
        store = make_store(tmp_path)
        a = add_mc_stage(store, 5, seed=7)
        b = add_mc_stage(store, 5, seed=7)
        assert {r["stage_id"] for r in store.runs()} == {a, b}


class TestIntegrity:
    def test_fresh_resume_all_zeros(self, tmp_path):
        campaign = make_campaign(tmp_path)
        summary = campaign.resume()
        assert summary["retry"] == 0
        assert summary["collated"] == 0

    def test_resume_partition(self, tmp_path):
        campaign = make_campaign(tmp_path)
        store = campaign.store
        add_mc_stage(store, 12)
        for rid in range(1, 13):
            submit(campaign, rid)
        for rid in range(1, 11):
            store.set_status(rid, "COMPLETED")
            store.insert_qoi(rid, None, {"y": [1.0]})
        for rid in (11, 12):
            store.set_status(rid, "FAILED")
        summary = campaign.resume()
        assert summary["collated"] == 10
        assert summary["retry"] == 2
        assert len(store.runs(status="ENCODED")) == 2
        assert all(r["attempts"] == 1 for r in store.runs(status="ENCODED"))

    def test_resume_recovers_submitted_runs_by_their_output(self, tmp_path):
        campaign = make_campaign(tmp_path)
        store = campaign.store
        add_mc_stage(store, 4)
        outputs = {1: [1.0], 2: [2.0], 3: [3.0, 4.0]}   # run 4 wrote none
        for rid in range(1, 5):
            submit(campaign, rid, outputs.get(rid))

        summary = campaign.resume()
        assert (summary["recovered"], summary["retry"]) == (3, 1)
        rows = {r["run_id"]: r for r in store.runs()}
        assert [rows[rid]["status"] for rid in range(1, 5)] == [
            "COLLATED", "COLLATED", "COMPLETED", "ENCODED"]   # run3 does not fit the frame
        assert rows[4]["attempts"] == 1
        assert store.load_frame("y")[1] == [(1, [1.0]), (2, [2.0])]

    def test_open_missing(self, tmp_path):
        with pytest.raises(StoreMissing):
            CampaignStore.open(tmp_path)

    def test_garbage_file(self, tmp_path):
        (tmp_path / "campaign.db").write_bytes(b"not a database at all")
        with pytest.raises(StoreCorrupt):
            CampaignStore.open(tmp_path)

    def test_qoi_for_non_collated_detected(self, tmp_path):
        store = make_store(tmp_path)
        add_mc_stage(store, 1)
        # bypass the API to corrupt the frame invariant
        store._conn.execute(
            "INSERT INTO qoi_values (run_id, qoi, values_json) VALUES (1, 'y', '[1]')"
        )
        store._conn.commit()
        path = store.path
        store.close()
        with pytest.raises(StoreCorrupt):
            CampaignStore.open(path)

    def test_length_mismatch_names_both(self, tmp_path):
        from uqpilot.errors import DecodeError

        store = make_store(tmp_path)
        add_mc_stage(store, 2)
        for rid in (1, 2):
            for status in ("ENCODED", "SUBMITTED", "COMPLETED"):
                store.set_status(rid, status)
        store.insert_qoi(1, [0.0, 1.0], {"y": [1.0, 2.0]})
        with pytest.raises(DecodeError, match="3.*2|2.*3"):
            store.insert_qoi(2, [0.0, 1.0, 2.0], {"y": [1.0, 2.0, 3.0]})
        assert store.run(2)["status"] == "COMPLETED"


CRASH_SCRIPT = textwrap.dedent(
    """
    import os, sys
    from uqpilot.campaign.store import CampaignStore

    store = CampaignStore.open(sys.argv[1])
    conn = store._conn
    conn.execute("BEGIN")
    conn.execute(
        "INSERT INTO stages (sampler_json, n_runs, created_at) VALUES ('{}', 1, 'x')"
    )
    stage = conn.execute("SELECT MAX(stage_id) FROM stages").fetchone()[0]
    conn.execute(
        "INSERT INTO runs (run_id, stage_id, params_json, status, attempts)"
        " VALUES (999, ?, '{}', 'NEW', 0)", (stage,)
    )
    if sys.argv[2] == "commit":
        conn.commit()
    os._exit(1)   # simulated crash: no rollback, no close
    """
)


class TestCrashInjection:
    def _crash(self, store_dir, mode: str):
        proc = subprocess.run(
            [sys.executable, "-c", CRASH_SCRIPT, str(store_dir), mode],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1, proc.stderr

    def test_uncommitted_transaction_fully_absent(self, tmp_path):
        store = make_store(tmp_path)
        add_mc_stage(store, 3)
        stages_before = len(store.stages())
        runs_before = len(store.runs())
        store.close()
        self._crash(tmp_path / "camp", "rollback")
        reopened = CampaignStore.open(tmp_path / "camp")
        assert len(reopened.stages()) == stages_before
        assert len(reopened.runs()) == runs_before

    def test_committed_transaction_fully_present(self, tmp_path):
        store = make_store(tmp_path)
        add_mc_stage(store, 3)
        store.close()
        self._crash(tmp_path / "camp", "commit")
        reopened = CampaignStore.open(tmp_path / "camp")
        assert len(reopened.stages()) == 2
        assert len(reopened.runs()) == 4
        assert reopened.run(999)["status"] == "NEW"


class TestReadback:
    def test_parameters_and_app_round_trip(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            [uniform_param("a", 0, 1), uniform_param("b", -2, 2)],
            "a=$a b=$b\n",
            ["echo", "hi"],
        )
        config = load_config(cfg_path)
        store = CampaignStore.create(tmp_path / "camp", config)
        params = store.parameters()
        assert [p.name for p in params] == ["a", "b"]
        assert params[1].distribution.args == (-2.0, 2.0)
        app = store.app_spec()
        assert app.command == ("echo", "hi")
        assert app.decoder.qoi_columns == ("y",)

    def test_weights_persist(self, tmp_path):
        store = make_store(tmp_path)
        store.add_stage({"variant": "sc"}, [{"a": 0.5}], [1.0])
        assert store.runs()[0]["weight"] == 1.0
