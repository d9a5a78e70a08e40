import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import uniform_param, write_config
from uqpilot.errors import DomainError, EmptyInput, ScorerError
from uqpilot.vvp.distances import (
    _bin_samples,
    as_masses,
    hellinger,
    jensen_shannon_dist,
    wasserstein1,
)
from uqpilot.vvp.patterns import ensemble_validate, mare, metric_distance, validate_similarity


def masses(weights, n=None):
    """`weights` padded with zeros to length `n`, normalised to sum to one."""
    m = np.array([*weights, *([0.0] * ((n or len(weights)) - len(weights)))])
    return m / m.sum()


masses_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=8
).filter(lambda m: sum(m) > 1e-9)


class TestHellinger:
    def test_identity(self):
        p = masses([0.25, 0.25, 0.5])
        assert hellinger(p, p) == 0.0

    def test_disjoint_supports(self):
        assert hellinger(masses([1.0, 0.0]), masses([0.0, 1.0])) == pytest.approx(
            1.0, abs=1e-12)

    def test_hand_arithmetic(self):
        # (1/sqrt 2) * sqrt((sqrt .5 - sqrt .9)^2 + (sqrt .5 - sqrt .1)^2)
        expected = math.sqrt(
            ((math.sqrt(0.5) - math.sqrt(0.9)) ** 2
             + (math.sqrt(0.5) - math.sqrt(0.1)) ** 2) / 2
        )
        assert expected == pytest.approx(0.32492, abs=1e-5)
        assert hellinger(masses([0.5, 0.5]), masses([0.9, 0.1])) == pytest.approx(
            expected, abs=1e-12
        )

    def test_samples_on_shared_bins(self):
        # pooled {0, 0, 1, 3}: IQR 1.5, FD width 1.5 * 4**(-1/3) -> 2 bins [0, 1.5, 3]
        pm, qm = as_masses([0.0, 1.0], [0.0, 3.0])
        assert list(pm) == [1.0, 0.0] and list(qm) == [0.5, 0.5]
        assert metric_distance("hellinger", [0.0, 1.0], [0.0, 3.0]) == hellinger(
            masses([1.0, 0.0]), masses([0.5, 0.5]))


class TestJensenShannon:
    def test_identity(self):
        p = masses([0.2, 0.8])
        assert jensen_shannon_dist(p, p) == 0.0

    def test_disjoint_is_one_base2(self):
        assert jensen_shannon_dist(masses([1.0, 0.0]), masses([0.0, 1.0])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_hand_evaluation(self):
        # p=[1,0], q=[.5,.5]: JS = 3/2 - (3/4) log2 3, distance is its sqrt
        expected = math.sqrt(1.5 - 0.75 * math.log2(3.0))
        assert expected == pytest.approx(0.5579, abs=1e-4)
        assert jensen_shannon_dist(masses([1.0, 0.0]), masses([0.5, 0.5])) == pytest.approx(
            expected, abs=1e-12
        )


class TestMetricAxioms:
    @given(masses_strategy, masses_strategy)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_bounds(self, m1, m2):
        n = max(len(m1), len(m2))
        p, q = masses(m1, n), masses(m2, n)
        for metric in (hellinger, jensen_shannon_dist):
            d_pq = metric(p, q)
            d_qp = metric(q, p)
            assert abs(d_pq - d_qp) < 1e-12
            assert 0.0 <= d_pq <= 1.0
            assert metric(p, p) == pytest.approx(0.0, abs=1e-12)

    @given(masses_strategy, masses_strategy, masses_strategy)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, m1, m2, m3):
        n = max(len(m1), len(m2), len(m3))
        p, q, r = (masses(m, n) for m in (m1, m2, m3))
        for metric in (hellinger, jensen_shannon_dist):
            assert metric(p, r) <= metric(p, q) + metric(q, r) + 1e-10

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=17),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_arrays_symmetry_and_bounds(self, x, y):
        for metric in ("hellinger", "jsd"):
            d_xy = metric_distance(metric, x, y)
            assert d_xy == pytest.approx(metric_distance(metric, y, x), abs=1e-12)
            assert 0.0 <= d_xy <= 1.0
            assert metric_distance(metric, x, x) == pytest.approx(0.0, abs=1e-12)


class TestWasserstein:
    def test_identity(self):
        assert wasserstein1([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_point_masses(self):
        assert wasserstein1([0.0] * 5, [1.0] * 5) == pytest.approx(1.0)

    def test_sorted_pairing(self):
        assert wasserstein1([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            wasserstein1([], [1.0])

    def quadratic_oracle(self, x, y):
        # independent CDF-integral oracle, O(n^2): step through pooled
        # breakpoints counting how much of each sample lies below
        points = sorted(set(list(x) + list(y)))
        total = 0.0
        for a, b in zip(points, points[1:]):
            fx = sum(1 for v in x if v <= a) / len(x)
            fy = sum(1 for v in y if v <= a) / len(y)
            total += abs(fx - fy) * (b - a)
        return total

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=17),
    )
    @settings(max_examples=100, deadline=None)
    def test_unequal_sizes_match_oracle(self, x, y):
        assert wasserstein1(x, y) == pytest.approx(
            self.quadratic_oracle(x, y), abs=1e-9
        )

    def test_bounded_by_support_diameter(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        x = rng.uniform(0, 4, 100)
        y = rng.uniform(1, 9, 77)
        assert wasserstein1(x, y) <= 9.0


class TestSimilarityPattern:
    def collated_store(self, tmp_path, vectors):
        from uqpilot.campaign.config import load_config
        from uqpilot.campaign.store import CampaignStore

        cfg = write_config(tmp_path, [uniform_param("a", 0, 1)], "a=$a\n", ["true"])
        store = CampaignStore.create(tmp_path / "camp", load_config(cfg))
        sets = [{"a": 0.5} for _ in vectors]
        store.add_stage({"variant": "mc", "n": len(vectors), "seed": 0}, sets, None)
        for rid, vec in enumerate(vectors, start=1):
            store.set_status(rid, "ENCODED", run_dir=str(tmp_path))
            store.set_status(rid, "SUBMITTED")
            store.set_status(rid, "COMPLETED")
            store.insert_qoi(rid, list(range(1, len(vec) + 1)), {"y": list(vec)})
        return store

    def test_constant_ensemble_vs_point_mass(self, tmp_path):
        store = self.collated_store(tmp_path, [[4.0], [4.0], [4.0]])
        result = validate_similarity(store, "y", [4.0, 4.0], "hellinger")
        assert result.distance == pytest.approx(0.0, abs=1e-12)

    def test_time_index_and_flat(self, tmp_path):
        store = self.collated_store(tmp_path, [[1.0, 5.0], [2.0, 6.0]])
        assert validate_similarity(store, "y", [1.0, 2.0], "wasserstein1", at="0").distance == 0
        assert validate_similarity(store, "y", [1.0, 2.0, 5.0, 6.0], "wasserstein1",
                                   at="flat").distance == 0

    def test_gaussian_ensemble_against_analytic_histogram(self):
        rng = np.random.Generator(np.random.Philox(key=77))
        samples = rng.standard_normal(10_000)
        edges = np.linspace(-5, 5, 41)
        cdf = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
        analytic = np.array([cdf(b) - cdf(a) for a, b in zip(edges, edges[1:])])
        assert hellinger(_bin_samples(samples, edges), analytic / analytic.sum()) <= 0.05


class TestEnsemblePattern:
    def store_with_scores(self, tmp_path, vectors):
        return TestSimilarityPattern().collated_store(tmp_path, vectors)

    def test_perfect_match_zero_for_every_aggregator(self, tmp_path):
        store = self.store_with_scores(tmp_path, [[1.0, 2.0]] * 3)
        reference = np.array([1.0, 2.0])
        for agg in ("mean", "max"):
            score = ensemble_validate(store, "mare", aggregator=agg, qoi="y",
                                      reference=reference)
            assert score.aggregate == 0.0

    def test_mean_and_max(self, tmp_path):
        store = self.store_with_scores(tmp_path, [[1.0], [2.0], [3.0]])
        reference = np.array([0.0])   # zero reference: absolute-error fallback
        mean_score = ensemble_validate(store, "mare", qoi="y", reference=reference)
        assert mean_score.aggregate == pytest.approx(2.0)
        max_score = ensemble_validate(store, "mare", aggregator="max", qoi="y",
                                      reference=reference)
        assert max_score.aggregate == pytest.approx(3.0)

    def test_aggregate_within_score_range(self, tmp_path):
        store = self.store_with_scores(tmp_path, [[2.0], [5.0], [11.0]])
        reference = np.array([1.0])
        for agg in ("mean", "max"):
            score = ensemble_validate(store, "mare", aggregator=agg, qoi="y",
                                      reference=reference)
            values = list(score.per_run.values())
            assert min(values) <= score.aggregate <= max(values)

    def test_frame_loaded_once_per_validation(self, tmp_path, monkeypatch):
        store = self.store_with_scores(tmp_path, [[1.0], [2.0], [4.0], [8.0]])
        load_frame = store.load_frame
        calls = []

        def counted_load_frame(*args, **kwargs):
            calls.append(args)
            return load_frame(*args, **kwargs)

        monkeypatch.setattr(store, "load_frame", counted_load_frame)
        score = ensemble_validate(store, "mare", qoi="y", reference=np.array([2.0]))
        assert calls == [("y",)]
        assert score.per_run == {1: 0.5, 2: 0.0, 3: 1.0, 4: 3.0}

    def test_scores_recorded_in_store(self, tmp_path):
        store = self.store_with_scores(tmp_path, [[1.0], [2.0]])
        ensemble_validate(store, "mare", qoi="y", reference=np.array([1.0]))
        rows = store._conn.execute("SELECT run_id, score FROM run_scores").fetchall()
        assert len(rows) == 2

    def test_scores_recorded_in_one_transaction(self, tmp_path, monkeypatch):
        store = self.store_with_scores(tmp_path, [[1.0], [2.0], [4.0], [8.0]])
        txn = type(store)._txn
        calls = []

        def counted_txn(self):
            calls.append(1)
            return txn(self)

        monkeypatch.setattr(type(store), "_txn", counted_txn)
        ensemble_validate(store, "mare", qoi="y", reference=np.array([2.0]))
        assert len(calls) == 1

    def test_a_failing_scorer_records_no_score(self, tmp_path):
        store = self.store_with_scores(tmp_path, [[1.0], [2.0], [4.0]])
        marker = tmp_path / "scored"
        scorer = [sys.executable, "-c",
                  f"import os, sys\nif os.path.exists({str(marker)!r}): sys.exit(3)\n"
                  f"open({str(marker)!r}, 'w').close(); print(0.5)"]
        with pytest.raises(ScorerError, match="run 2"):
            ensemble_validate(store, scorer)
        assert store._conn.execute("SELECT COUNT(*) FROM run_scores").fetchone()[0] == 0

    def test_external_scorer(self, tmp_path):
        store = self.store_with_scores(tmp_path, [[1.0], [2.0]])
        scorer = [sys.executable, "-c", "import sys; print(0.25)"]
        score = ensemble_validate(store, scorer)
        assert score.aggregate == pytest.approx(0.25)

    def test_external_scorer_failure_names_run(self, tmp_path):
        store = self.store_with_scores(tmp_path, [[1.0]])
        scorer = [sys.executable, "-c", "import sys; sys.exit(3)"]
        with pytest.raises(ScorerError, match="run 1"):
            ensemble_validate(store, scorer)

    def test_external_scorer_bad_output(self, tmp_path):
        store = self.store_with_scores(tmp_path, [[1.0]])
        scorer = [sys.executable, "-c", "print('not a number')"]
        with pytest.raises(ScorerError):
            ensemble_validate(store, scorer)

    def test_unknown_aggregator(self, tmp_path):
        store = self.store_with_scores(tmp_path, [[1.0]])
        with pytest.raises(DomainError):
            ensemble_validate(store, "mare", aggregator="median", qoi="y",
                              reference=np.array([1.0]))


class TestMare:
    def test_relative(self):
        assert mare([2.0, 4.0], [1.0, 2.0]) == pytest.approx((1.0 + 1.0) / 2)

    def test_length_mismatch(self):
        with pytest.raises(ScorerError):
            mare([1.0], [1.0, 2.0])
