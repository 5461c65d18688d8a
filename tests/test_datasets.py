"""Tests for dataset generators, g2o I/O, and the streaming runner."""

import os

import numpy as np
import pytest

from repro.datasets import (
    cab1_dataset,
    cab2_dataset,
    manhattan_dataset,
    read_g2o,
    run_online,
    sphere_dataset,
    write_g2o,
)
from repro.factorgraph import (
    BetweenFactorSE2,
    BetweenFactorSE3,
    IsotropicNoise,
    Values,
)
from repro.geometry import SE2, SE3, SO3
from repro.solvers import ISAM2


class TestManhattan:
    def test_full_scale_counts(self):
        data = manhattan_dataset(scale=1.0)
        assert data.num_steps == 3500
        # Paper: 5453 edges; the generator must land in the same regime.
        assert 4800 <= data.num_edges <= 6200
        assert not data.is_3d

    def test_scaling(self):
        data = manhattan_dataset(scale=0.1)
        assert data.num_steps == 350

    def test_deterministic(self):
        a = manhattan_dataset(scale=0.05, seed=3)
        b = manhattan_dataset(scale=0.05, seed=3)
        assert a.num_edges == b.num_edges
        assert a.ground_truth[10].is_close(b.ground_truth[10])

    def test_has_closures(self):
        data = manhattan_dataset(scale=0.3)
        assert data.num_closures > 10

    def test_poses_on_lattice(self):
        data = manhattan_dataset(scale=0.02)
        for pose in data.ground_truth.values():
            assert abs(pose.x - round(pose.x)) < 1e-6
            assert abs(pose.y - round(pose.y)) < 1e-6

    def test_guesses_drift_from_truth(self):
        data = manhattan_dataset(scale=0.1)
        last = data.steps[-1]
        err = np.linalg.norm(
            last.guess.t - data.ground_truth[last.key].t)
        assert err > 0.01  # dead reckoning accumulates noise


class TestSphere:
    def test_full_scale_counts(self):
        data = sphere_dataset(scale=1.0)
        assert data.num_steps == 2000
        assert 3800 <= data.num_edges <= 4100  # paper: 3951
        assert data.is_3d

    def test_poses_on_sphere(self):
        data = sphere_dataset(scale=0.05, radius=25.0)
        for pose in data.ground_truth.values():
            assert np.linalg.norm(pose.t) == pytest.approx(25.0, rel=1e-6)

    def test_ring_closures_are_regular(self):
        data = sphere_dataset(scale=0.1, poses_per_ring=50)
        # Pose 60 must close against pose 10 (one ring above).
        closures = data.steps[60].closures
        assert any(f.keys == (10, 60) for f in closures)

    def test_dense_after_first_ring(self):
        data = sphere_dataset(scale=0.1, poses_per_ring=50)
        late = [s for s in data.steps[51:]]
        assert all(len(s.factors) == 2 for s in late)


class TestCab:
    def test_cab1_counts(self):
        data = cab1_dataset(scale=1.0)
        assert data.num_steps == 464
        # Paper: 2287 edges.
        assert 1800 <= data.num_edges <= 2800
        assert data.is_3d

    def test_cab2_counts(self):
        data = cab2_dataset(scale=1.0)
        assert data.num_steps == 3000
        # Paper: 15144 edges.
        assert 11000 <= data.num_edges <= 18000

    def test_cab2_has_cross_session_closures(self):
        data = cab2_dataset(scale=0.5)
        session_len = data.num_steps // 5
        cross = [
            f for step in data.steps for f in step.closures
            if f.keys[1] - f.keys[0] > session_len
        ]
        assert len(cross) > 10

    def test_poses_inside_building(self):
        data = cab1_dataset(scale=0.3)
        for pose in data.ground_truth.values():
            assert -0.5 <= pose.t[0] <= 42.5
            assert -0.5 <= pose.t[1] <= 42.5

    def test_truncated(self):
        data = cab1_dataset(scale=0.5).truncated(20)
        assert data.num_steps == 20
        assert set(data.ground_truth.keys()) == set(range(20))

    def test_describe(self):
        text = cab1_dataset(scale=0.05).describe()
        assert "CAB1" in text and "steps" in text


class TestG2O:
    def test_se2_roundtrip(self, tmp_path):
        values = Values()
        values.insert(0, SE2(0.0, 0.0, 0.0))
        values.insert(1, SE2(1.0, 2.0, 0.5))
        factors = [BetweenFactorSE2(0, 1, SE2(1.0, 2.0, 0.5),
                                    IsotropicNoise(3, 0.1))]
        path = os.path.join(tmp_path, "test.g2o")
        write_g2o(path, values, factors)
        values2, factors2 = read_g2o(path)
        assert values2.at(1).is_close(values.at(1), tol=1e-6)
        assert len(factors2) == 1
        assert factors2[0].keys == (0, 1)
        np.testing.assert_allclose(
            factors2[0].noise.covariance,
            factors[0].noise.covariance, atol=1e-6)

    def test_se3_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = Values()
        values.insert(0, SE3())
        pose = SE3(SO3.exp(rng.normal(scale=0.5, size=3)),
                   rng.normal(size=3))
        values.insert(1, pose)
        factors = [BetweenFactorSE3(0, 1, pose, IsotropicNoise(6, 0.2))]
        path = os.path.join(tmp_path, "test3d.g2o")
        write_g2o(path, values, factors)
        values2, factors2 = read_g2o(path)
        assert values2.at(1).is_close(pose, tol=1e-6)
        assert factors2[0].measured.is_close(pose, tol=1e-6)

    def test_dataset_export(self, tmp_path):
        data = manhattan_dataset(scale=0.01)
        values = Values()
        for key, pose in data.ground_truth.items():
            values.insert(key, pose)
        factors = [f for step in data.steps for f in step.factors
                   if len(f.keys) == 2]
        path = os.path.join(tmp_path, "m.g2o")
        write_g2o(path, values, factors)
        values2, factors2 = read_g2o(path)
        assert len(values2) == len(values)
        assert len(factors2) == len(factors)


class TestRunOnline:
    def test_isam2_on_small_manhattan(self):
        data = manhattan_dataset(scale=0.02)
        solver = ISAM2(relin_threshold=0.05)
        run = run_online(solver, data)
        assert len(run.reports) == data.num_steps
        assert len(run.step_rmse) == data.num_steps
        # The incremental estimate must match the batch optimum (the
        # remaining ground-truth error is odometry drift, not solver
        # error — this prefix has no loop closures).
        from repro.factorgraph import FactorGraph, Values
        from repro.solvers import GaussNewton
        graph = FactorGraph()
        initial = Values()
        for step in data.steps:
            initial.insert(step.key, step.guess)
            for factor in step.factors:
                graph.add(factor)
        batch = GaussNewton(max_iterations=30).optimize(graph, initial)
        estimate = solver.estimate()
        # One Gauss-Newton step per update with a 0.05 relinearization
        # threshold tracks the converged batch optimum closely but not
        # exactly (the standard ISAM2 approximation).
        for key in batch.values.keys():
            assert estimate.at(key).is_close(batch.values.at(key),
                                             tol=5e-3)

    def test_error_every_subsamples(self):
        data = manhattan_dataset(scale=0.02)
        run = run_online(ISAM2(), data, error_every=10)
        assert len(run.step_rmse) < data.num_steps

    def test_max_steps(self):
        data = manhattan_dataset(scale=0.05)
        run = run_online(ISAM2(), data, max_steps=20)
        assert len(run.reports) == 20

    def test_latency_collection_with_soc(self):
        from repro.hardware import make_platform
        data = manhattan_dataset(scale=0.02)
        run = run_online(ISAM2(), data, soc=make_platform("SuperNoVA2S"),
                         collect_errors=False)
        assert len(run.latencies) == data.num_steps
        assert all(lat.total > 0 for lat in run.latencies)
