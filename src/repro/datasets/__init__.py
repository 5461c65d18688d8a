"""Workload generators (paper Section 5.2).

* :func:`manhattan_dataset` — M3500-style 2D grid-world pose graph:
  sparse, many small supernodes.
* :func:`sphere_dataset` — Sphere-style 3D pose graph: dense, high
  rotational noise, large supernodes.
* :func:`cab1_dataset` / :func:`cab2_dataset` — LaMAR-CAB substitutes:
  indoor AR sessions over a floorplan with covisibility-driven loop
  closures; CAB2 concatenates multiple sessions into one long trajectory.
* :mod:`repro.datasets.adversarial` — policy-layer stress workloads:
  kidnapped-robot relocalization bursts, long-term revisits with
  seasonal landmark churn, and a multi-robot rendezvous merge.

All generators are seeded and reproduce the published step/edge counts at
``scale=1.0``; pass a smaller scale for laptop-sized runs.
"""

from repro.datasets.pose_graph import PoseGraphDataset, TimeStep
from repro.datasets.adversarial import (
    kidnapped_robot_dataset,
    long_term_revisit_dataset,
    multi_robot_rendezvous_dataset,
)
from repro.datasets.manhattan import manhattan_dataset
from repro.datasets.sphere import sphere_dataset
from repro.datasets.cab import cab1_dataset, cab2_dataset
from repro.datasets.euroc_like import FrontendModel, euroc_like_dataset
from repro.datasets.g2o import read_g2o, write_g2o
from repro.datasets.streaming import run_online, OnlineRun

#: Every named generator (CLI ``--dataset``, experiment harnesses).
GENERATORS = {
    "M3500": manhattan_dataset,
    "Sphere": sphere_dataset,
    "CAB1": cab1_dataset,
    "CAB2": cab2_dataset,
    "Kidnapped": kidnapped_robot_dataset,
    "Revisit": long_term_revisit_dataset,
    "Rendezvous": multi_robot_rendezvous_dataset,
}

__all__ = [
    "PoseGraphDataset",
    "TimeStep",
    "GENERATORS",
    "kidnapped_robot_dataset",
    "long_term_revisit_dataset",
    "multi_robot_rendezvous_dataset",
    "manhattan_dataset",
    "sphere_dataset",
    "cab1_dataset",
    "cab2_dataset",
    "euroc_like_dataset",
    "FrontendModel",
    "read_g2o",
    "write_g2o",
    "run_online",
    "OnlineRun",
]
