"""Sparse supernodal linear algebra for the SLAM backend.

Implements paper Section 3.2/3.3 from scratch:

* block-level symbolic Cholesky factorization and elimination tree,
* supernode amalgamation,
* multifrontal numeric factorization (POTRF / TRSM / SYRK per frontal
  matrix, extend-add merge into the parent),
* forward/backward triangular solves over the tree,
* an operation trace of every numeric and memory operation, which the
  hardware simulator replays cycle-accurately,
* a plan/execute split (:mod:`repro.linalg.plan`): per-supernode
  symbolic steps compiled once into cached ``NodePlan`` objects and run
  by a shared vectorized ``StepExecutor``.
"""

from repro.linalg.ordering import (
    OrderingPolicy,
    amd_order,
    amd_order_positions,
    chronological_order,
    constrained_colamd_order,
    dense_minimum_degree_order,
    make_ordering_policy,
    minimum_degree_order,
    nested_dissection_order,
    ordering_names,
)
from repro.linalg.symbolic import SymbolicFactorization, Supernode
from repro.linalg.cholesky import MultifrontalCholesky
from repro.linalg.marginals import marginal_covariance, marginal_covariances
from repro.linalg.parallel import (
    LevelStats,
    ParallelStepExecutor,
    default_workers,
    levels_from_parents,
    resolve_workers,
)
from repro.linalg.plan import (
    NodePlan,
    PlanCache,
    Signature,
    StepExecutor,
    compile_node_plan,
    fold_hash,
    node_signature,
    plans_equal,
    tree_solve,
)
from repro.linalg.trace import Op, OpKind, OpTrace, NodeTrace

__all__ = [
    "OrderingPolicy",
    "amd_order",
    "amd_order_positions",
    "chronological_order",
    "constrained_colamd_order",
    "dense_minimum_degree_order",
    "make_ordering_policy",
    "minimum_degree_order",
    "nested_dissection_order",
    "ordering_names",
    "marginal_covariance",
    "marginal_covariances",
    "SymbolicFactorization",
    "Supernode",
    "MultifrontalCholesky",
    "LevelStats",
    "ParallelStepExecutor",
    "default_workers",
    "levels_from_parents",
    "resolve_workers",
    "NodePlan",
    "PlanCache",
    "Signature",
    "StepExecutor",
    "compile_node_plan",
    "fold_hash",
    "node_signature",
    "plans_equal",
    "tree_solve",
    "Op",
    "OpKind",
    "OpTrace",
    "NodeTrace",
]
