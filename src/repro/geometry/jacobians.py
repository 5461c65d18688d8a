"""Lie-group Jacobians used to linearize factors analytically.

Conventions follow Barfoot, *State Estimation for Robotics*: SE(3) tangent
vectors are ordered ``[rho, omega]`` and the right Jacobian satisfies
``exp(xi + dxi) ~= exp(xi) * exp(Jr(xi) @ dxi)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.batch_ops import row_norm
from repro.geometry.so3 import batch_skew, skew


def so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(omega))
    hat = skew(omega)
    if angle < 1e-8:
        return np.eye(3) + 0.5 * hat + hat @ hat / 6.0
    a2 = angle * angle
    return (np.eye(3)
            + (1.0 - math.cos(angle)) / a2 * hat
            + (angle - math.sin(angle)) / (a2 * angle) * hat @ hat)


def so3_left_jacobian_inverse(omega: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(omega))
    hat = skew(omega)
    if angle < 1e-8:
        return np.eye(3) - 0.5 * hat + hat @ hat / 12.0
    half = angle / 2.0
    cot_term = (1.0 - half * math.cos(half) / math.sin(half)) / (angle * angle)
    return np.eye(3) - 0.5 * hat + cot_term * hat @ hat


def _se3_q_matrix(rho: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Barfoot's Q(xi) block coupling translation and rotation in Jl."""
    rho_hat = skew(rho)
    om_hat = skew(omega)
    angle = float(np.linalg.norm(omega))
    if angle < 1e-6:
        # Leading Taylor terms; enough for the tolerance of our tests.
        c1 = 1.0 / 6.0 - angle ** 2 / 120.0
        c2 = 1.0 / 24.0 - angle ** 2 / 720.0
        c3 = 1.0 / 120.0 - angle ** 2 / 2520.0
    else:
        a2 = angle * angle
        a3 = a2 * angle
        a4 = a3 * angle
        a5 = a4 * angle
        sin_a, cos_a = math.sin(angle), math.cos(angle)
        c1 = (angle - sin_a) / a3
        c2 = (1.0 - a2 / 2.0 - cos_a) / a4
        c3 = 0.5 * (c2 - 3.0 * (angle - sin_a - a3 / 6.0) / a5)
    term1 = 0.5 * rho_hat
    term2 = c1 * (om_hat @ rho_hat + rho_hat @ om_hat
                  + om_hat @ rho_hat @ om_hat)
    term3 = -c2 * (om_hat @ om_hat @ rho_hat + rho_hat @ om_hat @ om_hat
                   - 3.0 * om_hat @ rho_hat @ om_hat)
    term4 = -c3 * (om_hat @ rho_hat @ om_hat @ om_hat
                   + om_hat @ om_hat @ rho_hat @ om_hat)
    return term1 + term2 + term3 + term4


def se3_left_jacobian(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    rho, omega = xi[:3], xi[3:]
    jac_so3 = so3_left_jacobian(omega)
    out = np.zeros((6, 6))
    out[:3, :3] = jac_so3
    out[3:, 3:] = jac_so3
    out[:3, 3:] = _se3_q_matrix(rho, omega)
    return out


def se3_left_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    rho, omega = xi[:3], xi[3:]
    jac_inv = so3_left_jacobian_inverse(omega)
    q_mat = _se3_q_matrix(rho, omega)
    out = np.zeros((6, 6))
    out[:3, :3] = jac_inv
    out[3:, 3:] = jac_inv
    out[:3, 3:] = -jac_inv @ q_mat @ jac_inv
    return out


def se3_right_jacobian(xi: np.ndarray) -> np.ndarray:
    return se3_left_jacobian(-np.asarray(xi, dtype=float))


def se3_right_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    return se3_left_jacobian_inverse(-np.asarray(xi, dtype=float))


# ----------------------------------------------------------------------
# Batched kernels over ``(N, …)`` stacks.  Each mirrors the scalar
# function above operation for operation (same formulas, same
# evaluation order and operator associativity, matmul contractions), so
# results are bit-identical per element.
# ----------------------------------------------------------------------


def batch_so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    """Vectorized :func:`so3_left_jacobian`; returns ``(N, 3, 3)``."""
    omega = np.asarray(omega, dtype=float).reshape(-1, 3)
    angle = row_norm(omega)
    hat = batch_skew(omega)
    out = np.empty((omega.shape[0], 3, 3))
    small = angle < 1e-8
    if np.any(small):
        h = hat[small]
        out[small] = np.eye(3) + 0.5 * h + np.matmul(h, h) / 6.0
    big = ~small
    if np.any(big):
        a = angle[big]
        a2 = a * a
        h = hat[big]
        c1 = ((1.0 - np.cos(a)) / a2)[:, None, None]
        c2 = ((a - np.sin(a)) / (a2 * a))[:, None, None]
        # Scalar ``c2 * hat @ hat`` associates as ``(c2*hat) @ hat``.
        out[big] = np.eye(3) + c1 * h + np.matmul(c2 * h, h)
    return out


def batch_so3_left_jacobian_inverse(omega: np.ndarray) -> np.ndarray:
    """Vectorized :func:`so3_left_jacobian_inverse`."""
    omega = np.asarray(omega, dtype=float).reshape(-1, 3)
    angle = row_norm(omega)
    hat = batch_skew(omega)
    out = np.empty((omega.shape[0], 3, 3))
    small = angle < 1e-8
    if np.any(small):
        h = hat[small]
        out[small] = np.eye(3) - 0.5 * h + np.matmul(h, h) / 12.0
    big = ~small
    if np.any(big):
        a = angle[big]
        half = a / 2.0
        cot_term = (1.0 - half * np.cos(half) / np.sin(half)) / (a * a)
        h = hat[big]
        # Scalar ``cot_term * hat @ hat`` associates as ``(c*hat) @ hat``.
        out[big] = (np.eye(3) - 0.5 * h
                    + np.matmul(cot_term[:, None, None] * h, h))
    return out


def batch_se3_q_matrix(rho: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_se3_q_matrix`; returns ``(N, 3, 3)``."""
    rho = np.asarray(rho, dtype=float).reshape(-1, 3)
    omega = np.asarray(omega, dtype=float).reshape(-1, 3)
    rho_hat = batch_skew(rho)
    om_hat = batch_skew(omega)
    angle = row_norm(omega)
    n = omega.shape[0]
    c1 = np.empty(n)
    c2 = np.empty(n)
    c3 = np.empty(n)
    small = angle < 1e-6
    if np.any(small):
        # Python's float ``** 2`` (libm pow) is not bit-equal to ``a*a``
        # for every input, so evaluate it per element.
        a2 = np.array([float(v) ** 2 for v in angle[small]])
        c1[small] = 1.0 / 6.0 - a2 / 120.0
        c2[small] = 1.0 / 24.0 - a2 / 720.0
        c3[small] = 1.0 / 120.0 - a2 / 2520.0
    big = ~small
    if np.any(big):
        a = angle[big]
        a2 = a * a
        a3 = a2 * a
        a4 = a3 * a
        a5 = a4 * a
        sin_a, cos_a = np.sin(a), np.cos(a)
        c1[big] = (a - sin_a) / a3
        c2[big] = (1.0 - a2 / 2.0 - cos_a) / a4
        c3[big] = 0.5 * (c2[big] - 3.0 * (a - sin_a - a3 / 6.0) / a5)
    # Chained ``a @ b @ c`` in the scalar code associates left; mirror
    # that exactly so the products keep identical bits.
    or_ = np.matmul(om_hat, rho_hat)
    ro = np.matmul(rho_hat, om_hat)
    oo = np.matmul(om_hat, om_hat)
    oro = np.matmul(or_, om_hat)
    term1 = 0.5 * rho_hat
    term2 = c1[:, None, None] * (or_ + ro + oro)
    term3 = -c2[:, None, None] * (np.matmul(oo, rho_hat)
                                  + np.matmul(ro, om_hat)
                                  - np.matmul(np.matmul(3.0 * om_hat,
                                                        rho_hat), om_hat))
    term4 = -c3[:, None, None] * (np.matmul(oro, om_hat)
                                  + np.matmul(np.matmul(oo, rho_hat),
                                              om_hat))
    return term1 + term2 + term3 + term4


def batch_se3_left_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    """Vectorized :func:`se3_left_jacobian_inverse`; returns ``(N, 6, 6)``."""
    xi = np.asarray(xi, dtype=float).reshape(-1, 6)
    rho, omega = xi[:, :3], xi[:, 3:]
    jac_inv = batch_so3_left_jacobian_inverse(omega)
    q_mat = batch_se3_q_matrix(rho, omega)
    out = np.zeros((xi.shape[0], 6, 6))
    out[:, :3, :3] = jac_inv
    out[:, 3:, 3:] = jac_inv
    out[:, :3, 3:] = np.matmul(np.matmul(-jac_inv, q_mat), jac_inv)
    return out


def batch_se3_right_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    """Vectorized :func:`se3_right_jacobian_inverse`."""
    return batch_se3_left_jacobian_inverse(-np.asarray(xi, dtype=float))
