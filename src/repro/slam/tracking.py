"""Camera tracking: motion-only pose optimization against the map.

Given 3D-2D correspondences (map points -> pixels), refine the 4-DOF pose
[x, y, z, yaw] by Gauss-Newton on the reprojection error — the 'tracking'
thread of ORB-SLAM, run on every frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.slam.dataset import CameraModel
from repro.slam.kernels import pose_blocks

HUBER_DELTA_PX = 5.0


class TrackingLostError(RuntimeError):
    """Raised when too few correspondences support a pose estimate."""


def camera_point(
    landmark_m: np.ndarray, position_m: np.ndarray, yaw_rad: float
) -> np.ndarray:
    """World landmark -> camera-frame point for a 4-DOF pose.

    Matches the dataset's projection convention: the camera looks along the
    body +x axis; camera frame is (right, down, forward).
    """
    c, s = math.cos(yaw_rad), math.sin(yaw_rad)
    delta = landmark_m - position_m
    # body = R_yaw^T * delta
    bx = c * delta[0] + s * delta[1]
    by = -s * delta[0] + c * delta[1]
    bz = delta[2]
    return np.array([-by, -bz, bx])


@dataclass(frozen=True)
class TrackingResult:
    """Refined pose plus optimization diagnostics."""

    position_m: np.ndarray
    yaw_rad: float
    inliers: int
    final_rms_px: float
    iterations: int
    operations: int


def track_pose(
    landmarks_m: List[np.ndarray],
    pixels: List[Tuple[float, float]],
    initial_position_m: np.ndarray,
    initial_yaw_rad: float,
    camera: CameraModel,
    max_iterations: int = 8,
    min_correspondences: int = 8,
) -> TrackingResult:
    """Gauss-Newton motion-only pose refinement with Huber weighting.

    Each iteration stacks every correspondence: residuals, validity (the
    camera-frame ``z > 1e-6`` test) and numeric 2x4 Jacobians come from
    :func:`repro.slam.kernels.pose_blocks`, and the normal equations are
    one ``einsum`` over the observation axis.  Points behind the camera at
    the current iterate are skipped; a perturbed projection behind the
    camera raises ``ValueError``.  Raises :class:`TrackingLostError` when
    fewer than ``min_correspondences`` are usable or the system is singular,
    and ``ValueError`` when ``max_iterations`` or ``min_correspondences`` is
    not positive.
    """
    if max_iterations <= 0:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    if min_correspondences <= 0:
        raise ValueError(
            f"min_correspondences must be positive, got {min_correspondences}"
        )
    if len(landmarks_m) != len(pixels):
        raise ValueError("landmarks and pixels must align")
    if len(landmarks_m) < min_correspondences:
        raise TrackingLostError(
            f"only {len(landmarks_m)} correspondences; "
            f"need {min_correspondences}"
        )
    landmarks = np.asarray(landmarks_m, dtype=float).reshape(len(landmarks_m), 3)
    pixel_array = np.asarray(pixels, dtype=float).reshape(len(pixels), 2)
    position = np.asarray(initial_position_m, dtype=float).copy()
    yaw = float(initial_yaw_rad)
    operations = 0
    rms = float("inf")
    iterations_run = 0
    used = 0
    for iteration in range(max_iterations):
        _, residuals, jacobians = pose_blocks(
            landmarks, pixel_array, position, yaw, camera
        )
        used = residuals.shape[0]
        if used < min_correspondences:
            raise TrackingLostError(
                f"only {used} usable correspondences at iteration {iteration}"
            )
        errors = np.sqrt(np.add.reduce(residuals * residuals, axis=1))
        weights = np.ones(used)
        # ~(e <= delta), not (e > delta): a NaN error must get a NaN
        # weight, not silently weight 1.0.
        heavy = ~(errors <= HUBER_DELTA_PX)
        weights[heavy] = HUBER_DELTA_PX / errors[heavy]
        # einsum reduces over the observation axis; its pairing differs
        # from a one-at-a-time running sum, so the normal equations agree
        # with the scalar oracle to allclose, not bitwise.
        normal = np.einsum("n,nia,nib->ab", weights, jacobians, jacobians)
        rhs = -np.einsum("n,nia,ni->a", weights, jacobians, residuals)
        total_sq = float(np.einsum("n,n->", weights, errors * errors))
        operations += used * (2 * 4 * 4 * 2 + 5 * 16)  # J^T J + J^T r + projections
        try:
            delta = np.linalg.solve(normal + 1e-9 * np.eye(4), rhs)
        except np.linalg.LinAlgError as error:
            raise TrackingLostError(f"singular normal equations: {error}")
        operations += 4**3
        position += delta[0:3]
        yaw += float(delta[3])
        rms = math.sqrt(total_sq / used)
        iterations_run = iteration + 1
        if float(np.linalg.norm(delta)) < 1e-6:
            break
    return TrackingResult(
        position_m=position,
        yaw_rad=yaw,
        inliers=used,
        final_rms_px=rms,
        iterations=iterations_run,
        operations=operations,
    )
