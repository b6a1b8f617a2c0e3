"""Local and global bundle adjustment.

The paper's FPGA accelerates "the local and global bundle adjustments of
ORB SLAM (~90% of execution time on RPi) by using simple modules of dense
fixed-size matrix algebra in a pipeline".  We implement BA by
resection-intersection alternation, which decomposes exactly into those
dense fixed-size blocks:

* *resection*: per-keyframe 4x4 normal-equation solves (motion only),
* *intersection*: per-landmark 3x3 normal-equation solves (structure only).

Each outer iteration alternates the two; operation counts are recorded per
block so platform models can price the stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.slam import kernels
from repro.slam.dataset import CameraModel
from repro.slam.map import Keyframe, MapPoint, SlamMap
from repro.slam.tracking import TrackingLostError, track_pose

LOCAL_BA_WINDOW = 5

#: Levenberg-Marquardt iteration counts of the canonical (g2o-style) solver
#: whose cost the platform models price.  ORB-SLAM uses 5+10 LM iterations
#: for local BA and ~20 for full/global BA.
CANONICAL_LOCAL_BA_ITERATIONS = 15
CANONICAL_GLOBAL_BA_ITERATIONS = 20


def canonical_ba_operations(
    keyframes: int, points: int, residuals: int, iterations: int
) -> int:
    """Operation count of a canonical Schur-complement LM bundle adjustment.

    Our executed solver is resection-intersection alternation (cheap,
    block-diagonal); the system the paper measures (ORB-SLAM on g2o) solves
    the full sparse normal equations via the Schur complement.  The FPGA of
    Section 5.2 pipelines exactly that dense block algebra, so speedups must
    be priced against the canonical cost:

    * per residual, per iteration: 2x6 pose and 2x3 point Jacobians, the
      H_pp/H_ll/W block accumulations and robust kernel (~420 flops);
    * Schur complement: ~(avg covisible pairs per point) 6x6 block products
      per point (~650 flops each, ~8 pairs);
    * reduced camera solve: (6K)^3 / 3 flops.
    """
    if keyframes < 0 or points < 0 or residuals < 0 or iterations <= 0:
        raise ValueError("BA dimensions must be non-negative, iterations positive")
    per_iteration = (
        residuals * 420
        + points * 8 * 650
        + (6 * keyframes) ** 3 // 3
    )
    return per_iteration * iterations


@dataclass(frozen=True)
class BaResult:
    """Bundle-adjustment outcome and cost accounting.

    ``operations`` counts the arithmetic our alternation solver actually
    executed; ``modeled_operations`` prices the canonical Schur-complement
    solver on the same problem — the figure platform models consume.
    """

    initial_rms_px: float
    final_rms_px: float
    iterations: int
    keyframes: int
    points: int
    residuals: int
    operations: int
    modeled_operations: int = 0

    @property
    def improved(self) -> bool:
        return self.final_rms_px <= self.initial_rms_px + 1e-9


def _pair_arrays(keyframes: List[Keyframe], points: Dict[int, MapPoint]):
    """Stack (keyframe, observation) pairs, keyframe-major.

    Keyframe-major, observation-dict-minor — the order the per-keyframe
    resection gather walks.  Returns (landmarks, pixels, positions,
    cos_yaw, sin_yaw) arrays.  Pairs whose point id is absent from
    ``points`` are skipped.
    """
    landmarks = []
    pixels = []
    positions = []
    cos_yaw = []
    sin_yaw = []
    for keyframe in keyframes:
        c = math.cos(keyframe.yaw_rad)
        s = math.sin(keyframe.yaw_rad)
        for point_id, pixel in keyframe.observations.items():
            point = points.get(point_id)
            if point is None:
                continue
            landmarks.append(point.position_m)
            pixels.append(pixel)
            positions.append(keyframe.position_m)
            cos_yaw.append(c)
            sin_yaw.append(s)
    count = len(landmarks)
    return (
        np.asarray(landmarks, dtype=float).reshape(count, 3),
        np.asarray(pixels, dtype=float).reshape(count, 2),
        np.asarray(positions, dtype=float).reshape(count, 3),
        np.asarray(cos_yaw, dtype=float),
        np.asarray(sin_yaw, dtype=float),
    )


def _collect_residuals(
    keyframes: List[Keyframe],
    points: Dict[int, MapPoint],
    camera: CameraModel,
) -> float:
    """RMS reprojection error over every pair in front of its camera."""
    landmarks, pixels, positions, cos_yaw, sin_yaw = _pair_arrays(
        keyframes, points
    )
    cam = kernels.camera_points_posed(landmarks, positions, cos_yaw, sin_yaw)
    valid = cam[:, 2] > kernels.MIN_CAMERA_Z
    idx = np.nonzero(valid)[0]
    if idx.size == 0:
        raise ValueError("no valid residuals in the BA problem")
    u, v = kernels.project_points(cam[idx], camera)
    du = u - pixels[idx, 0]
    dv = v - pixels[idx, 1]
    total_sq = float(np.add.reduce(du * du + dv * dv))
    return math.sqrt(total_sq / idx.size)


def _refine_landmarks_batch(
    point_list: List[MapPoint],
    keyframes: List[Keyframe],
    camera: CameraModel,
) -> int:
    """One batched intersection pass over every landmark; returns ops.

    Pairs are stacked (point-major, keyframe-minor) and the per-point 3x3
    normal equations are built with ``np.add.at`` and solved as one batched
    ``np.linalg.solve``.  Landmark updates are mutually independent (poses
    are fixed during intersection), so updating all points from the
    pass-start positions equals a sequential per-point sweep.  Landmarks
    seen from fewer than two keyframes are left alone; a step is capped at
    0.5 m.
    """
    kf_cos = [math.cos(k.yaw_rad) for k in keyframes]
    kf_sin = [math.sin(k.yaw_rad) for k in keyframes]
    landmarks = []
    pixels = []
    positions = []
    cos_yaw = []
    sin_yaw = []
    rows = []
    for point_row, point in enumerate(point_list):
        for kf_index, keyframe in enumerate(keyframes):
            pixel = keyframe.observations.get(point.point_id)
            if pixel is None:
                continue
            landmarks.append(point.position_m)
            pixels.append(pixel)
            positions.append(keyframe.position_m)
            cos_yaw.append(kf_cos[kf_index])
            sin_yaw.append(kf_sin[kf_index])
            rows.append(point_row)
    pair_count = len(landmarks)
    if pair_count == 0:
        return 0
    idx, residuals, jacobians = kernels.landmark_blocks(
        np.asarray(landmarks, dtype=float).reshape(pair_count, 3),
        np.asarray(positions, dtype=float).reshape(pair_count, 3),
        np.asarray(cos_yaw, dtype=float),
        np.asarray(sin_yaw, dtype=float),
        np.asarray(pixels, dtype=float).reshape(pair_count, 2),
        camera,
    )
    point_count = len(point_list)
    rows_valid = np.asarray(rows, dtype=np.int64)[idx]
    block_jtj = np.einsum("mia,mib->mab", jacobians, jacobians)
    block_jtr = np.einsum("mia,mi->ma", jacobians, residuals)
    normals = np.zeros((point_count, 3, 3))
    rhs = np.zeros((point_count, 3))
    # np.add.at accumulates in pair order: per point, keyframe-minor — a
    # per-point loop's order; sums still round differently (allclose
    # contract).
    np.add.at(normals, rows_valid, block_jtj)
    np.add.at(rhs, rows_valid, -block_jtr)
    used = np.bincount(rows_valid, minlength=point_count)
    refine = used >= 2
    refine_rows = np.nonzero(refine)[0]
    if refine_rows.size == 0:
        return 0
    systems = normals[refine_rows] + 1e-9 * np.eye(3)
    try:
        deltas = np.linalg.solve(systems, rhs[refine_rows][..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Batched solve rejects the whole stack if any one system is
        # singular; fall back to per-point solves so only the singular
        # landmarks are skipped.
        deltas = np.full((refine_rows.size, 3), np.nan)
        for slot in range(refine_rows.size):
            try:
                deltas[slot] = np.linalg.solve(systems[slot], rhs[refine_rows[slot]])
            except np.linalg.LinAlgError:
                continue
    operations = 0
    for slot, point_row in enumerate(refine_rows):
        delta = deltas[slot]
        if not np.all(np.isfinite(delta)):
            continue  # singular or corrupted solve: never write NaN
        norm = float(np.linalg.norm(delta))
        if norm > 0.5:
            delta = delta * (0.5 / norm)
        point = point_list[point_row]
        point.position_m = point.position_m + delta
        operations += int(used[point_row]) * (2 * 3 * 3 * 2 + 60) + 27
    return operations


def bundle_adjust(
    slam_map: SlamMap,
    keyframes: List[Keyframe],
    camera: CameraModel,
    iterations: int = 3,
    fix_first_pose: bool = True,
    canonical_iterations: Optional[int] = None,
) -> BaResult:
    """Resection-intersection BA over the given keyframes and their points.

    Resection refines each keyframe pose with two :func:`track_pose`
    iterations against fixed structure (the first pose stays fixed when
    ``fix_first_pose``); intersection refines every landmark at once with
    :func:`_refine_landmarks_batch`.  Residuals are stacked and reduced
    with ``einsum``/``np.add.at``, so poses, landmarks and RMS agree with
    the per-observation oracle to ``allclose`` while skip decisions, used
    counts and operation counts agree exactly (see
    :mod:`repro.slam.kernels`).  ``canonical_iterations`` sets the LM
    iteration count ``modeled_operations`` is priced at (default: local
    BA's).
    """
    if not keyframes:
        raise ValueError("bundle adjustment needs at least one keyframe")
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    points = {
        p.point_id: p for p in slam_map.points_seen_by(keyframes)
    }
    initial_rms = _collect_residuals(keyframes, points, camera)
    operations = 0
    residual_count = sum(len(k.observations) for k in keyframes)
    for _ in range(iterations):
        # Resection: refine each keyframe pose against fixed structure.
        for index, keyframe in enumerate(keyframes):
            if fix_first_pose and index == 0:
                continue
            landmarks = []
            pixels = []
            for point_id, pixel in keyframe.observations.items():
                point = points.get(point_id)
                if point is None:
                    continue
                landmarks.append(point.position_m)
                pixels.append(pixel)
            try:
                result = track_pose(
                    landmarks,
                    pixels,
                    keyframe.position_m,
                    keyframe.yaw_rad,
                    camera,
                    max_iterations=2,
                )
            except TrackingLostError:
                continue
            if not (
                np.all(np.isfinite(result.position_m))
                and math.isfinite(result.yaw_rad)
            ):
                continue  # keep the previous (finite) pose
            keyframe.set_pose_params(
                np.concatenate([result.position_m, [result.yaw_rad]])
            )
            operations += result.operations
        # Intersection: refine each landmark against fixed poses.
        operations += _refine_landmarks_batch(
            list(points.values()), keyframes, camera
        )
    final_rms = _collect_residuals(keyframes, points, camera)
    if not (math.isfinite(initial_rms) and math.isfinite(final_rms)):
        # Numerical sentinel: a NaN/Inf residual means the map is corrupted;
        # callers holding a checkpoint roll the map back.
        raise FloatingPointError("bundle adjustment produced non-finite residuals")
    return BaResult(
        initial_rms_px=initial_rms,
        final_rms_px=final_rms,
        iterations=iterations,
        keyframes=len(keyframes),
        points=len(points),
        residuals=residual_count,
        operations=operations,
        modeled_operations=canonical_ba_operations(
            len(keyframes),
            len(points),
            residual_count,
            canonical_iterations
            if canonical_iterations is not None
            else CANONICAL_LOCAL_BA_ITERATIONS,
        ),
    )


def local_bundle_adjust(
    slam_map: SlamMap,
    camera: CameraModel,
    window: int = LOCAL_BA_WINDOW,
    iterations: int = 2,
) -> BaResult:
    """Local BA over the most recent ``window`` keyframes."""
    keyframes = slam_map.recent_keyframes(window)
    return bundle_adjust(
        slam_map,
        keyframes,
        camera,
        iterations=iterations,
        canonical_iterations=CANONICAL_LOCAL_BA_ITERATIONS,
    )


def global_bundle_adjust(
    slam_map: SlamMap,
    camera: CameraModel,
    iterations: int = 3,
) -> BaResult:
    """Global BA over every keyframe (the loop-closure refinement)."""
    keyframes = [slam_map.keyframes[i] for i in sorted(slam_map.keyframes)]
    return bundle_adjust(
        slam_map,
        keyframes,
        camera,
        iterations=iterations,
        canonical_iterations=CANONICAL_GLOBAL_BA_ITERATIONS,
    )
