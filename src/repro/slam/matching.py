"""Descriptor matching with Lowe ratio test and mutual-consistency check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.slam.features import FeatureSet, hamming_distance_matrix
from repro.slam.kernels import camera_points, hamming_matrix, project_points

MAX_MATCH_DISTANCE = 64     # bits; ORB matches above this are junk
RATIO_TEST = 0.8            # Lowe ratio on best/second-best


@dataclass(frozen=True)
class Match:
    """One accepted correspondence between two feature sets."""

    index_a: int
    index_b: int
    distance: int


@dataclass(frozen=True)
class MatchResult:
    matches: List[Match]
    operations: int

    @property
    def count(self) -> int:
        return len(self.matches)


def match_features(a: FeatureSet, b: FeatureSet) -> MatchResult:
    """Brute-force Hamming matching with ratio and cross checks.

    Best/second-best selection and the cross check run over the whole
    distance matrix at once.  All decisions are on integer distances, so
    ``argmin`` picks the first minimum of each row and ``partition`` the
    same second-best a per-row loop would.
    """
    if a.count == 0 or b.count == 0:
        return MatchResult(matches=[], operations=0)
    distances, operations = hamming_distance_matrix(a.descriptors, b.descriptors)
    rows = np.arange(distances.shape[0])
    best_b = np.argmin(distances, axis=1)
    best = distances[rows, best_b].astype(np.int64)
    accept = best <= MAX_MATCH_DISTANCE
    if distances.shape[1] > 1:
        second = np.partition(distances, 1, axis=1)[:, 1].astype(np.int64)
        accept &= ~((second > 0) & (best > RATIO_TEST * second))
    # Mutual consistency: b's best must point back to a.
    col_best = np.argmin(distances, axis=0)
    accept &= col_best[best_b] == rows
    matches = [
        Match(index_a=int(i), index_b=int(best_b[i]), distance=int(best[i]))
        for i in np.nonzero(accept)[0]
    ]
    return MatchResult(matches=matches, operations=operations)


def match_against_map(
    features: FeatureSet,
    map_descriptors: np.ndarray,
    map_landmark_ids: np.ndarray,
) -> MatchResult:
    """Match a frame's features against stored map-point descriptors.

    Each feature takes its first-minimum map descriptor if that distance
    passes ``MAX_MATCH_DISTANCE``; ``index_b`` carries the landmark id.
    """
    if map_descriptors.shape[0] != map_landmark_ids.shape[0]:
        raise ValueError("map descriptors and ids must align")
    if features.count == 0 or map_descriptors.shape[0] == 0:
        return MatchResult(matches=[], operations=0)
    distances, operations = hamming_distance_matrix(
        features.descriptors, map_descriptors
    )
    best_map = np.argmin(distances, axis=1)
    rows = np.arange(distances.shape[0])
    best = distances[rows, best_map].astype(np.int64)
    accept = best <= MAX_MATCH_DISTANCE
    matches = [
        Match(
            index_a=int(i),
            index_b=int(map_landmark_ids[best_map[i]]),
            distance=int(best[i]),
        )
        for i in np.nonzero(accept)[0]
    ]
    return MatchResult(matches=matches, operations=operations)


def match_by_projection(
    features: FeatureSet,
    map_points,
    pose,
    camera,
    radius_px: float = 18.0,
) -> MatchResult:
    """Projection-guided matching — ORB-SLAM's tracking-time strategy.

    Each map point is projected with the predicted pose; only features
    within ``radius_px`` of the projection are descriptor-compared.  This is
    both the realistic algorithm and vastly cheaper than brute force against
    the whole map (the paper's RPi profile depends on this cost structure).

    ``map_points`` is an iterable of :class:`repro.slam.map.MapPoint`;
    ``pose`` is (position_m, yaw_rad).  Matches carry the *map point id* in
    ``index_b``.

    Projections, visibility tests and Hamming distances are computed for
    all map points at once; the greedy taken-set walk stays a Python loop
    over the in-view points, in map-point order, because each point's
    choice removes a keypoint from the later points' candidates.
    Operation counts charge what a per-point matcher does: 20 per
    projected point, 2 per keypoint window test and 256 per descriptor
    comparison.
    """
    if radius_px <= 0:
        raise ValueError(f"search radius must be positive, got {radius_px}")
    map_points = list(map_points)
    if features.count == 0 or not map_points:
        return MatchResult(matches=[], operations=0)
    position, yaw = pose
    positions = np.stack([point.position_m for point in map_points])
    cam = camera_points(positions, position, yaw)
    # ~(z < 0.2), not (z >= 0.2): a NaN depth falls through to the
    # projection (and its +20 ops) like any point not in front of the cut.
    front = np.nonzero(~(cam[:, 2] < 0.2))[0]
    if front.size == 0:
        return MatchResult(matches=[], operations=0)
    u, v = project_points(cam[front], camera)
    in_view = (
        (0.0 <= u) & (u < camera.width) & (0.0 <= v) & (v < camera.height)
    )
    operations = 20 * int(front.size)
    visible = front[in_view]
    if visible.size == 0:
        return MatchResult(matches=[], operations=operations)
    u = u[in_view]
    v = v[in_view]
    keypoints = features.keypoints_px
    nearby_mask = (
        np.abs(keypoints[None, :, 0] - u[:, None]) <= radius_px
    ) & (np.abs(keypoints[None, :, 1] - v[:, None]) <= radius_px)
    descriptors = np.stack([map_points[i].descriptor for i in visible])
    distances = hamming_matrix(descriptors, features.descriptors)
    operations += 2 * keypoints.shape[0] * int(visible.size)
    taken = np.zeros(keypoints.shape[0], dtype=bool)
    matches: List[Match] = []
    for row, point_index in enumerate(visible):
        candidates = np.nonzero(nearby_mask[row] & ~taken)[0]
        if candidates.size == 0:
            continue
        operations += 256 * int(candidates.size)
        row_distances = distances[row, candidates]
        best_slot = int(np.argmin(row_distances))
        best_distance = int(row_distances[best_slot])
        if best_distance <= MAX_MATCH_DISTANCE:
            best_index = int(candidates[best_slot])
            taken[best_index] = True
            matches.append(
                Match(
                    index_a=best_index,
                    index_b=map_points[point_index].point_id,
                    distance=best_distance,
                )
            )
    return MatchResult(matches=matches, operations=operations)


def inlier_fraction(result: MatchResult, a: FeatureSet, b: FeatureSet) -> float:
    """Fraction of matches that are true correspondences (synthetic truth).

    Only possible because the synthetic dataset carries landmark ids — used
    by tests to verify the matcher rejects clutter.
    """
    if result.count == 0:
        raise ValueError("no matches to evaluate")
    correct = sum(
        1
        for m in result.matches
        if a.landmark_ids[m.index_a] >= 0
        and a.landmark_ids[m.index_a] == b.landmark_ids[m.index_b]
    )
    return correct / result.count
