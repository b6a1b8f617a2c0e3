"""The vectorized SLAM entry points against the scalar oracles.

The oracles live in :mod:`tests.oracles.slam`.  The contract (documented
in :mod:`repro.slam.kernels`):

- integer decisions (matches, operation counts, iteration counts, used
  correspondences) are bit-for-bit identical to the oracle;
- per-element float math (projections, residuals) is bit-identical because
  the vectorized path replicates the scalar operation order;
- reductions (normal equations, RMS sums) accumulate in a different order,
  so poses/landmarks/RMS agree to ``allclose`` tolerances only.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slam import kernels
from repro.slam.bundle_adjustment import global_bundle_adjust
from repro.slam.dataset import (
    Frame,
    cached_sequence,
    clear_sequence_cache,
    load_sequence,
)
from repro.slam.features import (
    FeatureSet,
    OrbExtractor,
    hamming_distance,
    hamming_distance_matrix,
)
from repro.slam.matching import (
    match_against_map,
    match_by_projection,
    match_features,
)
from repro.slam.pipeline import SlamPipeline
from repro.slam.tracking import TrackingLostError, track_pose
from tests.oracles import slam as oracle

MAP_FRAMES = 45


@pytest.fixture(scope="module")
def sequence():
    return cached_sequence("MH01")


@pytest.fixture(scope="module")
def built_map(sequence):
    """A converged pipeline map over the first MAP_FRAMES MH01 frames."""
    pipeline = SlamPipeline(sequence)
    for index in range(MAP_FRAMES):
        pipeline.process_frame(sequence.generate_frame(index))
    return pipeline


class TestHammingKernels:
    def test_matrix_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, size=(37, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(29, 32), dtype=np.uint8)
        batch, ops_batch = hamming_distance_matrix(a, b)
        scalar, ops_scalar = oracle.hamming_distance_matrix(a, b)
        assert np.array_equal(batch, scalar)
        assert batch.dtype == scalar.dtype
        assert ops_batch == ops_scalar

    def test_matrix_matches_single_pair_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 256, size=(5, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(7, 32), dtype=np.uint8)
        matrix, _ = hamming_distance_matrix(a, b)
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                assert int(matrix[i, j]) == hamming_distance(a[i], b[j])

    def test_extreme_rows(self):
        zeros = np.zeros((1, 32), dtype=np.uint8)
        ones = np.full((1, 32), 0xFF, dtype=np.uint8)
        matrix, _ = hamming_distance_matrix(zeros, ones)
        assert int(matrix[0, 0]) == 256


class TestMatchingEquivalence:
    def test_match_features(self, sequence):
        extractor = OrbExtractor(max_features=300)
        fs_a = extractor.extract(sequence.generate_frame(0))
        fs_b = extractor.extract(sequence.generate_frame(3))
        batch = match_features(fs_a, fs_b)
        scalar = oracle.match_features(fs_a, fs_b)
        assert batch.matches == scalar.matches
        assert batch.operations == scalar.operations
        assert len(batch.matches) > 0

    def test_match_against_map(self, sequence, built_map):
        extractor = OrbExtractor(max_features=300)
        features = extractor.extract(sequence.generate_frame(MAP_FRAMES))
        points = list(built_map.slam_map.points.values())
        descriptors = np.stack([p.descriptor for p in points])
        ids = np.array([p.point_id for p in points])
        batch = match_against_map(features, descriptors, ids)
        scalar = oracle.match_against_map(features, descriptors, ids)
        assert batch.matches == scalar.matches
        assert batch.operations == scalar.operations
        assert len(batch.matches) > 0

    def test_match_by_projection(self, sequence, built_map):
        extractor = OrbExtractor(max_features=300)
        features = extractor.extract(sequence.generate_frame(MAP_FRAMES))
        pose = built_map._pose
        points = built_map.slam_map.points.values()
        batch = match_by_projection(features, points, pose, sequence.camera)
        scalar = oracle.match_by_projection(
            features, points, pose, sequence.camera)
        assert batch.matches == scalar.matches
        assert batch.operations == scalar.operations
        assert len(batch.matches) > 0


class TestBucketedSelection:
    @pytest.mark.parametrize("budget", [20, 50, 120])
    def test_selection_matches_scalar(self, sequence, budget):
        frame = sequence.generate_frame(7)
        batch = OrbExtractor(max_features=budget).extract(frame)
        scalar = oracle.OrbExtractor(max_features=budget).extract(frame)
        assert np.array_equal(batch.landmark_ids, scalar.landmark_ids)
        assert np.array_equal(batch.keypoints_px, scalar.keypoints_px)
        assert np.array_equal(batch.descriptors, scalar.descriptors)
        assert batch.operations == scalar.operations

    def test_bucketed_ranks_round_robin(self):
        # Three cells with 3/2/1 members: round-robin order is one member
        # per cell per sweep, cells ascending within a sweep.
        cells = np.array([2, 0, 0, 1, 0, 1])
        order, depth = kernels.bucketed_ranks(cells)
        round_robin = np.lexsort((cells[order], depth))
        visited = order[round_robin]
        assert list(cells[visited]) == [0, 1, 2, 0, 1, 0]


class TestTrackPoseEquivalence:
    def _correspondences(self, built_map):
        slam_map = built_map.slam_map
        keyframe = slam_map.keyframes[max(slam_map.keyframes)]
        landmarks, pixels = [], []
        for point_id, pixel in keyframe.observations.items():
            point = slam_map.points.get(point_id)
            if point is not None:
                landmarks.append(point.position_m)
                pixels.append(pixel)
        return keyframe, landmarks, pixels

    def test_matches_scalar(self, sequence, built_map):
        keyframe, landmarks, pixels = self._correspondences(built_map)
        batch = track_pose(landmarks, pixels, keyframe.position_m,
                           keyframe.yaw_rad, sequence.camera)
        scalar = oracle.track_pose(landmarks, pixels, keyframe.position_m,
                                   keyframe.yaw_rad, sequence.camera)
        # Integer decisions are exact; floats cross reductions -> allclose.
        assert batch.iterations == scalar.iterations
        assert batch.inliers == scalar.inliers
        assert batch.operations == scalar.operations
        assert np.allclose(batch.position_m, scalar.position_m,
                           rtol=1e-9, atol=1e-12)
        assert batch.yaw_rad == pytest.approx(scalar.yaw_rad, abs=1e-9)
        assert batch.final_rms_px == pytest.approx(scalar.final_rms_px,
                                                   abs=1e-9)

    def test_perturbed_start_matches_scalar(self, sequence, built_map):
        keyframe, landmarks, pixels = self._correspondences(built_map)
        start = keyframe.position_m + np.array([0.3, -0.2, 0.1])
        batch = track_pose(landmarks, pixels, start,
                           keyframe.yaw_rad + 0.05, sequence.camera)
        scalar = oracle.track_pose(landmarks, pixels, start,
                                   keyframe.yaw_rad + 0.05, sequence.camera)
        assert batch.iterations == scalar.iterations
        assert np.allclose(batch.position_m, scalar.position_m,
                           rtol=1e-8, atol=1e-10)

    def test_too_few_correspondences_both_engines(self, sequence):
        landmarks = [np.array([10.0, 0.0, 1.5])] * 3
        pixels = [(320.0, 240.0)] * 3
        for track in (track_pose, oracle.track_pose):
            with pytest.raises(TrackingLostError):
                track(landmarks, pixels, np.zeros(3), 0.0, sequence.camera)

    @pytest.mark.parametrize("option", ["max_iterations",
                                        "min_correspondences"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_counts_rejected(self, sequence, option, value):
        with pytest.raises(ValueError, match=option):
            track_pose([], [], np.zeros(3), 0.0, sequence.camera,
                       **{option: value})


class TestBundleAdjustEquivalence:
    def test_global_ba_matches_scalar(self, sequence, built_map):
        map_batch = copy.deepcopy(built_map.slam_map)
        map_scalar = copy.deepcopy(built_map.slam_map)
        batch = global_bundle_adjust(map_batch, sequence.camera)
        scalar = oracle.global_bundle_adjust(map_scalar, sequence.camera)
        assert batch.iterations == scalar.iterations
        assert batch.keyframes == scalar.keyframes
        assert batch.points == scalar.points
        assert batch.residuals == scalar.residuals
        assert batch.operations == scalar.operations
        assert batch.initial_rms_px == pytest.approx(scalar.initial_rms_px,
                                                     abs=1e-9)
        assert batch.final_rms_px == pytest.approx(scalar.final_rms_px,
                                                   abs=1e-9)
        for index in sorted(map_batch.keyframes):
            kf_b = map_batch.keyframes[index]
            kf_s = map_scalar.keyframes[index]
            assert np.allclose(kf_b.position_m, kf_s.position_m,
                               rtol=1e-9, atol=1e-12)
            assert kf_b.yaw_rad == pytest.approx(kf_s.yaw_rad, abs=1e-9)
        for point_id, point_b in map_batch.points.items():
            point_s = map_scalar.points[point_id]
            # Landmark solves can be near-singular, amplifying the
            # reduction-order rounding; 1e-7 is still far below the map's
            # centimetre-scale noise floor.
            assert np.allclose(point_b.position_m, point_s.position_m,
                               rtol=1e-6, atol=1e-7)


#: Bit-flip counts that land distances on the matchers' edges: 64 and 65
#: straddle ``MAX_MATCH_DISTANCE``, 256 (the complement) is the largest
#: distance, and repeated zeros make exact duplicates.
_EDGE_FLIPS = (0, 0, 1, 16, 63, 64, 65, 256)


def _descriptor_cloud(rng, count, base, max_flips):
    """``count`` descriptors, each a random ``base`` row with distinct bit
    flips: half the rows take an edge count from ``_EDGE_FLIPS``, the rest
    up to ``max_flips``.

    A small ``base`` repeats rows, so distance ties and near-duplicates —
    the cases where first-minimum, ratio and cross-check decisions differ
    — come up often.
    """
    rows = base[rng.integers(0, base.shape[0], size=count)].copy()
    for row in rows:
        if rng.random() < 0.5:
            flips = int(rng.choice(_EDGE_FLIPS))
        else:
            flips = int(rng.integers(0, max_flips + 1))
        bits = rng.choice(256, size=flips, replace=False)
        np.bitwise_xor.at(row, bits // 8, (1 << (bits % 8)).astype(np.uint8))
    return rows


def _feature_set(descriptors):
    count = descriptors.shape[0]
    return FeatureSet(
        frame_index=0,
        landmark_ids=np.arange(count, dtype=np.int64),
        keypoints_px=np.zeros((count, 2)),
        descriptors=descriptors,
        operations=0,
    )


_clouds = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "count_a": st.integers(0, 12),
    "count_b": st.integers(0, 12),
    "base_rows": st.integers(1, 6),
    "max_flips": st.integers(0, 80),
})


def _draw_pair(cloud):
    rng = np.random.default_rng(cloud["seed"])
    base = rng.integers(0, 256, size=(cloud["base_rows"], 32), dtype=np.uint8)
    a = _descriptor_cloud(rng, cloud["count_a"], base, cloud["max_flips"])
    b = _descriptor_cloud(rng, cloud["count_b"], base, cloud["max_flips"])
    return rng, a, b


class TestGeneratedInputs:
    """Integer-exact kernels against the oracles on generated inputs."""

    @settings(max_examples=60, deadline=None)
    @given(cloud=_clouds)
    def test_hamming_distance_matrix(self, cloud):
        _, a, b = _draw_pair(cloud)
        batch, ops_batch = hamming_distance_matrix(a, b)
        scalar, ops_scalar = oracle.hamming_distance_matrix(a, b)
        assert batch.dtype == scalar.dtype
        assert np.array_equal(batch, scalar)
        assert ops_batch == ops_scalar

    @settings(max_examples=60, deadline=None)
    @given(cloud=_clouds)
    def test_match_features(self, cloud):
        _, a, b = _draw_pair(cloud)
        fs_a, fs_b = _feature_set(a), _feature_set(b)
        batch = match_features(fs_a, fs_b)
        scalar = oracle.match_features(fs_a, fs_b)
        assert batch.matches == scalar.matches
        assert batch.operations == scalar.operations

    @settings(max_examples=60, deadline=None)
    @given(cloud=_clouds)
    def test_match_against_map(self, cloud):
        rng, a, b = _draw_pair(cloud)
        features = _feature_set(a)
        ids = rng.permutation(1000)[: b.shape[0]].astype(np.int64)
        batch = match_against_map(features, b, ids)
        scalar = oracle.match_against_map(features, b, ids)
        assert batch.matches == scalar.matches
        assert batch.operations == scalar.operations

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 60),
        grid_cols=st.integers(1, 8),
        grid_rows=st.integers(1, 6),
        budget=st.integers(1, 80),
        one_column=st.booleans(),
        clustered=st.booleans(),
    )
    def test_bucketed_selection(self, seed, count, grid_cols, grid_rows,
                                budget, one_column, clustered):
        rng = np.random.default_rng(seed)
        width, height = 752.0, 480.0
        if clustered:
            # Whole-pixel keypoints in a corner: crowded cells, and
            # coordinates that land exactly on cell boundaries.
            keypoints = rng.integers(0, 200, size=(count, 2)).astype(float)
        else:
            keypoints = rng.uniform((0.0, 0.0), (width, height), size=(count, 2))
        if one_column:
            keypoints[:, 0] = keypoints[:1, 0] if count else 0.0
        params = dict(max_features=budget, grid_cols=grid_cols,
                      grid_rows=grid_rows, image_width=width,
                      image_height=height)
        batch = OrbExtractor(**params)
        scalar = oracle.OrbExtractor(**params)
        selected = batch._bucketed_selection(keypoints)
        expected = scalar._bucketed_selection(keypoints)
        assert selected.dtype == expected.dtype
        assert np.array_equal(selected, expected)
        frame = Frame(
            index=0,
            timestamp_s=0.0,
            true_position_m=np.zeros(3),
            true_yaw_rad=0.0,
            landmark_ids=np.arange(count, dtype=np.int64),
            keypoints_px=keypoints,
            descriptors=rng.integers(0, 256, size=(count, 32), dtype=np.uint8),
        )
        got, want = batch.extract(frame), scalar.extract(frame)
        assert np.array_equal(got.landmark_ids, want.landmark_ids)
        assert got.operations == want.operations


class TestCachedSequence:
    def test_same_object_per_key(self):
        assert cached_sequence("MH01") is cached_sequence("MH01")
        assert cached_sequence("MH01") is not cached_sequence("MH01", seed=7)

    def test_clear_hook(self):
        first = cached_sequence("MH02")
        clear_sequence_cache()
        assert cached_sequence("MH02") is not first

    def test_out_of_order_access_is_deterministic(self):
        """Frame N from a cold cache equals fresh in-order frame N: the
        cache generates frames in canonical 0..N order regardless of the
        access pattern, so the sequence RNG stream never diverges."""
        clear_sequence_cache()
        cached = cached_sequence("MH03", seed=19)
        jumped = cached.generate_frame(5)
        fresh = load_sequence("MH03", seed=19)
        in_order = [fresh.generate_frame(i) for i in range(6)][5]
        assert np.array_equal(jumped.landmark_ids, in_order.landmark_ids)
        assert np.array_equal(jumped.keypoints_px, in_order.keypoints_px)
        assert np.array_equal(jumped.descriptors, in_order.descriptors)
        # Earlier frames were materialized along the way and stay correct.
        frame0 = cached.generate_frame(0)
        fresh0 = load_sequence("MH03", seed=19).generate_frame(0)
        assert np.array_equal(frame0.descriptors, fresh0.descriptors)

    def test_defensive_copies(self):
        cached = cached_sequence("MH01")
        frame = cached.generate_frame(2)
        frame.descriptors[:] = 0
        frame.keypoints_px[:] = -1.0
        again = cached.generate_frame(2)
        assert again.descriptors.any()
        assert (again.keypoints_px >= 0).any()

    def test_noisy_descriptor_queries_rejected(self):
        cached = cached_sequence("MH01")
        landmark_id = int(cached.generate_frame(0).landmark_ids.max())
        clean = cached.descriptor_for(landmark_id)
        assert clean.shape == (32,)
        with pytest.raises(ValueError, match="noisy"):
            cached.descriptor_for(landmark_id, noise_bits=2)

    def test_out_of_range_rejected(self):
        cached = cached_sequence("MH01")
        with pytest.raises(ValueError, match="out of range"):
            cached.generate_frame(cached.frame_count)
