"""Frame rendering of the synthetic EuRoC-like sequences, pinned bit for bit.

``SyntheticSequence.generate_frame`` projects every landmark at once and
walks the sequence RNG only for the visible ones.  Its output is pinned
three ways: golden SHA-256 digests of every frame of all eleven sequences
(computed with the original per-landmark renderer), golden digests of a
noisy ``descriptor_for`` call interleaved between frames, and a property
test against ``_reference_frame`` below, a copy of that original renderer.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slam.dataset import (
    DESCRIPTOR_BYTES,
    FRAME_RATE_HZ,
    CachedSequence,
    Frame,
    SyntheticSequence,
    _yaw_rotation,
    all_sequence_names,
    load_sequence,
)


def frame_digest(frame: Frame) -> str:
    """SHA-256 over every field of a frame, dtypes and shapes included."""
    digest = hashlib.sha256()
    digest.update(np.int64(frame.index).tobytes())
    digest.update(np.float64(frame.timestamp_s).tobytes())
    digest.update(np.float64(frame.true_yaw_rad).tobytes())
    for array in (frame.true_position_m, frame.landmark_ids,
                  frame.keypoints_px, frame.descriptors):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def sequence_digest(sequence) -> str:
    """SHA-256 over the frame digests of a whole sequence, in order."""
    digest = hashlib.sha256()
    for frame in sequence.frames():
        digest.update(frame_digest(frame).encode())
    return digest.hexdigest()


#: ``sequence_digest`` of every sequence at full length, keyed
#: ``name/seed``, as rendered by the original per-landmark loop.
GOLDEN_SEQUENCES = {
    "MH01/11": "3b2bb42b4edb95117a11d81e154e84aed94122612a90f6a7b674e79d0bf5c37e",
    "MH02/11": "508915152dfd24bdb8c0bfb59f71881b4171b30f1d5917dbaffdb769dd47a7c9",
    "MH03/11": "07ab91ec543da64e413d355e6ecb671fa3a08af22dc6cec1c30bbd9575b7c994",
    "MH04/11": "26bcf202d9ae229c062eb36da693c16b3cc46496880bba65f5b39034c9604d1a",
    "MH05/11": "37190edf9f39c7af63bd38dd2482b73f56f0432292a00fa8a90f190bf218bf3f",
    "V101/11": "dc18e599870e1f0518639b0b9c2267f71304ebf04fd305ab43cdaf31e2562707",
    "V102/11": "4139cc3f587cbb13259c1fe7409114464687eea2fb7978d07f685cc45db3679b",
    "V103/11": "71509c6704542e5ec1679e06203c99510c8412e7f06c31bb1f83f35aec87e27a",
    "V201/11": "75d8a46ddd18f36197a2a8c40a5f238a91e1ad32d27fa028d571812cf31ba91f",
    "V202/11": "ec8084754cb1b819f3898fa1620b5b3fa805c0e4f1a05776d92dbfd2d3141422",
    "V203/11": "26c84243bb774203779f15d4a46eb5ed0760ff497188b89a5ab001afa68fe277",
    "MH01/4": "d7dd75fd07fc5be127283e952de517132cc39b81d813c467b43e2af460bdc449",
    "MH02/4": "7e0a9508727b6f452d912e0e24b75ab0034de3e3dd53494d75ea1d90497ef411",
    "MH03/4": "47131b825ada031a39abe996f66308307aa708cb0649b0cd75925c1b180025a1",
    "MH04/4": "1369eb499305501b1f48fe5a0e0a4b8ad60b609821341d5be43310ed4b163606",
    "MH05/4": "eda75dc083ecda5f46f30ec2fbce4f39eaf5c1a7d4143bc41c28bbc167eaa5c6",
    "V101/4": "04c62fe210ef57743cad03fdf782295de958c4fabe30c372a0ec6d047a04720f",
    "V102/4": "3ed033ebea244687f79252e0cf4cd05ea9d56aa399974cb18b59c34b1b075a9f",
    "V103/4": "2479aa2e72ac33992bafa4c15e90e3c23ebcc35ed1182282177cd25aaca84af8",
    "V201/4": "c51c72718aefa2a12ff905d931d8aeada8b65f10d4e47fe483b487dcaca8012c",
    "V202/4": "92e7baf7ac0c528f19859e1cd1fe3acf2e8e2e9338fc5f7769974614388a7962",
    "V203/4": "e6b8c6e6d146494644c3f56be9ca102197a8204ee960e59d78301163f8f81047",
}

#: (name, seed, frames before, descriptor_for calls, frames after) -> the
#: digest of the frames and the returned descriptors, in call order.
GOLDEN_INTERLEAVED = [
    ("MH04", 11, 6, [(3, 10), (3, 10), (250, 0), (17, 1)], 6,
     "77b04d7cf1d09e028d04e02dd914342b6f55b26198bb6300afb280b883857f4a"),
    ("V201", 4, 3, [(0, 2), (679, 64)], 5,
     "8f993642a52c2d8b140bc97a60a930e02f4536249b336e1fade3ba40c2a9c2f5"),
]


@pytest.mark.parametrize("key", sorted(GOLDEN_SEQUENCES))
def test_every_frame_matches_golden(key):
    name, seed = key.split("/")
    sequence = load_sequence(name, seed=int(seed))
    assert sequence_digest(sequence) == GOLDEN_SEQUENCES[key]


@pytest.mark.parametrize(
    "name, seed, before, calls, after, expected", GOLDEN_INTERLEAVED
)
def test_noisy_descriptor_between_frames_matches_golden(
    name, seed, before, calls, after, expected
):
    sequence = load_sequence(name, seed=seed)
    digest = hashlib.sha256()
    for index in range(before):
        digest.update(frame_digest(sequence.generate_frame(index)).encode())
    for landmark_id, noise_bits in calls:
        digest.update(
            sequence.descriptor_for(landmark_id, noise_bits=noise_bits).tobytes()
        )
    for index in range(before, before + after):
        digest.update(frame_digest(sequence.generate_frame(index)).encode())
    assert digest.hexdigest() == expected


def test_cached_sequence_out_of_order_equals_in_order():
    in_order = [frame_digest(f) for f in load_sequence("V103", seed=4).frames()]
    cached = CachedSequence(load_sequence("V103", seed=4))
    order = [37, 3, 3, 0, 199, 12, 36, 1] + list(range(len(in_order)))[::-1]
    for index in order:
        assert frame_digest(cached.generate_frame(index)) == in_order[index]


def test_clean_descriptor_is_a_copy_of_the_canonical_table():
    sequence = load_sequence("MH02", seed=11)
    first = sequence.descriptor_for(42)
    first ^= np.uint8(0xFF)
    again = sequence.descriptor_for(42)
    assert np.array_equal(again, first ^ np.uint8(0xFF))
    frame = sequence.generate_frame(0)
    frame.descriptors[:] = 0
    assert np.array_equal(sequence.descriptor_for(42), again)


def test_descriptor_range_check_unchanged():
    sequence = load_sequence("V203")
    for bad in (-1, sequence.spec.landmark_count):
        with pytest.raises(ValueError, match=f"landmark id out of range: {bad}"):
            sequence.descriptor_for(bad)


# -- the original renderer, kept here as the property-test oracle -------------


def _reference_descriptor(
    sequence: SyntheticSequence, landmark_id: int, noise_bits: int = 0
) -> np.ndarray:
    if not 0 <= landmark_id < sequence.spec.landmark_count:
        raise ValueError(f"landmark id out of range: {landmark_id}")
    rng = np.random.default_rng(int(sequence._descriptor_seeds[landmark_id]))
    descriptor = rng.integers(0, 256, size=DESCRIPTOR_BYTES, dtype=np.uint8)
    if noise_bits > 0:
        flip = sequence._rng.integers(0, DESCRIPTOR_BYTES * 8, size=noise_bits)
        for bit in flip:
            descriptor[bit // 8] ^= np.uint8(1 << (bit % 8))
    return descriptor


def _reference_frame(sequence: SyntheticSequence, index: int) -> Frame:
    camera = sequence.camera
    t = index / FRAME_RATE_HZ
    position, yaw = sequence.true_pose(t)
    body_from_world = _yaw_rotation(yaw).T
    ids: List[int] = []
    pixels: List[Tuple[float, float]] = []
    descriptors: List[np.ndarray] = []
    noise_bits = {"easy": 2, "medium": 5, "difficult": 10}[
        sequence.spec.difficulty.value
    ]
    for landmark_id, landmark in enumerate(sequence.landmarks_m):
        relative = body_from_world @ (landmark - position)
        camera_point = np.array([-relative[1], -relative[2], relative[0]])
        if camera_point[2] < 0.3 or camera_point[2] > 12.0:
            continue
        u, v = camera.project(camera_point)
        if not camera.in_view(u, v):
            continue
        u += float(sequence._rng.normal(0.0, sequence.spec.pixel_noise))
        v += float(sequence._rng.normal(0.0, sequence.spec.pixel_noise))
        ids.append(landmark_id)
        pixels.append((u, v))
        descriptors.append(_reference_descriptor(sequence, landmark_id, noise_bits))
    for _ in range(int(0.05 * len(ids)) + 2):
        ids.append(-1)
        pixels.append(
            (
                float(sequence._rng.uniform(0, camera.width)),
                float(sequence._rng.uniform(0, camera.height)),
            )
        )
        descriptors.append(
            sequence._rng.integers(0, 256, size=DESCRIPTOR_BYTES, dtype=np.uint8)
        )
    return Frame(
        index=index,
        timestamp_s=t,
        true_position_m=position,
        true_yaw_rad=yaw,
        landmark_ids=np.asarray(ids, dtype=np.int64),
        keypoints_px=np.asarray(pixels, dtype=float),
        descriptors=np.asarray(descriptors, dtype=np.uint8),
    )


#: One step of a generated session: render the next frame (``None``) or
#: query a descriptor (landmark id as a fraction of the cloud, noise bits).
_steps = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 24)),
    ),
    max_size=8,
)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(all_sequence_names()),
    seed=st.integers(0, 2**31 - 1),
    start=st.integers(0, 150),
    prefix=st.integers(0, 3),
    steps=_steps,
)
def test_renderer_equals_per_landmark_reference(name, seed, start, prefix, steps):
    """Frames and descriptors agree bit for bit with the original loop.

    Both sequences render a frame prefix, then a generated mix of frames
    and (noisy) descriptor queries, so RNG state carried between calls is
    compared too.  ``start`` skips ahead so late-trajectory poses are
    covered without rendering every earlier frame.
    """
    new = load_sequence(name, seed=seed)
    old = load_sequence(name, seed=seed)
    index = min(start, new.frame_count - 1)
    for step in [None] * prefix + steps:
        if step is None:
            if index >= new.frame_count:
                continue
            assert frame_digest(new.generate_frame(index)) == frame_digest(
                _reference_frame(old, index)
            )
            index += 1
        else:
            fraction, noise_bits = step
            landmark_id = int(fraction * new.spec.landmark_count)
            assert np.array_equal(
                new.descriptor_for(landmark_id, noise_bits),
                _reference_descriptor(old, landmark_id, noise_bits),
            )
    assert np.array_equal(new._rng.random(4), old._rng.random(4))
