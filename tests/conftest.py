import json

import numpy as np
import pytest

from mvslab import geometry, planesweep, synth


@pytest.fixture(scope="session")
def checker_scene():
    """The acceptance-scale checkered plane: 5 views at 64x80."""
    return synth.gen_scene(synth.SceneSpec(seed=3))


@pytest.fixture(scope="session")
def checker_samples(checker_scene):
    return synth.build_branch_samples(checker_scene, 0, 5, 0.0, 7)


@pytest.fixture(scope="session")
def checker_cascade(checker_samples):
    """Every stage of the cascade on the checker plane, coarse to fine, each
    with the confidence of its own probability volume."""
    cfg = planesweep.SweepConfig()
    stages, depth = [], None
    for stage in range(1, len(planesweep.STAGE_COUNTS) + 1):
        prob, hyps = planesweep._stage_volume(checker_samples["regular"], stage, cfg, depth)
        depth = planesweep.regress_depth(prob, hyps)
        stages.append(planesweep.StageResult(depth, *planesweep.probability_and_confidence(
            prob, hyps, depth, planesweep.CONF_THRESHOLD)))
    return stages


@pytest.fixture(scope="session")
def small_scene():
    """A small noise-textured plane for cheap warping tests."""
    return synth.gen_scene(synth.SceneSpec(texture="noise", height=32, width=40, seed=5))


@pytest.fixture(scope="session")
def uniform_scene():
    """A constant-albedo plane, the CLI's uniform_plane preset: every view is
    a flat image, so no depth can be told from another."""
    return synth.gen_scene(synth.SceneSpec(texture="uniform", height=32, width=40, seed=4))


def mutual_visibility(sample, gt, crop: int = 4) -> np.ndarray:
    """Pixels whose GT point projects inside every source image, away from the
    reference border band where the feature support is clipped."""
    h, w = gt.shape
    grid = geometry.pixel_grid(h, w)
    valid = np.zeros((h, w), dtype=bool)
    valid[crop:h - crop, crop:w - crop] = True
    for view in sample.sources:
        uv, _, front = geometry.project_with_depth(grid, gt, sample.reference.camera,
                                                   view.camera)
        valid &= front & (uv[..., 0] >= 0) & (uv[..., 0] <= w - 1) \
            & (uv[..., 1] >= 0) & (uv[..., 1] <= h - 1)
    return valid


def signed_values(rng, shape):
    """Values of both signs with some exact zeros of both signs, so that an
    operation that flips the sign of a zero shows in the bytes."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


def assert_same_bytes(a, b):
    """Equal to the bit: np.array_equal takes -0.0 for 0.0, written depth
    files do not."""
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def read_records(path) -> list[dict]:
    """The records of a line-delimited JSON file, as write_records writes them."""
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
