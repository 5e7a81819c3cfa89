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
