"""Sample construction: score-based regular view selection, Bernoulli
occlusion with color fluctuation for the image-level contrastive branch,
random same-scene views for the scene-level branch, and the training-time
schedules for the occlusion rate and the image-consistency weight."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import CameraView, pixel_grid, warp_rays
from .grids import Image, forward_diff
from .losses import LossWeights, edge_weights, ssim_reference_moments


N_VIEWS = 5  # a reference and four sources per sample


class SamplingError(ValueError):
    pass


@dataclass
class Sample:
    """One reference view plus its source views."""

    reference: CameraView
    sources: list[CameraView]
    occlusion_masks: list[np.ndarray] | None = None

    def __post_init__(self):
        if len(self.sources) < 1:
            raise SamplingError("a sample needs at least one source view")

    def source_ids(self) -> list[int]:
        return [s.view_id for s in self.sources]

    @cached_property
    def rays(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """warp_rays over the reference pixel grid, per source. Computed once,
        like reference_moments: nothing changes a Sample's views once built."""
        ref = self.reference
        grid = pixel_grid(ref.image.height, ref.image.width)
        return [warp_rays(grid, ref.camera, s.camera) for s in self.sources]

    @cached_property
    def reference_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """ssim_reference_moments of the reference image."""
        return ssim_reference_moments(self.reference.image.data)

    @cached_property
    def reference_diffs(self) -> tuple[np.ndarray, np.ndarray]:
        """forward_diff of the reference image: what the photometric residuals
        and the smoothness weights compare against."""
        return forward_diff(self.reference.image.data)

    @cached_property
    def smoothness_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """edge_weights of the reference image, which weight the smoothness term."""
        return edge_weights(self.reference_diffs)


TOTAL_EPOCHS = 16  # the curriculum's length
MAX_OCCLUSION_RATE = 0.1  # the curriculum's occlusion rate at its last epoch
# per-image color fluctuation ranges of the image-contrastive sources
GAMMA_RANGE = (0.8, 1.25)
BRIGHTNESS_RANGE = (-0.1, 0.1)
CONTRAST_RANGE = (0.8, 1.2)


@dataclass(frozen=True)
class Schedule:
    occlusion_rate: float
    image_consist_weight: float


def _check_n_views(n_views: int) -> None:
    if n_views < 2:
        raise SamplingError(f"a sample needs n_views >= 2 (a reference and a source), "
                            f"got {n_views}")


def select_regular_views(reference: CameraView, candidates: list[CameraView],
                         scores: list[tuple[int, float]], n_views: int) -> Sample:
    """Top-(N-1) candidates by score; ties broken by ascending view id."""
    _check_n_views(n_views)
    if len(scores) < n_views - 1:
        raise SamplingError(f"a {n_views}-view sample needs {n_views - 1} scored source "
                            f"views; {len(candidates) + 1} views given, {len(scores)} scored")
    by_id = {v.view_id: v for v in candidates}
    ranked = sorted(scores, key=lambda e: (-e[1], e[0]))
    chosen = []
    for vid, _ in ranked[:n_views - 1]:
        if vid not in by_id:
            raise SamplingError(f"scored view {vid} not among the candidates")
        chosen.append(by_id[vid])
    return Sample(reference, chosen)


def _fluctuate(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    gamma = rng.uniform(*GAMMA_RANGE)
    brightness = rng.uniform(*BRIGHTNESS_RANGE)
    contrast = rng.uniform(*CONTRAST_RANGE)
    out = np.power(img, gamma)
    out = (out - 0.5) * contrast + 0.5 + brightness
    return np.clip(out, 0.0, 1.0)


def make_image_contrastive(regular: Sample, occlusion_rate: float,
                           rng_seed: int) -> Sample:
    """Zero out each source pixel independently with the given rate (a mask
    value of 1 means occluded), after a per-image color fluctuation. The
    reference view is never touched. Deterministic given the seed."""
    if not (0.0 <= occlusion_rate <= 1.0):
        raise SamplingError("occlusion rate must lie in [0, 1]")
    sources = []
    masks = []
    for i, view in enumerate(regular.sources):
        rng = np.random.default_rng([rng_seed, i])
        data = _fluctuate(view.image.data, rng)
        occ = rng.random(data.shape[:2]) < occlusion_rate
        data = data * (~occ[:, :, None])
        masks.append(occ)
        sources.append(CameraView(Image(data), view.camera, view.gt_depth, view.view_id))
    return Sample(regular.reference, sources, occlusion_masks=masks)


def make_scene_contrastive(scene_views: list[CameraView], reference: CameraView,
                           n_views: int, rng_seed: int) -> Sample:
    """N-1 source views drawn uniformly without replacement from the scene's
    non-reference views. Deterministic given the seed."""
    _check_n_views(n_views)
    pool = [v for v in scene_views if v.view_id != reference.view_id]
    if len(pool) < n_views - 1:
        raise SamplingError(f"scene has {len(pool)} non-reference views, need {n_views - 1}")
    rng = np.random.default_rng([rng_seed, 7349])
    idx = rng.choice(len(pool), size=n_views - 1, replace=False)
    return Sample(reference, [pool[i] for i in idx])


def curriculum(epoch: int) -> Schedule:
    """Occlusion rate rises linearly from 0 to MAX_OCCLUSION_RATE over
    TOTAL_EPOCHS; the image-consistency weight starts at the LossWeights
    default and doubles every 2 epochs."""
    if not (0 <= epoch < TOTAL_EPOCHS):
        raise SamplingError(f"epoch {epoch} outside [0, {TOTAL_EPOCHS})")
    rate = MAX_OCCLUSION_RATE * epoch / (TOTAL_EPOCHS - 1)
    weight = LossWeights().image_consist_base * 2.0 ** (epoch // 2)
    return Schedule(rate, weight)
