"""The paper's three claims as seeded A/B trials on synthetic scenes: the
image-level consistency pull (``icc``), the scene-level consistency pull
(``scc``) and the square-root photometric norm (``norm``). Each trial
optimizes only the branches it reads. ``icc`` and ``scc`` run the regular
branch and sweep the contrastive sample once per seed, and each arm steps
that branch from the one depth against the one run's targets; ``norm`` runs
``optimize_regular`` once per arm from one shared cascade depth, sweeping
no confidence. Each returns one record with both arms' values and the margin by
which the claimed arm is better; criteria 5/6/7 and `mvslab ablate` call them."""

from __future__ import annotations

import numpy as np
from scipy.ndimage import binary_dilation

from . import synth
from .depthopt import OptimizerConfig, optimize_contrastive, optimize_joint, optimize_regular
from .geometry import CameraView, nearest_pixel, pixel_grid, project_with_depth
from .grids import Image
from .losses import LossWeights, NormKind
from .planesweep import SweepConfig, cascade_infer
from .sampling import (N_VIEWS, Sample, curriculum, make_image_contrastive,
                       make_scene_contrastive)

# The seeds acceptance criteria 5/6/7 use; the first five scc seeds that
# qualify (6, 16, 20, 22 and 23) lie in 0..23.
CLAIM_SEEDS = {"icc": range(100, 105), "scc": range(24), "norm": range(300, 305)}


def affected_mask(reference: CameraView, sources: list[CameraView],
                  footprints: list[np.ndarray]) -> np.ndarray:
    """Reference pixels whose ground-truth correspondence in some source lands,
    at the nearest pixel, on that source's footprint dilated by one pixel."""
    gt = reference.gt_depth
    grid = pixel_grid(*gt.shape)
    affected = np.zeros(gt.shape, dtype=bool)
    for view, footprint in zip(sources, footprints):
        uv, _, front = project_with_depth(grid, gt, reference.camera, view.camera)
        fat = binary_dilation(footprint, iterations=1)
        u, v, inside = nearest_pixel(uv, *fat.shape)
        affected |= front & inside & fat[v, u]
    return affected


def _record(claim: str, seed: int, metric: str, arms: dict[str, float],
            margin: float) -> dict:
    return {"claim": claim, "seed": seed, "metric": metric, "arms": arms,
            "margin": margin, "win": margin > 0}


def icc_trial(seed: int) -> dict:
    """Median |D - GT| of the image-contrastive branch on occlusion-affected
    pixels, with the image-level consistency pull at weight 400 and at 0."""
    scene = synth.gen_scene(synth.SceneSpec(height=48, width=64, n_views=7, seed=seed,
                                            checker_period_mm=45.0))
    reference = scene.views[0]
    schedule = curriculum(15)  # occlusion rate 0.1
    regular = synth.regular_sample(scene, 0, N_VIEWS)
    occluded = make_image_contrastive(regular, schedule.occlusion_rate, seed + 400)
    affected = affected_mask(reference, occluded.sources, occluded.occlusion_masks)
    state = optimize_joint({"regular": regular}, SweepConfig(), OptimizerConfig(iterations=60))
    start = cascade_infer(occluded).depth
    arms = {}
    for arm, weight in (("consistency", 400.0), ("no_consistency", 0.0)):
        opt = OptimizerConfig(image_consist_weight=weight)
        depth, _ = optimize_contrastive(occluded, "image_contrastive", state, start, opt)
        err = np.abs(depth - reference.gt_depth)
        arms[arm] = float(np.median(err[affected]))
    return _record("icc", seed, "median_abs_err_affected_mm", arms,
                   arms["no_consistency"] - arms["consistency"])


def scc_trial(seed: int) -> dict | None:
    """Median |D - GT| of the scene-contrastive branch on the pixels the
    corrupted view's occluder covers, with the scene-level consistency pull at
    weight 400 and at 0. None when the scene does not qualify: the corrupted
    view shows no occluder, is among the regular sources, or is drawn by none
    of 200 scene-contrastive samples."""
    scene = synth.gen_scene(synth.SceneSpec(
        geometry="plane_with_occluder", texture="checker", height=48, width=64,
        n_views=7, seed=seed, specular_strength=0.35))
    reference = scene.views[0]
    regular = synth.regular_sample(scene, 0, N_VIEWS)
    if scene.occluder is None or scene.occluder[0] in regular.source_ids():
        return None
    corrupted, footprint = scene.occluder
    drawn = (make_scene_contrastive(scene.views, reference, 3, s) for s in range(200))
    sc = next((s for s in drawn if corrupted in s.source_ids()), None)
    if sc is None:
        return None
    affected = affected_mask(reference, [scene.views[corrupted]], [footprint])
    sweep = SweepConfig(softmax_sharpness=100.0)
    state = optimize_joint({"regular": regular}, sweep, OptimizerConfig(iterations=80))
    start = cascade_infer(sc, sweep).depth
    arms = {}
    for arm, weight in (("consistency", 400.0), ("no_consistency", 0.0)):
        opt = OptimizerConfig(weights=LossWeights(scene_consist=weight))
        depth, _ = optimize_contrastive(sc, "scene_contrastive", state, start, opt)
        err = np.abs(depth - reference.gt_depth)
        arms[arm] = float(np.median(err[affected]))
    return _record("scc", seed, "median_abs_err_affected_mm", arms,
                   arms["no_consistency"] - arms["consistency"])


def _contaminate_sources(sample: Sample, frac: float, seed: int) -> Sample:
    """View-inconsistent noise rectangles over ~frac of each source image."""
    out = []
    for i, view in enumerate(sample.sources):
        rng = np.random.default_rng([seed, i, 77])
        img = view.image.data.copy()
        h, w, _ = img.shape
        covered = np.zeros((h, w), dtype=bool)
        while covered.mean() < frac:
            rh = int(rng.integers(4, 12))
            rw = int(rng.integers(5, 14))
            v0 = int(rng.integers(0, h - rh))
            u0 = int(rng.integers(0, w - rw))
            img[v0:v0 + rh, u0:u0 + rw] = rng.random((rh, rw, 3))
            covered[v0:v0 + rh, u0:u0 + rw] = True
        out.append(CameraView(Image(img), view.camera, view.gt_depth, view.view_id))
    return Sample(sample.reference, out)


def norm_trial(seed: int) -> dict:
    """Share of the top-80% confidence pixels within 2mm of the truth after
    optimizing the regular branch, on sources with 20% noise rectangles, under
    the square-root norm and under the absolute norm; both start from the
    cascade depth."""
    scene = synth.gen_scene(synth.SceneSpec(height=48, width=64, n_views=7, seed=seed))
    reference = scene.views[0]
    regular = _contaminate_sources(synth.regular_sample(scene, 0, N_VIEWS), 0.20, seed + 600)
    final = cascade_infer(regular)
    prob = final.prob_map
    top80 = prob >= np.quantile(prob, 0.2)
    arms = {}
    for arm, exponent in (("l0.5", 0.5), ("l1", 1.0)):
        opt = OptimizerConfig(iterations=60, norm=NormKind(exponent))
        depth = optimize_regular(regular, final.depth, opt)[-1][0]
        err = np.abs(depth - reference.gt_depth)
        arms[arm] = float((err[top80] <= 2.0).mean())
    return _record("norm", seed, "frac_within_2mm_confident", arms,
                   arms["l0.5"] - arms["l1"])


TRIALS = {"icc": icc_trial, "scc": scc_trial, "norm": norm_trial}
