"""Non-learned cascade plane-sweep inference.

Fixed gradient/statistics features stand in for a learned feature extractor,
and separable box smoothing plus a temperature softmax stands in for a learned
cost-volume regularizer; the cost construction, depth regression and the
confidence mask follow the standard group-wise correlation pipeline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .geometry import Camera, bilinear_sample, pixel_grid, project_with_depth
from .grids import BinaryMask, Image, ScalarField, forward_diff, resize_bilinear, to_grayscale
from .sampling import Sample


class PlaneSweepError(ValueError):
    pass


@dataclass
class SweepConfig:
    stage_counts: tuple[int, ...] = (48, 32, 8)
    stage_scales: tuple[int, ...] = (4, 2, 1)       # resolution divisor per stage
    refine_interval_scales: tuple[float, ...] = (4.0, 1.0)  # x final interval, stages 2..
    coarse_interval_scale: float = 1.0              # multiplier on the stage-1 spacing
    final_intervals: int = 191                      # final interval = range / this
    n_channels: int = 8
    n_groups: int = 4
    smoothing_passes: int = 2
    softmax_sharpness: float = 50.0
    conf_threshold: float = 0.95
    drop_last_source: bool = False

    def __post_init__(self):
        if len(self.stage_counts) != len(self.stage_scales):
            raise PlaneSweepError("stage_counts and stage_scales must align")
        if len(self.refine_interval_scales) != len(self.stage_counts) - 1:
            raise PlaneSweepError("need one refine interval scale per refinement stage")
        if self.n_channels % self.n_groups != 0:
            raise PlaneSweepError("channel count must be divisible by group count")
        if not (0.0 < self.conf_threshold < 1.0):
            raise PlaneSweepError("confidence threshold must lie in (0, 1)")

    def final_interval(self, cam: Camera) -> float:
        return (cam.depth_max - cam.depth_min) / self.final_intervals

    @property
    def temperature(self) -> float:
        """Softmax temperature: the 1/sqrt(channels per group) attention-style
        scale alone leaves the bounded correlation scores nearly uniform after
        the softmax, so a sharpness gain calibrated on synthetic scenes is
        applied on top."""
        return 1.0 / (self.softmax_sharpness * np.sqrt(self.n_channels / self.n_groups))


@dataclass
class HypothesisSet:
    """Per-pixel depth hypotheses, strictly increasing with uniform spacing."""

    values: np.ndarray  # (D, h, w)
    spacing: float
    stage: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise PlaneSweepError("hypothesis values must be (D, h, w)")
        if self.spacing <= 0:
            raise PlaneSweepError("hypothesis spacing must be positive")

    @property
    def count(self) -> int:
        return self.values.shape[0]


@dataclass
class StageResult:
    depth: ScalarField
    prob_map: ScalarField
    conf_mask: BinaryMask
    hypotheses: HypothesisSet
    prob_volume: np.ndarray


def build_hypotheses(cam: Camera, stage: int, cfg: SweepConfig,
                     prev_depth: ScalarField | None, h: int, w: int) -> HypothesisSet:
    """Stage-1: uniform sweep of the camera depth range. Later stages: a
    fixed-count window centered on the upsampled previous depth, shifted (not
    clipped) back into the valid range so spacing stays strictly increasing."""
    count = cfg.stage_counts[stage - 1]
    lo, hi = cam.depth_min, cam.depth_max
    if stage == 1:
        spacing = cfg.coarse_interval_scale * (hi - lo) / (count - 1)
        if spacing * (count - 1) > (hi - lo) + 1e-9:
            raise PlaneSweepError("coarse_interval_scale too large for the depth range")
        base = lo + spacing * np.arange(count)
        values = np.broadcast_to(base[:, None, None], (count, h, w)).copy()
        return HypothesisSet(values, spacing, stage)
    if prev_depth is None:
        raise PlaneSweepError(f"stage {stage} requires the previous stage depth")
    spacing = cfg.refine_interval_scales[stage - 2] * cfg.final_interval(cam)
    center = resize_bilinear(prev_depth, h, w).data
    width = spacing * (count - 1)
    if width > (hi - lo):
        raise PlaneSweepError("refinement window exceeds the depth range")
    start = np.clip(center - width / 2.0, lo, hi - width)
    values = start[None, :, :] + spacing * np.arange(count)[:, None, None]
    return HypothesisSet(values, spacing, stage)


def _box_stats(gray: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    mu = uniform_filter(gray, size=size, mode="nearest")
    var = uniform_filter(gray * gray, size=size, mode="nearest") - mu * mu
    return mu, np.sqrt(np.clip(var, 0.0, None))


def _gaussian_blur(arr: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return arr
    from scipy.ndimage import gaussian_filter
    return gaussian_filter(arr, sigma=sigma, mode="nearest")


def extract_features(img: Image, stage: int, cfg: SweepConfig) -> np.ndarray:
    """Fixed per-pixel feature stack at the stage resolution, (h, w, N_C).

    All channels are local-contrast signals (gradients, diagonal differences,
    and deviations from 3x3 / 5x5 box means) on a blurred pyramid level
    matched to the stage's downsampling factor: a raw-intensity channel would
    dominate the per-group L2 normalization and flatten the correlation.
    Constant images produce all-zero features, so textureless regions yield a
    flat cost curve instead of a spurious match.
    """
    scale = cfg.stage_scales[stage - 1]
    gray = to_grayscale(img)
    if scale > 1:
        gray = _gaussian_blur(gray, sigma=0.5 * scale)
    h = max(1, img.height // scale)
    w = max(1, img.width // scale)
    gray = resize_bilinear(gray, h, w)
    gx, gy = forward_diff(gray)
    gd1 = np.zeros_like(gray)
    gd1[:-1, :-1] = gray[1:, 1:] - gray[:-1, :-1]
    gd2 = np.zeros_like(gray)
    gd2[:-1, 1:] = gray[1:, :-1] - gray[:-1, 1:]
    gmag = np.sqrt(gx * gx + gy * gy)
    mu3, _ = _box_stats(gray, 3)
    mu5, _ = _box_stats(gray, 5)
    gmc = gmag - uniform_filter(gmag, size=3, mode="nearest")
    feats = np.stack([gray - mu3, gx, gy, gd1, gd2, mu3 - mu5, gray - mu5, gmc],
                     axis=-1)
    feats = feats[:, :, :cfg.n_channels]
    per_group = cfg.n_channels // cfg.n_groups
    shaped = feats.reshape(h, w, cfg.n_groups, per_group)
    norms = np.linalg.norm(shaped, axis=-1, keepdims=True)
    shaped = shaped / np.maximum(norms, 1e-8)
    return shaped.reshape(h, w, cfg.n_channels)


def build_feature_volume(src_feat: np.ndarray, hyps: HypothesisSet,
                         ref_cam: Camera, src_cam: Camera,
                         n_groups: int | None = None) -> np.ndarray:
    """Warp source features to every hypothesis plane: (N_C, D, h, w).

    When n_groups is given, each sampled group vector is re-normalized:
    bilinear interpolation attenuates feature energy as a function of the
    fractional sampling phase, which would otherwise drag the correlation
    peak toward integer alignments (pixel locking)."""
    d, h, w = hyps.values.shape
    if src_feat.ndim != 3:
        raise PlaneSweepError("features must be (h, w, C)")
    grid = pixel_grid(h, w)
    grids = np.broadcast_to(grid, (d, h, w, 2))
    uv, z, front = project_with_depth(grids, hyps.values, ref_cam, src_cam)
    val, inb = bilinear_sample(src_feat, uv)
    val = val * (front & inb)[..., None]
    if n_groups is not None:
        nc = val.shape[-1]
        shaped = val.reshape(d, h, w, n_groups, nc // n_groups)
        norms = np.linalg.norm(shaped, axis=-1, keepdims=True)
        val = (shaped / np.maximum(norms, 1e-8)).reshape(d, h, w, nc)
    return np.moveaxis(val, -1, 0)


def groupwise_correlation(ref_vol: np.ndarray, src_vols: list[np.ndarray],
                          n_groups: int, drop_last_source: bool = False) -> np.ndarray:
    """Group-wise correlation cost, (N_G, D, h, w).

    Inner products over each group's channels, summed over source volumes and
    normalized by (N-1) * N_C / N_G. drop_last_source leaves the last source
    out of the sum while keeping the same normalizer.
    """
    if not src_vols:
        raise PlaneSweepError("need at least one source volume")
    nc = ref_vol.shape[0]
    if nc % n_groups != 0:
        raise PlaneSweepError("channels not divisible by groups")
    for v in src_vols:
        if v.shape != ref_vol.shape:
            raise PlaneSweepError("volume shapes must match")
    per_group = nc // n_groups
    n_src = len(src_vols)
    used = src_vols[:-1] if (drop_last_source and n_src > 1) else src_vols
    ref_g = ref_vol.reshape(n_groups, per_group, *ref_vol.shape[1:])
    acc = np.zeros((n_groups,) + ref_vol.shape[1:])
    for v in used:
        acc += (ref_g * v.reshape(n_groups, per_group, *v.shape[1:])).sum(axis=1)
    return acc / (n_src * per_group)


def regularize_and_softmax(cost: np.ndarray, cfg: SweepConfig) -> np.ndarray:
    """Group-average, separable 3-tap box smoothing over (d, h, w) repeated
    smoothing_passes times, then a temperature softmax over hypotheses."""
    score = cost.mean(axis=0)
    for _ in range(cfg.smoothing_passes):
        score = uniform_filter(score, size=3, mode="nearest")
    score = score / cfg.temperature
    score = score - score.max(axis=0, keepdims=True)
    e = np.exp(score)
    return e / e.sum(axis=0, keepdims=True)


def regress_depth(prob: np.ndarray, hyps: HypothesisSet) -> ScalarField:
    if prob.shape != hyps.values.shape:
        raise PlaneSweepError("probability and hypothesis shapes must match")
    return ScalarField((prob * hyps.values).sum(axis=0))


def probability_and_confidence(prob: np.ndarray, hyps: HypothesisSet,
                               depth: ScalarField, conf_threshold: float
                               ) -> tuple[ScalarField, BinaryMask]:
    """Probability mass over the 4 hypotheses nearest the regressed depth,
    window clamped at the ends of the hypothesis range, and its binary gate."""
    count = hyps.count
    window = min(4, count)
    if count < 4:
        warnings.warn(f"only {count} hypotheses; confidence window shrunk to {window}")
    t = (depth.data - hyps.values[0]) / hyps.spacing
    start = np.clip(np.floor(t).astype(int) - 1, 0, count - window)
    csum = np.concatenate([np.zeros((1,) + prob.shape[1:]), np.cumsum(prob, axis=0)], axis=0)
    rows, cols = np.indices(depth.data.shape)
    pm = csum[start + window, rows, cols] - csum[start, rows, cols]
    pm = np.clip(pm, 0.0, 1.0)
    return ScalarField(pm), BinaryMask(pm > conf_threshold)


def _stage_size(img: Image, scale: int) -> tuple[int, int]:
    return max(1, img.height // scale), max(1, img.width // scale)


def sweep_stage(sample: Sample, hyps: HypothesisSet, stage: int, cfg: SweepConfig,
                feats: list[np.ndarray] | None = None) -> StageResult:
    ref = sample.reference
    scale = cfg.stage_scales[stage - 1]
    h, w = _stage_size(ref.image, scale)
    if feats is None:
        feats = [extract_features(v.image, stage, cfg) for v in [ref] + sample.sources]
    ref_cam = ref.camera.scaled(h, w, ref.image.height, ref.image.width)
    ref_vol = np.broadcast_to(np.moveaxis(feats[0], -1, 0)[:, None],
                              (cfg.n_channels, hyps.count, h, w))
    src_vols = []
    for view, feat in zip(sample.sources, feats[1:]):
        src_cam = view.camera.scaled(h, w, view.image.height, view.image.width)
        src_vols.append(build_feature_volume(feat, hyps, ref_cam, src_cam, cfg.n_groups))
    cost = groupwise_correlation(ref_vol, src_vols, cfg.n_groups, cfg.drop_last_source)
    prob = regularize_and_softmax(cost, cfg)
    depth = regress_depth(prob, hyps)
    pm, mc = probability_and_confidence(prob, hyps, depth, cfg.conf_threshold)
    return StageResult(depth, pm, mc, hyps, prob)


def cascade_infer(sample: Sample, cfg: SweepConfig | None = None) -> list[StageResult]:
    """Coarse-to-fine sweep; the final stage's depth is the inference result."""
    cfg = cfg or SweepConfig()
    ref = sample.reference
    results: list[StageResult] = []
    prev_depth = None
    for stage in range(1, len(cfg.stage_counts) + 1):
        h, w = _stage_size(ref.image, cfg.stage_scales[stage - 1])
        ref_cam = ref.camera.scaled(h, w, ref.image.height, ref.image.width)
        hyps = build_hypotheses(ref_cam, stage, cfg, prev_depth, h, w)
        result = sweep_stage(sample, hyps, stage, cfg)
        results.append(result)
        prev_depth = result.depth
    return results


def refresh_confidence(sample: Sample, depth: ScalarField, cfg: SweepConfig
                       ) -> tuple[ScalarField, BinaryMask]:
    """Re-evaluate the final sweep stage with hypotheses centered on the given
    depth field and read the confidence off the fresh probability volume."""
    stage = len(cfg.stage_counts)
    ref = sample.reference
    h, w = _stage_size(ref.image, cfg.stage_scales[stage - 1])
    ref_cam = ref.camera.scaled(h, w, ref.image.height, ref.image.width)
    hyps = build_hypotheses(ref_cam, stage, cfg, depth, h, w)
    result = sweep_stage(sample, hyps, stage, cfg)
    return probability_and_confidence(result.prob_volume, hyps, depth, cfg.conf_threshold)
