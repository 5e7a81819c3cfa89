"""Non-learned cascade plane-sweep inference.

Fixed gradient/statistics features stand in for a learned feature extractor,
and separable box smoothing plus a temperature softmax stands in for a learned
cost-volume regularizer; the cost construction, depth regression and the
confidence mask follow the standard group-wise correlation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter, uniform_filter

from .geometry import Camera, pixel_grid, resize_bilinear, warp_image, warp_rays
from .grids import Image, forward_diff, to_grayscale
from .sampling import Sample


class PlaneSweepError(ValueError):
    pass


N_FEATURES = 8  # channels extract_features builds
N_GROUPS = 4    # correlation groups of N_FEATURES / N_GROUPS channels each
# The fixed three-stage cascade of CasMVSNet (Gu et al., CVPR 2020).
STAGE_COUNTS = (48, 32, 8)          # hypotheses per stage
STAGE_SCALES = (4, 2, 1)            # resolution divisor per stage
REFINE_INTERVAL_SCALES = (4.0, 1.0)  # x final interval, stages 2..
FINAL_INTERVALS = 191               # final interval = range / this
SMOOTHING_PASSES = 2
CONF_THRESHOLD = 0.95


@dataclass
class SweepConfig:
    softmax_sharpness: float = 50.0

    def __post_init__(self):
        if not self.softmax_sharpness > 0:
            raise PlaneSweepError("softmax_sharpness must be positive")

    @property
    def temperature(self) -> float:
        """Softmax temperature: the 1/sqrt(channels per group) attention-style
        scale alone leaves the bounded correlation scores nearly uniform after
        the softmax, so a sharpness gain calibrated on synthetic scenes is
        applied on top."""
        return 1.0 / (self.softmax_sharpness * np.sqrt(N_FEATURES / N_GROUPS))


def final_interval(cam: Camera) -> float:
    return (cam.depth_max - cam.depth_min) / FINAL_INTERVALS


@dataclass
class HypothesisSet:
    """Per-pixel depth hypotheses, strictly increasing with uniform spacing."""

    values: np.ndarray  # (D, h, w)
    spacing: float

    @property
    def count(self) -> int:
        return self.values.shape[0]


@dataclass
class StageResult:
    depth: np.ndarray  # (h, w) float64, mm
    prob_map: np.ndarray  # (h, w) float64
    conf_mask: np.ndarray  # (h, w) bool


def build_hypotheses(cam: Camera, stage: int, prev_depth: np.ndarray | None,
                     h: int, w: int) -> HypothesisSet:
    """Stage-1: uniform sweep of the camera depth range. Later stages: a
    fixed-count window centered on the upsampled previous depth, shifted (not
    clipped) back into the valid range so spacing stays strictly increasing."""
    count = STAGE_COUNTS[stage - 1]
    lo, hi = cam.depth_min, cam.depth_max
    if stage == 1:
        spacing = (hi - lo) / (count - 1)
        base = lo + spacing * np.arange(count)
        values = np.broadcast_to(base[:, None, None], (count, h, w)).copy()
        return HypothesisSet(values, spacing)
    if prev_depth is None:
        raise PlaneSweepError(f"stage {stage} requires the previous stage depth")
    spacing = REFINE_INTERVAL_SCALES[stage - 2] * final_interval(cam)
    center = resize_bilinear(prev_depth, h, w)
    width = spacing * (count - 1)  # at most 124/191 of the range, so it fits
    start = np.clip(center - width / 2.0, lo, hi - width)
    values = start[None, :, :] + spacing * np.arange(count)[:, None, None]
    return HypothesisSet(values, spacing)


def _stage_size(img: Image, scale: int) -> tuple[int, int]:
    h, w = img.height // scale, img.width // scale
    if scale > 1 and min(h, w) < 2:  # a side resized onto 1 pixel has no focal length
        raise PlaneSweepError(f"a {img.height}x{img.width} image is too small for stage "
                              f"divisor {scale}: each side needs at least {2 * scale} pixels")
    return h, w


def _normalize_groups(feats: np.ndarray) -> np.ndarray:
    """Each of N_GROUPS equal slices of the last axis scaled to unit L2 norm;
    all-zero groups stay zero."""
    shaped = feats.reshape(feats.shape[:-1] + (N_GROUPS, -1))
    x0, x1 = np.moveaxis(shaped, -1, 0)  # groups of N_FEATURES // N_GROUPS == 2
    norms = x0 * x0
    norms += x1 * x1
    np.sqrt(norms, out=norms)
    np.maximum(norms, 1e-8, out=norms)
    out = np.empty_like(shaped)
    np.divide(x0, norms, out=out[..., 0])
    np.divide(x1, norms, out=out[..., 1])
    return out.reshape(feats.shape)


def extract_features(img: Image, stage: int) -> np.ndarray:
    """Fixed per-pixel feature stack at the stage resolution, (h, w, N_C).

    All channels are local-contrast signals (gradients, diagonal differences,
    and deviations from 3x3 / 5x5 box means) on a blurred pyramid level
    matched to the stage's downsampling factor: a raw-intensity channel would
    dominate the per-group L2 normalization and flatten the correlation.
    Constant images produce all-zero features, so textureless regions yield a
    flat cost curve instead of a spurious match.
    """
    scale = STAGE_SCALES[stage - 1]
    gray = to_grayscale(img)
    if scale > 1:
        gray = gaussian_filter(gray, sigma=0.5 * scale, mode="nearest")
    h, w = _stage_size(img, scale)
    gray = resize_bilinear(gray, h, w)
    gx, gy = forward_diff(gray)
    gd1 = np.zeros_like(gray)
    gd1[:-1, :-1] = gray[1:, 1:] - gray[:-1, :-1]
    gd2 = np.zeros_like(gray)
    gd2[:-1, 1:] = gray[1:, :-1] - gray[:-1, 1:]
    gmag = np.sqrt(gx * gx + gy * gy)
    mu3 = uniform_filter(gray, size=3, mode="nearest")
    mu5 = uniform_filter(gray, size=5, mode="nearest")
    gmc = gmag - uniform_filter(gmag, size=3, mode="nearest")
    feats = np.stack([gray - mu3, gx, gy, gd1, gd2, mu3 - mu5, gray - mu5, gmc],
                     axis=-1)
    return _normalize_groups(feats)


def build_feature_volume(src_feat: np.ndarray, hyps: HypothesisSet,
                         ref_cam: Camera, src_cam: Camera) -> np.ndarray:
    """Warp source features to every hypothesis plane: (N_C, D, h, w).

    The rays of the (h, w) grid are computed once and broadcast over the D
    planes. Each sampled group vector is re-normalized: bilinear interpolation
    attenuates feature energy as a function of the fractional sampling phase,
    which would otherwise drag the correlation peak toward integer alignments
    (pixel locking)."""
    if src_feat.ndim != 3:
        raise PlaneSweepError("features must be (h, w, C)")
    a, c = warp_rays(pixel_grid(*hyps.values.shape[1:]), ref_cam, src_cam)
    val = warp_image(a, c, src_feat, hyps.values)[0]
    return np.moveaxis(_normalize_groups(val), -1, 0)


def groupwise_correlation(ref_vol: np.ndarray, src_vols: list[np.ndarray],
                          n_groups: int) -> np.ndarray:
    """Group-wise correlation cost, (N_G, D, h, w).

    Inner products over each group's channels, summed over source volumes and
    normalized by (N-1) * N_C / N_G.
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
    ref_g = ref_vol.reshape(n_groups, per_group, *ref_vol.shape[1:])
    acc = np.zeros((n_groups,) + ref_vol.shape[1:])
    dot = np.empty_like(acc)
    term = np.empty_like(acc)
    for v in src_vols:
        src_g = v.reshape(n_groups, per_group, *v.shape[1:])
        np.multiply(ref_g[:, 0], src_g[:, 0], out=dot)
        for k in range(1, per_group):
            dot += np.multiply(ref_g[:, k], src_g[:, k], out=term)
        acc += dot
    return acc / (len(src_vols) * per_group)


def regularize_and_softmax(cost: np.ndarray, cfg: SweepConfig) -> np.ndarray:
    """Group-average, separable 3-tap box smoothing over (d, h, w) repeated
    SMOOTHING_PASSES times, then a temperature softmax over hypotheses."""
    score = cost.mean(axis=0)
    for _ in range(SMOOTHING_PASSES):
        score = uniform_filter(score, size=3, mode="nearest")
    score = score / cfg.temperature
    score = score - score.max(axis=0, keepdims=True)
    e = np.exp(score)
    return e / e.sum(axis=0, keepdims=True)


def regress_depth(prob: np.ndarray, hyps: HypothesisSet) -> np.ndarray:
    if prob.shape != hyps.values.shape:
        raise PlaneSweepError("probability and hypothesis shapes must match")
    return (prob * hyps.values).sum(axis=0)


def probability_and_confidence(prob: np.ndarray, hyps: HypothesisSet,
                               depth: np.ndarray, conf_threshold: float
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Probability mass over the 4 hypotheses nearest the regressed depth,
    window clamped at the ends of the hypothesis range, and its binary gate."""
    if hyps.count < 4:
        raise PlaneSweepError(f"the confidence window needs 4 hypotheses, got {hyps.count}")
    t = (depth - hyps.values[0]) / hyps.spacing
    start = np.clip(np.floor(t).astype(int) - 1, 0, hyps.count - 4)
    csum = np.concatenate([np.zeros((1,) + prob.shape[1:]), np.cumsum(prob, axis=0)], axis=0)
    rows, cols = np.indices(depth.shape)
    pm = csum[start + 4, rows, cols] - csum[start, rows, cols]
    pm = np.clip(pm, 0.0, 1.0)
    return pm, pm > conf_threshold


def _stage_volume(sample: Sample, stage: int, cfg: SweepConfig,
                  prev_depth: np.ndarray | None) -> tuple[np.ndarray, HypothesisSet]:
    """One stage at its resolution: hypotheses from the reference camera's
    range (stage 1) or around prev_depth, features of every view warped onto
    them, correlation and softmax. Returns (probability volume, hypotheses)."""
    ref = sample.reference
    h, w = _stage_size(ref.image, STAGE_SCALES[stage - 1])

    def camera(view):
        return view.camera.scaled(h, w, view.image.height, view.image.width)

    ref_cam = camera(ref)
    hyps = build_hypotheses(ref_cam, stage, prev_depth, h, w)
    feats = [extract_features(v.image, stage) for v in [ref] + sample.sources]
    ref_vol = np.broadcast_to(np.moveaxis(feats[0], -1, 0)[:, None],
                              (N_FEATURES, hyps.count, h, w))
    src_vols = [build_feature_volume(feat, hyps, ref_cam, camera(view))
                for view, feat in zip(sample.sources, feats[1:])]
    cost = groupwise_correlation(ref_vol, src_vols, N_GROUPS)
    return regularize_and_softmax(cost, cfg), hyps


def cascade_infer(sample: Sample, cfg: SweepConfig | None = None) -> StageResult:
    """Coarse-to-fine sweep; returns the final stage, the inference result.
    An earlier stage passes on only its depth, so no confidence is read off it."""
    cfg = cfg or SweepConfig()
    depth = None
    for stage in range(1, len(STAGE_COUNTS)):
        depth = regress_depth(*_stage_volume(sample, stage, cfg, depth))
    prob, hyps = _stage_volume(sample, len(STAGE_COUNTS), cfg, depth)
    depth = regress_depth(prob, hyps)
    return StageResult(depth, *probability_and_confidence(prob, hyps, depth, CONF_THRESHOLD))


def refresh_confidence(sample: Sample, depth: np.ndarray, cfg: SweepConfig
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Re-evaluate the final sweep stage with hypotheses centered on the given
    depth field and read the confidence off the fresh probability volume."""
    prob, hyps = _stage_volume(sample, len(STAGE_COUNTS), cfg, depth)
    return probability_and_confidence(prob, hyps, depth, CONF_THRESHOLD)
