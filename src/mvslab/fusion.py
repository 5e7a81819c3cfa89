"""Cross-view depth filtering, point-cloud fusion, and the depth / point-cloud
evaluation metrics (per-threshold inlier fractions and accuracy/completeness
via nearest-neighbor distances from a KD-tree)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Camera, backproject, pixel_grid, project_with_depth
from .grids import BinaryMask, Image, ScalarField


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class FusionConfig:
    conf_threshold: float = 0.95
    reproj_px: float = 1.0
    rel_depth: float = 0.01
    min_consistent_views: int = 3

    def __post_init__(self):
        if not (0.0 < self.conf_threshold < 1.0):
            raise FusionError("conf_threshold must lie in (0, 1)")
        if self.reproj_px <= 0 or not (0.0 < self.rel_depth < 1.0):
            raise FusionError("invalid reprojection / depth thresholds")
        if self.min_consistent_views < 1:
            raise FusionError("min_consistent_views must be >= 1")


@dataclass
class DepthView:
    """Per-view fused inputs: estimated depth, its probability map, camera,
    and the reference image for point colors."""

    depth: ScalarField
    prob_map: ScalarField
    camera: Camera
    image: Image | None = None
    view_id: int = 0


@dataclass
class PointCloud:
    points: np.ndarray                      # (N, 3) mm
    colors: np.ndarray                      # (N, 3) uint8
    provenance: np.ndarray = field(default=None)  # (N, 3): view id, v, u

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise FusionError("point coordinates must be finite")
        self.colors = np.asarray(self.colors, dtype=np.uint8).reshape(-1, 3)
        if self.provenance is None:
            self.provenance = np.full((len(self.points), 3), -1, dtype=np.int64)
        self.provenance = np.asarray(self.provenance, dtype=np.int64).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.points)


def _pairwise_consistency(ref: DepthView, other: DepthView):
    """Round-trip check of every ref pixel against one other view.

    Projects the ref depth into the other view, reads that view's depth at the
    rounded pixel, back-projects it, and reprojects into ref. Returns
    (consistent mask, matched pixel coords in other, matched world points).
    """
    h, w = ref.depth.height, ref.depth.width
    grid = pixel_grid(h, w)
    d_ref = ref.depth.data
    pos = d_ref > 0
    uv, _, front = project_with_depth(grid, np.where(pos, d_ref, 1.0),
                                      ref.camera, other.camera)
    oh, ow = other.depth.height, other.depth.width
    u = np.round(uv[..., 0]).astype(int)
    v = np.round(uv[..., 1]).astype(int)
    inb = front & pos & (u >= 0) & (u < ow) & (v >= 0) & (v < oh)
    uc, vc = np.clip(u, 0, ow - 1), np.clip(v, 0, oh - 1)
    d_other = other.depth.data[vc, uc]
    ok = inb & (d_other > 0)
    pix_other = np.stack([uc, vc], axis=-1).astype(np.float64)
    world = backproject(other.camera, pix_other, d_other)
    # reproject the other view's matched point into the reference
    r = ref.camera.pose[:3, :3]
    t = ref.camera.pose[:3, 3]
    cam_pts = world @ r.T + t
    z_r = cam_pts[..., 2]
    ok &= z_r > 1e-3
    proj = cam_pts @ ref.camera.k.T
    safe_z = np.where(ok, z_r, 1.0)
    uv_r = proj[..., :2] / safe_z[..., None]
    reproj_err = np.linalg.norm(uv_r - grid, axis=-1)
    depth_err = np.abs(z_r - d_ref) / np.where(pos, d_ref, 1.0)
    return ok, reproj_err, depth_err, pix_other, world


def geometric_consistency_filter(views: list[DepthView], cfg: FusionConfig
                                 ) -> list[BinaryMask]:
    """Per-view masks of pixels passing the photometric confidence gate and a
    round-trip geometric check against at least min_consistent_views others."""
    if len(views) < 2:
        raise FusionError("geometric filtering needs at least 2 views")
    masks = []
    for ref in views:
        conf = ref.prob_map.data > cfg.conf_threshold
        count = np.zeros(ref.depth.data.shape, dtype=int)
        for other in views:
            if other.view_id == ref.view_id:
                continue
            ok, reproj, derr, _, _ = _pairwise_consistency(ref, other)
            count += (ok & (reproj < cfg.reproj_px) & (derr < cfg.rel_depth))
        masks.append(BinaryMask(conf & (count >= cfg.min_consistent_views)))
    return masks


def fuse_point_cloud(views: list[DepthView], masks: list[BinaryMask],
                     cfg: FusionConfig) -> PointCloud:
    """Back-project surviving pixels, average each pixel's mutually-consistent
    cross-view matches into a single point, and consume the matched pixels so
    overlapping surfaces are not duplicated."""
    if len(views) != len(masks):
        raise FusionError("need one survival mask per view")
    order = sorted(range(len(views)), key=lambda i: views[i].view_id)
    consumed = [np.zeros(v.depth.data.shape, dtype=bool) for v in views]
    all_pts, all_cols, all_prov = [], [], []
    for i in order:
        ref = views[i]
        h, w = ref.depth.height, ref.depth.width
        alive = masks[i].data & ~consumed[i]
        if not alive.any():
            continue
        grid = pixel_grid(h, w)
        base = backproject(ref.camera, grid, ref.depth.data)
        acc = base.copy()
        n_acc = np.ones((h, w))
        for j in order:
            if j == i:
                continue
            other = views[j]
            ok, reproj, derr, pix_other, world = _pairwise_consistency(ref, other)
            match = alive & ok & (reproj < cfg.reproj_px) & (derr < cfg.rel_depth)
            acc += np.where(match[..., None], world, 0.0)
            n_acc += match
            mu = pix_other[..., 0].astype(int)[match]
            mv = pix_other[..., 1].astype(int)[match]
            consumed[j][mv, mu] = True
        pts = acc[alive] / n_acc[alive][:, None]
        if ref.image is not None:
            cols = np.clip(ref.image.data[alive] * 255.0, 0, 255).astype(np.uint8)
        else:
            cols = np.full((int(alive.sum()), 3), 200, dtype=np.uint8)
        vs, us = np.nonzero(alive)
        prov = np.stack([np.full(len(vs), ref.view_id), vs, us], axis=-1)
        all_pts.append(pts)
        all_cols.append(cols)
        all_prov.append(prov)
    if not all_pts:
        return PointCloud(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8),
                          np.zeros((0, 3), dtype=np.int64))
    return PointCloud(np.concatenate(all_pts), np.concatenate(all_cols),
                      np.concatenate(all_prov))


def depth_metrics(depth: ScalarField, gt: ScalarField, valid: BinaryMask,
                  thresholds: tuple[float, ...] = (2.0, 4.0, 8.0)) -> dict[float, float]:
    """Fraction of valid pixels with |depth - gt| <= threshold (mm)."""
    m = valid.data
    if m.sum() == 0:
        raise FusionError("depth metrics over an empty valid mask")
    err = np.abs(depth.data - gt.data)[m]
    return {float(t): float((err <= t).mean()) for t in thresholds}


def _directed_mean_distance(src: np.ndarray, dst: np.ndarray, cap: float) -> float:
    # imported here so that `import mvslab.cli` does not pay for scipy.spatial
    from scipy.spatial import cKDTree
    dist, _ = cKDTree(dst).query(src, distance_upper_bound=cap)
    return float(np.mean(np.minimum(dist, cap)))


def cloud_metrics(pred: PointCloud, gt: PointCloud, outlier_cap: float = 20.0
                  ) -> tuple[float, float, float]:
    """(accuracy, completeness, overall) in mm: mean pred-to-gt and gt-to-pred
    nearest-neighbor distances, clamped at the outlier cap, and their mean."""
    if len(pred) == 0 or len(gt) == 0:
        raise FusionError("cloud metrics need non-empty clouds")
    acc = _directed_mean_distance(pred.points, gt.points, outlier_cap)
    comp = _directed_mean_distance(gt.points, pred.points, outlier_cap)
    return acc, comp, (acc + comp) / 2.0
