"""Cross-view depth filtering, point-cloud fusion, and the depth / point-cloud
evaluation metrics (per-threshold inlier fractions and accuracy/completeness
via nearest-neighbor distances from a KD-tree)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Camera, backproject, nearest_pixel, pixel_grid, project_with_depth
from .grids import Image


DEPTH_THRESHOLDS_MM = (2.0, 4.0, 8.0)  # depth_metrics' inlier thresholds
OUTLIER_CAP_MM = 20.0  # cloud_metrics' clamp on nearest-neighbor distances


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
    and the reference image for point colors. The maps are (H, W) float64
    arrays of the image's shape."""

    depth: np.ndarray
    prob_map: np.ndarray
    camera: Camera
    image: Image
    view_id: int = 0

    def __post_init__(self):
        shapes = [self.depth.shape, self.prob_map.shape, self.image.data.shape[:2]]
        if len(set(shapes)) > 1:
            raise FusionError(f"view {self.view_id}: depth, prob_map and image "
                              f"disagree in shape: {shapes}")


@dataclass
class PointCloud:
    points: np.ndarray      # (N, 3) mm
    colors: np.ndarray      # (N, 3) uint8
    provenance: np.ndarray  # (N, 3) int: view id, v, u

    def __len__(self) -> int:
        return len(self.points)


def _pairwise_consistency(ref: DepthView, other: DepthView, cfg: FusionConfig):
    """Round-trip check of every ref pixel against one other view.

    Projects the ref depth into the other view, reads that view's depth at the
    rounded pixel, back-projects it, and reprojects into ref. Returns
    (match mask under the reprojection / relative-depth gate, matched pixel
    coords in other, matched world points).
    """
    grid = pixel_grid(*ref.depth.shape)
    d_ref = ref.depth
    pos = d_ref > 0
    uv, _, front = project_with_depth(grid, np.where(pos, d_ref, 1.0),
                                      ref.camera, other.camera)
    uc, vc, inside = nearest_pixel(uv, *other.depth.shape)
    inb = front & pos & inside
    d_other = other.depth[vc, uc]
    pix_other = np.stack([uc, vc], axis=-1).astype(np.float64)
    world = backproject(other.camera, pix_other, d_other)
    uv_r, z_r, front_r = project_with_depth(pix_other, d_other, other.camera, ref.camera)
    reproj_err = np.linalg.norm(uv_r - grid, axis=-1)
    depth_err = np.abs(z_r - d_ref) / np.where(pos, d_ref, 1.0)
    match = (inb & (d_other > 0) & front_r & (reproj_err < cfg.reproj_px)
             & (depth_err < cfg.rel_depth))
    return match, pix_other, world


def fuse_point_cloud(views: list[DepthView], cfg: FusionConfig
                     ) -> tuple[PointCloud, list[np.ndarray]]:
    """Filter and fuse in one pass over the references in view-id order.

    A pixel survives when it passes the photometric confidence gate and the
    round trip against at least min_consistent_views other views. Surviving
    pixels not yet consumed are back-projected and averaged with their
    matches, and the matched pixels are consumed so overlapping surfaces are
    not duplicated. Returns the cloud and the per-view survival masks, in
    input order, as (H, W) bool arrays."""
    if len(views) < 2:
        raise FusionError("fusion needs at least 2 views")
    if len({v.view_id for v in views}) != len(views):
        raise FusionError("view ids must be unique")
    order = sorted(range(len(views)), key=lambda i: views[i].view_id)
    consumed = [np.zeros(v.depth.shape, dtype=bool) for v in views]
    masks: list[np.ndarray | None] = [None] * len(views)
    all_pts, all_cols, all_prov = [], [], []
    for i in order:
        ref = views[i]
        pairs = [(j, *_pairwise_consistency(ref, views[j], cfg))
                 for j in order if j != i]
        count = np.sum([match for _, match, _, _ in pairs], axis=0)
        masks[i] = ((ref.prob_map > cfg.conf_threshold)
                    & (count >= cfg.min_consistent_views))
        alive = masks[i] & ~consumed[i]
        if not alive.any():
            continue
        acc = backproject(ref.camera, pixel_grid(*ref.depth.shape), ref.depth)
        n_acc = np.ones(ref.depth.shape)
        for j, match, pix_other, world in pairs:
            match = match & alive
            acc += np.where(match[..., None], world, 0.0)
            n_acc += match
            mu = pix_other[..., 0].astype(int)[match]
            mv = pix_other[..., 1].astype(int)[match]
            consumed[j][mv, mu] = True
        pts = acc[alive] / n_acc[alive][:, None]
        cols = np.clip(ref.image.data[alive] * 255.0, 0, 255).astype(np.uint8)
        vs, us = np.nonzero(alive)
        prov = np.stack([np.full(len(vs), ref.view_id), vs, us], axis=-1)
        all_pts.append(pts)
        all_cols.append(cols)
        all_prov.append(prov)
    if not all_pts:
        cloud = PointCloud(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8),
                           np.zeros((0, 3), dtype=np.int64))
    else:
        cloud = PointCloud(np.concatenate(all_pts), np.concatenate(all_cols),
                           np.concatenate(all_prov))
    return cloud, masks


def depth_metrics(depth: np.ndarray, gt: np.ndarray) -> dict[float, float]:
    """Fraction of pixels with |depth - gt| <= threshold, for each of
    DEPTH_THRESHOLDS_MM."""
    if depth.shape != gt.shape:
        raise FusionError(f"depth {depth.shape} and gt {gt.shape} disagree in shape")
    err = np.abs(depth - gt)
    return {t: float((err <= t).mean()) for t in DEPTH_THRESHOLDS_MM}


def _directed_mean_distance(src: np.ndarray, dst: np.ndarray, cap: float) -> float:
    # imported here so that `import mvslab.cli` does not pay for scipy.spatial
    from scipy.spatial import cKDTree
    dist, _ = cKDTree(dst).query(src, distance_upper_bound=cap)
    return float(np.mean(np.minimum(dist, cap)))


def cloud_metrics(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float, float]:
    """(accuracy, completeness, overall) in mm of (N, 3) points: mean pred-to-gt
    and gt-to-pred nearest-neighbor distances, clamped at OUTLIER_CAP_MM, and their mean."""
    if len(pred) == 0 or len(gt) == 0:
        raise FusionError("cloud metrics need non-empty clouds")
    acc = _directed_mean_distance(pred, gt, OUTLIER_CAP_MM)
    comp = _directed_mean_distance(gt, pred, OUTLIER_CAP_MM)
    return acc, comp, (acc + comp) / 2.0
