"""Pinhole camera model, the one inverse warp of the plane sweep and the loss
terms, differentiable bilinear sampling, and the depth derivative of the warp
used by the analytic gradients.

Conventions: pixel coordinate p = (u, v) with u along width; poses are 4x4
world-to-camera rigid transforms; depth is the camera-frame z in mm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import GridError, Image

EPS_Z = 1e-3  # mm; guard against points at/behind the source camera plane


class GeometryError(ValueError):
    pass


def _corner_aligned_coords(n_src: int, n_dst: int) -> np.ndarray:
    """Sample positions of a corner-aligned resize from n_src to n_dst pixels:
    the first and last pixel centers map onto each other."""
    if n_dst == 1:
        return np.zeros(1)
    return np.linspace(0.0, n_src - 1.0, n_dst)


@dataclass
class Camera:
    """Intrinsics, world-to-camera pose, and the usable depth range."""

    k: np.ndarray
    pose: np.ndarray
    depth_min: float
    depth_max: float
    depth_interval: float | None = None
    depth_num: int = 192

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.float64)
        self.pose = np.asarray(self.pose, dtype=np.float64)
        if self.k.shape != (3, 3):
            raise GeometryError(f"intrinsics must be 3x3, got {self.k.shape}")
        if self.pose.shape != (4, 4):
            raise GeometryError(f"pose must be 4x4, got {self.pose.shape}")
        lower = np.array([self.k[1, 0], self.k[2, 0], self.k[2, 1]])
        if np.any(np.abs(lower) > 1e-9):
            raise GeometryError("intrinsic matrix must be upper-triangular")
        if self.k[0, 0] <= 0 or self.k[1, 1] <= 0:
            raise GeometryError("focal entries must be positive")
        r = self.pose[:3, :3]
        if np.linalg.norm(r.T @ r - np.eye(3)) > 1e-6:
            raise GeometryError("rotation block must be orthonormal")
        if np.any(np.abs(self.pose[3] - np.array([0.0, 0.0, 0.0, 1.0])) > 1e-9):
            raise GeometryError("pose last row must be [0, 0, 0, 1]")
        if not (0.0 < self.depth_min < self.depth_max):
            raise GeometryError("need 0 < depth_min < depth_max")
        if self.depth_interval is None:
            self.depth_interval = (self.depth_max - self.depth_min) / (self.depth_num - 1)

    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        r = self.pose[:3, :3]
        t = self.pose[:3, 3]
        return -r.T @ t

    def scaled(self, new_h: int, new_w: int, old_h: int, old_w: int) -> "Camera":
        """Intrinsics rescaled for a corner-aligned resize of the image grid,
        the convention of _corner_aligned_coords and resize_bilinear."""
        sx = 1.0 if old_w == 1 else (new_w - 1.0) / (old_w - 1.0)
        sy = 1.0 if old_h == 1 else (new_h - 1.0) / (old_h - 1.0)
        k = self.k.copy()
        k[0, :] *= sx
        k[1, :] *= sy
        return Camera(k, self.pose.copy(), self.depth_min, self.depth_max,
                      self.depth_interval, self.depth_num)


@dataclass
class CameraView:
    """One calibrated viewpoint: image, camera, and (synthetic) GT depth."""

    image: Image
    camera: Camera
    gt_depth: np.ndarray | None = None  # (H, W) float64, mm
    view_id: int = 0

    def __post_init__(self):
        cx, cy = self.camera.k[0, 2], self.camera.k[1, 2]
        if not (0.0 <= cx <= self.image.width - 1 and 0.0 <= cy <= self.image.height - 1):
            raise GeometryError("principal point must lie inside the image")
        if self.gt_depth is not None:
            if self.gt_depth.shape != self.image.data.shape[:2]:
                raise GeometryError("gt depth shape must match the image")


def rigid_inverse(pose: np.ndarray) -> np.ndarray:
    inv = np.eye(4)
    r = pose[:3, :3]
    inv[:3, :3] = r.T
    inv[:3, 3] = -r.T @ pose[:3, 3]
    return inv


def relative_transform(ref: Camera, src: Camera) -> np.ndarray:
    """src.pose @ ref.pose^-1: maps ref-camera coordinates to src-camera ones."""
    return src.pose @ rigid_inverse(ref.pose)


def _homogeneous(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    return np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)


def warp_rays(p, ref: Camera, src: Camera) -> tuple[np.ndarray, np.ndarray]:
    """The depth-independent part of the warp of pixel(s) p from ref into src:
    q(d) = d * a + c, with a = p~ @ B^T per pixel (..., 3) and c (3,)."""
    t_rel = relative_transform(ref, src)
    b = src.k @ t_rel[:3, :3] @ np.linalg.inv(ref.k)
    return _homogeneous(p) @ b.T, src.k @ t_rel[:3, 3]


def project_rays(a: np.ndarray, c: np.ndarray, d: np.ndarray):
    """q = d * a + c divided by its z: (uv, z, valid) with valid = z > EPS_Z."""
    q = d[..., None] * a + c
    z = q[..., 2]
    valid = z > EPS_Z
    safe_z = np.where(valid, z, 1.0)
    uv = q[..., :2] / safe_z[..., None]
    return uv, z, valid


def project_with_depth(p, d, ref: Camera, src: Camera):
    """Inverse-warp pixel(s) p at depth(s) d from ref into src.

    Unprojects with ref intrinsics, applies the relative rigid transform,
    reprojects with src intrinsics and divides by the source-frame z.

    Returns (uv, z, valid) where uv has the shape of p, z the shape of d, and
    valid flags z > EPS_Z. Accepts a single (2,) pixel or an (..., 2) array.
    """
    a, c = warp_rays(p, ref, src)
    return project_rays(a, c, np.asarray(d, dtype=np.float64))


def ray_jacobian(a: np.ndarray, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """d(uv')/dd in pixels per mm at project_rays' z. Quotient rule on the
    perspective division: with q(d) = d*a + c, du'/dd = (a_x * c_z - c_x * a_z)
    / z^2 and likewise for v'. Zero where points fall at/behind the source
    camera plane."""
    valid = z > EPS_Z
    safe_z = np.where(valid, z, 1.0)
    num = np.stack([a[..., 0] * c[2] - c[0] * a[..., 2],
                    a[..., 1] * c[2] - c[1] * a[..., 2]], axis=-1)
    return num / (safe_z * safe_z)[..., None] * valid[..., None]


class BilinearCells(NamedTuple):
    """The interpolation cell of each of N points in an (H, W, C) image, shared
    by the bilinear value and its spatial derivative. Out-of-bounds points are
    clamped onto the border cell and flagged by inb; value and grad do not
    read it, so a caller masks them itself."""

    flat: np.ndarray  # (H*W, C) view of the image
    base: np.ndarray  # (N,) flat index of the cell's top-left corner
    du: int           # flat offset to the right-hand corner
    dv: int           # flat offset to the lower corner
    fu: np.ndarray    # (N, 1) fractions inside the cell
    fv: np.ndarray
    inb: np.ndarray   # (N,)

    def _corners(self) -> tuple[np.ndarray, ...]:
        """(N, C) image values at the cells' top-left, top-right, bottom-left
        and bottom-right corners. Each is its own fresh array: the blends write
        into them, and a result keeps no other corner's memory alive."""
        f, b, du, dv = self[:4]
        return tuple(f.take(i, axis=0) for i in (b, b + du, b + dv, b + dv + du))

    def value(self) -> np.ndarray:
        """(N, C) interpolated values, those of the clamped point out of bounds.
        Blended in place in the order of top = f00 (1 - fu) + f01 fu, bot
        likewise, top (1 - fv) + bot fv."""
        fu, fv = self[4:6]
        top, f01, bot, f11 = self._corners()  # top and bot start as f00 and f10
        top *= 1.0 - fu
        f01 *= fu
        top += f01
        bot *= 1.0 - fu
        f11 *= fu
        bot += f11
        top *= 1.0 - fv
        bot *= fv
        top += bot
        return top

    def grad(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, C) derivatives of value w.r.t. u and v: piecewise per cell,
        one-sided at cell boundaries, those of the clamped point out of bounds.
        In place, in the order of gu = (1 - fv) (f01 - f00) + fv (f11 - f10)
        and gv = (1 - fu) (f10 - f00) + fu (f11 - f01)."""
        fu, fv = self[4:6]
        f00, f01, f10, f11 = self._corners()
        gu = f01 - f00
        gu *= 1.0 - fv
        gv = np.subtract(f10, f00, out=f00)
        gv *= 1.0 - fu
        np.subtract(f11, f10, out=f10)
        f10 *= fv
        gu += f10
        np.subtract(f11, f01, out=f11)
        f11 *= fu
        gv += f11
        return gu, gv


def bilinear_cells(arr: np.ndarray, uv: np.ndarray) -> BilinearCells:
    """Cells of the points uv (..., 2), continuous pixel coordinates, in the
    (H, W, C) array arr."""
    h, w, c = arr.shape
    u = uv[..., 0].ravel()
    v = uv[..., 1].ravel()
    inb = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    uc = np.clip(u, 0.0, w - 1.0)
    vc = np.clip(v, 0.0, h - 1.0)
    u0 = np.minimum(uc.astype(int), max(w - 2, 0))
    v0 = np.minimum(vc.astype(int), max(h - 2, 0))
    return BilinearCells(arr.reshape(-1, c), v0 * w + u0, 1 if w > 1 else 0,
                         w if h > 1 else 0, (uc - u0)[:, None], (vc - v0)[:, None], inb)


def warp_image(a: np.ndarray, c: np.ndarray, image: np.ndarray, depth: np.ndarray):
    """Inverse-warp the (H, W, C) image along the rays a, c of warp_rays at
    depth, an (h, w) field or a (D, h, w) stack of planes: (warped, mask, z,
    cells), warped 0 where the depth is <= 0, the point at/behind the source
    camera or the sample out of the image. Elementwise, so a block of pixels
    warps to the same bytes as it does within the whole image."""
    positive = depth > 0.0
    uv, z, front = project_rays(a, c, np.where(positive, depth, 1.0))
    cells = bilinear_cells(image, uv)
    mask = cells.inb.reshape(z.shape) & front & positive
    warped = cells.value().reshape(z.shape + (-1,))
    warped *= mask[..., None]
    return warped, mask, z, cells


def nearest_pixel(uv: np.ndarray, h: int, w: int):
    """Nearest pixel of each point uv (..., 2) in an h x w view: (u, v) clipped
    into the view, and whether the rounded pixel lies inside it."""
    u = np.round(uv[..., 0]).astype(int)
    v = np.round(uv[..., 1]).astype(int)
    inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    return np.clip(u, 0, w - 1), np.clip(v, 0, h - 1), inside


def resize_bilinear(arr: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of an (H, W[, C]) array. Every sample
    lies inside the image."""
    if new_h < 1 or new_w < 1:
        raise GridError(f"resize target must be >= 1x1, got {new_h}x{new_w}")
    h, w = arr.shape[:2]
    uv = np.stack(np.meshgrid(_corner_aligned_coords(w, new_w),
                              _corner_aligned_coords(h, new_h)), axis=-1)
    out = bilinear_cells(arr.reshape(h, w, -1), uv).value()
    return out.reshape((new_h, new_w) + arr.shape[2:])


def pixel_grid(h: int, w: int) -> np.ndarray:
    """(H, W, 2) array of (u, v) pixel-center coordinates."""
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    return np.stack([us, vs], axis=-1)


def backproject(cam: Camera, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Pixels (..., 2) at camera-frame depths (...) -> world points (..., 3)."""
    ph = _homogeneous(pixels)
    m = ph @ np.linalg.inv(cam.k).T
    x_cam = np.asarray(depths, dtype=np.float64)[..., None] * m
    r = cam.pose[:3, :3]
    t = cam.pose[:3, 3]
    return (x_cam - t) @ r
