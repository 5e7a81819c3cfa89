"""Ray-traced synthetic scenes with exact analytic ground-truth depth.

Scenes are deliberately simple (plane / cube / sphere over a ground plane,
checker / value-noise / uniform textures, Lambertian shading with an optional
Phong term) so that every pipeline stage can be checked against closed-form
geometry. The `plane_with_occluder` geometry renders a phantom occluder into
exactly one view's image while leaving the ground truth untouched, emulating
a view-dependent corruption.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .geometry import Camera, CameraView, pixel_grid, project_with_depth
from .grids import Image
from .sampling import (Sample, SamplingError, make_image_contrastive,
                       make_scene_contrastive, select_regular_views)

GEOMETRIES = ("textured_plane", "cube", "sphere", "plane_with_occluder")
TEXTURES = ("checker", "noise", "uniform")


class SceneError(ValueError):
    pass


@dataclass
class SceneSpec:
    """Declarative description of a synthetic scene."""

    geometry: str = "textured_plane"
    texture: str = "checker"
    checker_period_mm: float = 90.0
    specular_strength: float = 0.0
    n_views: int = 5
    height: int = 64
    width: int = 80
    seed: int = 0

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise SceneError(f"unknown geometry {self.geometry!r}")
        if self.texture not in TEXTURES:
            raise SceneError(f"unknown texture {self.texture!r}")
        if self.n_views < 2:
            raise SceneError("need at least 2 views")
        if not (0.0 <= self.specular_strength <= 1.0):
            raise SceneError("specular_strength must be in [0, 1]")
        if self.seed < 0:
            raise SceneError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SyntheticScene:
    spec: SceneSpec
    views: list[CameraView]
    pair_scores: dict[int, list[tuple[int, float]]]
    # (corrupted view id, its (H, W) bool footprint), None when no view shows
    # the occluder; kept in memory only, save_scene does not write it
    occluder: tuple[int, np.ndarray] | None = None


_LIGHT = np.array([0.35, -0.25, 0.88])
_LIGHT = _LIGHT / np.linalg.norm(_LIGHT)
_AMBIENT = 0.35
_DIFFUSE = 0.62

_CHECKER_A = np.array([0.88, 0.82, 0.74])
_CHECKER_B = np.array([0.16, 0.22, 0.30])
_UNIFORM_ALBEDO = np.array([0.58, 0.58, 0.58])
_OCCLUDER_A = np.array([0.95, 0.35, 0.25])
_OCCLUDER_B = np.array([0.15, 0.12, 0.45])

_CHECKER_SOFTNESS_MM = 8.0  # edge transition width; keeps edges band-limited
_NOISE_OCTAVES = 3
_NOISE_SCALE_MM = 80.0
_RING_RADIUS_MM = 650.0
_RING_JITTER_MM = 15.0
_RING_POLAR_DEG = 24.0
_RING_SPAN_DEG = 360.0  # azimuth arc the views are spread over
_FOCAL_SCALE = 1.6
_DEPTH_MIN_MM = 425.0
_DEPTH_MAX_MM = 935.0

_CUBE_HALF = 62.0
_SPHERE_RADIUS = 65.0
_OCCLUDER_Z = 165.0
_OCCLUDER_X = (-70.0, 25.0)
_OCCLUDER_Y = (-45.0, 45.0)


def _hash01(ix, iy, iz, seed: int):
    s = np.sin(ix * 127.1 + iy * 311.7 + iz * 74.7 + (seed % 1024) * 0.1031) * 43758.5453123
    return s - np.floor(s)


def _value_noise(p_mm: np.ndarray, scale: float, octaves: int, seed: int) -> np.ndarray:
    """Deterministic trilinear value noise on world coordinates, in [0, 1]."""
    out = np.zeros(p_mm.shape[:-1])
    amp, total = 1.0, 0.0
    for o in range(octaves):
        q = p_mm / (scale / (2.0 ** o))
        qi = np.floor(q)
        f = q - qi
        f = f * f * (3.0 - 2.0 * f)
        acc = np.zeros_like(out)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    h = _hash01(qi[..., 0] + dx, qi[..., 1] + dy, qi[..., 2] + dz, seed + o)
                    wx = f[..., 0] if dx else 1.0 - f[..., 0]
                    wy = f[..., 1] if dy else 1.0 - f[..., 1]
                    wz = f[..., 2] if dz else 1.0 - f[..., 2]
                    acc += h * wx * wy * wz
        out += amp * acc
        total += amp
        amp *= 0.5
    return out / total


def _albedo(points: np.ndarray, spec: SceneSpec) -> np.ndarray:
    if spec.texture == "uniform":
        return np.broadcast_to(_UNIFORM_ALBEDO, points.shape[:-1] + (3,)).copy()
    if spec.texture == "checker":
        # band-limited checkerboard: smooth square waves instead of hard
        # parity flips, so edges resample consistently across views
        p = spec.checker_period_mm
        k = p / (np.pi * _CHECKER_SOFTNESS_MM)
        t = 1.0
        for ax in range(3):
            t = t * np.tanh(k * np.sin(2.0 * np.pi * points[..., ax] / p))
        frac = (t + 1.0) / 2.0
        base = _CHECKER_B + (_CHECKER_A - _CHECKER_B) * frac[..., None]
        # smooth intra-square modulation ("paper grain") carries the
        # fine-scale signal the flat squares lack
        grain = _value_noise(points, 70.0, 3, spec.seed + 13)[..., None]
        return np.clip(base + 0.25 * (grain - 0.5), 0.02, 0.98)
    n = _value_noise(points, _NOISE_SCALE_MM, _NOISE_OCTAVES, spec.seed)[..., None]
    lo = np.array([0.12, 0.16, 0.22])
    hi = np.array([0.92, 0.86, 0.78])
    return lo + (hi - lo) * n


def _occluder_albedo(points: np.ndarray) -> np.ndarray:
    parity = np.floor(points[..., 0] / 18.0) + np.floor(points[..., 1] / 18.0)
    sel = (parity.astype(np.int64) % 2 == 0)[..., None]
    return np.where(sel, _OCCLUDER_A, _OCCLUDER_B)


def _intersect_plane(origin, dirs, height=0.0):
    """Plane z=height, the ground by default: (t, normal), t = inf where the ray misses."""
    dz = dirs[..., 2]
    grazing = np.abs(dz) < 1e-12
    t = np.where(grazing, np.inf, (height - origin[2]) / np.where(grazing, 1.0, dz))
    t = np.where(t > 0, t, np.inf)
    n = np.broadcast_to(np.array([0.0, 0.0, 1.0]), dirs.shape)
    return t, n


def _intersect_box(origin, dirs, center, half):
    lo = center - half
    hi = center + half
    safe = np.where(np.abs(dirs) < 1e-12, 1e-12, dirs)
    t1 = (lo - origin) / safe
    t2 = (hi - origin) / safe
    tmin = np.minimum(t1, t2).max(axis=-1)
    tmax = np.maximum(t1, t2).min(axis=-1)
    hit = (tmax >= tmin) & (tmax > 0)
    t = np.where(tmin > 0, tmin, tmax)
    t = np.where(hit & (t > 0), t, np.inf)
    pts = origin + t[..., None] * dirs
    rel = (pts - center) / half
    axis = np.argmax(np.abs(rel), axis=-1)
    n = np.zeros(dirs.shape)
    idx = np.indices(axis.shape)
    n[(*idx, axis)] = np.sign(rel[(*idx, axis)])
    return t, n


def _intersect_sphere(origin, dirs, center, radius):
    oc = origin - center
    a = (dirs * dirs).sum(axis=-1)
    b = 2.0 * (dirs * oc).sum(axis=-1)
    c = (oc * oc).sum() - radius * radius
    disc = b * b - 4 * a * c
    ok = disc >= 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t0 = (-b - sq) / (2 * a)
    t1 = (-b + sq) / (2 * a)
    t = np.where(t0 > 0, t0, t1)
    t = np.where(ok & (t > 0), t, np.inf)
    pts = origin + t[..., None] * dirs
    n = (pts - center) / radius
    return t, n


def _intersect_occluder(origin, dirs):
    """Rectangular patch floating at z = _OCCLUDER_Z."""
    t, n = _intersect_plane(origin, dirs, _OCCLUDER_Z)
    pts = origin + np.where(np.isfinite(t), t, 0.0)[..., None] * dirs
    inside = (pts[..., 0] >= _OCCLUDER_X[0]) & (pts[..., 0] <= _OCCLUDER_X[1]) \
        & (pts[..., 1] >= _OCCLUDER_Y[0]) & (pts[..., 1] <= _OCCLUDER_Y[1])
    return np.where(inside, t, np.inf), n


def _scene_solids(spec: SceneSpec):
    solids = [_intersect_plane]
    if spec.geometry == "cube":
        center = np.array([0.0, 0.0, _CUBE_HALF])
        solids.insert(0, lambda o, d: _intersect_box(o, d, center, _CUBE_HALF))
    elif spec.geometry == "sphere":
        center = np.array([0.0, 0.0, _SPHERE_RADIUS])
        solids.insert(0, lambda o, d: _intersect_sphere(o, d, center, _SPHERE_RADIUS))
    return solids


def _shade(points, normals, albedo, view_dir, specular: float):
    lam = np.clip((normals * _LIGHT).sum(axis=-1), 0.0, None)
    col = albedo * (_AMBIENT + _DIFFUSE * lam)[..., None]
    if specular > 0.0:
        refl = 2.0 * (normals * _LIGHT).sum(axis=-1)[..., None] * normals - _LIGHT
        spec_term = np.clip((refl * view_dir).sum(axis=-1), 0.0, None) ** 24
        col = col + specular * spec_term[..., None]
    return np.clip(col, 0.0, 1.0)


def _nearest_hit(spec: SceneSpec, origin: np.ndarray, dirs: np.ndarray):
    """(depth, normal) of the nearest solid along each ray X = C + t*d, where
    t is the camera-frame z because d is built with unit z-component."""
    best_t = np.full(dirs.shape[:-1], np.inf)
    normals = np.zeros(dirs.shape)
    for fn in _scene_solids(spec):
        t, n = fn(origin, dirs)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        normals = np.where(closer[..., None], n, normals)
    if not np.all(np.isfinite(best_t)):
        raise SceneError("camera placement leaves rays that miss the scene")
    return best_t, normals


def _trace(spec: SceneSpec, origin: np.ndarray, dirs: np.ndarray,
           include_occluder: bool):
    """(shaded color, depth, occluder hit) for a bundle of rays."""
    best_t, normals = _nearest_hit(spec, origin, dirs)
    points = origin + best_t[..., None] * dirs
    albedo = _albedo(points, spec)
    view_dir = origin - points
    view_dir = view_dir / np.linalg.norm(view_dir, axis=-1, keepdims=True)
    img = _shade(points, normals, albedo, view_dir, spec.specular_strength)
    occ_hit = np.zeros(best_t.shape, dtype=bool)
    if include_occluder:
        t_occ, n_occ = _intersect_occluder(origin, dirs)
        occ_hit = t_occ < best_t
        safe_t = np.where(occ_hit, t_occ, 0.0)
        pts_occ = origin + safe_t[..., None] * dirs
        col_occ = _shade(pts_occ, n_occ, _occluder_albedo(pts_occ), view_dir,
                         max(spec.specular_strength, 0.3))
        img = np.where(occ_hit[..., None], col_occ, img)
    return img, best_t, occ_hit


def render_view(spec: SceneSpec, cam: Camera, include_occluder: bool = False):
    """Trace one view; returns (Image, (H, W) float64 gt depth in mm, (H, W)
    bool occluder mask).

    Colors are 2x2 supersampled so texture edges stay consistent between
    views; the ground-truth depth is the exact center-ray depth. The phantom
    occluder only replaces shading, never the ground truth.
    """
    h, w = spec.height, spec.width
    grid = pixel_grid(h, w)
    k_inv = np.linalg.inv(cam.k)
    r = cam.pose[:3, :3]
    origin = cam.center()

    def world_dirs(offset_u: float, offset_v: float) -> np.ndarray:
        shifted = grid + np.array([offset_u, offset_v])
        m = np.concatenate([shifted, np.ones((h, w, 1))], axis=-1) @ k_inv.T
        return m @ r

    img = np.zeros((h, w, 3))
    occ_votes = np.zeros((h, w))
    for du in (-0.25, 0.25):
        for dv in (-0.25, 0.25):
            sub_img, _, sub_occ = _trace(spec, origin, world_dirs(du, dv),
                                         include_occluder)
            img += sub_img
            occ_votes += sub_occ
    img /= 4.0
    depth, _ = _nearest_hit(spec, origin, world_dirs(0.0, 0.0))
    return Image(img), depth, occ_votes >= 2


def _ring_cameras(spec: SceneSpec) -> list[Camera]:
    rng = np.random.default_rng([spec.seed, 901])
    f = _FOCAL_SCALE * spec.width
    k = np.array([[f, 0.0, (spec.width - 1) / 2.0],
                  [0.0, f, (spec.height - 1) / 2.0],
                  [0.0, 0.0, 1.0]])
    cams = []
    span = np.deg2rad(_RING_SPAN_DEG)
    for i in range(spec.n_views):
        radius = _RING_RADIUS_MM + rng.uniform(-1.0, 1.0) * _RING_JITTER_MM
        polar = np.deg2rad(_RING_POLAR_DEG + rng.uniform(-2.0, 2.0))
        az = span * i / spec.n_views + rng.uniform(-0.06, 0.06)
        pos = radius * np.array([np.sin(polar) * np.cos(az),
                                 np.sin(polar) * np.sin(az),
                                 np.cos(polar)])
        fwd = -pos / np.linalg.norm(pos)
        if abs(fwd[2]) < 0.2:
            raise SceneError("degenerate camera placement: grazing view of the ground plane")
        up_hint = np.array([1.0, 0.0, 0.0])
        xc = np.cross(up_hint, fwd)
        xc = xc / np.linalg.norm(xc)
        yc = np.cross(fwd, xc)
        r = np.stack([xc, yc, fwd])
        pose = np.eye(4)
        pose[:3, :3] = r
        pose[:3, 3] = -r @ pos
        cams.append(Camera(k, pose, _DEPTH_MIN_MM, _DEPTH_MAX_MM))
    return cams


def _overlap_scores(views: list[CameraView]) -> dict[int, list[tuple[int, float]]]:
    """Pair scores: fraction of reference pixels whose GT point lands inside
    the candidate view's image."""
    scores: dict[int, list[tuple[int, float]]] = {}
    for ref in views:
        h, w = ref.gt_depth.shape
        grid = pixel_grid(h, w)
        entries = []
        for src in views:
            if src.view_id == ref.view_id:
                continue
            uv, _, front = project_with_depth(grid, ref.gt_depth, ref.camera, src.camera)
            inb = front & (uv[..., 0] >= 0) & (uv[..., 0] <= w - 1) \
                & (uv[..., 1] >= 0) & (uv[..., 1] <= h - 1)
            entries.append((src.view_id, float(inb.mean())))
        scores[ref.view_id] = entries
    return scores


def gen_scene(spec: SceneSpec) -> SyntheticScene:
    """Render all views, compute GT depth and frustum-overlap pair scores."""
    cams = _ring_cameras(spec)
    corrupted = None
    if spec.geometry == "plane_with_occluder":
        rng = np.random.default_rng([spec.seed, 417])
        corrupted = int(rng.integers(1, spec.n_views))
    views = []
    occluder = None
    for i, cam in enumerate(cams):
        img, depth, occ = render_view(spec, cam, include_occluder=(i == corrupted))
        dmin, dmax = depth.min(), depth.max()
        if dmin < _DEPTH_MIN_MM or dmax > _DEPTH_MAX_MM:
            raise SceneError(
                f"view {i} GT depth [{dmin:.1f}, {dmax:.1f}] leaves the configured range")
        views.append(CameraView(img, cam, depth, view_id=i))
        if occ.any():
            occluder = (i, occ)
    return SyntheticScene(spec, views, _overlap_scores(views), occluder)


def regular_sample(scene: SyntheticScene, ref_id: int, n_views: int) -> Sample:
    """Reference view ref_id with its top-scored N-1 source views."""
    ids = [v.view_id for v in scene.views]
    if ref_id not in ids:
        raise SamplingError(f"reference view {ref_id} is not among the scene's views {ids}")
    reference = scene.views[ref_id]
    candidates = [v for v in scene.views if v.view_id != ref_id]
    return select_regular_views(reference, candidates, scene.pair_scores[ref_id],
                                n_views)


def build_branch_samples(scene: SyntheticScene, ref_id: int, n_views: int,
                         occlusion_rate: float, seed: int) -> dict:
    """Regular / image-contrastive / scene-contrastive samples for one
    reference view of a synthetic scene."""
    regular = regular_sample(scene, ref_id, n_views)
    image = make_image_contrastive(regular, occlusion_rate, seed)
    scene_s = make_scene_contrastive(scene.views, regular.reference, n_views, seed)
    return {"regular": regular, "image_contrastive": image,
            "scene_contrastive": scene_s}


def save_scene(scene: SyntheticScene, out_dir) -> None:
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "cams").mkdir(exist_ok=True)
    (out / "depths_gt").mkdir(exist_ok=True)
    for view in scene.views:
        vid = view.view_id
        np.save(out / "images" / f"{vid:08d}.npy", view.image.data)
        fileio.write_cam(out / "cams" / f"{vid:08d}_cam.txt", view.camera)
        fileio.write_pfm(out / "depths_gt" / f"{vid:08d}.pfm", view.gt_depth)
    fileio.write_pair_file(out / "pair.txt", scene.pair_scores)
    meta = {"spec": dataclasses.asdict(scene.spec)}
    (out / "scene.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _load_image(path: Path) -> Image:
    """A saved view image; any array but (H, W, 3) raises FileFormatError naming the file."""
    try:
        return Image(np.load(path))
    except (ValueError, EOFError) as exc:  # np.load's errors and GridError
        raise fileio.FileFormatError(f"invalid scene image {path}: {exc}") from exc


def load_scene(scene_dir) -> SyntheticScene:
    """The scene save_scene wrote; a malformed directory raises FileFormatError."""
    root = Path(scene_dir)
    try:
        meta = json.loads((root / "scene.json").read_text())
        spec = SceneSpec(**meta["spec"])
        pair_scores = fileio.read_pair_file(root / "pair.txt")
        views = []
        for vid in range(spec.n_views):
            img = _load_image(root / "images" / f"{vid:08d}.npy")
            cam = fileio.read_cam(root / "cams" / f"{vid:08d}_cam.txt")
            depth = fileio.read_pfm(root / "depths_gt" / f"{vid:08d}.pfm")
            views.append(CameraView(img, cam, depth, view_id=vid))
        return SyntheticScene(spec, views, pair_scores)
    except fileio.FileFormatError:
        raise
    except (KeyError, TypeError, ValueError, FileNotFoundError) as exc:
        # ValueError: SceneError, GeometryError and JSON; FileNotFoundError:
        # a missing per-view file
        raise fileio.FileFormatError(f"invalid scene {root}: {exc!r}") from exc
