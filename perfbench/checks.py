"""Output checks computed apart from mvslab.

Nothing here imports the program: the PFM, camera and PLY files are parsed
with plain numpy, the cube preset's surface is written down analytically, and
nearest-neighbour distances come from a brute-force distance matrix instead
of the program's own search. Each check raises CheckFailed with the reason.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


# Geometry of the `cube` preset: a 124 mm cube standing on the ground plane
# z = 0, centred on the world origin.
CUBE_HALF_MM = 62.0
CUBE_CENTER = np.array([0.0, 0.0, CUBE_HALF_MM])

# Cloud distances are clamped here, as in the DTU accuracy/completeness
# protocol the program implements.
OUTLIER_CAP_MM = 20.0

PLY_VERTEX = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                       ("r", "u1"), ("g", "u1"), ("b", "u1")])


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def read_pfm(path) -> np.ndarray:
    """Grayscale PFM as float64 rows top-to-bottom."""
    magic, dims, scale, body = Path(path).read_bytes().split(b"\n", 3)
    if magic != b"Pf":
        raise CheckFailed(f"{path}: not a grayscale PFM")
    w, h = (int(t) for t in dims.split())
    dtype = "<f4" if float(scale) < 0 else ">f4"
    if len(body) != 4 * w * h:
        raise CheckFailed(f"{path}: payload of {len(body)} bytes for {w}x{h}")
    return np.flipud(np.frombuffer(body, dtype=dtype).reshape(h, w)).astype(np.float64)


def read_cam(path) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(K, world-to-camera pose, depth_min, depth_max) of an MVSNet camera file."""
    tokens = Path(path).read_text().split()
    if tokens[0] != "extrinsic" or tokens[17] != "intrinsic" or len(tokens) != 31:
        raise CheckFailed(f"{path}: not an MVSNet camera file")
    pose = np.array(tokens[1:17], dtype=np.float64).reshape(4, 4)
    k = np.array(tokens[18:27], dtype=np.float64).reshape(3, 3)
    return k, pose, float(tokens[27]), float(tokens[30])


def read_ply(path) -> np.ndarray:
    """Vertex positions (N, 3) of a binary little-endian xyz+rgb PLY."""
    raw = Path(path).read_bytes()
    end = raw.index(b"end_header\n") + len(b"end_header\n")
    header = raw[:end].decode("ascii")
    if "format binary_little_endian 1.0" not in header:
        raise CheckFailed(f"{path}: not a binary little-endian PLY")
    n = int(re.search(r"element vertex (\d+)", header).group(1))
    if len(raw) - end != n * PLY_VERTEX.itemsize:
        raise CheckFailed(f"{path}: payload does not hold {n} vertices")
    verts = np.frombuffer(raw, dtype=PLY_VERTEX, offset=end)
    return np.stack([verts["x"], verts["y"], verts["z"]], axis=-1).astype(np.float64)


def backproject(k: np.ndarray, pose: np.ndarray, depth: np.ndarray,
                stride: int = 1) -> np.ndarray:
    """World points (N, 3) of every stride-th pixel centre at the given depth."""
    vs, us = np.mgrid[0:depth.shape[0]:stride, 0:depth.shape[1]:stride]
    d = depth[::stride, ::stride]
    rays = np.stack([us, vs, np.ones_like(us)], axis=-1).reshape(-1, 3) @ np.linalg.inv(k).T
    cam = rays * d.reshape(-1, 1)
    r, t = pose[:3, :3], pose[:3, 3]
    return (cam - t) @ r


def _rect_distance(p, lo, hi):
    """Distance from points to an axis-aligned box [lo, hi] (may be flat)."""
    return np.linalg.norm(p - np.clip(p, lo, hi), axis=-1)


def cube_surface_distance(points: np.ndarray) -> np.ndarray:
    """Distance to the visible surface of the `cube` preset: the cube's five
    exposed faces plus the ground plane outside the cube's footprint."""
    h, c = CUBE_HALF_MM, CUBE_CENTER
    lo, hi = c - h, c + h
    faces = [(np.array([lo[0], lo[1], hi[2]]), hi)]  # top
    for axis in (0, 1):
        for side in (lo, hi):
            f_lo, f_hi = lo.copy(), hi.copy()
            f_lo[axis] = f_hi[axis] = side[axis]
            faces.append((f_lo, f_hi))
    d = np.min([_rect_distance(points, f_lo, f_hi) for f_lo, f_hi in faces], axis=0)
    inside_xy = np.maximum(h - np.abs(points[:, :2]).max(axis=1), 0.0)
    ground = np.hypot(inside_xy, points[:, 2])
    return np.minimum(d, ground)


def clamped_nn_distances(a: np.ndarray, b: np.ndarray, cap: float = OUTLIER_CAP_MM,
                         chunk: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point of a to its nearest point of b, and from each
    point of b to its nearest point of a, both clamped at cap.

    Brute force over chunks of rows of the squared-distance matrix, so that
    the benchmark's own memory stays below the program's."""
    b2 = (b * b).sum(axis=1)
    a_to_b = np.empty(len(a))
    b_to_a = np.full(len(b), np.inf)
    for i in range(0, len(a), chunk):
        rows = a[i:i + chunk]
        d2 = (rows * rows).sum(axis=1)[:, None] + b2[None, :] - 2.0 * rows @ b.T
        a_to_b[i:i + chunk] = d2.min(axis=1)
        np.minimum(b_to_a, d2.min(axis=0), out=b_to_a)
    return (np.minimum(np.sqrt(np.maximum(a_to_b, 0.0)), cap),
            np.minimum(np.sqrt(np.maximum(b_to_a, 0.0)), cap))


def acc_comp(to_gt: np.ndarray, to_pred: np.ndarray) -> tuple[float, float, float]:
    """DTU accuracy, completeness and their mean, in mm, from the clamped
    distances of `clamped_nn_distances`."""
    acc, comp = float(to_gt.mean()), float(to_pred.mean())
    return acc, comp, (acc + comp) / 2.0


_CLOUD_LINE = re.compile(r"cloud: acc=([0-9.]+)mm comp=([0-9.]+)mm overall=([0-9.]+)mm")


def check_cloud_against_eval(pred: np.ndarray, gt: np.ndarray,
                             eval_stdout: str) -> tuple[np.ndarray, np.ndarray]:
    """Recompute accuracy/completeness and compare them with the three-decimal
    figures `mvslab eval` printed. Returns the clamped distances from each
    predicted point to the GT cloud and from each GT point to the prediction."""
    match = _CLOUD_LINE.search(eval_stdout)
    if match is None:
        raise CheckFailed("eval printed no cloud line")
    printed = [float(g) for g in match.groups()]
    to_gt, to_pred = clamped_nn_distances(pred, gt)
    for name, a, b in zip(("acc", "comp", "overall"), acc_comp(to_gt, to_pred), printed):
        if abs(a - b) > 6e-4:
            raise CheckFailed(f"cloud {name}: recomputed {a:.5f} mm, eval printed {b:.3f} mm")
    return to_gt, to_pred


def check_fused_cloud(pred: np.ndarray, fuse_record: dict, interval_mm: float,
                      floor: float) -> float:
    """The PLY holds the number of points the fuse record reports, and at least
    `floor` of them lie within one hypothesis interval of the analytic surface.
    Returns that share."""
    if len(pred) != fuse_record["points"]:
        raise CheckFailed(f"PLY holds {len(pred)} points, fuse reported "
                          f"{fuse_record['points']}")
    share = float((cube_surface_distance(pred) <= interval_mm).mean())
    if share < floor:
        raise CheckFailed(f"only {share:.3f} of fused points within {interval_mm:.2f} mm "
                          f"of the surface (floor {floor})")
    return share


def check_loss_history(history: list[dict], slack: float = 1e-12) -> None:
    """Every logged loss is finite and the regular-branch loss never rises.
    `slack` is the optimizer's own acceptance tolerance."""
    if not history:
        raise CheckFailed("empty loss history")
    for rec in history:
        for key, value in rec.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise CheckFailed(f"iteration {rec['iteration']}: {key} = {value}")
    for prev, cur in zip(history, history[1:]):
        if cur["loss_reg"] > prev["loss_reg"] + slack:
            raise CheckFailed(f"loss_reg rose at iteration {cur['iteration']}: "
                              f"{prev['loss_reg']!r} -> {cur['loss_reg']!r}")


def check_depth_range(depth: np.ndarray, depth_min: float, depth_max: float,
                      name: str) -> None:
    if not np.all(np.isfinite(depth)):
        raise CheckFailed(f"{name}: non-finite depth")
    if depth.min() < depth_min or depth.max() > depth_max:
        raise CheckFailed(f"{name}: depth [{depth.min():.3f}, {depth.max():.3f}] "
                          f"outside [{depth_min}, {depth_max}]")


def check_final_report(report: dict, weights: dict[str, float]) -> None:
    """total == sum over the five components of weight x component."""
    expected = sum(w * report[f"component_{k}"] for k, w in weights.items())
    if abs(report["total"] - expected) > 1e-9 * max(1.0, abs(expected)):
        raise CheckFailed(f"final_report total {report['total']!r} != "
                          f"sum of weighted components {expected!r}")


def check_audit_records(records: list[dict], terms: set[str], floor: float) -> None:
    """One record per audited term, each checking at least `floor` pixels and
    passing at least 99% of them."""
    seen = {rec["term"] for rec in records}
    if seen != terms:
        raise CheckFailed(f"audited terms {sorted(seen)}, expected {sorted(terms)}")
    for rec in records:
        if rec["checked"] < floor:
            raise CheckFailed(f"{rec['term']}: only {rec['checked']} pixels checked "
                              f"(floor {floor:.0f})")
        if rec["passed"] < 0.99 * rec["checked"]:
            raise CheckFailed(f"{rec['term']}: {rec['passed']} of {rec['checked']} passed")
