"""Interchange formats: MVSNet-convention camera text files, PFM depth maps,
pair-score files, binary PLY point clouds, and line-delimited JSON records."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import Camera, GeometryError
from .grids import GridError, ScalarField


class FileFormatError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _read_tokens(path) -> list[str]:
    try:
        return Path(path).read_text().split()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not a text file") from exc


def write_cam(path, cam: Camera) -> None:
    lines = ["extrinsic"]
    for row in cam.pose:
        lines.append(" ".join(_fmt(x) for x in row))
    lines.append("")
    lines.append("intrinsic")
    for row in cam.k:
        lines.append(" ".join(_fmt(x) for x in row))
    lines.append("")
    lines.append(" ".join([_fmt(cam.depth_min), _fmt(cam.depth_interval),
                           _fmt(cam.depth_num), _fmt(cam.depth_max)]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_cam(path) -> Camera:
    tokens = _read_tokens(path)
    if not tokens or tokens[0] != "extrinsic":
        raise FileFormatError("camera file must start with 'extrinsic'")
    try:
        pose = np.array([float(t) for t in tokens[1:17]]).reshape(4, 4)
    except (ValueError, IndexError) as exc:
        raise FileFormatError("malformed extrinsic matrix") from exc
    if len(tokens) < 18 or tokens[17] != "intrinsic":
        raise FileFormatError("expected 'intrinsic' after the 4x4 extrinsic")
    try:
        k = np.array([float(t) for t in tokens[18:27]]).reshape(3, 3)
        dmin, dint, dnum, dmax = (float(t) for t in tokens[27:31])
    except (ValueError, IndexError) as exc:
        raise FileFormatError("malformed intrinsic matrix or depth line") from exc
    if len(tokens) != 31:
        raise FileFormatError(f"trailing tokens in camera file: {tokens[31:]}")
    if not np.all(np.isfinite([*pose.ravel(), *k.ravel(), dmin, dint, dnum, dmax])):
        raise FileFormatError("non-finite value in camera file")
    r = pose[:3, :3]
    if np.linalg.norm(r.T @ r - np.eye(3)) > 1e-4:
        raise FileFormatError("extrinsic rotation is not orthonormal")
    try:
        return Camera(k, pose, dmin, dmax, dint, int(dnum))
    except GeometryError as exc:
        raise FileFormatError(f"invalid camera: {exc}") from exc


def write_pfm(path, field: ScalarField) -> None:
    """Grayscale PFM, little-endian (negative scale), bottom-to-top rows."""
    data = field.data.astype("<f4")
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{field.width} {field.height}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(np.flipud(data).tobytes())


def read_pfm(path) -> ScalarField:
    with open(path, "rb") as f:
        magic = f.readline().rstrip()
        if magic == b"PF":
            raise FileFormatError("color PFM is not supported, expected grayscale 'Pf'")
        if magic != b"Pf":
            raise FileFormatError(f"bad PFM magic {magic!r}")
        try:
            w, h = (int(t) for t in f.readline().split())
            scale = float(f.readline())
        except ValueError as exc:
            raise FileFormatError("malformed PFM dimension or scale line") from exc
        payload = f.read()
    if w < 1 or h < 1:
        raise FileFormatError(f"PFM dimensions must be positive, got {w} x {h}")
    if len(payload) != 4 * w * h:
        raise FileFormatError(f"PFM payload of {len(payload)} bytes, expected 4 * {w} * {h}")
    endian = "<" if scale < 0 else ">"
    data = np.frombuffer(payload, dtype=endian + "f4").reshape(h, w)
    try:
        return ScalarField(np.flipud(data).astype(np.float64))
    except GridError as exc:
        raise FileFormatError(f"invalid PFM values: {exc}") from exc


def write_pair_file(path, pair_scores: dict[int, list[tuple[int, float]]]) -> None:
    """MVSNet-style pair file: view count, then per reference a scored list."""
    lines = [str(len(pair_scores))]
    for ref_id in sorted(pair_scores):
        lines.append(str(ref_id))
        entries = pair_scores[ref_id]
        parts = [str(len(entries))]
        for vid, score in entries:
            parts.append(str(vid))
            parts.append(_fmt(score))
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n")


def _count(token: str) -> int:
    n = int(token)
    if n < 0:
        raise ValueError(f"negative count {n}")
    return n


def read_pair_file(path) -> dict[int, list[tuple[int, float]]]:
    it = iter(_read_tokens(path))
    try:
        n = _count(next(it))
        out: dict[int, list[tuple[int, float]]] = {}
        for _ in range(n):
            ref_id = int(next(it))
            k = _count(next(it))
            entries = []
            for _ in range(k):
                vid = int(next(it))
                score = float(next(it))
                entries.append((vid, score))
            out[ref_id] = entries
    except (StopIteration, ValueError) as exc:
        raise FileFormatError("malformed pair file") from exc
    if next(it, None) is not None:
        raise FileFormatError("trailing tokens in pair file")
    return out


PLY_HEADER = """ply
format binary_little_endian 1.0
element vertex {n}
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
"""

PLY_VERTEX = np.dtype([("xyz", "<f4", 3), ("rgb", "u1", 3)])  # 15 bytes, packed


def write_ply(path, points: np.ndarray, colors: np.ndarray) -> None:
    """Binary little-endian PLY with float32 xyz and uint8 rgb."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    colors = np.asarray(colors).reshape(-1, 3)
    if len(points) != len(colors):
        raise FileFormatError("points and colors must have equal length")
    vertices = np.empty(len(points), dtype=PLY_VERTEX)
    vertices["xyz"] = points.astype("<f4")
    vertices["rgb"] = colors.astype(np.uint8)
    with open(path, "wb") as f:
        f.write(PLY_HEADER.format(n=len(points)).encode("ascii"))
        f.write(vertices.tobytes())


def read_ply(path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    end = raw.find(b"end_header\n")
    if end < 0:
        raise FileFormatError("missing PLY end_header")
    try:
        header = raw[:end].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError("PLY header is not ASCII") from exc
    if len(header) < 2 or header[0] != "ply" \
            or "format binary_little_endian 1.0" not in header[1]:
        raise FileFormatError("expected binary little-endian PLY")
    counts = [line.split()[-1] for line in header if line.startswith("element vertex")]
    if not counts:
        raise FileFormatError("missing vertex element")
    if not counts[-1].isdigit():
        raise FileFormatError(f"bad vertex count {counts[-1]!r}")
    n = int(counts[-1])
    body = raw[end + len(b"end_header\n"):]
    if len(body) != PLY_VERTEX.itemsize * n:
        raise FileFormatError(f"payload size {len(body)} != 15 * {n}")
    vertices = np.frombuffer(body, dtype=PLY_VERTEX)
    return vertices["xyz"].astype(np.float64), vertices["rgb"].copy()


def write_records(path, records: list[dict]) -> None:
    """Line-delimited JSON with stable key order."""
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def read_records(path) -> list[dict]:
    try:
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FileFormatError(f"malformed record file {path}") from exc
