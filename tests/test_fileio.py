import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import read_records
from mvslab.fileio import (PLY_HEADER, FileFormatError, read_cam, read_pair_file,
                           read_pfm, read_ply, write_cam, write_pair_file, write_pfm,
                           write_ply, write_records)
from mvslab.geometry import Camera


def rotation_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def test_cam_round_trip_exact(tmp_path):
    k = np.array([[321.125, 0.0, 40.0625], [0.0, 320.5, 30.25], [0.0, 0.0, 1.0]])
    pose = np.eye(4)
    pose[:3, :3] = rotation_z(0.3)
    pose[:3, 3] = (12.5, -3.75, 101.0)
    cam = Camera(k, pose, 425.0, 935.0, 2.5, 192)
    path = tmp_path / "cam.txt"
    write_cam(path, cam)
    back = read_cam(path)
    assert np.array_equal(back.k, cam.k)
    assert np.array_equal(back.pose, cam.pose)
    assert back.depth_min == cam.depth_min
    assert back.depth_max == cam.depth_max
    assert back.depth_interval == cam.depth_interval
    assert back.depth_num == cam.depth_num
    # and writing again is byte-identical
    path2 = tmp_path / "cam2.txt"
    write_cam(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_cam_identity_extrinsic_fixture(tmp_path):
    text = """extrinsic
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1

intrinsic
100 0 32
0 100 24
0 0 1

425 2.5 192 935
"""
    path = tmp_path / "cam.txt"
    path.write_text(text)
    cam = read_cam(path)
    assert np.array_equal(cam.pose, np.eye(4))
    assert cam.k[0, 0] == 100.0
    # an integral depth count written as a float still loads
    path.write_text(text.replace(" 192 ", " 192.0 "))
    assert read_cam(path).depth_num == 192


def test_cam_dtu_convention_fixture(tmp_path):
    # hand-checked sample in the standard layout with a rotated extrinsic
    text = """extrinsic
0.970295726276 -0.241921895600 0.0 12.0
0.241921895600 0.970295726276 0.0 -7.5
0.0 0.0 1.0 650.0
0.0 0.0 0.0 1.0

intrinsic
361.54125 0.0 82.900625
0.0 360.3975 66.383875
0.0 0.0 1.0

425.0 2.5 256 1062.5
"""
    path = tmp_path / "dtu_cam.txt"
    path.write_text(text)
    cam = read_cam(path)
    assert cam.depth_min == 425.0
    assert cam.depth_num == 256
    assert cam.depth_max == 1062.5
    assert cam.pose[2, 3] == 650.0


def test_cam_rejects_malformed_and_nonorthonormal(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("intrinsic\n1 0 0\n")
    with pytest.raises(FileFormatError):
        read_cam(path)
    skewed = """extrinsic
1 0.01 0 0
0 1 0 0
0 0 1 0
0 0 0 1

intrinsic
100 0 32
0 100 24
0 0 1

425 2.5 192 935
"""
    path.write_text(skewed)
    with pytest.raises(FileFormatError):
        read_cam(path)


def test_pfm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    field = rng.random((13, 17)).astype(np.float32).astype(np.float64)
    path = tmp_path / "depth.pfm"
    write_pfm(path, field)
    back = read_pfm(path)
    assert np.array_equal(back, field)


def test_pfm_golden_bytes(tmp_path):
    # hand-assembled 2x2 grayscale little-endian PFM, bottom row first
    values = np.array([[1.5, -2.0], [0.25, 4.0]], dtype="<f4")
    payload = values[1].tobytes() + values[0].tobytes()
    raw = b"Pf\n2 2\n-1.0\n" + payload
    path = tmp_path / "golden.pfm"
    path.write_bytes(raw)
    field = read_pfm(path)
    assert np.array_equal(field, values.astype(np.float64))
    # and our writer reproduces the same bytes
    out = tmp_path / "rewrite.pfm"
    write_pfm(out, values.astype(np.float64))
    assert out.read_bytes() == raw


def test_pfm_rejects_color_and_bad_magic(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
    with pytest.raises(FileFormatError):
        read_pfm(path)
    path.write_bytes(b"P5\n2 2\n-1.0\n")
    with pytest.raises(FileFormatError):
        read_pfm(path)


def test_ply_empty_cloud(tmp_path):
    path = tmp_path / "empty.ply"
    write_ply(path, np.zeros((0, 3)), np.zeros((0, 3)))
    pts, cols = read_ply(path)
    assert len(pts) == 0
    header = path.read_bytes().split(b"end_header\n")[0]
    assert b"element vertex 0" in header


def test_ply_single_point_payload_is_15_bytes(tmp_path):
    path = tmp_path / "one.ply"
    write_ply(path, np.array([[1.0, 2.0, 3.0]]), np.array([[10, 20, 30]]))
    raw = path.read_bytes()
    body = raw.split(b"end_header\n", 1)[1]
    assert len(body) == 15
    x, y, z, r, g, b = struct.unpack("<fffBBB", body)
    assert (x, y, z) == (1.0, 2.0, 3.0)
    assert (r, g, b) == (10, 20, 30)
    # several points with distinct colours, against a per-point struct reference
    pts = np.array([[1.0, 2.0, 3.0], [-0.1, 1e5, -7.25], [3.3, 0.0, -0.0],
                    [123.456, -1e-3, 2.0 ** -20]])
    cols = np.array([[10, 20, 30], [0, 255, 128], [1, 2, 3], [254, 7, 99]])
    write_ply(path, pts, cols)
    body = path.read_bytes().split(b"end_header\n", 1)[1]
    want = b"".join(struct.pack("<fffBBB", *p, *c) for p, c in zip(pts, cols))
    assert len(body) == 15 * len(pts)
    assert body == want


def test_ply_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-100, 100, (25, 3)).astype(np.float32).astype(np.float64)
    cols = rng.integers(0, 256, (25, 3)).astype(np.uint8)
    path = tmp_path / "cloud.ply"
    write_ply(path, pts, cols)
    back_pts, back_cols = read_ply(path)
    assert np.array_equal(back_pts, pts)
    assert np.array_equal(back_cols, cols)


@pytest.mark.parametrize("bad", [np.nan, 1e39])  # 1e39 overflows float32
def test_ply_writer_refuses_a_point_the_reader_rejects(tmp_path, bad):
    path = tmp_path / "cloud.ply"
    with pytest.raises(FileFormatError, match="finite in float32"):
        write_ply(path, np.array([[1.0, 2.0, 3.0], [4.0, bad, 6.0]]),
                  np.zeros((2, 3), dtype=np.uint8))
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, 1e39])  # 1e39 overflows float32
def test_pfm_writer_refuses_a_map_the_reader_rejects(tmp_path, bad):
    path = tmp_path / "depth.pfm"
    with pytest.raises(FileFormatError, match="finite in float32"):
        write_pfm(path, np.array([[1.0, 2.0, 3.0], [4.0, bad, 6.0]]))
    assert not path.exists()


@pytest.mark.parametrize("shape", [(2, 3, 1), (0, 3)])
def test_pfm_writer_refuses_a_map_that_is_not_hxw(tmp_path, shape):
    path = tmp_path / "depth.pfm"
    with pytest.raises(FileFormatError, match=r"non-empty \(H, W\)"):
        write_pfm(path, np.ones(shape))
    assert not path.exists()


def test_pair_file_round_trip(tmp_path):
    scores = {0: [(1, 0.9), (2, 0.8125)], 1: [(0, 0.9)], 2: [(0, 0.8125), (1, 0.5)]}
    path = tmp_path / "pair.txt"
    write_pair_file(path, scores)
    assert read_pair_file(path) == scores


def test_pair_file_malformed(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("2\n0\n1 5\n")
    with pytest.raises(FileFormatError):
        read_pair_file(path)


finite = st.floats(-1e6, 1e6, allow_nan=False)
finite32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def cameras(draw):
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    q = q / np.linalg.norm(q) if np.linalg.norm(q) > 0.1 else np.array([1.0, 0, 0, 0])
    w, x, y, z = q
    rot = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                    [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                    [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    pose = np.eye(4)
    pose[:3, :3] = rot
    pose[:3, 3] = draw(st.lists(finite, min_size=3, max_size=3))
    fx, fy = draw(st.floats(1e-3, 1e5)), draw(st.floats(1e-3, 1e5))
    k = np.array([[fx, draw(finite), draw(finite)], [0.0, fy, draw(finite)],
                  [0.0, 0.0, 1.0]])
    dmin = draw(st.floats(1e-3, 1e5))
    dmax = dmin + draw(st.floats(1e-3, 1e5))
    return Camera(k, pose, dmin, dmax, draw(st.floats(1e-6, 1e3)),
                  draw(st.integers(2, 10_000)))


@settings(deadline=None, max_examples=50)
@given(cameras())
def test_cam_round_trip_property(tmp_path_factory, cam):
    path = tmp_path_factory.mktemp("cam") / "cam.txt"
    write_cam(path, cam)
    back = read_cam(path)
    assert np.array_equal(back.k, cam.k)
    assert np.array_equal(back.pose, cam.pose)
    assert (back.depth_min, back.depth_max, back.depth_interval, back.depth_num) \
        == (cam.depth_min, cam.depth_max, cam.depth_interval, cam.depth_num)


@settings(deadline=None, max_examples=50)
@given(arrays(np.float32, st.tuples(st.integers(1, 9), st.integers(1, 9)),
              elements=finite32))
def test_pfm_round_trip_property(tmp_path_factory, values):
    field = values.astype(np.float64)
    path = tmp_path_factory.mktemp("pfm") / "f.pfm"
    write_pfm(path, field)
    assert np.array_equal(read_pfm(path), field)


@settings(deadline=None, max_examples=50)
@given(st.dictionaries(st.integers(0, 10**6),
                       st.lists(st.tuples(st.integers(0, 10**6),
                                          st.floats(allow_nan=False, allow_infinity=False)),
                                max_size=6),
                       max_size=6))
def test_pair_file_round_trip_property(tmp_path_factory, scores):
    path = tmp_path_factory.mktemp("pair") / "pair.txt"
    write_pair_file(path, scores)
    assert read_pair_file(path) == scores


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 20).flatmap(lambda n: st.tuples(
    arrays(np.float32, (n, 3), elements=finite32), arrays(np.uint8, (n, 3)))))
def test_ply_round_trip_property(tmp_path_factory, cloud):
    pts, cols = cloud[0].astype(np.float64), cloud[1]
    path = tmp_path_factory.mktemp("ply") / "cloud.ply"
    write_ply(path, pts, cols)
    back_pts, back_cols = read_ply(path)
    assert np.array_equal(back_pts, pts)
    assert np.array_equal(back_cols, cols)


MALFORMED = [
    ("ply", b"ply\nend_header\n"),
    ("ply", b"ply\nformat binary_little_endian 1.0\nelement vertex x\nend_header\n"),
    ("ply", b"ply\nformat binary_little_endian 1.0\nelement vertex -1\nend_header\n"),
    ("ply", b"ply\n\xff\nend_header\n"),
    ("ply", b"ply\nformat binary_little_endian 1.0\nelement vertex 2\nend_header\n"
            + b"\x00" * 15),
    ("pfm", b"Pf\n3 x\n-1.0\n" + b"\x00" * 12),
    ("pfm", b"Pf\n3\n-1.0\n" + b"\x00" * 12),
    ("pfm", b"Pf\n1 1\nabc\n" + b"\x00" * 4),
    ("pfm", b"Pf\n-1 -1\n-1.0\n" + b"\x00" * 4),
    ("pfm", b"Pf\n0 0\n-1.0\n"),
    ("pfm", b"Pf\n1 1\n-1.0\n" + np.array([np.nan], dtype="<f4").tobytes()),
    ("pfm", b"Pf\n1 1\n-1.0\n" + b"\x00" * 8),
    ("pair", b"-2\n"),
    ("pair", b"1\n0\n-1\n"),
    ("pair", b"1\n0\n0\n7\n"),
    ("pair", b"\xff\n"),
    ("cam", b"extrinsic\n" + b"nan " * 16 + b"\nintrinsic\n1 0 0 0 1 0 0 0 1\n1 1 2 3\n"),
    ("cam", b"extrinsic\n1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1\nintrinsic\n"
            b"1 0 0 0 1 0 0 0 1\n900 1 2 400\n"),
    ("ply", PLY_HEADER.format(n=1).encode("ascii")
            + struct.pack("<fffBBB", 1, np.inf, 3, 4, 5, 6)),
    ("cam", b"extrinsic\n1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1\nintrinsic\n"
            b"100 0 32 0 100 24 0 0 1\n425 2.5 192.7 935\n"),
    ("ply", b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            b"property int x\nproperty int y\nproperty int z\n"
            b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
            b"end_header\n" + struct.pack("<iiiBBB", 1, 2, 3, 4, 5, 6)),
    ("ply", PLY_HEADER.format(n=2).encode("ascii") + b"\x00" * 15),
    ("ply", PLY_HEADER.format(n=1).encode("ascii")
            + struct.pack("<fffBBB", np.nan, 2, 3, 4, 5, 6)),
    ("pfm", b"Pf\n1 1\n-1.0\n" + np.array([np.inf], dtype="<f4").tobytes()),
]
READERS = {"ply": read_ply, "pfm": read_pfm, "pair": read_pair_file,
           "cam": read_cam}


@pytest.mark.parametrize("kind,raw", MALFORMED,
                         ids=[f"{kind}{i}" for i, (kind, _) in enumerate(MALFORMED)])
def test_readers_raise_file_format_error(tmp_path, kind, raw):
    path = tmp_path / "bad"
    path.write_bytes(raw)
    with pytest.raises(FileFormatError):
        READERS[kind](path)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(READERS)),
       st.sampled_from([b"", b"ply\nformat binary_little_endian 1.0\n", b"Pf\n",
                        b"Pf\n2 1\n", b"extrinsic\n", b"1\n0\n"]),
       st.binary(max_size=64))
def test_readers_on_arbitrary_bytes(tmp_path_factory, kind, prefix, tail):
    # any input either parses or fails with the module's own error
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(prefix + tail)
    try:
        READERS[kind](path)
    except FileFormatError:
        pass


def test_records_round_trip(tmp_path):
    records = [{"iteration": 0, "loss": 1.25}, {"iteration": 1, "loss": 0.5}]
    path = tmp_path / "records.jsonl"
    write_records(path, records)
    assert read_records(path) == records
