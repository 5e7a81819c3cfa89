import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvslab.geometry import resize_bilinear
from mvslab.grids import GridError, Image, forward_diff, to_grayscale


def test_image_shape_and_range_contract():
    Image(np.zeros((4, 5, 3)))
    for shape in ((4, 5), (4, 5, 1), (4, 5, 2)):  # RGB only
        with pytest.raises(GridError, match="HxWx3"):
            Image(np.zeros(shape))
    with pytest.raises(GridError):
        Image(np.full((3, 3, 3), 1.5))
    with pytest.raises(GridError):
        Image(np.full((3, 3, 3), np.nan))


def test_gradient_of_constant_is_zero():
    img = Image(np.full((6, 7, 3), 0.25))
    gx, gy = forward_diff(img.data)
    assert np.all(gx == 0) and np.all(gy == 0)


def test_gradient_of_horizontal_ramp():
    w = 10
    ramp = np.repeat(np.tile(np.arange(w) / w, (6, 1))[:, :, None], 3, axis=2)
    gx, gy = forward_diff(Image(ramp).data)
    assert np.allclose(gx[:, :-1], 1.0 / w)
    assert np.all(gx[:, -1] == 0)
    assert np.all(gy[:-1] == 0) or np.allclose(gy, 0)


def test_gradient_matches_bruteforce_loop():
    rng = np.random.default_rng(0)
    data = rng.random((8, 8, 3))
    gx, gy = forward_diff(Image(data).data)
    for v in range(8):
        for u in range(8):
            for c in range(3):
                want_x = data[v, u + 1, c] - data[v, u, c] if u < 7 else 0.0
                want_y = data[v + 1, u, c] - data[v, u, c] if v < 7 else 0.0
                assert gx[v, u, c] == pytest.approx(want_x)
                assert gy[v, u, c] == pytest.approx(want_y)


def test_resize_identity():
    rng = np.random.default_rng(1)
    f = rng.random((5, 7))
    out = resize_bilinear(f, 5, 7)
    assert np.array_equal(out, f)


def test_resize_preserves_constant():
    out = resize_bilinear(np.full((3, 4), 2.5), 9, 5)
    assert out.shape == (9, 5) and np.allclose(out, 2.5)


def test_resize_2x2_to_3x3_center():
    f = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = resize_bilinear(f, 3, 3)
    # corner-aligned: the center samples at (0.5, 0.5), the mean of all four
    assert out[1, 1] == pytest.approx(1.5)
    assert np.array_equal(out[::2, ::2], f)


def test_resize_rejects_empty_target():
    with pytest.raises(GridError):
        resize_bilinear(np.ones((2, 2)), 0, 3)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 2 ** 31 - 1))
def test_resize_output_within_input_bounds(h, w, nh, nw, seed):
    data = np.random.default_rng(seed).random((h, w))
    out = resize_bilinear(data, nh, nw)
    assert out.shape == (nh, nw)
    assert out.min() >= data.min() - 1e-12
    assert out.max() <= data.max() + 1e-12


def test_grayscale_is_channel_mean():
    rng = np.random.default_rng(2)
    data = rng.random((4, 4, 3))
    assert np.allclose(to_grayscale(Image(data)), data.mean(axis=2))


def test_operations_deterministic():
    rng = np.random.default_rng(3)
    data = rng.random((6, 6, 3))
    a1 = forward_diff(Image(data).data)
    a2 = forward_diff(Image(data).data)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    r1 = resize_bilinear(data, 9, 11)
    r2 = resize_bilinear(data, 9, 11)
    assert r1.shape == (9, 11, 3) and np.array_equal(r1, r2)
