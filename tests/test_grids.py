import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvslab.grids import (BinaryMask, GridError, Image, ScalarField,
                          forward_diff, resize_bilinear, to_grayscale)


def test_image_shape_and_range_contract():
    Image(np.zeros((4, 5, 3)))
    Image(np.zeros((4, 5)))  # promoted to one channel
    with pytest.raises(GridError):
        Image(np.zeros((4, 5, 2)))
    with pytest.raises(GridError):
        Image(np.full((3, 3, 1), 1.5))
    with pytest.raises(GridError):
        Image(np.full((3, 3, 1), np.nan))


def test_scalar_field_contract():
    f = ScalarField(np.ones((3, 4)))
    assert (f.height, f.width) == (3, 4)
    with pytest.raises(GridError):
        ScalarField(np.ones((3, 4, 1)))
    with pytest.raises(GridError):
        ScalarField(np.full((3, 4), np.inf))


def test_binary_mask_contract():
    m = BinaryMask(np.array([[0, 1], [1, 0]]))
    assert m.count() == 2
    with pytest.raises(GridError):
        BinaryMask(np.array([[0, 2]]))


def test_gradient_of_constant_is_zero():
    img = Image(np.full((6, 7, 3), 0.25))
    gx, gy = forward_diff(img.data)
    assert np.all(gx == 0) and np.all(gy == 0)


def test_gradient_of_horizontal_ramp():
    w = 10
    ramp = np.tile(np.arange(w) / w, (6, 1))[:, :, None]
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
    f = ScalarField(rng.random((5, 7)))
    out = resize_bilinear(f, 5, 7)
    assert np.array_equal(out.data, f.data)


def test_resize_preserves_constant():
    f = ScalarField(np.full((3, 4), 2.5))
    out = resize_bilinear(f, 9, 5)
    assert np.allclose(out.data, 2.5)


def test_resize_2x2_to_3x3_center():
    f = ScalarField(np.array([[0.0, 1.0], [2.0, 3.0]]))
    out = resize_bilinear(f, 3, 3)
    # corner-aligned: the center samples at (0.5, 0.5), the mean of all four
    assert out.data[1, 1] == pytest.approx(1.5)
    assert np.array_equal(out.data[::2, ::2], f.data)


def test_resize_rejects_empty_target():
    with pytest.raises(GridError):
        resize_bilinear(ScalarField(np.ones((2, 2))), 0, 3)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 2 ** 31 - 1))
def test_resize_output_within_input_bounds(h, w, nh, nw, seed):
    data = np.random.default_rng(seed).random((h, w))
    out = resize_bilinear(ScalarField(data), nh, nw)
    assert out.data.min() >= data.min() - 1e-12
    assert out.data.max() <= data.max() + 1e-12


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
    r1 = resize_bilinear(Image(data), 9, 11)
    r2 = resize_bilinear(Image(data), 9, 11)
    assert np.array_equal(r1.data, r2.data)
