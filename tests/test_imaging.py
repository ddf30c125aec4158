import math

import numpy as np
import pytest

from dcboost import imaging
from dcboost import (NoiseSpec, PgmError, add_cauchy_noise,
                     make_squares_image, psnr, quantize_u8, re_err, read_pgm,
                     write_pgm)
from dcboost.tv_cauchy import tv


# ---------------------------------------------------------------------------
# noise synthesis
# ---------------------------------------------------------------------------

def test_zero_gamma_is_identity():
    u = np.arange(30.0).reshape(5, 6)
    f = add_cauchy_noise(u, NoiseSpec(gamma=0.0, seed=1))
    assert np.array_equal(f, u)
    assert f is not u


def test_noise_is_deterministic_per_seed():
    u = make_squares_image(32, 32)
    spec = NoiseSpec(gamma=3.0, seed=123)
    assert np.array_equal(add_cauchy_noise(u, spec), add_cauchy_noise(u, spec))
    other = add_cauchy_noise(u, NoiseSpec(gamma=3.0, seed=124))
    assert not np.array_equal(other, add_cauchy_noise(u, spec))


def test_noise_scale_proportional_to_gamma():
    u = np.zeros((16, 16))
    n3 = add_cauchy_noise(u, NoiseSpec(gamma=3.0, seed=5))
    n6 = add_cauchy_noise(u, NoiseSpec(gamma=6.0, seed=5))
    assert np.allclose(n6, 2.0 * n3, rtol=1e-12, atol=0)


def test_negative_gamma_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(gamma=-1.0, seed=0)


def test_nan_gamma_rejected():
    # a NaN scale used to pass the sign check and turn every pixel NaN
    with pytest.raises(ValueError, match="gamma"):
        NoiseSpec(gamma=float("nan"), seed=0)


def test_infinite_gamma_rejected():
    # an infinite scale turned every pixel into +-inf
    with pytest.raises(ValueError, match="gamma must be finite"):
        NoiseSpec(gamma=math.inf, seed=0)


def test_overflowing_noise_rejected():
    # a finite scale whose noise overflows must not warn and return inf
    with pytest.raises(ValueError, match="overflows"):
        add_cauchy_noise(np.ones((4, 4)), NoiseSpec(gamma=1e308, seed=0))


def test_noise_redraws_denominators_below_guard(monkeypatch):
    u = np.full((8, 8), 100.0)
    spec = NoiseSpec(gamma=2.0, seed=5)
    unforced = add_cauchy_noise(u, spec)
    real = imaging._standard_normal_pair
    # first draw: three denominators below the guard; first redraw: one more
    forced = [{3: 0.0, 17: 1e-310, 40: -5e-301}, {1: 0.0}, {}]
    draws = []

    def pair(rng, n):
        v1, v2 = real(rng, n)
        for i, value in forced[len(draws)].items():
            v2[i] = value
        draws.append(v2)
        return v1, v2

    monkeypatch.setattr(imaging, "_standard_normal_pair", pair)
    noisy = add_cauchy_noise(u, spec)
    assert [len(v2) for v2 in draws] == [64, 3, 1]
    assert np.all(np.abs(draws[0]) >= imaging.DENOM_GUARD)  # filled in place
    assert np.all(np.isfinite(noisy))
    untouched = np.ones(64, dtype=bool)
    untouched[[3, 17, 40]] = False
    assert np.array_equal(noisy.ravel()[untouched],
                          unforced.ravel()[untouched])


def test_quantized_noisy_psnr_band():
    # heavy tails make the raw-field PSNR realization-dominated; the 8-bit
    # observation (clamp + round) lands in a stable band near 21 dB
    clean = make_squares_image(64, 64)
    noisy = quantize_u8(add_cauchy_noise(clean, NoiseSpec(gamma=3.0, seed=7)))
    value = psnr(noisy, clean)
    assert 19.0 <= value <= 23.0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_psnr_uniform_offsets():
    u = make_squares_image(16, 16)
    assert abs(psnr(u + 1.0, u) - 20.0 * math.log10(255.0)) <= 1e-12
    assert abs(psnr(u - 255.0, u)) <= 1e-12
    assert psnr(u, u) == math.inf


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def test_re_err_basics():
    u = make_squares_image(16, 16)
    assert re_err(u, u) == 0.0
    assert abs(re_err(2.0 * u, u) - 1.0) <= 1e-15
    assert abs(re_err(np.zeros_like(u), u) - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        re_err(u, np.zeros_like(u))
    with pytest.raises(ValueError, match="shape mismatch"):
        re_err(u, u[:, :-1])


def test_psnr_re_err_consistency():
    # ReErr == (255^2 m1 m2 / ||u||^2) * 10^(-PSNR/10)
    rng = np.random.default_rng(61)
    for _ in range(20):
        u = rng.uniform(1.0, 255.0, size=(7, 9))
        u_star = u + rng.normal(scale=10.0, size=u.shape)
        implied = (255.0 ** 2 * u.size / float(np.vdot(u, u))
                   * 10.0 ** (-psnr(u_star, u) / 10.0))
        assert abs(re_err(u_star, u) - implied) <= 1e-10 * implied


# ---------------------------------------------------------------------------
# quantization and PGM round trips
# ---------------------------------------------------------------------------

def test_quantize_clamps_and_rounds_half_even():
    raw = np.array([[-5.0, 0.49], [0.5, 1.5], [2.5, 300.0]])
    assert np.array_equal(quantize_u8(raw),
                          [[0.0, 0.0], [0.0, 2.0], [2.0, 255.0]])


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(67)
    img = rng.integers(0, 256, size=(11, 13)).astype(float)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_known_payload(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3]))
    assert np.array_equal(read_pgm(path), [[0.0, 1.0], [2.0, 3.0]])


@pytest.mark.parametrize("header", [
    b"P5\n# a comment\n2 1 # inline\n255\n",
    b"P5\r\n2\t1\r\n255\n",
    b"P5#c\n2 1\n255\n",
    b"#a\nP5#b\n#c\n2#d\n1#e\n255\n",
], ids=["comments", "crlf-and-tab", "comment-after-magic",
        "comment-between-every-pair"])
def test_pgm_header_comments(header, tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(header + bytes([9, 8]))
    assert np.array_equal(read_pgm(path), [[9.0, 8.0]])


def test_pgm_rejects_wrong_depth(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(path)


def test_pgm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PgmError, match="truncated"):
        read_pgm(path)


@pytest.mark.parametrize("data, match", [
    (b"P5\n2 2\n", "truncated PGM header"),
    (b"P5\n2 two\n255\n" + bytes(4), "non-numeric"),
    (b"P5\n0 2\n255\n", "bad dimensions 0x2"),
    # the "#" ends the maxval token; the pixel bytes would start inside it
    (b"P5\n2 1\n255#c\n" + bytes([9, 8]), "comment right after the maxval"),
    # the comment runs to the end of the data, taking "c 255" with it
    (b"P5 2 1 #c 255", "truncated PGM header"),
    # form feed is no header whitespace, so it belongs to the first token
    (b"P5\f\n2 1\n255\n" + bytes(2), "P5"),
    # header numbers are ASCII digits: int() would also take "_" and a sign
    (b"P5 2_0 1 255\n" + bytes(20), "non-numeric"),
    (b"P5 +2 1 255\n" + bytes(2), "non-numeric"),
    (b"P5 2 1 2_55\n" + bytes(2), "non-numeric"),
    # past int()'s 4300-digit limit: a PgmError, not int()'s own ValueError
    (b"P5 " + b"1" * 4301 + b" 1 255\n", "non-numeric"),
], ids=["truncated-header", "non-numeric", "zero-width", "comment-at-raster",
        "comment-to-end-of-data", "form-feed-in-magic", "underscore-width",
        "signed-width", "underscore-maxval", "too-many-digits"])
def test_pgm_rejects_malformed_header(data, match, tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmError, match=match):
        read_pgm(path)


def test_pgm_rejects_ascii_variant(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(PgmError, match="P5"):
        read_pgm(path)


def test_pgm_write_quantizes(tmp_path):
    path = tmp_path / "q.pgm"
    write_pgm(path, np.array([[-0.4, 255.7], [1.5, 2.5]]))
    assert np.array_equal(read_pgm(path), [[0.0, 255.0], [2.0, 2.0]])


def test_pgm_write_rejects_nan_and_clamps_infinities(tmp_path):
    path = tmp_path / "nan.pgm"
    with pytest.raises(ValueError, match="NaN"):
        write_pgm(path, [[math.nan, 1.0], [2.0, 3.0]])
    assert not path.exists()
    write_pgm(path, [[-math.inf, 1.0], [2.0, math.inf]])
    assert np.array_equal(read_pgm(path), [[0.0, 1.0], [2.0, 255.0]])


# read_pgm rejects an empty raster, so write_pgm writes none
@pytest.mark.parametrize("image", [[1.0, 2.0], [[[1.0]]], np.zeros((0, 4)),
                                   np.zeros((3, 0))],
                         ids=["1d", "3d", "0x4", "3x0"])
def test_pgm_write_rejects_an_image_that_is_empty_or_not_2d(image, tmp_path):
    path = tmp_path / "flat.pgm"
    with pytest.raises(ValueError, match="2-D"):
        write_pgm(path, image)
    assert not path.exists()


# ---------------------------------------------------------------------------
# synthetic test image
# ---------------------------------------------------------------------------

def test_squares_has_four_intensities():
    img = make_squares_image(64, 64)
    assert sorted(np.unique(img)) == [32.0, 96.0, 160.0, 224.0]
    assert tv(img) > 0.0


def test_squares_rectangles_scale_with_resolution():
    small = make_squares_image(64, 64)
    large = make_squares_image(128, 128)
    for level in (32.0, 96.0, 160.0, 224.0):
        assert (large == level).sum() == 4 * (small == level).sum()


def test_squares_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        make_squares_image(8, 64)


def test_squares_rejects_non_integral_sizes():
    # a fractional size fails here, not later inside np.full
    for m1, m2 in ((32.5, 32), (32, 32.0), (np.float64(32.0), 32)):
        with pytest.raises(ValueError, match="integers"):
            make_squares_image(m1, m2)
    assert make_squares_image(np.int64(16), 16).shape == (16, 16)
