"""Grayscale image I/O, synthetic test data, heavy-tailed noise, and metrics.

Images are plain 2-D float arrays on the [0, 255] intensity scale.  File
format is binary 8-bit PGM (P5, maxval 255); :func:`quantize_u8` is the
write-time transform (clamp then round half to even) exposed so pipelines
can compute metrics on exactly the values a written file would contain.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "NoiseSpec",
    "PgmError",
    "add_cauchy_noise",
    "make_squares_image",
    "psnr",
    "quantize_u8",
    "re_err",
    "read_pgm",
    "write_pgm",
]

# denominators this small would overflow the ratio; redraw instead
DENOM_GUARD = 1e-300


@dataclass(frozen=True)
class NoiseSpec:
    """Scale and seed for synthetic heavy-tailed noise."""

    gamma: float
    seed: int

    def __post_init__(self):
        if not self.gamma >= 0.0:  # NaN fails this too
            raise ValueError("gamma must be nonnegative")
        if self.gamma == math.inf:
            raise ValueError("gamma must be finite")


def add_cauchy_noise(u, spec):
    """Per pixel f = u + gamma * v1/v2 with v1, v2 iid standard normal.

    Normals come from Box-Muller over a counter-based (Philox) stream keyed
    by the seed, so the field is reproducible from (seed, shape, gamma)
    alone.  Denominators below the guard are redrawn; gamma = 0 returns u
    unchanged, and a gamma so large that some noise overflows is rejected.
    The output is NOT clamped to [0, 255]; quantize separately when an
    8-bit observation is wanted.
    """
    u = np.asarray(u, dtype=float)
    if spec.gamma == 0.0:
        return u.copy()
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    v1, v2 = _standard_normal_pair(rng, u.size)
    bad = np.abs(v2) < DENOM_GUARD
    while bad.any():
        r1, r2 = _standard_normal_pair(rng, int(bad.sum()))
        v1[bad] = r1
        v2[bad] = r2
        bad = np.abs(v2) < DENOM_GUARD
    with np.errstate(over="ignore"):
        noise = spec.gamma * v1 / v2
    if not np.isfinite(noise).all():
        raise ValueError(f"noise of scale gamma={spec.gamma:g} overflows")
    return u + noise.reshape(u.shape)


def _standard_normal_pair(rng, n):
    tiny = np.finfo(float).tiny
    u1 = np.clip(rng.random(n), tiny, None)
    u2 = rng.random(n)
    r = np.sqrt(-2.0 * np.log(u1))
    return r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)


def psnr(u_star, u):
    """20 log10(255 sqrt(m1 m2) / ||u_star - u||_F) in dB; inf when equal."""
    a = np.asarray(u_star, dtype=float)
    b = np.asarray(u, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    err = float(np.linalg.norm(a - b))
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 * math.sqrt(a.size) / err)


def re_err(u_star, u):
    """Relative squared error ||u_star - u||^2 / ||u||^2."""
    a = np.asarray(u_star, dtype=float)
    b = np.asarray(u, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = float(np.vdot(b, b))
    if denom == 0.0:
        raise ValueError("reference image is identically zero")
    diff = a - b
    return float(np.vdot(diff, diff)) / denom


def quantize_u8(u):
    """Clamp to [0, 255] and round half to even; returns a float array."""
    return np.rint(np.clip(np.asarray(u, dtype=float), 0.0, 255.0))


class PgmError(ValueError):
    """Malformed or unsupported PGM content."""


def read_pgm(path):
    """Read a binary 8-bit PGM (P5, maxval 255) as a float array."""
    data = Path(path).read_bytes()
    tokens, offset = _pgm_header_tokens(data)
    if len(tokens) < 4:
        raise PgmError(f"{path}: truncated PGM header")
    if tokens[0] != b"P5":
        raise PgmError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise PgmError(f"{path}: non-numeric PGM header field") from exc
    if width < 1 or height < 1:
        raise PgmError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"{path}: unsupported maxval {maxval} (8-bit only)")
    if data[offset - 1:offset] == b"#":
        raise PgmError(f"{path}: comment right after the maxval")
    payload = data[offset:offset + width * height]
    if len(payload) < width * height:
        raise PgmError(f"{path}: truncated pixel data "
                       f"({len(payload)} of {width * height} bytes)")
    pixels = np.frombuffer(payload, dtype=np.uint8)
    return pixels.reshape(height, width).astype(float)


def _pgm_header_tokens(data):
    """First four header tokens and the payload offset; honors # comments."""
    tokens = []
    i = 0
    while i < len(data) and len(tokens) < 4:
        ch = data[i:i + 1]
        if ch in b" \t\r\n":
            i += 1
        elif ch == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < len(data) and data[j:j + 1] not in b" \t\r\n#":
                j += 1
            tokens.append(data[i:j])
            i = j
    # exactly one whitespace byte separates the maxval from the pixel bytes
    return tokens, i + 1


def write_pgm(path, u):
    """Write as binary 8-bit PGM, applying :func:`quantize_u8` first."""
    u = np.asarray(u, dtype=float)
    if np.isnan(u).any():
        raise ValueError("image has NaN pixels")
    q = quantize_u8(u).astype(np.uint8)
    if q.ndim != 2:
        raise ValueError("image must be 2-D")
    height, width = q.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(q.tobytes())


def make_squares_image(m1, m2):
    """Piecewise-constant test image: background 32 plus three rectangles.

    Two squares at 96 and 160 in the top half and a wide bar at 224 below,
    all at fixed fractional positions, so doubling the resolution scales
    every region's pixel count by four.
    """
    if not all(isinstance(m, numbers.Integral) for m in (m1, m2)):
        raise ValueError("image size must be integers")
    if m1 < 16 or m2 < 16:
        raise ValueError("image must be at least 16x16")
    img = np.full((m1, m2), 32.0)
    img[m1 // 8: 7 * m1 // 16, m2 // 8: 7 * m2 // 16] = 96.0
    img[m1 // 8: 7 * m1 // 16, 9 * m2 // 16: 7 * m2 // 8] = 160.0
    img[9 * m1 // 16: 7 * m1 // 8, m2 // 8: 7 * m2 // 8] = 224.0
    return img
