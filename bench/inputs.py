"""Seeded synthetic inputs for the benchmark, delivered as binary PNM bytes.

The grayscale generator ports the corpus formula of ``tests/conftest.py``:
a smooth layer (steep spectral falloff plus a period-8 stripe, so
consecutive blocks repeat but still carry AC energy) and a rough texture
layer, mixed through a blob mask whose smooth-area fraction rises with the
image index, here from 0.05 to 0.8 across ``count`` images. The texture
exponent spans the conftest range, 1.05 to 1.35, but rises with the index
instead of cycling, so an image's coding cost falls steadily with its index
and the median op of a pass is the middle image's, with no cluster of
equally costly images next to it. The RGB variant keeps that image as luma
and adds a smooth chroma tint, converted to RGB with the BT.601 full-range
inverse.

Inputs depend only on (seed, index, count), and this module does not use
the codec, so the program under test sees nothing but the PNM bytes.
"""

from __future__ import annotations

import numpy as np

SIZE = 512


def _spectral(rng, alpha, h=SIZE, w=SIZE):
    """Unit-variance noise field with power spectrum ~ 1/f^(2*alpha)."""
    F = np.fft.fft2(rng.normal(size=(h, w)))
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    r = np.hypot(fy, fx)
    r[0, 0] = 1.0
    g = np.real(np.fft.ifft2(F / r**alpha))
    g -= g.mean()
    s = g.std()
    return g / (s if s > 0 else 1.0)


def _blob_mask(rng, frac, sharp=14.0):
    field = _spectral(rng, 2.5)
    thr = np.quantile(field, 1.0 - frac)
    return 1.0 / (1.0 + np.exp(-sharp * (field - thr)))


def _luma(rng, index: int, count: int) -> np.ndarray:
    """Unrounded grayscale image; the conftest formula with a free count."""
    step = index / max(count - 1, 1)
    frac = 0.05 + 0.75 * step  # smooth-area fraction
    alpha_t = 1.05 + 0.3 * step  # texture roughness exponent
    texture = _spectral(rng, alpha_t) * 52 + 128
    x = np.arange(SIZE)[None, :]
    stripe = rng.uniform(9.0, 13.0) * np.cos(2 * np.pi * x / 8.0 + rng.uniform(0, 2 * np.pi))
    smooth = _spectral(rng, 3.0) * 18 + rng.uniform(90, 170) + stripe
    m = _blob_mask(rng, frac)
    return m * smooth + (1 - m) * texture


def _to_u8(x: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(x + 0.5), 0, 255).astype(np.uint8)


def gray_pnm(seed: int, index: int, count: int) -> bytes:
    rng = np.random.default_rng([seed, index])
    pixels = _to_u8(_luma(rng, index, count))
    return b"P5\n%d %d\n255\n" % (SIZE, SIZE) + pixels.tobytes()


def rgb_pnm(seed: int, index: int, count: int) -> bytes:
    rng = np.random.default_rng([seed, index])
    y = _luma(rng, index, count)
    cb = _spectral(rng, 3.0) * 12 + rng.uniform(-24, 24)
    cr = _spectral(rng, 3.0) * 12 + rng.uniform(-24, 24)
    rgb = np.stack([y + 1.402 * cr, y - 0.344136 * cb - 0.714136 * cr, y + 1.772 * cb], axis=-1)
    return b"P6\n%d %d\n255\n" % (SIZE, SIZE) + _to_u8(rgb).tobytes()


def image(kind: str, seed: int, index: int, count: int) -> bytes:
    """Image ``index`` of the ``count``-image corpus of one kind ("gray" or
    "rgb") for one seed."""
    return {"gray": gray_pnm, "rgb": rgb_pnm}[kind](seed, index, count)


def corpus(kind: str, seed: int, count: int) -> list[bytes]:
    return [image(kind, seed, i, count) for i in range(count)]
