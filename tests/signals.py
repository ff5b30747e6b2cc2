"""Shared synthetic test signals and geometries."""

import numpy as np

from glavoc.dsp import StftParams

# geometries whose frame rows split across chunks and threads in
# different ways
SPLIT_GEOMETRIES = {
    "default": StftParams(),
    "hop_not_dividing_window": StftParams(n_fft=512, hop=96, win_length=400),
    "uncentered_rectangular": StftParams(n_fft=512, hop=100, win_length=300,
                                         window=np.ones(300), center_padding=False),
    # 512 pieces a window, so a block holds 512 rows or more
    "small_hop": StftParams(n_fft=512, hop=1, win_length=512),
    # the rows reading a reflect-pad edge span several blocks at 7 cores
    "small_hop_short_window": StftParams(n_fft=512, hop=1, win_length=128),
}


def harmonic_signal(f0, sr=22050, n=22050, seed=0):
    """Speech-like harmonic complex: random-phase partials decaying as
    1/k^1.5 plus a -30 dB white noise floor, peak-normalized."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sr
    y = np.zeros(n)
    k = 1
    while k * f0 < sr / 2 - 100 and k <= 40:
        amp = rng.uniform(0.3, 1.0) / k ** 1.5
        y += amp * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        k += 1
    y /= np.max(np.abs(y))
    y += 10 ** (-30.0 / 20.0) * rng.standard_normal(n)
    return y / np.max(np.abs(y))
