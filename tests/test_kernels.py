"""Plan-based framing, overlap-add and normalization against brute-force loops.

The three loops below spell out the transforms sample by sample; the
vectorised STFT plan must reproduce them on the default geometry and on
the awkward ones: a hop that does not divide the window, an uncentered
rectangular window, a signal shorter than the padding, a single sample.
"""

import numpy as np
import pytest

from glavoc.dsp import (
    ComplexSpectrogram,
    StftParams,
    Waveform,
    _StftPlan,
    _reflect_index,
    istft,
    stft,
)


def _frame_loop(x, window, hop, n_frames):
    n = window.shape[0]
    out = np.empty((n_frames, n), dtype=x.dtype)
    for k in range(n_frames):
        base = k * hop
        for j in range(n):
            out[k, j] = x[base + j] * window[j]
    return out


def _overlap_add_loop(frames, hop, out_len):
    n_frames, n = frames.shape
    out = np.zeros(out_len, dtype=frames.dtype)
    for k in range(n_frames):
        base = k * hop
        for j in range(n):
            out[base + j] += frames[k, j]
    return out


def _window_sumsq_loop(window, hop, n_frames, out_len):
    n = window.shape[0]
    out = np.zeros(out_len, dtype=window.dtype)
    for k in range(n_frames):
        base = k * hop
        for j in range(n):
            out[base + j] += window[j] * window[j]
    return out


def reference_frames(x, p):
    """Windowed n_fft-sample frames of the reflect-padded, zero-tailed signal."""
    n_frames = p.frames_for_length(x.shape[0])
    x_pad = x[_reflect_index(x.shape[0], p.pad_amount)]
    needed = (n_frames - 1) * p.hop + p.n_fft
    x_pad = np.concatenate([x_pad, np.zeros(needed - x_pad.shape[0])])
    return _frame_loop(x_pad, p.padded_window(), p.hop, n_frames)


def reference_istft(frames, p, length):
    n_frames = frames.shape[0]
    out_len = (n_frames - 1) * p.hop + p.n_fft
    w = p.padded_window()
    acc = _overlap_add_loop(np.fft.irfft(frames, n=p.n_fft, axis=1) * w, p.hop, out_len)
    norm = _window_sumsq_loop(w, p.hop, n_frames, out_len)
    region = slice(p.pad_amount, p.pad_amount + length)
    return acc[region] / norm[region]


GEOMETRIES = {
    "default": (StftParams(), 5000),
    "hop_not_dividing_window": (StftParams(n_fft=512, hop=96, win_length=400), 3000),
    "uncentered_rectangular": (
        StftParams(n_fft=512, hop=100, win_length=300, window=np.ones(300),
                   center_padding=False), 2500),
    "shorter_than_pad": (StftParams(), 700),
    "single_sample": (StftParams(), 1),
}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_stft_matches_loop_reference(name):
    p, n = GEOMETRIES[name]
    x = np.random.default_rng(len(name)).standard_normal(n)
    expected = np.fft.rfft(reference_frames(x, p), n=p.n_fft, axis=1)
    assert np.array_equal(stft(Waveform(x), p).frames, expected)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_istft_matches_loop_reference(name):
    # same products, same summation order: equal, not merely close
    p, n = GEOMETRIES[name]
    rng = np.random.default_rng(len(name))
    n_frames = p.frames_for_length(n)
    shape = (n_frames, p.n_bins)
    frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = istft(ComplexSpectrogram(frames, p, n)).samples
    assert np.array_equal(got, reference_istft(frames, p, n))


def test_frame_signal_matches_brute_force():
    # frame t of the default analysis is the window times the padded
    # signal from sample t * hop, transformed
    rng = np.random.default_rng(1)
    p = StftParams()
    x = rng.standard_normal(5000)
    x_pad = x[_reflect_index(x.shape[0], p.pad_amount)]
    spec = stft(Waveform(x), p).frames
    for t in (0, 7, 16):           # frames that lie inside the padded signal
        chunk = x_pad[t * p.hop:t * p.hop + p.n_fft] * p.padded_window()
        assert np.array_equal(spec[t], np.fft.rfft(chunk))


def test_overlap_add_is_adjoint_of_framing():
    # <frame(x), F> == <x, overlap_add(F * w)>: unnormalized synthesis is
    # the adjoint of analysis, checked through the uncentered rectangular
    # pair, where the normalizer is a known per-sample frame count
    rng = np.random.default_rng(2)
    p = StftParams(n_fft=128, hop=32, win_length=128, window=np.ones(128),
                   center_padding=False)
    n = 3000
    n_frames = p.frames_for_length(n)
    x = rng.standard_normal(n)
    F = rng.standard_normal((n_frames, p.n_fft))
    lhs = np.sum(reference_frames(x, p) * F)
    counts = _window_sumsq_loop(p.window, p.hop, n_frames, (n_frames - 1) * p.hop + p.n_fft)[:n]
    synth = istft(ComplexSpectrogram(np.fft.rfft(F, axis=1), p, n)).samples
    rhs = np.sum(x * synth * counts)
    assert abs(lhs - rhs) < 1e-9


def test_window_sumsq_equals_overlap_of_squares():
    # the plan's normalizer is the overlap-add of squared windows, read
    # over the output region
    rng = np.random.default_rng(3)
    p = StftParams(n_fft=128, hop=24, win_length=96, window=0.5 + 0.5 * rng.random(96))
    n_frames = 51
    n = p.max_length_for_frames(n_frames)
    out_len = (n_frames - 1) * p.hop + p.n_fft
    w = p.padded_window()
    region = slice(p.pad_amount, p.pad_amount + n)
    direct = _window_sumsq_loop(w, p.hop, n_frames, out_len)[region]
    tiled = _overlap_add_loop(np.tile(w * w, (n_frames, 1)), p.hop, out_len)[region]
    norm = _StftPlan(p, n, n_frames)._build_norm()
    assert np.array_equal(norm, direct)
    assert np.array_equal(norm, tiled)
