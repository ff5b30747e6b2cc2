"""Plan-based framing, overlap-add and normalization against brute-force loops.

The three loops below spell out the transforms sample by sample; the
analysis kernel, read through strided views of the samples, and the
synthesis plan must reproduce them on the default geometry and on the
awkward ones: a hop that does not divide the window, an uncentered
rectangular window, a signal shorter than the padding, a single sample.
"""

import numpy as np
import pytest

from signals import SPLIT_GEOMETRIES

import glavoc.dsp as dsp
from glavoc.dsp import (
    ComplexSpectrogram,
    StftParams,
    Waveform,
    _StftPlan,
    _reflect,
    istft,
    stft,
    stft_magnitude,
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
    x_pad = x[_reflect(np.arange(-p.pad_amount, x.shape[0] + p.pad_amount), x.shape[0])]
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


def split_transforms(mp, rows_name, rows, cores):
    # chunks of `rows` frame rows; a transform runs no rounds, so it stays
    # on the calling thread however many cores
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    mp.setattr(dsp, rows_name, rows)
    mp.setattr(dsp, "_cores", lambda: cores)
    mp.setattr(dsp, "MIN_BLOCK_SAMPLES", 1)
    mp.setattr(dsp.threading, "Thread", no_thread)


def check_stft(name):
    p, n = GEOMETRIES[name]
    x = np.random.default_rng(len(name)).standard_normal(n)
    expected = np.fft.rfft(reference_frames(x, p), n=p.n_fft, axis=1)
    assert np.array_equal(stft(Waveform(x), p).frames, expected)


def check_istft(name):
    # same products, same summation order: equal, not merely close
    p, n = GEOMETRIES[name]
    rng = np.random.default_rng(len(name))
    n_frames = p.frames_for_length(n)
    shape = (n_frames, p.n_bins)
    frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = istft(ComplexSpectrogram(frames, p, n)).samples
    assert np.array_equal(got, reference_istft(frames, p, n))


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_stft_matches_loop_reference(name):
    check_stft(name)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_istft_matches_loop_reference(name):
    check_istft(name)


@pytest.mark.parametrize("cores", (1, 3))
@pytest.mark.parametrize("rows", (1, 3, 64))
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_split_stft_matches_loop_reference(name, rows, cores, monkeypatch):
    # analysis chunks by ANALYSIS_ROWS; 64 rows take every geometry here in one chunk
    split_transforms(monkeypatch, "ANALYSIS_ROWS", rows, cores)
    check_stft(name)


@pytest.mark.parametrize("cores", (1, 3))
@pytest.mark.parametrize("rows", (1, 3, 64))
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_split_istft_matches_loop_reference(name, rows, cores, monkeypatch):
    split_transforms(monkeypatch, "CHUNK_ROWS", rows, cores)
    check_istft(name)


def reads_zero_tail(p, n):
    """Whether the last frame's window support ends past the reflect-padded signal."""
    last = (p.frames_for_length(n) - 1) * p.hop + p.support.stop
    return last > n + 2 * p.pad_amount


@pytest.mark.parametrize("rows", (1, 3, 16))
@pytest.mark.parametrize("name", sorted(SPLIT_GEOMETRIES))
def test_analysis_reads_the_samples_as_the_padded_reference(name, rows, monkeypatch):
    # chunks inside the samples read them straight, chunks at either end
    # one segment of the reflect pad, the samples and the zero tail: the
    # reference's bits at every length, for a strided, a reversed and a
    # read-only view too, and the samples stay.  At one row a chunk, every
    # edge row is a segment of its own; at 1 sample the last of the default
    # geometry's 4 rows lies wholly past the samples
    monkeypatch.setattr(dsp, "ANALYSIS_ROWS", rows)
    p = SPLIT_GEOMETRIES[name]
    rng = np.random.default_rng(rows)
    # 1 sample, below, at and past win_length; a full window at hop 1 never reads the tail
    lengths = [1, p.win_length - 1, p.win_length, p.win_length + 2 * p.hop + 1, 3 * p.n_fft + 7]
    assert any(reads_zero_tail(p, n) for n in lengths) or name == "small_hop"
    for n in lengths:
        base = rng.standard_normal(2 * n)
        x = base[:n]
        expected = np.fft.rfft(reference_frames(x, p), n=p.n_fft, axis=1)
        got = stft(Waveform(x), p).frames
        assert np.array_equal(got, expected), n
        magnitude = stft_magnitude(Waveform(x), p)
        assert np.array_equal(magnitude, np.abs(expected)), n
        frozen = base[n:].copy()
        frozen.setflags(write=False)
        for view in (base[::2], base[::-2], frozen):
            before = view.copy()
            assert stft(Waveform(view), p).frames.tobytes() == \
                stft(Waveform(before), p).frames.tobytes(), n
            assert stft_magnitude(Waveform(view), p).tobytes() == \
                stft_magnitude(Waveform(before), p).tobytes(), n
            assert np.array_equal(view, before)


def test_analysis_gathers_only_the_edge_chunks(monkeypatch):
    # a 5 s clip at the default geometry: the chunks whose supports lie
    # inside the samples are read through the view, so only the one or two
    # chunks at either end gather reflect-pad positions
    calls = [0]
    reflect = dsp._reflect

    def counting(idx, n):
        calls[0] += 1
        return reflect(idx, n)

    p = StftParams()
    x = np.random.default_rng(5).standard_normal(5 * 22050)
    expected = stft_magnitude(Waveform(x), p)
    monkeypatch.setattr(dsp, "_reflect", counting)
    assert np.array_equal(stft_magnitude(Waveform(x), p), expected)
    assert 1 <= calls[0] <= 3


def test_frame_signal_matches_brute_force():
    # frame t of the default analysis is the window times the padded
    # signal from sample t * hop, transformed
    rng = np.random.default_rng(1)
    p = StftParams()
    x = rng.standard_normal(5000)
    x_pad = x[_reflect(np.arange(-p.pad_amount, x.shape[0] + p.pad_amount), x.shape[0])]
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
    # the normalizer the plan divides by, its interior hop of sums tiled
    # over the interior cells, is the overlap-add of squared windows read
    # over the output region; 3 frames leave no interior cell
    rng = np.random.default_rng(3)
    window = 0.5 + 0.5 * rng.random(96)
    for n_frames in (51, 3):
        for center in (True, False):
            p = StftParams(n_fft=128, hop=24, win_length=96, window=window,
                           center_padding=center)
            n = p.max_length_for_frames(n_frames)
            out_len = (n_frames - 1) * p.hop + p.n_fft
            w = p.padded_window()
            region = slice(p.pad_amount, p.pad_amount + n)
            direct = _window_sumsq_loop(w, p.hop, n_frames, out_len)[region]
            tiled = _overlap_add_loop(np.tile(w * w, (n_frames, 1)), p.hop, out_len)[region]
            spans = _StftPlan(p, n, n_frames)._build_norm()
            assert [a for a, _, _ in spans] == [region.start] + [b for _, b, _ in spans[:-1]]
            assert spans[-1][1] == region.stop
            norm = np.concatenate([np.tile(s[0], (b - a) // p.hop) if s.ndim == 2 else s
                                   for a, b, s in spans])
            assert np.array_equal(norm, direct)
            assert np.array_equal(norm, tiled)
