"""Short-time Fourier analysis and least-squares synthesis.

The analysis operator maps a real signal to a one-sided complex
spectrogram of shape (frames, n_fft//2 + 1); the synthesis operator
inverts it by squared-window-normalized overlap-add.  With the default
parameters (periodic Hann, 4x overlap) the pair reconstructs perfectly,
which every projection in :mod:`glavoc.phase` relies on.

Conventions: frames are n_fft-sample chunks of the (optionally
reflect-padded) signal taken every ``hop`` samples, multiplied by the
analysis window zero-padded centrally to n_fft, so frame ``t`` is
centered on sample ``t * hop`` when center padding is on.  All arithmetic
is double precision.

Both transforms run on a :class:`_StftPlan`, built once per call for one
(parameters, signal length) pair: the reflect-pad gather index, the
window restricted to its support, the squared-window normalizer over the
output region, and one reusable frame buffer.  Framing, windowing and the
FFTs run on a slice of frame rows; only the reflect-pad gather and the
overlap-add span all frames.  :func:`stft` and :func:`istft` run one
block of all rows on the calling thread.  A projection burst in
:mod:`glavoc.phase` builds one plan and runs every round on it, its
worker threads sharing that plan and each owning a disjoint block of
rows.  Plans are never cached or kept past their call, so separate
callers share no state.
"""

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SAMPLE_RATE = 22050
NORMALIZATION_FLOOR = 1e-10


def hann_window(win_length: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of ``win_length`` samples.

    w[t] = 0.5 * (1 - cos(2*pi*t / win_length)).  The periodic convention
    keeps the squared-window overlap-add sum exactly constant at
    hop = win_length / 4, which the symmetric variant does not.
    """
    if win_length < 2:
        raise ValueError(f"win_length must be >= 2, got {win_length}")
    t = np.arange(win_length, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * t / win_length))


@dataclass(frozen=True)
class StftParams:
    """Analysis/synthesis parameterization.

    ``window`` has ``win_length`` samples and is zero-padded centrally to
    ``n_fft`` before use.  ``center_padding`` reflect-pads the signal by
    n_fft//2 on both ends so frames align with multiples of ``hop``.
    """

    n_fft: int = 2048
    hop: int = 300
    win_length: int = 1200
    window: np.ndarray = field(default=None)
    center_padding: bool = True

    def __post_init__(self):
        if self.window is None:
            object.__setattr__(self, "window", hann_window(self.win_length))
        if self.n_fft < 1 or self.hop < 1 or self.win_length < 1:
            raise ValueError("n_fft, hop and win_length must be positive")
        if self.win_length > self.n_fft:
            raise ValueError(f"win_length {self.win_length} exceeds n_fft {self.n_fft}")
        if self.hop > self.win_length:
            raise ValueError(f"hop {self.hop} exceeds win_length {self.win_length}")
        w = np.asarray(self.window, dtype=np.float64)
        if w.shape != (self.win_length,):
            raise ValueError(f"window must have shape ({self.win_length},), got {w.shape}")
        if not np.all(np.isfinite(w)) or w.min() < 0.0 or w.max() > 1.0:
            raise ValueError("window values must be finite and lie in [0, 1]")
        object.__setattr__(self, "window", w)

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    @property
    def pad_amount(self) -> int:
        return self.n_fft // 2 if self.center_padding else 0

    def padded_window(self) -> np.ndarray:
        """Analysis window zero-padded to n_fft samples.

        Centered when ``center_padding`` is on (keeps frame t aligned with
        sample t * hop); left-aligned otherwise, so the first signal sample
        falls under the window of frame 0.
        """
        out = np.zeros(self.n_fft, dtype=np.float64)
        left = (self.n_fft - self.win_length) // 2 if self.center_padding else 0
        out[left:left + self.win_length] = self.window
        return out

    def frames_for_length(self, n_samples: int) -> int:
        """Number of analysis frames produced for a signal of ``n_samples``."""
        if n_samples < 1:
            raise ValueError("signal length must be positive")
        total = n_samples + 2 * self.pad_amount
        return max(1, math.ceil((total - self.win_length) / self.hop) + 1)

    def check_frame_count(self, n_frames: int) -> None:
        """Raise ValueError unless some signal analyzes to ``n_frames`` frames.

        A one-sample signal gives the fewest frames, and each further
        sample adds at most one, so every count from there up is reachable.
        """
        fewest = self.frames_for_length(1)
        if n_frames < fewest:
            raise ValueError(
                f"{n_frames} frames: no signal analyzes to fewer than {fewest} "
                f"frames under this geometry (n_fft {self.n_fft}, hop {self.hop}, "
                f"win_length {self.win_length})"
            )

    def max_length_for_frames(self, n_frames: int) -> int:
        """Longest signal length that analyzes to exactly ``n_frames`` frames.

        Used as the synthesis target length when only a spectrogram or mel
        frame count is known.
        """
        if n_frames < 1:
            raise ValueError("n_frames must be positive")
        return max(1, (n_frames - 1) * self.hop + self.win_length - 2 * self.pad_amount)


@dataclass
class Waveform:
    """A mono time-domain signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples contain non-finite values")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = s

    def __len__(self):
        return self.samples.shape[0]


@dataclass
class ComplexSpectrogram:
    """One-sided complex spectrogram plus what is needed to invert it.

    ``origin_length`` is the time-domain sample count the spectrogram was
    computed from (or should synthesize back to by default).
    """

    frames: np.ndarray
    params: StftParams
    origin_length: int

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.complex128)
        if f.ndim != 2:
            raise ValueError(f"frames must be 2-D, got shape {f.shape}")
        if f.shape[1] != self.params.n_bins:
            raise ValueError(
                f"expected {self.params.n_bins} frequency bins, got {f.shape[1]}"
            )
        if not np.all(np.isfinite(f)):
            raise ValueError("spectrogram contains non-finite values")
        if self.origin_length < 1:
            raise ValueError("origin_length must be positive")
        self.frames = f

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.frames)


def _reflect_index(n: int, pad: int) -> np.ndarray:
    """Sample indices of an ``n``-sample signal reflect-padded by ``pad``."""
    if n == 1:
        return np.zeros(1 + 2 * pad, dtype=np.intp)
    idx = np.arange(-pad, n + pad)
    period = 2 * n - 2
    for edge in (idx[:pad], idx[pad + n:]):    # the middle maps to itself
        folded = np.abs(edge) % period
        edge[:] = np.where(folded >= n, period - folded, folded)
    return idx


class _StftPlan:
    """Geometry and scratch for transforms of one (params, signal length).

    ``length`` is the signal length analyzed from, or synthesized to, and
    ``n_frames`` the spectrogram frame count.  Each half is built on its
    first use: :meth:`pad` builds the reflect-pad gather index,
    :meth:`signal` the squared-window normalizer.  The frame buffer is
    shared by both and holds zeros outside the window support between
    calls.

    Framing, windowing and both FFTs work row by row on a ``rows`` slice
    of frames, so a burst can hand disjoint row blocks to several threads;
    only :meth:`pad` and :meth:`signal` span all frames.  :meth:`analyze`
    and :meth:`synthesize` are the one-block transforms.
    """

    def __init__(self, p: StftParams, length: int, n_frames: int):
        self.p, self.length, self.n_frames = p, length, n_frames
        left = (p.n_fft - p.win_length) // 2 if p.center_padding else 0
        self.support = slice(left, left + p.win_length)
        self.frames = np.empty((n_frames, p.n_fft))
        self.frames[:, :left] = 0.0
        self.frames[:, self.support.stop:] = 0.0
        self.gather = self.padded = self.windows = self.norm = None

    def _build_norm(self) -> np.ndarray:
        """Squared-window overlap-add sum over the output region."""
        wsq = self.p.window * self.p.window
        norm = self._overlap_add(np.broadcast_to(wsq, (self.n_frames, wsq.shape[0])))
        if norm.min() < NORMALIZATION_FLOOR:
            raise ValueError(
                "degenerate synthesis normalization: squared-window sum below "
                f"{NORMALIZATION_FLOOR} inside the output region"
            )
        return norm

    def _overlap_add(self, frames: np.ndarray) -> np.ndarray:
        """Sum support-wide frames at their hop offsets; return the output region.

        Frame k's support starts at sample k*hop + support.start, so the
        sum is ceil(win/hop) shifted adds of (frames, hop) blocks, the last
        one possibly narrower.  Blocks go from the last to the first, which
        adds each sample's terms in increasing frame order.
        """
        p, hop, n = self.p, self.p.hop, self.n_frames
        n_blocks = -(-p.win_length // hop)
        start = self.support.start
        acc = np.zeros(max((n - 1) * hop + p.n_fft, start + (n + n_blocks - 1) * hop))
        grid = acc[start:start + (n + n_blocks - 1) * hop].reshape(-1, hop)
        for j in range(n_blocks - 1, -1, -1):
            block = frames[:, j * hop:(j + 1) * hop]
            grid[j:j + n, :block.shape[1]] += block
        return acc[p.pad_amount:p.pad_amount + self.length]

    def pad(self, x: np.ndarray) -> None:
        """Reflect-pad ``x`` into the buffer that analysis frames are read from."""
        p = self.p
        if self.gather is None:
            self.gather = _reflect_index(self.length, p.pad_amount)
            self.padded = np.empty((self.n_frames - 1) * p.hop + p.n_fft)
            self.padded[self.gather.shape[0]:] = 0.0
            self.windows = np.lib.stride_tricks.sliding_window_view(
                self.padded[self.support.start:], p.win_length)[::p.hop][:self.n_frames]
        np.take(x, self.gather, out=self.padded[:self.gather.shape[0]])

    def analyze_rows(self, rows: slice, out: np.ndarray = None) -> np.ndarray:
        """One-sided spectrum of the windowed frames ``rows`` of the padded signal.

        Written into ``out[rows]`` when ``out`` is given.
        """
        p = self.p
        np.multiply(self.windows[rows], p.window, out=self.frames[rows, self.support])
        return np.fft.rfft(self.frames[rows], n=p.n_fft, axis=1,
                           out=None if out is None else out[rows])

    def synthesize_rows(self, X: np.ndarray, rows: slice) -> None:
        """Windowed inverse transform of ``X[rows]`` into the frame buffer's rows."""
        p = self.p
        frames = np.fft.irfft(X[rows], n=p.n_fft, axis=1, out=self.frames[rows])
        frames[:, self.support] *= p.window
        frames[:, :self.support.start] = 0.0
        frames[:, self.support.stop:] = 0.0

    def signal(self) -> np.ndarray:
        """Squared-window-normalized overlap-add of the synthesized frames."""
        if self.norm is None:
            self.norm = self._build_norm()
        return self._overlap_add(self.frames[:, self.support]) / self.norm

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """One-sided spectrum of the windowed frames of ``x``."""
        self.pad(x)
        return self.analyze_rows(slice(None))

    def synthesize(self, X: np.ndarray) -> np.ndarray:
        """Squared-window-normalized overlap-add of the inverse transform of ``X``."""
        self.synthesize_rows(X, slice(None))
        return self.signal()


def stft(y: Waveform, p: StftParams) -> ComplexSpectrogram:
    """Analyze a signal into a one-sided complex spectrogram.

    The frame count is ceil((L + pad_total - win_length) / hop) + 1 where
    pad_total is the total reflect padding.  The map is linear in ``y``.
    """
    x = y.samples
    if x.shape[0] == 0:
        raise ValueError("cannot analyze an empty signal")
    plan = _StftPlan(p, x.shape[0], p.frames_for_length(x.shape[0]))
    return ComplexSpectrogram(plan.analyze(x), p, x.shape[0])


def istft(C: ComplexSpectrogram, target_length: int | None = None) -> Waveform:
    """Synthesize a signal by squared-window-normalized overlap-add.

    The least-squares inverse of :func:`stft`: exact reconstruction
    wherever the squared-window sum is nonzero, which holds everywhere in
    the valid region for the default parameters.  Linear in ``C``.
    """
    p = C.params
    if target_length is None:
        target_length = C.origin_length
    if target_length < 1:
        raise ValueError("target_length must be positive")
    out_len = (C.n_frames - 1) * p.hop + p.n_fft
    if p.pad_amount + target_length > out_len:
        raise ValueError(
            f"target_length {target_length} exceeds reconstructable length "
            f"{out_len - p.pad_amount} for {C.n_frames} frames"
        )
    return Waveform(_StftPlan(p, target_length, C.n_frames).synthesize(C.frames))


def spectrogram_from_magnitude(
    magnitude: np.ndarray,
    phase: np.ndarray,
    p: StftParams,
    origin_length: int | None = None,
) -> ComplexSpectrogram:
    """Combine a magnitude array with a phase array (radians) into a spectrogram."""
    mag = np.asarray(magnitude, dtype=np.float64)
    if origin_length is None:
        origin_length = p.max_length_for_frames(mag.shape[0])
    return ComplexSpectrogram(mag * np.exp(1j * phase), p, origin_length)
