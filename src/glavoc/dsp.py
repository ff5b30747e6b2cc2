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

:class:`StftParams` alone decides which signal lengths a frame count
describes: :meth:`~StftParams.max_length_for_frames` gives the longest and
rejects a count that no signal analyzes to.
:meth:`~StftParams.synthesis_length` admits 1 up to that longest;
:func:`istft`, :class:`ComplexSpectrogram` and :func:`glavoc.phase.fgla`
accept those.  :meth:`~StftParams.check_length` admits only the lengths
that analyze back to exactly n frames, which a projection round needs.

Every transform runs in one engine, :func:`_project_rounds`, on a
:class:`_StftPlan` built per call for one (parameters, signal length)
pair: the padded signal and its reflect-pad edge map, the window support
and the squared-window normalizer.  :func:`stft` is its first analysis
and :func:`istft` its last synthesis, with no rounds between; the
Griffin-Lim bursts of :mod:`glavoc.phase` run theirs.  A step is a
spectral row pass, CHUNK_ROWS frame rows at a time through analysis,
momentum and magnitude projection, then a time-domain overlap-add pass
that synthesizes frames into normalized samples of the padded signal.
Each array is scanned for finiteness once, by the :class:`ComplexSpectrogram`
or :class:`Waveform` holding it, or by the engine if none does.

A call with rounds splits the rows into contiguous blocks, one per core
the process may run on while each holds MIN_BLOCK_SAMPLES frame samples,
and the output samples into as many ranges, one thread each; the threads
meet at a barrier after each pass, so nothing runs serially between
rounds, and the output is byte-identical whatever the split.  A call
with no rounds runs on the calling thread.  Plans are never cached, so
separate callers share no state.
"""

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

NORMALIZATION_FLOOR = 1e-10

# Frame samples (rows x n_fft) a row block needs before a second thread
# pays for its two barriers per round.  Measured on 2 cores, per round of
# a gla_correct burst, two blocks break even with one at about 16k samples
# each for n_fft 512, 1024 and 2048 alike; at 32k (16 rows of 2048) they
# take 0.76-0.87 of one block, at 64k 0.62-0.73.
MIN_BLOCK_SAMPLES = 1 << 15

# Frame rows a pass takes through its stages in one go, so each stage
# finds the chunk still in cache.
# On a 60 s clip (4414 frames of 2048; 2 cores, 1 MB L2 each, 32 MB L3),
# chunks of 16/32/64/128/256 rows gave 25.7/24.3/22.8/24.2/26.3 ms per
# momentum round.
CHUNK_ROWS = 64


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

    def max_length_for_frames(self, n_frames: int) -> int:
        """Longest signal length that analyzes to exactly ``n_frames`` frames.

        Raises ValueError when no signal does.  A one-sample signal gives
        the fewest frames, and each further sample adds at most one, so
        every count from there up is reachable.
        """
        fewest = self.frames_for_length(1)
        if n_frames < fewest:
            raise ValueError(
                f"{n_frames} frames: no signal analyzes to fewer than {fewest} "
                f"frames under this geometry (n_fft {self.n_fft}, hop {self.hop}, "
                f"win_length {self.win_length})"
            )
        return (n_frames - 1) * self.hop + self.win_length - 2 * self.pad_amount

    def synthesis_length(self, n_frames: int, length: int | None = None) -> int:
        """Length to synthesize ``n_frames`` frames to: ``length``, by default the longest.

        Raises ValueError when no signal analyzes to ``n_frames`` frames, and
        unless 1 <= length <= max_length_for_frames(n_frames); a longer signal
        would analyze to more frames.
        """
        longest = self.max_length_for_frames(n_frames)
        if length is None:
            return longest
        if not 1 <= length <= longest:
            raise ValueError(f"target_length {length} outside 1..{longest} for {n_frames} frames")
        return length

    def check_length(self, n_frames: int, length: int) -> None:
        """Raise ValueError unless a ``length``-sample signal analyzes to ``n_frames`` frames."""
        got = self.frames_for_length(length)
        if got != n_frames:
            raise ValueError(f"length {length} analyzes to {got} frames, not {n_frames}")

    def check_synthesis(self) -> None:
        """Raise ValueError unless synthesis can normalize every output sample.

        Builds the squared-window normalizer of one probe plan of
        2 * (n_fft + hop) samples, long enough to hold both edges of the
        output region and a stretch of its interior.
        """
        length = 2 * (self.n_fft + self.hop)
        _StftPlan(self, length, self.frames_for_length(length))._build_norm()


@dataclass
class Waveform:
    """A mono time-domain signal, without a sample rate.

    A file's rate lives in its WavSpec, a mel spectrogram's in its MelFilterbank.
    """

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples contain non-finite values")
        self.samples = s

    def __len__(self):
        return self.samples.shape[0]


@dataclass
class ComplexSpectrogram:
    """One-sided complex spectrogram plus what is needed to invert it.

    ``origin_length`` is the time-domain sample count the spectrogram was
    computed from (or should synthesize back to by default); it must lie
    in ``params.synthesis_length``'s range for the frame count.
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
        if self.origin_length is None:    # synthesis_length would read it as "the longest"
            raise ValueError("origin_length is required, got None")
        self.params.synthesis_length(f.shape[0], self.origin_length)
        self.frames = f

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.frames)


def _reflect(idx: np.ndarray, n: int) -> np.ndarray:
    """Sample indices of positions ``idx`` of an ``n``-sample signal reflected at both ends."""
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n - 2
    folded = np.abs(idx) % period
    return np.where(folded >= n, period - folded, folded)


class _StftPlan:
    """Geometry and buffers for transforms of one (params, signal length).

    ``length`` is the signal length analyzed from, or synthesized to, and
    ``n_frames`` the spectrogram frame count.  ``padded`` holds the signal
    from sample ``pad_amount`` on, reflect-padded at both ends and zero
    past that; analysis reads its frames and synthesis writes it.

    A transform is two passes, one per domain.  The row pass works on a
    slice of frame rows through an n_fft-wide buffer: :meth:`analyze_rows`
    windows frames of ``padded`` and takes their rfft.  The overlap-add
    pass, :meth:`overlap_add`, takes the irfft and window of every frame
    reaching a range of the hop-sized output cells ``cells`` covers, sums
    them per cell and writes the normalized samples and their reflect-pad
    mirrors into ``padded``; the ``n_pieces - 1`` frames before a range
    reach into it.  Disjoint row slices, and disjoint cell ranges, may
    run on different threads.
    """

    def __init__(self, p: StftParams, length: int, n_frames: int):
        self.p, self.length, self.n_frames = p, length, n_frames
        left = (p.n_fft - p.win_length) // 2 if p.center_padding else 0
        self.support = slice(left, left + p.win_length)
        pad = p.pad_amount
        self.padded = np.empty((n_frames - 1) * p.hop + p.n_fft)
        self.padded[length + 2 * pad:] = 0.0
        self.windows = np.lib.stride_tricks.sliding_window_view(
            self.padded[left:], p.win_length)[::p.hop][:n_frames]
        # each edge position, ordered by the sample it mirrors
        edges = np.r_[-pad:0, length:length + pad]
        src = _reflect(edges, length)
        order = np.argsort(src, kind="stable")
        self.edge_src, self.edge_dst = src[order], edges[order] + pad
        # cell c holds padded samples left + c*hop onward; these cover the output region
        self.cells = slice((pad - left) // p.hop, -(-(pad + length - left) // p.hop))
        self.n_pieces = -(-p.win_length // p.hop)
        self.norm = None

    def frame_buffer(self, rows: int) -> np.ndarray:
        """An n_fft-wide buffer of ``rows`` frames, zero outside the window support."""
        buf = np.empty((rows, self.p.n_fft))
        buf[:, :self.support.start] = 0.0
        buf[:, self.support.stop:] = 0.0
        return buf

    def _build_norm(self) -> np.ndarray:
        """Squared-window overlap-add sum over the output region."""
        p = self.p
        wsq = p.window * p.window
        acc = np.zeros((self.cells.stop - self.cells.start, p.hop))
        self._cell_sums(np.broadcast_to(wsq, (self.n_frames, wsq.shape[0])),
                        slice(0, self.n_frames), self.cells, acc)
        first = p.pad_amount - self.support.start - self.cells.start * p.hop
        norm = acc.reshape(-1)[first:first + self.length]
        if norm.min() < NORMALIZATION_FLOOR:
            raise ValueError(
                "degenerate synthesis normalization: squared-window sum below "
                f"{NORMALIZATION_FLOOR} inside the output region (n_fft {p.n_fft}, "
                f"hop {p.hop}, win_length {p.win_length}, "
                f"center {'on' if p.center_padding else 'off'})"
            )
        return norm

    def _cell_sums(self, frames: np.ndarray, rows: slice, cells: slice, acc: np.ndarray) -> None:
        """Add the support-wide frames ``rows`` into the rows of ``acc``, one per cell of ``cells``.

        Frame k's j-th hop-wide piece lands in cell k + j; the last piece
        may be narrower.  Pieces go from the last to the first, so calls on
        consecutive row slices in increasing order, onto an ``acc`` of
        zeros, add each sample's terms in increasing frame order from 0.0.
        """
        hop, c0, c1 = self.p.hop, cells.start, cells.stop
        for j in range(self.n_pieces - 1, -1, -1):
            k0, k1 = max(c0 - j, rows.start), min(c1 - j, rows.stop)
            if k0 < k1:
                piece = frames[k0 - rows.start:k1 - rows.start, j * hop:(j + 1) * hop]
                acc[k0 + j - c0:k1 + j - c0, :piece.shape[1]] += piece

    def pad(self, x: np.ndarray) -> None:
        """Reflect-pad ``x`` into ``padded``."""
        pad = self.p.pad_amount
        self.padded[pad:pad + self.length] = x
        self.padded[self.edge_dst] = x[self.edge_src]

    def analyze_rows(self, rows: slice, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One-sided spectrum of the windowed frames ``rows`` of ``padded``, into ``out[rows]``.

        ``buf`` is a :meth:`frame_buffer` of at least that many rows.
        """
        p = self.p
        frames = buf[:rows.stop - rows.start]
        np.multiply(self.windows[rows], p.window, out=frames[:, self.support])
        return np.fft.rfft(frames, n=p.n_fft, axis=1, out=out[rows])

    def overlap_add(self, X: np.ndarray, cells: slice, buf: np.ndarray, acc: np.ndarray) -> None:
        """Normalized overlap-add of the frames of ``X`` over ``cells`` into ``padded``.

        Takes the irfft and window of each frame reaching the non-empty
        range through ``buf``, as many rows at a time as it holds, and sums
        them into ``acc``, one hop-wide row per cell.  Every edge position
        mirroring one of the samples written is written too.
        """
        p, pad = self.p, self.p.pad_amount
        acc[...] = 0.0
        rows = slice(max(cells.start - self.n_pieces + 1, 0), min(cells.stop, self.n_frames))
        for r in _chunks(rows, buf.shape[0]):
            frames = np.fft.irfft(X[r], n=p.n_fft, axis=1, out=buf[:r.stop - r.start])
            support = frames[:, self.support]
            support *= p.window
            self._cell_sums(support, r, cells, acc)
        base = self.support.start + cells.start * p.hop
        lo = max(base, pad)
        hi = min(base + (cells.stop - cells.start) * p.hop, pad + self.length)
        np.divide(acc.reshape(-1)[lo - base:hi - base], self.norm[lo - pad:hi - pad],
                  out=self.padded[lo:hi])
        a, b = np.searchsorted(self.edge_src, (lo - pad, hi - pad))
        self.padded[self.edge_dst[a:b]] = self.padded[pad + self.edge_src[a:b]]

    @property
    def output(self) -> np.ndarray:
        """The synthesized signal: the output region of ``padded``."""
        return self.padded[self.p.pad_amount:self.p.pad_amount + self.length]


def _set_magnitude(X: np.ndarray, s: np.ndarray, scratch: np.ndarray = None) -> np.ndarray:
    """X *= s/|X| in place; entries with |X| = 0 become s (phase 1)."""
    ratio = np.abs(X, out=scratch)
    zero = None if ratio.all() else ratio == 0.0
    if zero is not None:
        ratio[zero] = 1.0
    np.divide(s, ratio, out=ratio)
    X *= ratio
    if zero is not None:
        X[zero] = s[zero]
    return X


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not offered on every platform
        return os.cpu_count() or 1


def _split(span: slice, k: int) -> list:
    """``span`` cut into ``k`` contiguous slices of near-equal size."""
    cuts = [span.start + (span.stop - span.start) * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _chunks(span: slice, size: int) -> list:
    """``span`` cut into consecutive slices of ``size``, the last one possibly shorter."""
    return [slice(a, min(a + size, span.stop)) for a in range(span.start, span.stop, size)]


def _row_blocks(n_frames: int, n_fft: int) -> list:
    """Contiguous row slices, at most one per core, each of MIN_BLOCK_SAMPLES or more."""
    return _split(slice(0, n_frames), max(1, min(_cores(), n_frames * n_fft // MIN_BLOCK_SAMPLES)))


def _put_phase(X: np.ndarray, phase: np.ndarray, s: np.ndarray) -> None:
    """X = s * exp(1j * phase), built in X."""
    np.multiply(1j, phase, out=X)
    np.exp(X, out=X)
    X *= s


def _project_rounds(plan: _StftPlan, s_hat: np.ndarray, iterations: int, momentum: float,
                    X: np.ndarray = None, seed: int = None,
                    synthesize: bool = False, project: bool = False) -> np.ndarray:
    """Run ``iterations`` projection rounds; return the last iterate or its signal.

    A round is t_k = P_C(P_mag(C_{k-1})).  With momentum m > 0 the next
    iterate is C_k = t_k + m (t_k - t_{k-1}) from the second round on
    (Perraudin, Balazs and Soendergaard, 2013); with m = 0 it is t_k.
    C_0 is ``X``, a validated complex array the caller gives up (read
    only when no round runs and ``project`` is off); or s_hat under the
    phases ``np.random.default_rng(seed).uniform(-pi, pi)`` draws in
    row-major order; or, with neither, the analysis of the plan's padded
    signal.  ``s_hat`` may then be None if no magnitude is projected.
    ``synthesize`` returns the signal of the last iterate, after one more
    magnitude projection if ``project``; otherwise the iterate itself
    comes back.  Raises ValueError if a synthesized iterate built here is not finite.

    Each step runs two passes on the threads of :func:`_row_blocks`, one
    row block and one range of output cells each; a call with no rounds
    runs as one block on the calling thread.  The row pass takes
    CHUNK_ROWS rows at a time through the end of round k (analysis and
    momentum, or round 0's phase draw) and the start of round k + 1
    (magnitude projection); the overlap-add pass synthesizes the frames
    reaching each cell range, those at a block boundary twice, into the
    padded signal.  A barrier follows each pass.
    """
    p = plan.p
    analyze_first = X is None and seed is None
    scan_last = synthesize and X is None
    if X is None:
        X = np.empty((plan.n_frames, p.n_bins), dtype=np.complex128)
    prev = np.empty_like(X) if momentum and iterations else None
    # a plain transform stays on its caller's thread, so each of evaluate's
    # jobs holds one set of chunk buffers
    blocks = _row_blocks(plan.n_frames, p.n_fft) if iterations else [slice(0, plan.n_frames)]
    cell_blocks = _split(plan.cells, len(blocks))
    if synthesize or iterations:
        plan.norm = plan._build_norm()
    barrier = threading.Barrier(len(blocks))
    finite = [True] * len(blocks)
    errors = [None] * len(blocks)

    def run(i: int) -> np.ndarray:
        rows, cells = blocks[i], cell_blocks[i]
        m = min(CHUNK_ROWS, rows.stop - rows.start)
        frames = plan.frame_buffer(m) if iterations or analyze_first else None
        ratio = np.empty((m, X.shape[1])) if iterations or project else None
        if seed is not None:    # one 64-bit draw per entry before the block's rows
            rng = np.random.default_rng(seed)
            rng.bit_generator.advance(rows.start * X.shape[1])
        if synthesize or iterations:    # a plain analysis needs no synthesis buffers
            acc = np.empty((cells.stop - cells.start, p.hop))
            spectra = np.empty((min(CHUNK_ROWS, len(acc) + plan.n_pieces - 1), p.n_fft))
        C_k, t_prev = X, prev
        for k in range(iterations + 1):
            last = k == iterations
            for r in _chunks(rows, CHUNK_ROWS):
                C = C_k
                if k or analyze_first:    # finish round k: t_k into C_k's rows
                    t = plan.analyze_rows(r, frames, out=C_k)
                    if momentum and k:    # C_k in place of t_{k-1}
                        q = t_prev[r]
                        if k == 1:
                            q[...] = t
                        else:
                            np.subtract(t, q, out=q)
                            q *= momentum
                            q += t
                            C = t_prev
                elif seed is not None:
                    _put_phase(C[r], rng.uniform(-np.pi, np.pi, s_hat[r].shape), s_hat[r])
                if last and scan_last:
                    finite[i] &= bool(np.isfinite(C[r]).all())
                if not last or project:    # start round k + 1 from C_k
                    _set_magnitude(C[r], s_hat[r], ratio[:r.stop - r.start])
            if momentum and k > 1:
                C_k, t_prev = t_prev, C_k
            if not last or synthesize:
                barrier.wait()
                if len(acc):    # a split may leave a thread no cells
                    plan.overlap_add(C_k, cells, spectra, acc)
                if not last:
                    barrier.wait()
        return C_k

    def guarded(i: int) -> np.ndarray:
        # numpy's error state is per thread; overflow is left to the
        # finiteness check below
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return run(i)
        except BaseException as e:    # free the other threads before reporting
            errors[i] = e
            barrier.abort()

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(1, len(blocks))]
    for thread in threads:
        thread.start()
    result = guarded(0)    # X itself stays bound: a late-starting worker still reads it
    for thread in threads:
        thread.join()
    # the thread that failed first aborted the barrier; the others saw it break
    failed = [e for e in errors
              if e is not None and not isinstance(e, threading.BrokenBarrierError)]
    if failed:
        raise failed[0]
    if not all(finite):
        raise ValueError("spectrogram contains non-finite values")
    return plan.output if synthesize else result


def stft(y: Waveform, p: StftParams) -> ComplexSpectrogram:
    """Analyze a signal into a one-sided complex spectrogram.

    The frame count is ceil((L + pad_total - win_length) / hop) + 1 where
    pad_total is the total reflect padding.  The map is linear in ``y``.
    """
    x = y.samples
    plan = _StftPlan(p, x.shape[0], p.frames_for_length(x.shape[0]))
    plan.pad(x)
    return ComplexSpectrogram(_project_rounds(plan, None, 0, 0.0), p, x.shape[0])


def istft(C: ComplexSpectrogram, target_length: int | None = None) -> Waveform:
    """Synthesize a signal by squared-window-normalized overlap-add.

    The least-squares inverse of :func:`stft`: exact reconstruction
    wherever the squared-window sum is nonzero, which holds everywhere in
    the valid region for the default parameters.  Linear in ``C``.
    ``target_length`` (default ``C.origin_length``) must lie in
    1..``C.params.max_length_for_frames(C.n_frames)``.
    """
    length = (C.origin_length if target_length is None
              else C.params.synthesis_length(C.n_frames, target_length))
    plan = _StftPlan(C.params, length, C.n_frames)
    return Waveform(_project_rounds(plan, None, 0, 0.0, X=C.frames, synthesize=True))

