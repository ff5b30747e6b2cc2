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

Every synthesis works on a :class:`_StftPlan` built per call for one
(parameters, signal length) pair, whole once built: the hop-sized output
cells, one padded signal and its reflect-pad edge map, and the
squared-window normalizer, one table per cell class, so a geometry that
cannot normalize every output sample fails at construction.  The
corrected sampler builds one plan per utterance for its chain, shapes a
SpecGrad prior and runs every burst in its padded signal, and builds no
other.
Every analysis windows its frame supports and takes their rfft in one
kernel, :func:`_analyze`.  Outside a burst it runs in one loop,
:func:`_spectra`, ANALYSIS_ROWS frame rows at a time: :func:`stft`
writes each chunk into its spectrogram, and :func:`stft_magnitude` keeps
only each chunk's magnitude, as do the paired scores of
:mod:`glavoc.cli`, which keep neither.  It builds no plan and copies no
signal: a chunk whose supports lie inside the signal reads them through
one strided view of the caller's samples, and a chunk at either end
reads one segment of its own samples, the reflect pad and the zero tail.
Every synthesis runs in one engine, :func:`_project_rounds`:
:func:`istft` and the SpecGrad prior's shaping with no rounds or target,
the Griffin-Lim bursts of :mod:`glavoc.phase` with theirs.  Its one start
argument gives the first pass its rows a chunk at a time: a
spectrogram's rows, seeded phases under the target, the analysis of the
signal times an envelope, or by default that analysis alone.  A step is
one pass, CHUNK_ROWS frame rows at a time through analysis, magnitude
projection and synthesis, in one frame buffer and one spectrum buffer
per thread, summing each frame's windowed pieces into its output cells.
A frame
reads only the cells it adds to, so once a chunk's rows are done the
cells below them are finished, and their normalized samples go straight
back into the padded signal the step reads.  Momentum acts there, on
the signal: analysis is linear, so the analysis of x_k + m (x_k - x_{k-1})
is the accelerated iterate, and a burst keeps the plain signal x_{k-1}
beside the padded one instead of a spectrogram.  Only the engine writes
the reflect-pad edges, by :meth:`_StftPlan.refresh_edges`: at the start
of every call and once a round, after every cell is written.
Each array is scanned for finiteness by the :class:`ComplexSpectrogram`
or :class:`Waveform` holding it, or by the analysis loop if none does;
the bursts whose last signal no type holds whole, of
:func:`glavoc.phase.fgla` and :func:`glavoc.phase.gla_correct`, scan it
with :meth:`_StftPlan.finite_x`.

A call with rounds splits the rows into contiguous blocks, one per core
the process may run on while each holds MIN_BLOCK_SAMPLES frame samples
and a window's worth of pieces, one thread each.  A block's thread
writes the cells its rows finish, and the threads meet at one barrier
after each pass, so nothing runs serially between rounds, and the
output is byte-identical whatever the split.  Analysis and a call with
no rounds run on the calling thread.  Plans are never cached, so
separate callers share no state.
"""

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

NORMALIZATION_FLOOR = 1e-10

# Frame samples (rows x n_fft) a row block needs before a second thread
# pays for its barrier per round.  Measured on the fused round, 2 vCPUs,
# wall time per round of a gla_correct burst with each block's thread
# pinned to its own CPU: two blocks break even with one at about 16k
# samples each for n_fft 512, 1024 and 2048 alike; at 32k (16 rows of
# 2048) they take 0.75-0.87 of one block, at 64k 0.63-0.75.  Unpinned,
# the two threads mostly shared one CPU and two blocks took 1.0-1.16 of
# one at 32k to 128k.
MIN_BLOCK_SAMPLES = 1 << 15

# Frame rows a pass takes through its stages in one go, so each stage
# finds the chunk still in cache.  On a 60 s clip (4414 frames of 2048;
# 2 vCPUs, 2 MB L2, 300 MB L3 per /sys, shared with other tenants), one
# thread's momentum round of the fused pass took a median of
# 194/190/193 ms of CPU time at chunks of 32/64/128 rows, 9 runs each,
# with every size spread over 155-228 ms: none was measurably better.
CHUNK_ROWS = 64

# Frame rows an analysis takes at a time.  Its chunk buffers are made per
# call, so they must stay small: glibc gives larger freed blocks back to
# the kernel, and the next call faults them in again.  One process
# cycling 12 `analyze` calls (1-5 s clips) and one `evaluate --jobs 2`
# over them (2 vCPUs, glibc 2.36, one BLAS thread) took a median of 6-17
# minor faults a cycle at 16 rows (256 kB of frames and 262 kB of spectra
# a signal), 7,700 at 32 rows and 21,500 at 64, the engine's CHUNK_ROWS.
# Analyzing into whole complex spectrograms, 64 rows at a time, took 13,100.
ANALYSIS_ROWS = 16


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

    @property
    def support(self) -> slice:
        """The samples of an n_fft-sample frame that the window covers.

        Centered when ``center_padding`` is on (keeps frame t aligned with
        sample t * hop); left-aligned otherwise, so the first signal sample
        falls under the window of frame 0.
        """
        left = (self.n_fft - self.win_length) // 2 if self.center_padding else 0
        return slice(left, left + self.win_length)

    def padded_window(self) -> np.ndarray:
        """Analysis window zero-padded to n_fft samples, over :attr:`support`."""
        out = np.zeros(self.n_fft, dtype=np.float64)
        out[self.support] = self.window
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

        Builds one probe plan, and so its normalizer, of 2 * (n_fft + hop)
        samples, long enough to hold both edges of the output region and a
        stretch of its interior.
        """
        length = 2 * (self.n_fft + self.hop)
        _StftPlan(self, length, self.frames_for_length(length))


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


def _analyze(windows: np.ndarray, p: StftParams, frames: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """One-sided spectra of the frame supports ``windows`` under the window, into ``out``.

    ``frames`` is an n_fft-wide buffer of at least that many rows, zero
    outside ``p.support``; the windowed supports are written over it.
    """
    frames = frames[:windows.shape[0]]
    np.multiply(windows, p.window, out=frames[:, p.support])
    return np.fft.rfft(frames, n=p.n_fft, axis=1, out=out)


class _StftPlan:
    """Geometry and buffers for the engine's passes over one (params, signal length).

    ``length`` is the signal length analyzed from, or synthesized to, and
    ``n_frames`` the spectrogram frame count.  ``sig`` is the one padded
    signal: the signal from sample ``pad_amount`` on, reflect-padded at
    both ends and zero past that; ``x`` views the signal itself, the
    output region.  Analysis reads its frames, and synthesis writes
    finished samples back into it in place.  The normalizer ``norm`` and
    the reflect-edge map are built with the plan, so construction raises
    ValueError for a geometry that cannot normalize every output sample.

    :meth:`analyze_rows` takes a slice of frame rows of the signal through
    :func:`_analyze`; :meth:`synthesize_rows` takes the irfft and window
    of spectrum rows.
    :meth:`_cell_sums` adds windowed frames into hop-sized output cells,
    of which ``cells`` covers the output region, and :meth:`write`
    normalizes finished cells into the output region, adding momentum
    when given the previous signal.  Row r's window spans cells r to
    r + n_pieces - 1, so cell r is finished once the rows up to r are,
    and no later row reads it.  The reflect-pad edges are read by rows
    far from the samples they mirror, so only :meth:`refresh_edges` writes
    them, called by the engine.  Disjoint row slices, and disjoint
    cell ranges, may run on different threads.
    """

    def __init__(self, p: StftParams, length: int, n_frames: int):
        self.p, self.length, self.n_frames = p, length, n_frames
        self.support = p.support
        left = self.support.start
        # cell c holds padded samples left + c*hop onward; these cover the output region
        self.cells = slice((p.pad_amount - left) // p.hop,
                           -(-(p.pad_amount + length - left) // p.hop))
        self.n_pieces = -(-p.win_length // p.hop)
        self.norm = self._build_norm()    # first, so a degenerate geometry allocates no signal
        pad = p.pad_amount
        self.sig = np.empty((n_frames - 1) * p.hop + p.n_fft)
        self.sig[length + 2 * pad:] = 0.0
        self.x = self.sig[pad:pad + length]    # the output region
        self.windows = np.lib.stride_tricks.sliding_window_view(
            self.sig[left:], p.win_length)[::p.hop][:n_frames]
        edges = np.r_[-pad:0, length:length + pad]
        self.edge_src, self.edge_dst = _reflect(edges, length) + pad, edges + pad

    def clear_margins(self, buf: np.ndarray) -> None:
        """Zero the columns of ``buf`` outside the window support, as analysis expects."""
        buf[:, :self.support.start] = 0.0
        buf[:, self.support.stop:] = 0.0

    def _build_norm(self) -> list:
        """Squared-window overlap-add sums over the output region, one table per cell class.

        A cell sums the pieces of the frames among the n_pieces that reach
        it.  The interior cells, from n_pieces - 1 to the last frame, take
        all of them and share one hop of sums; the head and tail cells,
        and the two the region's ends cut, keep one sum a sample.  Returns
        (start, stop, sums) spans of padded sample positions, the
        interior's sums of shape (1, hop).  Raises ValueError if a sum in
        the region is below NORMALIZATION_FLOOR.
        """
        p, left = self.p, self.support.start
        c0, c1 = self.cells.start, self.cells.stop
        lo, hi = p.pad_amount, p.pad_amount + self.length
        wsq = p.window * p.window
        frames = np.broadcast_to(wsq, (self.n_frames, wsq.shape[0]))

        def sums(cells):
            acc = np.zeros((cells.stop - cells.start, p.hop))
            self._cell_sums(frames, slice(0, self.n_frames), cells, acc)
            return acc

        ia, ib = max(c0 + 1, self.n_pieces - 1), min(c1 - 1, self.n_frames)
        if ia >= ib:    # no interior cell
            ia = ib = c1
        base, h, t = left + c0 * p.hop, min(left + ia * p.hop, hi), left + ib * p.hop
        spans = [(lo, h, sums(slice(c0, ia)).reshape(-1)[lo - base:h - base])]
        if ia < ib:
            spans += [(h, t, sums(slice(ia, ia + 1))),
                      (t, hi, sums(slice(ib, c1)).reshape(-1)[:hi - t])]
        if min(norm.min() for _, _, norm in spans) < NORMALIZATION_FLOOR:
            raise ValueError(
                "degenerate synthesis normalization: squared-window sum below "
                f"{NORMALIZATION_FLOOR} inside the output region (n_fft {p.n_fft}, "
                f"hop {p.hop}, win_length {p.win_length}, "
                f"center {'on' if p.center_padding else 'off'})"
            )
        return spans

    def _cell_sums(self, frames: np.ndarray, rows: slice, cells: slice, acc: np.ndarray) -> None:
        """Add the support-wide frames ``rows`` into the rows of ``acc``, one per cell of ``cells``.

        Frame k's j-th hop-wide piece lands in cell k + j; the last piece
        may be narrower, and pieces outside ``cells`` are left out.  Pieces
        go from the last to the first, so calls on consecutive row slices
        in increasing order, onto an ``acc`` of zeros, add each sample's
        terms in increasing frame order from 0.0.
        """
        hop, c0, c1 = self.p.hop, cells.start, cells.stop
        for j in range(self.n_pieces - 1, -1, -1):
            k0, k1 = max(c0 - j, rows.start), min(c1 - j, rows.stop)
            if k0 < k1:
                piece = frames[k0 - rows.start:k1 - rows.start, j * hop:(j + 1) * hop]
                acc[k0 + j - c0:k1 + j - c0, :piece.shape[1]] += piece

    def refresh_edges(self) -> None:
        """Copy each reflect-pad edge position from the sample it mirrors."""
        self.sig[self.edge_dst] = self.sig[self.edge_src]

    def finite_x(self) -> np.ndarray:
        """``x``, scanned CHUNK_ROWS hops at a time: ValueError if a sample is not finite.

        An overflow in any round, the last analysis or synthesis included,
        leaves such a sample.
        """
        for r in _chunks(slice(0, self.length), CHUNK_ROWS * self.p.hop):
            if not np.isfinite(self.x[r]).all():
                raise ValueError("spectrogram contains non-finite values")
        return self.x

    def analyze_rows(self, rows: slice, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One-sided spectrum of the windowed frames ``rows`` of the padded signal, into ``out``.

        ``buf`` is :func:`_analyze`'s frame buffer, of at least that many rows.
        """
        return _analyze(self.windows[rows], self.p, buf, out)

    def synthesize_rows(self, C: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """The windowed supports of the irfft of the rows ``C``, computed in ``buf``."""
        frames = np.fft.irfft(C, n=self.p.n_fft, axis=1, out=buf[:C.shape[0]])
        support = frames[:, self.support]
        support *= self.p.window
        return support

    def write(self, acc: np.ndarray, cells: slice, xs: np.ndarray = None,
              momentum: float = 0.0) -> None:
        """Normalized samples x of the cell sums ``acc`` over ``cells`` into the output region.

        ``xs``, if given, is the previous plain signal over the output
        region: the padded signal gets x + momentum (x - xs), or x at
        momentum 0, and ``xs`` gets x.  x is then built in ``acc``, which
        the caller gives up, so the write allocates nothing.
        """
        hop, pad = self.p.hop, self.p.pad_amount
        base = self.support.start + cells.start * hop
        stop = base + (cells.stop - cells.start) * hop
        for a, b, norm in self.norm:
            lo, hi = max(a, base), min(b, stop)
            if lo >= hi:
                continue
            x, out = acc.reshape(-1)[lo - base:hi - base], self.sig[lo:hi]
            dst = out if xs is None else x
            if norm.ndim == 2:    # interior cells, whole ones, under one hop of sums
                np.divide(x.reshape(-1, hop), norm, out=dst.reshape(-1, hop))
            else:
                np.divide(x, norm[lo - a:hi - a], out=dst)
            if xs is None:
                continue
            old = xs[lo - pad:hi - pad]
            if momentum:    # x + m (x - x_prev), built in place of the padded signal
                np.subtract(x, old, out=out)
                out *= momentum
                out += x
            else:
                out[...] = x
            old[...] = x


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


def _row_blocks(plan: _StftPlan) -> list:
    """The plan's rows in contiguous slices, at most one per core, of MIN_BLOCK_SAMPLES or more.

    Two or more blocks each hold a window's worth of hop-sized pieces in
    rows or more, so the cells at a block boundary take terms from two
    blocks only.
    """
    n = plan.n_frames
    k = min(_cores(), n * plan.p.n_fft // MIN_BLOCK_SAMPLES, n // plan.n_pieces)
    return _split(slice(0, n), max(1, k))


def _project_rounds(plan: _StftPlan, s_hat: np.ndarray, iterations: int, momentum: float,
                    start=None) -> np.ndarray:
    """Run ``iterations`` projection rounds; return the signal of the last projection.

    A round is t_k = P_C(P_mag(C_{k-1})).  With momentum m > 0 the next
    iterate is C_k = t_k + m (t_k - t_{k-1}) from the second round on
    (Perraudin, Balazs and Soendergaard, 2013); with m = 0 it is t_k.
    Every t_k is the analysis of the signal x_k synthesized from
    P_mag(C_{k-1}), and analysis is linear, so C_k is the analysis of
    x_k + m (x_k - x_{k-1}): the momentum acts on the synthesized samples.
    C_0's rows come a chunk at a time from ``start(rows, frames, out)``,
    by default :meth:`_StftPlan.analyze_rows`, the analysis of
    ``plan.x``: ``frames`` is the chunk's frame buffer, zero outside the
    window support, and ``out`` its spectrum buffer, which the pass
    projects in place.
    A pass with no rounds and no target only synthesizes its start, so it
    gets no spectrum buffer: ``out`` is None, and the pass reads the rows
    ``start`` returns.  Every call refreshes the edges first.  Every
    pass, the last too, projects onto ``s_hat`` when it is given, and the
    output region of the padded signal is returned: a burst ends in the
    synthesis of its last magnitude projection.  That signal is not
    scanned here; a caller whose output no :class:`Waveform` holds whole
    scans it with :meth:`_StftPlan.finite_x`.

    Each step is one pass on the threads of :func:`_row_blocks`, one row
    block each; a call with no rounds runs as one block on the calling
    thread.  The pass takes CHUNK_ROWS rows at a time through the end of
    round k (analysis, or ``start`` in pass 0) and the start of round k + 1
    (magnitude projection and synthesis) while they are in cache, and
    adds each frame's windowed pieces into its block's cell sums; a row
    whose pieces all fall past the last output cell is analyzed but
    neither projected nor synthesized.  Block i, rows a to b, writes
    cells a + n_pieces - 1 up to b + n_pieces - 1 (block 0 from the
    first output cell) into the one padded signal, in place: after a
    chunk of rows r0 to r1 it writes its cells below r1, whose readers
    are all analyzed, and carries the partial sums of the next
    n_pieces - 1 cells over in a rolling accumulator.  The first
    n_pieces - 1 of its rows also reach the cells block i - 1 writes, so
    block i keeps their windowed frames and block i - 1 adds them after
    its own terms, at the end of the pass: each sample sums its terms in
    increasing frame order.  One barrier ends each pass that another
    follows, and its action refreshes the reflect-pad edges once every
    block has written.

    With momentum and two rounds or more, one more signal-length array,
    ``xs``, holds the plain synthesis x_{k+1} of pass k over the output
    region, and between passes only it and the padded signal span the
    rows.  Pass 0 writes x_1 to both; pass k, from 1 to iterations - 1,
    writes x_{k+1} + m (x_{k+1} - x_k) to the padded signal and x_{k+1}
    to ``xs``; the last pass writes its signal alone.  The edges mirror
    the padded signal, so they carry the momentum too.
    """
    p, n_pieces = plan.p, plan.n_pieces
    start = plan.analyze_rows if start is None else start
    xs = np.empty(plan.length) if momentum and iterations > 1 else None
    # a plain synthesis stays on its caller's thread, as stft does
    blocks = _row_blocks(plan) if iterations else [slice(0, plan.n_frames)]
    # no piece of a row from cells.stop on lands in an output cell
    c0, c1 = plan.cells.start, plan.cells.stop
    heads = [slice(0, 0)] + [slice(b.start, min(b.start + n_pieces - 1, max(b.start, c1)))
                             for b in blocks[1:]]
    cuts = [min(max(h.stop, c0), c1) for h in heads]
    cell_blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:] + [c1])]
    plan.refresh_edges()    # the signal may have been written since the last call
    # only a pass that another follows waits, so the last one writes no edge
    barrier = threading.Barrier(len(blocks), action=plan.refresh_edges)
    ready = [threading.Semaphore(0) for _ in blocks]    # block i's kept rows are done
    kept = [None] * len(blocks)
    errors = [None] * len(blocks)

    def run(i: int) -> None:
        rows, head, cells = blocks[i], heads[i], cell_blocks[i]
        shared = heads[i + 1] if i + 1 < len(blocks) else slice(0, 0)    # rows of block i + 1
        m = min(CHUNK_ROWS, rows.stop - rows.start)
        frames = np.zeros((m, p.n_fft))    # a chunk's analysis reads it, its synthesis fills it
        spectra = (np.empty((m, p.n_bins), dtype=np.complex128)
                   if iterations or s_hat is not None else None)
        # a projection's |C| is spent before the chunk's irfft fills frames
        ratio = frames.reshape(-1)[:m * p.n_bins].reshape(m, p.n_bins)
        acc = np.empty((m + n_pieces - 1, p.hop))    # the cells from `done` on
        kept[i] = np.empty((head.stop - head.start, p.win_length))

        def finish(stop: int) -> None:
            # write the cells from `done` to `stop`; the later ones move up in acc
            nonlocal done
            n = stop - done
            if n > 0:
                plan.write(acc[:n], slice(done, stop), into, momentum if k else 0.0)
                acc[:-n] = acc[n:]
                acc[-n:] = 0.0
                done = stop

        for k in range(iterations + 1):
            last = k == iterations
            # pass k synthesizes x_{k+1}; the padded signal gets C_{k+1}'s signal
            into = None if last else xs
            acc[...] = 0.0
            done = cells.start
            for r in _chunks(rows, CHUNK_ROWS):
                n = r.stop - r.start
                out = None if spectra is None else spectra[:n]
                C = (plan.analyze_rows if k else start)(r, frames, out)    # finish round k: C_k
                # the rows from c1 on are neither projected nor synthesized
                n = min(n, max(0, c1 - r.start))
                C = C[:n]
                if s_hat is not None:    # P_mag(C_k): round k + 1's start, or the output
                    _set_magnitude(C, s_hat[r.start:r.start + n], ratio[:n])
                if n:
                    support = plan.synthesize_rows(C, frames)
                    plan._cell_sums(support, slice(r.start, r.start + n),
                                    slice(done, cells.stop), acc)
                    if r.start < head.stop:
                        kept[i][r.start - head.start:r.stop - head.start] = \
                            support[:head.stop - r.start]
                        if head.stop <= r.stop:
                            ready[i].release()
                    plan.clear_margins(frames[:n])    # for the next chunk's analysis
                # every row reading a cell below r.stop is analyzed
                finish(min(r.stop, cells.stop))
            if shared.start < shared.stop:    # block i + 1's terms in this block's cells
                ready[i + 1].acquire()
                if barrier.broken:
                    raise threading.BrokenBarrierError
                plan._cell_sums(kept[i + 1], shared, slice(done, cells.stop), acc)
            finish(cells.stop)
            if not last:
                barrier.wait()

    def guarded(i: int) -> None:
        # numpy's error state is per thread; overflow is left to the
        # finiteness check below
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                run(i)
        except BaseException as e:    # free the other threads before reporting
            errors[i] = e
            barrier.abort()
            for sem in ready:
                sem.release()

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(1, len(blocks))]
    for thread in threads:
        thread.start()
    guarded(0)
    for thread in threads:
        thread.join()
    # the thread that failed first aborted the barrier; the others saw it break
    failed = [e for e in errors
              if e is not None and not isinstance(e, threading.BrokenBarrierError)]
    if failed:
        raise failed[0]
    return plan.x


def _spectra(x: np.ndarray, p: StftParams, out: np.ndarray = None):
    """Yield (rows, spectra): the frames of the samples ``x``, ANALYSIS_ROWS rows at a time.

    Row t's support starts at sample support.start - pad_amount + t * hop
    of ``x``.  A chunk whose supports lie inside ``x`` reads them through
    one strided view of ``x``; any other chunk reads one segment of its
    own samples, the samples of ``x`` it covers copied in, its reflect-pad
    positions gathered and the zero tail left zero.  So no padded copy of
    the signal is made and ``x`` is only read.  The one-sided spectra of
    each chunk land in ``out[rows]`` if ``out`` is given, a complex array
    of frames x bins whose holder checks it; else in one chunk buffer
    that the next chunk overwrites, and a chunk that is not finite raises
    ValueError.  Each row's rfft is independent of the others, so the
    split changes no bit.
    """
    n, hop, win, pad = x.shape[0], p.hop, p.win_length, p.pad_amount
    n_frames = p.frames_for_length(n)
    start = p.support.start - pad    # where row 0's support starts, <= 0
    inside = np.lib.stride_tricks.sliding_window_view(x, win) if n >= win else None
    m = min(ANALYSIS_ROWS, n_frames)
    frames = np.zeros((m, p.n_fft))    # zero outside the window support
    buf = np.empty((m, p.n_bins), dtype=np.complex128) if out is None else None
    for r in _chunks(slice(0, n_frames), ANALYSIS_ROWS):
        C = buf[:r.stop - r.start] if out is None else out[r]
        lo, hi = start + r.start * hop, start + (r.stop - 1) * hop + win    # the chunk's samples
        if 0 <= lo and hi <= n:
            windows = inside[lo:hi - win + 1:hop]
        else:    # samples lo to hi of the padded signal, zero past its reflect pad
            seg = np.zeros(hi - lo)
            a, b = min(max(lo, 0), n), min(max(hi, 0), n)    # an empty span if none lies in x
            seg[a - lo:b - lo] = x[a:b]
            edges = np.r_[lo:min(hi, 0), max(lo, n):min(hi, n + pad)]    # its reflect pad
            seg[edges - lo] = x[_reflect(edges, n)]
            windows = np.lib.stride_tricks.sliding_window_view(seg, win)[::hop]
        # an overflow is reported once, as a non-finite spectrogram
        with np.errstate(over="ignore", invalid="ignore"):
            _analyze(windows, p, frames, C)
            if out is None and not np.isfinite(C).all():
                raise ValueError("spectrogram contains non-finite values")
        yield r, C


def stft(y: Waveform, p: StftParams) -> ComplexSpectrogram:
    """Analyze a signal into a one-sided complex spectrogram.

    The frame count is ceil((L + pad_total - win_length) / hop) + 1 where
    pad_total is the total reflect padding.  The map is linear in ``y``.
    """
    x = y.samples
    X = np.empty((p.frames_for_length(x.shape[0]), p.n_bins), dtype=np.complex128)
    for _ in _spectra(x, p, out=X):
        pass
    return ComplexSpectrogram(X, p, x.shape[0])


def stft_magnitude(y: Waveform, p: StftParams) -> np.ndarray:
    """``np.abs(stft(y, p).frames)``, bit for bit, without the complex spectrogram.

    Holds the float64 magnitude (frames x bins) and chunk buffers of
    ANALYSIS_ROWS rows.  Raises ValueError if the spectrogram is not finite.
    """
    x = y.samples
    S = np.empty((p.frames_for_length(x.shape[0]), p.n_bins))
    for r, C in _spectra(x, p):
        np.abs(C, out=S[r])
    return S


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
    return Waveform(_project_rounds(plan, None, 0, 0.0, lambda rows, frames, out: C.frames[rows]))

