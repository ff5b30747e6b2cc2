"""Griffin-Lim phase retrieval.

Alternating projections between two sets of spectrograms: the consistent
ones (images of actual signals under analysis) and the ones with a
prescribed magnitude.  Plain Griffin-Lim composes the two projections;
the fast variant adds momentum on top.  Both run standalone as a vocoder
and inside the corrected sampler's early steps.

Every burst of rounds, from :func:`gla`, :func:`fgla` and the sampler's
correction :func:`gla_correct`, runs in one private core,
:func:`_project_rounds`, on plain complex arrays and one
:class:`~glavoc.dsp._StftPlan`, from the starting iterate (or the first
analysis) to the last iterate (or the synthesized signal).  Inputs are
validated at the public entry points and the burst's last iterate is
checked once for overflow; nothing is revalidated per round.

A burst splits the frame rows into contiguous blocks, one per core the
process may run on as long as each block holds MIN_BLOCK_SAMPLES frame
samples, and the output samples into as many ranges; a short input runs
as one block on the calling thread.  Each block has a thread made for
that burst alone, and every step of the burst is two passes over the
plan with a barrier after each: the row pass takes the block's rows
CHUNK_ROWS at a time through analysis, momentum, magnitude projection
and synthesis, and the overlap-add pass writes the thread's range of
the padded signal that the next row pass analyzes.  Nothing runs
serially between rounds.  The threads write disjoint rows and samples,
and the output is byte-identical whatever the split.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from .dsp import (
    ComplexSpectrogram,
    StftParams,
    Waveform,
    _StftPlan,
    istft,
    stft,
)

# Frame samples (rows x n_fft) a row block needs before a second thread
# pays for its two barriers per round.  Measured on 2 cores, per round of
# a gla_correct burst, two blocks break even with one at about 16k samples
# each for n_fft 512, 1024 and 2048 alike; at 32k (16 rows of 2048) they
# take 0.76-0.87 of one block, at 64k 0.62-0.73.
MIN_BLOCK_SAMPLES = 1 << 15

# Rows the row pass takes through analysis, momentum, magnitude projection
# and synthesis in one go, so each stage finds the chunk still in cache.
# On a 60 s clip (4414 frames of 2048; 2 cores, 1 MB L2 each, 32 MB L3),
# chunks of 16/32/64/128/256 rows gave 25.7/24.3/22.8/24.2/26.3 ms per
# momentum round.
CHUNK_ROWS = 64


@dataclass
class GlaConfig:
    """Iteration budget, momentum and the seed of the starting phase.

    momentum = 0 is plain Griffin-Lim; nonzero values accelerate it.
    """

    iterations: int = 1000
    momentum: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


def _check_magnitude(s_hat: np.ndarray, n_frames: int, n_bins: int) -> np.ndarray:
    s = np.asarray(s_hat, dtype=np.float64)
    if s.shape != (n_frames, n_bins):
        raise ValueError(f"magnitude shape {s.shape} != ({n_frames}, {n_bins})")
    if not np.all(np.isfinite(s)) or s.min() < 0.0:
        raise ValueError("magnitude must be finite and nonnegative")
    return s


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
                    X: np.ndarray = None, phase: np.ndarray = None,
                    synthesize: bool = False, project: bool = False) -> np.ndarray:
    """Run ``iterations`` projection rounds; return the last iterate or its signal.

    A round is t_k = P_C(P_mag(C_{k-1})).  With momentum m > 0 the next
    iterate is C_k = t_k + m (t_k - t_{k-1}) from the second round on
    (Perraudin, Balazs and Soendergaard, 2013); with m = 0 it is t_k.
    C_0 is ``X``, a validated complex array the caller gives up; or
    s_hat under ``phase``; or, with neither, the analysis of the plan's
    padded signal.  ``synthesize`` returns the signal of the last iterate,
    after one more magnitude projection if ``project``; otherwise the
    iterate itself comes back.  Raises ValueError if the burst overflowed.

    Each step runs two passes on the threads of :func:`_row_blocks`, one
    row block and one range of output cells each.  The row pass takes
    CHUNK_ROWS rows at a time through the end of round k (analysis and
    momentum) and the start of round k + 1 (magnitude projection and
    synthesis); the overlap-add pass refills the plan's padded signal.
    A barrier follows each pass.
    """
    p = plan.p
    analyze_first = X is None and phase is None
    if X is None:
        X = np.empty(s_hat.shape, dtype=np.complex128)
    prev = np.empty_like(X) if momentum and iterations else None
    draw = [phase]      # freed after the first row pass
    del phase
    blocks = _row_blocks(X.shape[0], p.n_fft)
    cell_blocks = _split(plan.cells, len(blocks))
    cell_chunk = CHUNK_ROWS * plan.n_pieces    # cells holding about CHUNK_ROWS frames' support
    plan.prepare_synthesis()
    barrier = threading.Barrier(len(blocks))
    finite = [True] * len(blocks)
    errors = [None] * len(blocks)

    def run(i: int) -> np.ndarray:
        rows, cells = blocks[i], cell_blocks[i]
        m = min(CHUNK_ROWS, rows.stop - rows.start)
        frames, spectra = plan.frame_buffer(m), np.empty((m, p.n_fft))
        ratio = np.empty((m, X.shape[1]))
        acc = np.empty((min(cell_chunk, cells.stop - cells.start), p.hop))
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
                elif draw[0] is not None:
                    _put_phase(C[r], draw[0][r], s_hat[r])
                if last:
                    finite[i] &= bool(np.isfinite(C[r]).all())
                if not last or project:    # start round k + 1 from C_k
                    _set_magnitude(C[r], s_hat[r], ratio[:r.stop - r.start])
                if not last or synthesize:
                    plan.synthesize_rows(C, r, spectra)
            if momentum and k > 1:
                C_k, t_prev = t_prev, C_k
            if not last or synthesize:
                barrier.wait()
                if k == 0 and i == 0:
                    draw.clear()
                for c in _chunks(cells, cell_chunk):
                    plan.overlap_add(c, acc)
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
        raise ValueError("projection burst overflowed: the iterate is not finite")
    return plan.output if synthesize else result


def project_consistent(C: ComplexSpectrogram) -> ComplexSpectrogram:
    """Project onto the set of spectrograms some signal produces.

    Synthesis followed by analysis.  Requires the frame count and
    origin_length to agree, otherwise re-analysis would change shape.
    """
    C.params.check_length(C.n_frames, C.origin_length)
    return stft(istft(C), C.params)


def project_magnitude(C: ComplexSpectrogram, s_hat: np.ndarray) -> ComplexSpectrogram:
    """Replace magnitudes, keep phases; zero entries get phase 1."""
    s = _check_magnitude(s_hat, C.n_frames, C.params.n_bins)
    return ComplexSpectrogram(_set_magnitude(C.frames.copy(), s), C.params, C.origin_length)


def gla(C0: ComplexSpectrogram, s_hat: np.ndarray, iterations: int) -> ComplexSpectrogram:
    """Plain Griffin-Lim: K composed projections from C0."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if iterations == 0:
        return C0
    s = _check_magnitude(s_hat, C0.n_frames, C0.params.n_bins)
    C0.params.check_length(C0.n_frames, C0.origin_length)
    plan = _StftPlan(C0.params, C0.origin_length, C0.n_frames)
    X = _project_rounds(plan, s, iterations, 0.0, X=C0.frames.copy())
    return ComplexSpectrogram(X, C0.params, C0.origin_length)


def gla_correct(
    y: Waveform,
    s_hat: np.ndarray,
    iterations: int,
    params: StftParams,
    momentum: float = 0.0,
) -> Waveform:
    """Pull a waveform toward a magnitude target by K projection rounds.

    Analyze, run K composed (consistency after magnitude) projections,
    synthesize back at the same length.  K=0 is the bare analysis round
    trip, the identity up to floating point.  Positive momentum applies
    the accelerated variant across the K rounds.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    plan = _StftPlan(params, len(y), params.frames_for_length(len(y)))
    s = _check_magnitude(s_hat, plan.n_frames, params.n_bins)
    plan.pad(y.samples)
    return Waveform(_project_rounds(plan, s, iterations, momentum, synthesize=True))


def _initial_phase(shape: tuple, seed: int) -> np.ndarray:
    """The seeded uniform phase draw of the starting iterate."""
    return np.random.default_rng(seed).uniform(-np.pi, np.pi, size=shape)


def initial_spectrogram(
    s_hat: np.ndarray, params: StftParams, cfg: GlaConfig
) -> ComplexSpectrogram:
    """Starting iterate: the target magnitude under seeded uniform random phase.

    Its origin length is the longest signal the frame count describes.
    """
    s = np.asarray(s_hat, dtype=np.float64)
    X = np.empty(s.shape, dtype=np.complex128)
    _put_phase(X, _initial_phase(s.shape, cfg.seed), s)
    return ComplexSpectrogram(X, params, params.max_length_for_frames(s.shape[0]))


def fgla(
    s_hat: np.ndarray,
    params: StftParams,
    cfg: GlaConfig,
    target_length: int = None,
) -> Waveform:
    """Fast Griffin-Lim vocoder: magnitude frames in, waveform out.

    Momentum update t_k = P_C(P_mag(C_{k-1})), C_k = t_k + m (t_k - t_{k-1}).
    The first step runs unaccelerated so momentum only ever differences two
    consistent iterates; kicking it off from the raw (inconsistent) init
    measurably hurts convergence.  Momentum 0 reduces exactly to plain
    Griffin-Lim.  One final magnitude projection before synthesis keeps
    the emitted signal as close to the target magnitude as the last phase
    estimate allows.  ``target_length`` (default: the longest signal the
    frame count describes) keeps that many leading samples, at the rate
    of the mel the magnitudes came from.
    """
    s = np.asarray(s_hat, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"magnitude must be 2-D, got shape {s.shape}")
    s = _check_magnitude(s, s.shape[0], params.n_bins)
    target_length = params.synthesis_length(s.shape[0], target_length)
    plan = _StftPlan(params, params.max_length_for_frames(s.shape[0]), s.shape[0])
    out = _project_rounds(plan, s, cfg.iterations, cfg.momentum,
                          phase=_initial_phase(s.shape, cfg.seed), synthesize=True, project=True)
    return Waveform(out[:target_length])
