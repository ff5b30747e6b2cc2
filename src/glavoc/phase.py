"""Griffin-Lim phase retrieval.

Alternating projections between two sets of spectrograms: the consistent
ones (images of actual signals under analysis) and the ones with a
prescribed magnitude.  Plain Griffin-Lim composes the two projections;
the fast variant adds momentum on top.  Both run standalone as a vocoder
and inside the corrected sampler's early steps.

Every burst of rounds, from :func:`gla`, :func:`fgla` and the sampler's
correction :func:`gla_correct`, runs in one private core,
:func:`_project_rounds`, on plain complex arrays and one
:class:`~glavoc.dsp._StftPlan`; :func:`fgla` and :func:`gla_correct`
synthesize on that same plan.  Inputs are validated at the public entry
points and the burst's output is checked once for overflow; nothing is
revalidated per round.

A burst splits the frame rows into contiguous blocks, one per core the
process may run on as long as each block holds MIN_BLOCK_SAMPLES frame
samples, and runs each round's row-wise stages on them in a thread pool
made for that burst alone; a short input runs as one block on the
calling thread.  The workers share the burst's plan and write disjoint
rows of it, and the output is byte-identical whatever the split.
"""

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dsp import (
    DEFAULT_SAMPLE_RATE,
    ComplexSpectrogram,
    StftParams,
    Waveform,
    _StftPlan,
    istft,
    spectrogram_from_magnitude,
    stft,
)

# Frame samples (rows x n_fft) a row block needs before a second thread
# pays for its dispatch.  Measured on 2 cores, two blocks of one burst
# round break even at about 16-32k samples each for n_fft 512, 1024 and
# 2048 alike; at 64k (32 rows of 2048) they take 0.73-0.80 of one block.
MIN_BLOCK_SAMPLES = 1 << 16


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
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


def _check_magnitude(s_hat: np.ndarray, n_frames: int, n_bins: int) -> np.ndarray:
    s = np.asarray(s_hat, dtype=np.float64)
    if s.shape != (n_frames, n_bins):
        raise ValueError(f"magnitude shape {s.shape} != ({n_frames}, {n_bins})")
    if not np.all(np.isfinite(s)) or s.min() < 0.0:
        raise ValueError("magnitude must be finite and nonnegative")
    return s


def _check_frames(C: ComplexSpectrogram) -> None:
    p = C.params
    if p.frames_for_length(C.origin_length) != C.n_frames:
        raise ValueError(
            f"origin_length {C.origin_length} analyzes to "
            f"{p.frames_for_length(C.origin_length)} frames, spectrogram has {C.n_frames}"
        )


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


def _row_blocks(n_frames: int, n_fft: int) -> list:
    """Contiguous row slices, at most one per core, each of MIN_BLOCK_SAMPLES or more."""
    k = max(1, min(_cores(), n_frames * n_fft // MIN_BLOCK_SAMPLES))
    cuts = [n_frames * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _project_rounds(X: np.ndarray, s_hat: np.ndarray, plan: _StftPlan,
                    iterations: int, momentum: float) -> np.ndarray:
    """Run ``iterations`` projection rounds from X; return the last iterate.

    A round is t_k = P_C(P_mag(C_{k-1})).  With momentum m > 0 the next
    iterate is C_k = t_k + m (t_k - t_{k-1}) from the second round on
    (Perraudin, Balazs and Soendergaard, 2013); with m = 0 it is t_k.
    X must be a validated complex array the caller gives up: it is
    overwritten.  Raises ValueError if the burst overflowed.

    Everything but overlap-add and the reflect-pad gather works row by
    row, so dispatch k runs, on each row block of :func:`_row_blocks`,
    the end of round k and the start of round k + 1; the calling thread
    takes the first block and then runs those two serial stages.
    Workers write disjoint rows of X, prev, scratch and the plan's frames.
    """
    scratch = np.empty(X.shape)
    prev = np.empty_like(X) if momentum and iterations else None

    def block(rows: slice, k: int, X: np.ndarray, prev: np.ndarray) -> None:
        # numpy's error state is per thread; overflow is left to the
        # finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            C = X
            if k:    # finish round k: t_k into X; C_k in place of t_{k-1} in prev
                t = plan.analyze_rows(rows, out=X)
                if momentum:
                    p = prev[rows]
                    if k == 1:
                        p[...] = t
                    else:
                        np.subtract(t, p, out=p)
                        p *= momentum
                        p += t
                        C = prev
            if k < iterations:    # start round k + 1 from C_k
                _set_magnitude(C[rows], s_hat[rows], scratch[rows])
                plan.synthesize_rows(C, rows)

    blocks = _row_blocks(X.shape[0], plan.p.n_fft)
    with (ThreadPoolExecutor(len(blocks) - 1) if iterations and len(blocks) > 1
          else contextlib.nullcontext()) as pool, np.errstate(over="ignore", invalid="ignore"):
        # dispatch 0 only starts round 1 and the last only finishes it
        for k in range(iterations + 1 if iterations else 0):
            if k:
                plan.pad(plan.signal())
            futures = [pool.submit(block, rows, k, X, prev) for rows in blocks[1:]]
            block(blocks[0], k, X, prev)
            for future in futures:
                future.result()
            if momentum and k > 1:
                X, prev = prev, X
    if not np.all(np.isfinite(X)):
        raise ValueError("projection burst overflowed: the iterate is not finite")
    return X


def project_consistent(C: ComplexSpectrogram) -> ComplexSpectrogram:
    """Project onto the set of spectrograms some signal produces.

    Synthesis followed by analysis.  Requires the frame count and
    origin_length to agree, otherwise re-analysis would change shape.
    """
    _check_frames(C)
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
    _check_frames(C0)
    plan = _StftPlan(C0.params, C0.origin_length, C0.n_frames)
    X = _project_rounds(C0.frames.copy(), s, plan, iterations, 0.0)
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
    X = _project_rounds(plan.analyze(y.samples), s, plan, iterations, momentum)
    return Waveform(plan.synthesize(X), y.sample_rate)


def initial_spectrogram(
    s_hat: np.ndarray, params: StftParams, cfg: GlaConfig
) -> ComplexSpectrogram:
    """Starting iterate: the target magnitude under seeded uniform random phase."""
    s = np.asarray(s_hat, dtype=np.float64)
    phase = np.random.default_rng(cfg.seed).uniform(-np.pi, np.pi, size=s.shape)
    return spectrogram_from_magnitude(s, phase, params)


def fgla(
    s_hat: np.ndarray,
    params: StftParams,
    cfg: GlaConfig,
    target_length: int = None,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> Waveform:
    """Fast Griffin-Lim vocoder: magnitude frames in, waveform out.

    Momentum update t_k = P_C(P_mag(C_{k-1})), C_k = t_k + m (t_k - t_{k-1}).
    The first step runs unaccelerated so momentum only ever differences two
    consistent iterates; kicking it off from the raw (inconsistent) init
    measurably hurts convergence.  Momentum 0 reduces exactly to plain
    Griffin-Lim.  One final magnitude projection before synthesis keeps
    the emitted signal as close to the target magnitude as the last phase
    estimate allows.  ``target_length`` (default: the longest signal the
    frame count describes) keeps that many leading samples.
    """
    s = np.asarray(s_hat, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"magnitude must be 2-D, got shape {s.shape}")
    s = _check_magnitude(s, s.shape[0], params.n_bins)
    params.check_frame_count(s.shape[0])
    C = initial_spectrogram(s, params, cfg)
    if target_length is None:
        target_length = C.origin_length
    if not 1 <= target_length <= C.origin_length:
        raise ValueError(f"target_length {target_length} outside 1..{C.origin_length} "
                         f"for {C.n_frames} frames")
    plan = _StftPlan(params, C.origin_length, C.n_frames)
    X = _project_rounds(C.frames, s, plan, cfg.iterations, cfg.momentum)
    return Waveform(plan.synthesize(_set_magnitude(X, s))[:target_length], sample_rate)
