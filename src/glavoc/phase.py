"""Griffin-Lim phase retrieval.

Alternating projections between two sets of spectrograms: the consistent
ones (images of actual signals under analysis) and the ones with a
prescribed magnitude.  Plain Griffin-Lim composes the two projections;
the fast variant adds momentum on top.  Both run standalone as a vocoder
and inside the corrected sampler's early steps.

Every burst of rounds, from :func:`gla`, :func:`fgla` and the sampler's
correction :func:`gla_correct`, runs in the synthesis engine,
:func:`glavoc.dsp._project_rounds`, from the starting iterate (or the
first analysis) to the synthesis of its last magnitude projection, never
of an extrapolated iterate (Griffin and Lim, 1984; Perraudin et al.,
2013), which :func:`gla` analyzes with :func:`stft`.  K rounds of
:func:`gla` or :func:`gla_correct` take K passes.
Momentum acts on the synthesized signals: the analysis of
x_k + m (x_k - x_{k-1}) is the accelerated iterate, so a burst keeps a
second signal, not the previous iterate.
:func:`fgla`'s first pass and :func:`initial_spectrogram` draw the same
seeded phases, a chunk of rows at a time, by :func:`_seeded_phase`;
:func:`initial_spectrogram` builds no plan.  :func:`gla` copies each chunk
of its starting spectrogram into the engine's chunk buffer as the first
pass reads it, and keeps no whole copy.
Inputs are validated at the public entry points, never per round, by
:func:`_check_rounds` and :func:`_check_magnitude`.  The
:class:`Waveform` and :class:`ComplexSpectrogram` of :func:`gla` check
its signal and frames for overflow; :func:`fgla` and :func:`_correct`,
whose last iterate no such type holds, check the signal the engine
synthesizes, so an overflow raises the same ValueError whatever the
round count.  :func:`gla_correct`'s burst runs
in :func:`_correct`, on a plan its caller may keep: the corrected
sampler runs every burst of an utterance on one plan, and the engine
refreshes its edges.
"""

from dataclasses import dataclass

import numpy as np

from . import dsp
from .dsp import (
    ComplexSpectrogram,
    StftParams,
    Waveform,
    _StftPlan,
    _project_rounds,
    _set_magnitude,
    istft,
    stft,
)


@dataclass(frozen=True)
class GlaConfig:
    """Iteration budget, momentum and the seed of the starting phase.

    momentum = 0 is plain Griffin-Lim; nonzero values accelerate it.
    """

    iterations: int = 1000
    momentum: float = 0.99
    seed: int = 0

    def __post_init__(self):
        _check_rounds(self.iterations, self.momentum)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _check_rounds(iterations: int, momentum: float, prefix: str = "") -> None:
    """Raise ValueError unless iterations >= 0 and 0 <= momentum < 1, names led by ``prefix``."""
    if iterations < 0:
        raise ValueError(f"{prefix}iterations must be >= 0, got {iterations}")
    if not (0.0 <= momentum < 1.0):
        raise ValueError(f"{prefix}momentum must lie in [0, 1), got {momentum}")


def _check_magnitude(s_hat: np.ndarray, n_bins: int, n_frames: int = None) -> np.ndarray:
    """Float64 ``s_hat``; ValueError unless 2-D, n_frames x n_bins (None: any), finite, >= 0."""
    s = np.asarray(s_hat, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"magnitude must be 2-D, got shape {s.shape}")
    n_frames = s.shape[0] if n_frames is None else n_frames
    n_bins = s.shape[1] if n_bins is None else n_bins
    if s.shape != (n_frames, n_bins):
        raise ValueError(f"magnitude shape {s.shape} != ({n_frames}, {n_bins})")
    if not np.all(np.isfinite(s)) or s.min() < 0.0:
        raise ValueError("magnitude must be finite and nonnegative")
    return s


def project_consistent(C: ComplexSpectrogram) -> ComplexSpectrogram:
    """Project onto the set of spectrograms some signal produces.

    Synthesis followed by analysis.  Requires the frame count and
    origin_length to agree, otherwise re-analysis would change shape.
    """
    C.params.check_length(C.n_frames, C.origin_length)
    return stft(istft(C), C.params)


def project_magnitude(C: ComplexSpectrogram, s_hat: np.ndarray) -> ComplexSpectrogram:
    """Replace magnitudes, keep phases; zero entries get phase 1."""
    s = _check_magnitude(s_hat, C.params.n_bins, C.n_frames)
    return ComplexSpectrogram(_set_magnitude(C.frames.copy(), s), C.params, C.origin_length)


def gla(C0: ComplexSpectrogram, s_hat: np.ndarray, iterations: int) -> ComplexSpectrogram:
    """Plain Griffin-Lim: K composed projections from C0, the last analysis by :func:`stft`."""
    _check_rounds(iterations, 0.0)
    s = _check_magnitude(s_hat, C0.params.n_bins, C0.n_frames)
    if iterations == 0:
        return C0
    C0.params.check_length(C0.n_frames, C0.origin_length)
    plan = _StftPlan(C0.params, C0.origin_length, C0.n_frames)

    def start(rows, frames, out):    # a copy of C0's rows, which the pass projects in place
        out[...] = C0.frames[rows]
        return out

    return stft(Waveform(_project_rounds(plan, s, iterations - 1, 0.0, start)), C0.params)


def gla_correct(
    y: Waveform,
    s_hat: np.ndarray,
    iterations: int,
    params: StftParams,
    momentum: float = 0.0,
) -> Waveform:
    """Pull a waveform toward a magnitude target by K projection rounds.

    :func:`fgla`'s K - 1 rounds and final projection, momentum included,
    started from the analysis of ``y`` and synthesized at its length.
    K=0 is the bare analysis round trip, the identity up to floating point.
    """
    _check_rounds(iterations, momentum)
    plan = _StftPlan(params, len(y), params.frames_for_length(len(y)))
    s = _check_magnitude(s_hat, params.n_bins, plan.n_frames)
    plan.x[...] = y.samples
    return Waveform(_correct(plan, s, iterations, momentum))


def _correct(plan: _StftPlan, s: np.ndarray, iterations: int, momentum: float) -> np.ndarray:
    """:func:`gla_correct`'s burst on the signal in ``plan.x``, in place; returns ``plan.x``.

    ``s`` is a checked target of the plan's frame count.  The engine
    refreshes the edges of the signal, which may have been written since
    the last burst.  Raises ValueError if the corrected signal is not finite.
    """
    if iterations == 0:
        _project_rounds(plan, None, 0, 0.0)
    else:
        _project_rounds(plan, s, iterations - 1, momentum)
    return plan.finite_x()


def _seeded_phase(s: np.ndarray, rows: slice, seed: int, out: np.ndarray) -> np.ndarray:
    """The rows ``rows`` of s under uniform random phase, built in ``out``.

    The phases are those ``np.random.default_rng(seed).uniform(-pi, pi)``
    draws in row-major order over all of ``s``: the generator skips one
    64-bit draw per entry before the rows.
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(rows.start * s.shape[1])
    np.multiply(1j, rng.uniform(-np.pi, np.pi, out.shape), out=out)
    np.exp(out, out=out)
    out *= s[rows]
    return out


def initial_spectrogram(
    s_hat: np.ndarray, params: StftParams, cfg: GlaConfig
) -> ComplexSpectrogram:
    """Starting iterate: the target magnitude under seeded uniform random phase.

    The phases are ``np.random.default_rng(cfg.seed).uniform(-pi, pi)``
    draws in row-major order.  Its origin length is the longest signal
    the frame count describes.
    """
    s = _check_magnitude(s_hat, params.n_bins)
    X = np.empty(s.shape, dtype=np.complex128)
    for r in dsp._chunks(slice(0, s.shape[0]), dsp.CHUNK_ROWS):    # no phase array spans s
        _seeded_phase(s, r, cfg.seed, X[r])
    return ComplexSpectrogram(X, params, params.max_length_for_frames(s.shape[0]))


def fgla(
    s_hat: np.ndarray,
    params: StftParams,
    cfg: GlaConfig,
    target_length: int = None,
) -> Waveform:
    """Fast Griffin-Lim vocoder: magnitude frames in, waveform out.

    Starts from :func:`initial_spectrogram`'s iterate, drawn a chunk at a time.
    Momentum update t_k = P_C(P_mag(C_{k-1})), C_k = t_k + m (t_k - t_{k-1}),
    taken as the analysis of x_k + m (x_k - x_{k-1}) for the signals x_k
    that t_k analyzes: equal in exact arithmetic, it stores a signal
    instead of t_{k-1}, and its output is the spectral update's to about
    1e-13 relative at 32 rounds.  The first step runs unaccelerated so
    momentum only ever differences two consistent iterates; kicking it
    off from the raw (inconsistent) init measurably hurts convergence.
    Momentum 0 reduces exactly to plain Griffin-Lim.  ``target_length``
    (default: the longest signal the frame count describes) keeps that
    many leading samples, at the rate of the mel the magnitudes came from.
    """
    s = _check_magnitude(s_hat, params.n_bins)
    target_length = params.synthesis_length(s.shape[0], target_length)
    plan = _StftPlan(params, params.max_length_for_frames(s.shape[0]), s.shape[0])
    _project_rounds(plan, s, cfg.iterations, cfg.momentum,
                    lambda rows, frames, out: _seeded_phase(s, rows, cfg.seed, out))
    return Waveform(plan.finite_x()[:target_length])
