"""Projection contracts, Griffin-Lim convergence behavior, FGLA acceleration."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from signals import SPLIT_GEOMETRIES, harmonic_signal

import glavoc.dsp as dsp
from glavoc.dsp import ComplexSpectrogram, StftParams, Waveform, istft, stft, stft_magnitude
from glavoc.phase import (
    GlaConfig,
    fgla,
    gla,
    gla_correct,
    initial_spectrogram,
    project_consistent,
    project_magnitude,
)

P = StftParams()


def random_spectrogram(n_frames, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    shape = (n_frames, P.n_bins)
    frames = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ComplexSpectrogram(frames, P, P.max_length_for_frames(n_frames))


def consistency_gap(C):
    return np.linalg.norm(C.frames - project_consistent(C).frames)


def burst_plan(p, n_frames):
    """The plan of a burst on ``n_frames`` frames of the longest signal they describe."""
    return dsp._StftPlan(p, p.max_length_for_frames(n_frames), n_frames)


# ------------------------------------------------------- consistency projection

def test_consistent_input_is_fixed_point():
    y = Waveform(harmonic_signal(150.0, n=12000))
    C = stft(y, P)
    out = project_consistent(C)
    assert np.max(np.abs(out.frames - C.frames)) < 1e-9


def test_projection_is_idempotent():
    C = random_spectrogram(30, seed=1)
    once = project_consistent(C)
    twice = project_consistent(once)
    assert np.max(np.abs(twice.frames - once.frames)) < 1e-9


def test_projected_output_is_consistent():
    C = random_spectrogram(25, seed=2)
    assert consistency_gap(project_consistent(C)) < 1e-9


def test_projection_rejects_mismatched_length():
    C = random_spectrogram(25, seed=3)
    bad = ComplexSpectrogram(C.frames, P, origin_length=100)
    with pytest.raises(ValueError, match="frames"):
        project_consistent(bad)


# --------------------------------------------------------- magnitude projection

def test_magnitude_projection_contract():
    rng = np.random.default_rng(4)
    C = random_spectrogram(20, seed=4)
    target = rng.random((20, P.n_bins))
    out = project_magnitude(C, target)
    assert np.max(np.abs(np.abs(out.frames) - target)) < 1e-12
    # phases survive wherever the input was nonzero
    nz = np.abs(C.frames) > 0
    same_dir = np.angle(out.frames[nz & (target > 0)]) - np.angle(C.frames[nz & (target > 0)])
    assert np.max(np.abs(same_dir)) < 1e-9


def test_magnitude_projection_identity_case():
    C = random_spectrogram(15, seed=5)
    out = project_magnitude(C, np.abs(C.frames))
    assert np.max(np.abs(out.frames - C.frames)) < 1e-12


def test_zero_entries_get_unit_phase():
    frames = np.zeros((4, P.n_bins), dtype=complex)
    frames[1, 10] = 2.0 - 1.0j
    C = ComplexSpectrogram(frames, P, P.max_length_for_frames(4))
    target = np.full((4, P.n_bins), 3.0)
    out = project_magnitude(C, target)
    assert out.frames[0, 0] == 3.0 + 0.0j
    assert out.frames[2, 500] == 3.0 + 0.0j
    assert abs(abs(out.frames[1, 10]) - 3.0) < 1e-12


def test_magnitude_projection_idempotent():
    rng = np.random.default_rng(6)
    C = random_spectrogram(10, seed=6)
    target = rng.random((10, P.n_bins))
    once = project_magnitude(C, target)
    twice = project_magnitude(once, target)
    assert np.max(np.abs(twice.frames - once.frames)) < 1e-12


def test_magnitude_projection_validates():
    C = random_spectrogram(10, seed=7)
    with pytest.raises(ValueError):
        project_magnitude(C, np.ones((10, 7)))
    with pytest.raises(ValueError):
        project_magnitude(C, -np.ones((10, P.n_bins)))


# ----------------------------------------------------------------- plain GLA

def test_gla_zero_iterations_is_identity():
    C = random_spectrogram(12, seed=8)
    out = gla(C, np.abs(C.frames), 0)
    assert out is C
    # the target is checked as at any other count
    with pytest.raises(ValueError, match=r"magnitude shape \(3, 3\)"):
        gla(C, -np.ones((3, 3)), 0)


def test_gla_fixed_point_on_consistent_input():
    y = Waveform(harmonic_signal(120.0, n=11025))
    C = stft(y, P)
    out = gla(C, np.abs(C.frames), 5)
    assert np.max(np.abs(out.frames - C.frames)) < 1e-8


def test_gla_improves_with_iterations():
    # magnitude mismatch of the resynthesized signal after 100 iterations
    # must beat a single iteration
    y = Waveform(harmonic_signal(180.0, n=11025, seed=9))
    s_hat = stft(y, P).magnitude()
    C0 = initial_spectrogram(s_hat, P, GlaConfig(seed=9))

    def mismatch(C):
        resynth = stft(istft(C), P).magnitude()
        return np.linalg.norm(resynth - s_hat)

    short = gla(C0, s_hat, 1)
    long = gla(C0, s_hat, 100)
    assert mismatch(long) < mismatch(short)


def test_gla_distance_is_non_increasing():
    # ||P_mag(C_k) - C_k||^2 never goes up under plain alternating
    # projections, measured along consistent iterates (the raw init has
    # the target magnitude baked in, so it starts at the wrong stage)
    y = Waveform(harmonic_signal(200.0, n=8000, seed=10))
    s_hat = stft(y, P).magnitude()
    C = project_consistent(initial_spectrogram(s_hat, P, GlaConfig(seed=10)))
    prev = np.inf
    for _ in range(100):
        d = np.linalg.norm(project_magnitude(C, s_hat).frames - C.frames) ** 2
        assert d <= prev + 1e-9
        prev = d
        C = project_consistent(project_magnitude(C, s_hat))


# ----------------------------------------------------------------------- FGLA

@pytest.mark.parametrize("chunk_rows", [1, 7, pytest.param(dsp.CHUNK_ROWS, id="default")])
def test_initial_spectrogram_default_length(monkeypatch, chunk_rows):
    rng = np.random.default_rng(3)
    n_frames = 3 * dsp.CHUNK_ROWS + 5
    s_hat = rng.random((n_frames, P.n_bins))
    monkeypatch.setattr(dsp, "CHUNK_ROWS", chunk_rows)
    C = initial_spectrogram(s_hat, P, GlaConfig(seed=8))
    assert C.origin_length == P.max_length_for_frames(n_frames)
    # the chunk-by-chunk draw and in-place product have the bits of one
    # whole-array draw and the plain expression, whatever the chunk size
    phase_draw = np.random.default_rng(8).uniform(-np.pi, np.pi, s_hat.shape)
    expected = s_hat * np.exp(1j * phase_draw)
    assert np.array_equal(C.frames.view(np.float64), expected.view(np.float64))


def test_fgla_zero_momentum_reduces_to_gla():
    y = Waveform(harmonic_signal(140.0, n=9000, seed=11))
    s_hat = stft(y, P).magnitude()
    cfg = GlaConfig(iterations=20, momentum=0.0, seed=11)
    via_fgla = fgla(s_hat, P, cfg, target_length=9000)
    C0 = initial_spectrogram(s_hat, P, cfg)
    ref = istft(project_magnitude(gla(C0, s_hat, 20), s_hat), 9000)
    assert np.array_equal(via_fgla.samples, ref.samples)


def test_fgla_momentum_accelerates():
    y = Waveform(harmonic_signal(160.0, n=11025, seed=12))
    s_hat = stft(y, P).magnitude()

    def convergence(momentum):
        out = fgla(
            s_hat, P,
            GlaConfig(iterations=100, momentum=momentum, seed=12),
            target_length=11025,
        )
        est = stft(out, P).magnitude()
        return np.linalg.norm(s_hat - est) / np.linalg.norm(s_hat)

    assert convergence(0.99) < convergence(0.0)


def test_fgla_output_length_and_determinism():
    rng = np.random.default_rng(13)
    s_hat = rng.random((30, P.n_bins))
    cfg = GlaConfig(iterations=5, momentum=0.9, seed=42)
    a = fgla(s_hat, P, cfg, target_length=7000)
    b = fgla(s_hat, P, cfg, target_length=7000)
    assert len(a) == 7000
    assert np.array_equal(a.samples, b.samples)


def test_fgla_init_modes():
    # seeded uniform phase is the only start; the init settings are gone
    with pytest.raises(TypeError):
        GlaConfig(init="zero")
    with pytest.raises(ValueError):
        GlaConfig(momentum=1.0)
    with pytest.raises(ValueError):
        GlaConfig(iterations=-1)


def test_every_burst_checks_its_rounds_alike():
    # GlaConfig's messages for GlaConfig, gla and gla_correct
    y = Waveform(np.random.default_rng(18).standard_normal(4000))
    C = stft(y, P)
    s_hat = C.magnitude()
    for run in (lambda k, m: GlaConfig(iterations=k, momentum=m),
                lambda k, m: gla_correct(y, s_hat, k, P, m)):
        for momentum in (1.0, 1.5, -0.5, np.nan):
            with pytest.raises(ValueError, match=r"momentum must lie in \[0, 1\)"):
                run(3, momentum)
        with pytest.raises(ValueError, match="iterations must be >= 0, got -1"):
            run(-1, 0.0)
    with pytest.raises(ValueError, match="iterations must be >= 0, got -1"):
        gla(C, s_hat, -1)


@pytest.mark.parametrize("name", ["default", "uncentered_rectangular"])
def test_fgla_target_length_keeps_the_leading_samples(name):
    p = SPLIT_GEOMETRIES[name]
    s_hat = np.random.default_rng(17).random((40, p.n_bins))
    cfg = GlaConfig(iterations=4, momentum=0.99, seed=17)
    full = fgla(s_hat, p, cfg).samples
    assert len(full) == p.max_length_for_frames(40)
    for t in (1, 1234, len(full) - 1, len(full)):
        assert np.array_equal(fgla(s_hat, p, cfg, target_length=t).samples, full[:t])


def test_fgla_rejects_target_lengths_the_frames_do_not_describe():
    s_hat = np.ones((20, P.n_bins))
    longest = P.max_length_for_frames(20)
    for t in (0, longest + 1):
        with pytest.raises(ValueError, match="target_length"):
            fgla(s_hat, P, GlaConfig(iterations=1), target_length=t)


# ------------------------------------------------- one core behind every burst

def reference_rounds(C, s_hat, iterations, momentum):
    """The projection loop spelled out with the public transforms, momentum on the signal.

    x_k = istft(P_mag(C_{k-1})), and C_k is the analysis of x_k + m (x_k - x_{k-1})
    from the second round on, x_k alone before: analysis is linear, so
    that is t_k + m (t_k - t_{k-1}) for the consistent iterates t_k.
    """
    x_prev = None
    for _ in range(iterations):
        x = istft(project_magnitude(C, s_hat)).samples
        y = x + momentum * (x - x_prev) if momentum and x_prev is not None else x
        C = stft(Waveform(y), C.params)
        x_prev = x
    return C


def spectral_reference_rounds(C, s_hat, iterations, momentum):
    """The same loop with momentum on the spectrogram, as Perraudin et al. write it."""
    t_prev = None
    for _ in range(iterations):
        t = project_consistent(project_magnitude(C, s_hat))
        if momentum and t_prev is not None:
            C = ComplexSpectrogram(t.frames + momentum * (t.frames - t_prev.frames),
                                   t.params, t.origin_length)
        else:
            C = t
        t_prev = t
    return C


def burst_and_reference(entry, momentum, n, iterations, rounds=reference_rounds):
    """The output of burst ``entry`` and of the loop ``rounds`` on the same input."""
    y = Waveform(harmonic_signal(170.0, n=n, seed=15))
    s_hat = 1.2 * stft(y, P).magnitude()
    cfg = GlaConfig(iterations=iterations, momentum=momentum, seed=15)
    C0 = initial_spectrogram(s_hat, P, cfg)
    if entry == "gla":
        return gla(C0, s_hat, iterations).frames, rounds(C0, s_hat, iterations, 0.0).frames
    if entry == "fgla":
        final = project_magnitude(rounds(C0, s_hat, iterations, momentum), s_hat)
        return fgla(s_hat, P, cfg, target_length=n).samples, istft(final, n).samples
    noise = Waveform(np.random.default_rng(16).standard_normal(n))
    final = project_magnitude(rounds(stft(noise, P), s_hat, iterations - 1, momentum), s_hat)
    return gla_correct(noise, s_hat, iterations, P, momentum).samples, istft(final, n).samples


def check_reference_loop(entry, momentum, n, iterations):
    got, want = burst_and_reference(entry, momentum, n, iterations)
    assert np.array_equal(got, want)


BURST_ENTRIES = [
    ("gla", 0.0), ("fgla", 0.0), ("fgla", 0.99), ("gla_correct", 0.0), ("gla_correct", 0.99),
]


@pytest.mark.parametrize("entry,momentum", BURST_ENTRIES)
def test_bursts_match_the_reference_loop(entry, momentum):
    check_reference_loop(entry, momentum, 8000, 32)


@pytest.mark.parametrize("iterations", (1, 2))
@pytest.mark.parametrize("entry", ("fgla", "gla_correct"))
def test_momentum_bursts_match_the_reference_loop_from_the_first_round(entry, iterations):
    # one round keeps no previous signal; two take the first accelerated step
    check_reference_loop(entry, 0.99, 8000, iterations)


@pytest.mark.parametrize("entry", ("fgla", "gla_correct"))
def test_signal_momentum_stays_near_the_spectral_update(entry):
    # the two forms are equal in exact arithmetic; in floating point they
    # drift apart by rounding alone, under 1e-13 of the output here
    got, want = burst_and_reference(entry, 0.99, 8000, 32, spectral_reference_rounds)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(got))


@pytest.mark.parametrize("cores", (2, 3))
@pytest.mark.parametrize("entry,momentum", BURST_ENTRIES)
def test_split_bursts_match_the_reference_loop(entry, momentum, cores, monkeypatch):
    # the public projections are zero-round transforms, so the reference stays on one thread
    n = 4 * 22050
    monkeypatch.setattr(dsp, "_cores", lambda: cores)
    assert len(dsp._row_blocks(burst_plan(P, P.frames_for_length(n)))) == cores
    check_reference_loop(entry, momentum, n, 8)


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_burst_memory_stays_within_its_per_frame_bound(monkeypatch):
    # README, Memory: besides the caller's target, a burst holds two
    # signals, 4.8 kB a frame, with momentum and one, 2.4 kB, without, and
    # per thread a frame buffer and a spectrum buffer of 64 rows, its cell
    # sums and, in fgla's first pass, a chunk of phases: 2.8 MB; a stored
    # iterate would add 16.4 kB a frame, a third chunk buffer 1 MB a thread
    n_frames = 2000
    s_hat = np.random.default_rng(25).random((n_frames, P.n_bins))
    monkeypatch.setattr(dsp, "_cores", lambda: 2)
    for momentum, per_frame in ((0.99, 8_000), (0.0, 5_000)):
        peak = traced_peak(lambda: fgla(s_hat, P, GlaConfig(iterations=3, momentum=momentum)))
        assert peak < n_frames * per_frame + 2 * 2_800_000, momentum


def test_istft_allocates_only_synthesis_buffers():
    # the padded signal (8 bytes a sample) and one chunk of frames; a
    # signal-length normalizer or cell sums would add 0.53 MB each, and the
    # analysis frame and magnitude ratio buffers an istft never uses 1.57 MB
    y = Waveform(np.random.default_rng(26).standard_normal(3 * 22050))
    C = stft(y, P)
    peak = traced_peak(lambda: istft(C))
    assert peak < 8 * len(y) + dsp.CHUNK_ROWS * P.n_fft * 8 + 500_000


def test_gla_keeps_no_copy_of_its_starting_spectrogram(monkeypatch):
    # the peak is the last analysis: the output spectrogram (16.4 kB a
    # frame) beside the padded signal (8 bytes a sample), the burst's
    # chunk buffers freed; each chunk of C0 is copied into the engine's
    # spectrum buffer as the first pass reads it.  A copy of C0 would hold
    # 16.4 kB a frame through the burst, beside two threads' chunk buffers
    monkeypatch.setattr(dsp, "_cores", lambda: 2)
    C0 = stft(Waveform(np.random.default_rng(30).standard_normal(10 * 22050)), P)
    s_hat = C0.magnitude()
    assert len(dsp._row_blocks(burst_plan(P, C0.n_frames))) == 2
    peak = traced_peak(lambda: gla(C0, s_hat, 3))
    signal = (C0.n_frames - 1) * P.hop + P.n_fft
    assert peak < 16 * C0.frames.size + 8 * signal + 2_000_000


def test_initial_spectrogram_allocates_only_the_iterate():
    # the iterate and one chunk of phase draws: no padded signal, edge map
    # or chunk buffer of a transform
    s_hat = np.random.default_rng(27).random((P.frames_for_length(3 * 22050), P.n_bins))
    peak = traced_peak(lambda: initial_spectrogram(s_hat, P, GlaConfig(seed=27)))
    assert peak < 16 * s_hat.size + 8 * dsp.CHUNK_ROWS * P.n_bins + 300_000


@pytest.mark.parametrize("name,cores", [
    ("default", 1), ("default", 2), ("small_hop_short_window", 3), ("small_hop", 2),
])
def test_each_frame_is_synthesized_once_a_pass(name, cores, monkeypatch):
    # split bursts take no frame's irfft twice, however many pieces a window has
    p = SPLIT_GEOMETRIES[name]
    fewest = p.frames_for_length(1)
    n_frames = fewest + cores * max(dsp.MIN_BLOCK_SAMPLES // p.n_fft,
                                    burst_plan(p, fewest).n_pieces)
    plan = burst_plan(p, n_frames)
    # a frame from the last output cell on reaches no output sample
    live = min(n_frames, plan.cells.stop)
    s_hat = np.random.default_rng(28).random((n_frames, p.n_bins))
    y = Waveform(np.random.default_rng(28).standard_normal(p.max_length_for_frames(n_frames)))
    C0 = initial_spectrogram(s_hat, p, GlaConfig(seed=28))
    monkeypatch.setattr(dsp, "_cores", lambda: cores)
    assert len(dsp._row_blocks(plan)) == cores
    rows = [0]
    irfft = np.fft.irfft

    def counting(a, *args, **kwargs):
        rows[0] += a.shape[0]
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    for momentum in (0.0, 0.99):
        rows[0] = 0
        fgla(s_hat, p, GlaConfig(iterations=3, momentum=momentum))
        assert rows[0] == 4 * live
        rows[0] = 0
        gla_correct(y, s_hat, 3, p, momentum)
        assert rows[0] == 3 * live
    rows[0] = 0
    gla(C0, s_hat, 3)
    assert rows[0] == 3 * live


def test_a_burst_waits_at_a_barrier_once_a_round(monkeypatch):
    # one full barrier between passes for each block's thread, none after
    # the last: fgla takes K + 1 passes, gla and gla_correct K
    n_frames = 3 * dsp.MIN_BLOCK_SAMPLES // P.n_fft
    s_hat = np.random.default_rng(29).random((n_frames, P.n_bins))
    y = Waveform(np.random.default_rng(29).standard_normal(P.max_length_for_frames(n_frames)))
    waits = {}

    class CountingBarrier(threading.Barrier):
        def wait(self, *args, **kwargs):
            me = threading.get_ident()
            waits[me] = waits.get(me, 0) + 1
            return super().wait(*args, **kwargs)

    monkeypatch.setattr(dsp.threading, "Barrier", CountingBarrier)
    monkeypatch.setattr(dsp, "_cores", lambda: 3)
    assert len(dsp._row_blocks(burst_plan(P, n_frames))) == 3
    for run, rounds in ((lambda: fgla(s_hat, P, GlaConfig(iterations=5, momentum=0.99)), 5),
                        (lambda: gla_correct(y, s_hat, 5, P), 4),
                        (lambda: gla(initial_spectrogram(s_hat, P, GlaConfig()), s_hat, 5), 4)):
        waits.clear()
        run()
        assert sorted(waits.values()) == [rounds] * 3


def test_fgla_overflowing_target_raises(monkeypatch):
    # only the ValueError, no RuntimeWarning first, on one row block and on
    # two; the same one at 0 iterations, where only the synthesis overflows
    n_frames = 2 * dsp.MIN_BLOCK_SAMPLES // P.n_fft
    s_hat = np.full((n_frames, P.n_bins), 1e306)
    for cores in (1, 2):
        monkeypatch.setattr(dsp, "_cores", lambda: cores)
        assert len(dsp._row_blocks(burst_plan(P, n_frames))) == cores
        for momentum in (0.0, 0.99):
            for iterations in (0, 1, 2, 4):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError,
                                       match="^spectrogram contains non-finite values$"):
                        fgla(s_hat, P, GlaConfig(iterations=iterations, momentum=momentum))


def test_fgla_scans_frames_past_its_target_length():
    # only the last 3 of 100 frames overflow, all of them past the 3000 kept samples
    s_hat = np.ones((100, P.n_bins))
    s_hat[-3:] = 1e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^spectrogram contains non-finite values$"):
            fgla(s_hat, P, GlaConfig(iterations=4), target_length=3000)


def test_gla_overflowing_target_raises(monkeypatch):
    # only the ValueError, no RuntimeWarning first, on one row block and on two
    n_frames = 2 * dsp.MIN_BLOCK_SAMPLES // P.n_fft
    C0 = random_spectrogram(n_frames, 23)
    s_hat = np.full(C0.frames.shape, 1e306)
    for cores in (1, 2):
        monkeypatch.setattr(dsp, "_cores", lambda: cores)
        assert len(dsp._row_blocks(burst_plan(P, n_frames))) == cores
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                gla(C0, s_hat, 4)


def test_each_array_is_scanned_for_finiteness_once(monkeypatch):
    # every returned array, every validated input and gla's last signal,
    # counted in elements
    y = Waveform(np.random.default_rng(24).standard_normal(8000))
    s_hat = np.abs(stft(y, P).frames)
    seen = [0]
    scan = np.isfinite

    def counting(x, *args, **kwargs):
        seen[0] += np.size(x)
        return scan(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    C = stft(y, P)
    assert seen[0] == C.frames.size
    seen[0] = 0
    assert stft_magnitude(y, P).shape == C.frames.shape    # its chunks, each once
    assert seen[0] == C.frames.size
    seen[0] = 0
    out = istft(C)
    assert seen[0] == out.samples.size
    seen[0] = 0
    G = gla(C, s_hat, 3)
    assert seen[0] == s_hat.size + C.origin_length + G.frames.size


def test_starting_iterate_builders_reject_the_same_magnitudes():
    bad = {
        "nonnegative": -np.ones((8, P.n_bins)),
        "finite": np.full((8, P.n_bins), np.nan),
        "2-D": np.array(1.0),
        "magnitude shape": np.ones((8, 7)),
    }
    for message, s_hat in bad.items():
        with pytest.raises(ValueError, match=message):
            initial_spectrogram(s_hat, P, GlaConfig())
        with pytest.raises(ValueError, match=message):
            fgla(s_hat, P, GlaConfig(iterations=1))


def test_fgla_rejects_mels_no_signal_produces():
    fewest = P.frames_for_length(1)
    assert fewest == 4
    for n_frames in (1, 2, 3):
        with pytest.raises(ValueError, match="fewer than 4 frames"):
            fgla(np.ones((n_frames, P.n_bins)), P, GlaConfig(iterations=1))
    out = fgla(np.ones((fewest, P.n_bins)), P, GlaConfig(iterations=1))
    assert len(out) == P.max_length_for_frames(fewest)


# ------------------------------------------------- row blocks across threads

def burst_outputs(p, n_frames, length=None, iterations=3):
    rng = np.random.default_rng(p.n_fft + p.hop)
    y = Waveform(rng.standard_normal(length or p.max_length_for_frames(n_frames)))
    C = stft(y, p)
    s_hat = 1.3 * np.abs(C.frames)
    return [
        gla(C, s_hat, iterations).frames,
        fgla(s_hat, p, GlaConfig(iterations=iterations, momentum=0.0)).samples,
        fgla(s_hat, p, GlaConfig(iterations=iterations, momentum=0.99)).samples,
        gla_correct(y, s_hat, iterations, p).samples,
        gla_correct(y, s_hat, iterations, p, 0.99).samples,
    ]


# periodic Hann's first sample is 0, so at hop 1 a cell written a row early
# gets nothing and is read times 0; a rectangular window shows it
ROW_SPLIT_GEOMETRIES = {
    **SPLIT_GEOMETRIES,
    "small_hop_short_rectangular": StftParams(n_fft=512, hop=1, win_length=128,
                                              window=np.ones(128)),
}


@pytest.mark.parametrize("name", sorted(ROW_SPLIT_GEOMETRIES))
def test_bursts_are_identical_however_the_rows_split(name, monkeypatch):
    p = ROW_SPLIT_GEOMETRIES[name]
    n_pieces = burst_plan(p, p.frames_for_length(1)).n_pieces
    n_frames = max(300, 7 * dsp.MIN_BLOCK_SAMPLES // p.n_fft, 7 * n_pieces)
    outputs = {}
    for cores in (1, 2, 3, 7):
        monkeypatch.setattr(dsp, "_cores", lambda: cores)
        blocks = dsp._row_blocks(burst_plan(p, n_frames))
        assert len(blocks) == cores
        outputs[cores] = burst_outputs(p, n_frames)
    if name.startswith("small_hop_short"):
        # frames 0..255 start in the left reflect edge: 2 of the 7 blocks
        assert sum(b.start < p.pad_amount // p.hop for b in blocks) == 2
    for cores in (2, 3, 7):
        for serial, split in zip(outputs[1], outputs[cores]):
            assert np.array_equal(serial, split)


@pytest.mark.parametrize("window", ("hann", "rectangular"))
def test_in_place_writes_one_row_behind_the_analysis_match_the_serial_run(window, monkeypatch):
    # one-row chunks at hop 1: each chunk writes the cell of its row while
    # the next row, which reads the cell after it, is still to be analyzed,
    # and the rows reading the left reflect edge sit in 2 of the 7 blocks.
    # Hann's first sample is 0, so only the rectangular window shows a
    # cell written before its own row's first piece is in
    p = SPLIT_GEOMETRIES["small_hop_short_window"]
    if window == "rectangular":
        p = StftParams(p.n_fft, p.hop, p.win_length, window=np.ones(p.win_length))
    n_frames = 7 * burst_plan(p, p.frames_for_length(1)).n_pieces
    monkeypatch.setattr(dsp, "_cores", lambda: 1)
    serial = burst_outputs(p, n_frames)
    monkeypatch.setattr(dsp, "_cores", lambda: 7)
    monkeypatch.setattr(dsp, "MIN_BLOCK_SAMPLES", p.n_fft)
    monkeypatch.setattr(dsp, "CHUNK_ROWS", 1)
    blocks = dsp._row_blocks(burst_plan(p, n_frames))
    assert len(blocks) == 7
    assert sum(b.start < p.pad_amount // p.hop for b in blocks) == 2
    for want, got in zip(serial, burst_outputs(p, n_frames)):
        assert np.array_equal(want, got)


# host timings drift, so no deadline; derandomized so every run checks the
# same geometries
@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(st.data())
def test_bursts_are_identical_under_any_row_split(data):
    n_fft = data.draw(st.integers(2, 256), "n_fft")
    win = data.draw(st.integers(2, n_fft), "win_length")
    hop = data.draw(st.integers(1, win), "hop")
    rectangular = data.draw(st.booleans(), "rectangular")
    p = StftParams(n_fft, hop, win, window=np.ones(win) if rectangular else None,
                   center_padding=data.draw(st.booleans(), "center"))
    try:
        p.check_synthesis()
    except ValueError:
        assume(False)    # no signal synthesizes under this geometry
    length = data.draw(st.integers(1, 40 * hop + 2 * n_fft), "length")
    n_frames = p.frames_for_length(length)
    iterations = data.draw(st.integers(0, 3), "iterations")
    cores = data.draw(st.sampled_from((1, 2, 3, 7)), "cores")
    chunk_rows = data.draw(st.sampled_from((1, 3, 64)), "chunk_rows")
    with pytest.MonkeyPatch.context() as mp:
        # every input splits into one block per core, down to empty blocks
        mp.setattr(dsp, "MIN_BLOCK_SAMPLES", 1)
        mp.setattr(dsp, "_cores", lambda: 1)
        mp.setattr(dsp, "CHUNK_ROWS", n_frames)
        serial = burst_outputs(p, n_frames, length, iterations)
        mp.setattr(dsp, "_cores", lambda: cores)
        mp.setattr(dsp, "CHUNK_ROWS", chunk_rows)
        split = burst_outputs(p, n_frames, length, iterations)
    for want, got in zip(serial, split):
        assert np.array_equal(want, got)


def test_a_pass_with_no_rounds_starts_no_thread(monkeypatch):
    # transforms, zero-round bursts and one-round gla and gla_correct run
    # on the calling thread at any core count
    y = Waveform(np.random.default_rng(22).standard_normal(40000))
    s_hat = 1.1 * stft(y, P).magnitude()

    def outputs():
        C = stft(y, P)
        return [C.frames, istft(C).samples, gla_correct(y, s_hat, 0, P).samples,
                gla_correct(y, s_hat, 1, P).samples,
                fgla(s_hat, P, GlaConfig(iterations=0)).samples, gla(C, s_hat, 1).frames]

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(dsp, "_cores", lambda: 1)
    serial = outputs()
    monkeypatch.setattr(dsp, "_cores", lambda: 3)
    monkeypatch.setattr(dsp, "MIN_BLOCK_SAMPLES", 1)
    monkeypatch.setattr(dsp.threading, "Thread", no_thread)
    for want, got in zip(serial, outputs()):
        assert np.array_equal(want, got)


def test_a_failing_block_thread_is_reported(monkeypatch):
    # a worker's own error comes back to the caller, and no thread is left waiting
    n_frames = 3 * dsp.MIN_BLOCK_SAMPLES // P.n_fft
    s_hat = np.ones((n_frames, P.n_bins))
    set_magnitude = dsp._set_magnitude

    def fails_off_the_calling_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("injected")
        return set_magnitude(*args)

    monkeypatch.setattr(dsp, "_cores", lambda: 3)
    monkeypatch.setattr(dsp, "_set_magnitude", fails_off_the_calling_thread)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected"):
        fgla(s_hat, P, GlaConfig(iterations=4))
    assert threading.active_count() == before


def test_concurrent_split_bursts_match_the_serial_one(monkeypatch):
    # four bursts at once, each split over three blocks, with the
    # interpreter switching threads far more often than by default
    n_frames = 3 * dsp.MIN_BLOCK_SAMPLES // P.n_fft
    s_hat = np.abs(np.random.default_rng(21).standard_normal((n_frames, P.n_bins)))
    cfg = GlaConfig(iterations=6, momentum=0.99, seed=21)
    monkeypatch.setattr(dsp, "_cores", lambda: 1)
    serial = fgla(s_hat, P, cfg).samples
    monkeypatch.setattr(dsp, "_cores", lambda: 3)
    results = [None] * 4

    def run(i):
        results[i] = fgla(s_hat, P, cfg).samples

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got is not None and np.array_equal(got, serial)
