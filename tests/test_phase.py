"""Projection contracts, Griffin-Lim convergence behavior, FGLA acceleration."""

import sys
import threading
import warnings

import numpy as np
import pytest

from signals import harmonic_signal

import glavoc.phase as phase
from glavoc.dsp import ComplexSpectrogram, StftParams, Waveform, istft, stft
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
    frames = np.zeros((3, P.n_bins), dtype=complex)
    frames[1, 10] = 2.0 - 1.0j
    C = ComplexSpectrogram(frames, P, P.max_length_for_frames(3))
    target = np.full((3, P.n_bins), 3.0)
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
    assert a.sample_rate == 22050


def test_fgla_init_modes():
    # seeded uniform phase is the only start; the init settings are gone
    with pytest.raises(TypeError):
        GlaConfig(init="zero")
    with pytest.raises(ValueError):
        GlaConfig(momentum=1.0)
    with pytest.raises(ValueError):
        GlaConfig(iterations=-1)


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
    """The projection loop spelled out with the public projections."""
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


@pytest.mark.parametrize("entry,momentum", [
    ("gla", 0.0), ("fgla", 0.0), ("fgla", 0.99), ("gla_correct", 0.0), ("gla_correct", 0.99),
])
def test_bursts_match_the_reference_loop(entry, momentum):
    n = 8000
    y = Waveform(harmonic_signal(170.0, n=n, seed=15))
    s_hat = 1.2 * stft(y, P).magnitude()
    cfg = GlaConfig(iterations=32, momentum=momentum, seed=15)
    C0 = initial_spectrogram(s_hat, P, cfg)
    if entry == "gla":
        got = gla(C0, s_hat, 32).frames
        want = reference_rounds(C0, s_hat, 32, 0.0).frames
    elif entry == "fgla":
        got = fgla(s_hat, P, cfg, target_length=n).samples
        final = project_magnitude(reference_rounds(C0, s_hat, 32, momentum), s_hat)
        want = istft(final, n).samples
    else:
        noise = Waveform(np.random.default_rng(16).standard_normal(n))
        got = gla_correct(noise, s_hat, 32, P, momentum).samples
        want = istft(reference_rounds(stft(noise, P), s_hat, 32, momentum), n).samples
    assert np.max(np.abs(got - want)) < 1e-9


def test_fgla_overflowing_target_raises(monkeypatch):
    # only the ValueError, no RuntimeWarning first, on one row block and on two
    n_frames = 2 * phase.MIN_BLOCK_SAMPLES // P.n_fft
    s_hat = np.full((n_frames, P.n_bins), 1e306)
    for cores in (1, 2):
        monkeypatch.setattr(phase, "_cores", lambda: cores)
        assert len(phase._row_blocks(n_frames, P.n_fft)) == cores
        for momentum in (0.0, 0.99):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    fgla(s_hat, P, GlaConfig(iterations=4, momentum=momentum))


def test_fgla_rejects_mels_no_signal_produces():
    fewest = P.frames_for_length(1)
    assert fewest == 4
    for n_frames in (1, 2, 3):
        with pytest.raises(ValueError, match="fewer than 4 frames"):
            fgla(np.ones((n_frames, P.n_bins)), P, GlaConfig(iterations=1))
    out = fgla(np.ones((fewest, P.n_bins)), P, GlaConfig(iterations=1))
    assert len(out) == P.max_length_for_frames(fewest)


# ------------------------------------------------- row blocks across threads

SPLIT_GEOMETRIES = {
    "default": StftParams(),
    "hop_not_dividing_window": StftParams(n_fft=512, hop=96, win_length=400),
    "uncentered_rectangular": StftParams(n_fft=512, hop=100, win_length=300,
                                         window=np.ones(300), center_padding=False),
}


def burst_outputs(p, n_frames):
    rng = np.random.default_rng(p.n_fft + p.hop)
    y = Waveform(rng.standard_normal(p.max_length_for_frames(n_frames)))
    C = stft(y, p)
    s_hat = 1.3 * np.abs(C.frames)
    return [
        gla(C, s_hat, 3).frames,
        fgla(s_hat, p, GlaConfig(iterations=3, momentum=0.0)).samples,
        fgla(s_hat, p, GlaConfig(iterations=3, momentum=0.99)).samples,
        gla_correct(y, s_hat, 3, p).samples,
        gla_correct(y, s_hat, 3, p, 0.99).samples,
    ]


@pytest.mark.parametrize("name", sorted(SPLIT_GEOMETRIES))
def test_bursts_are_identical_however_the_rows_split(name, monkeypatch):
    p = SPLIT_GEOMETRIES[name]
    n_frames = max(300, 7 * phase.MIN_BLOCK_SAMPLES // p.n_fft)
    outputs = {}
    for cores in (1, 2, 3, 7):
        monkeypatch.setattr(phase, "_cores", lambda: cores)
        assert len(phase._row_blocks(n_frames, p.n_fft)) == cores
        outputs[cores] = burst_outputs(p, n_frames)
    for cores in (2, 3, 7):
        for serial, split in zip(outputs[1], outputs[cores]):
            assert np.array_equal(serial, split)


def test_concurrent_split_bursts_match_the_serial_one(monkeypatch):
    # four bursts at once, each split over three blocks, with the
    # interpreter switching threads far more often than by default
    n_frames = 3 * phase.MIN_BLOCK_SAMPLES // P.n_fft
    s_hat = np.abs(np.random.default_rng(21).standard_normal((n_frames, P.n_bins)))
    cfg = GlaConfig(iterations=6, momentum=0.99, seed=21)
    monkeypatch.setattr(phase, "_cores", lambda: 1)
    serial = fgla(s_hat, P, cfg).samples
    monkeypatch.setattr(phase, "_cores", lambda: 3)
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
