"""Metric formulas against hand values and naive oracles; report layout."""

import numpy as np
import pytest

from glavoc.dsp import ANALYSIS_ROWS, ComplexSpectrogram, StftParams, Waveform, stft
from glavoc.metrics import (
    EvalReport,
    SpectralSums,
    consistency_error,
    log_spectral_distance,
    snr,
    spectral_convergence,
)
from glavoc.phase import project_consistent

P = StftParams()


# -------------------------------------------------------- spectral convergence

def test_spectral_convergence_cases():
    rng = np.random.default_rng(1)
    S = rng.random((10, 40)) + 0.1
    assert spectral_convergence(S, S) == 0.0
    assert abs(spectral_convergence(S, np.zeros_like(S)) - 1.0) < 1e-12
    assert abs(spectral_convergence(S, 2.0 * S) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        spectral_convergence(np.zeros((3, 3)), S[:3, :3])
    with pytest.raises(ValueError):
        spectral_convergence(S, S[:, :-1])


# ------------------------------------------------------- log-spectral distance

def test_lsd_cases():
    rng = np.random.default_rng(2)
    S = rng.random((6, 30)) + 1.0       # well above the floor
    assert log_spectral_distance(S, S) == 0.0
    assert abs(log_spectral_distance(10.0 * S, S) - 20.0) < 0.01
    for floor in (0.0, float("nan")):
        with pytest.raises(ValueError, match="floor"):
            log_spectral_distance(S, S, floor=floor)


def test_lsd_matches_double_loop():
    rng = np.random.default_rng(3)
    a = rng.random((5, 7))
    b = rng.random((5, 7))
    floor = 1e-5
    acc = 0.0
    for t in range(5):
        for f in range(7):
            term = 20.0 * np.log10((a[t, f] + floor) / (b[t, f] + floor))
            acc += term * term
    expect = np.sqrt(acc / 35.0)
    assert abs(log_spectral_distance(a, b) - expect) < 1e-12


def test_spectral_convergence_is_asymmetric():
    # the reference norm sits in the denominator, so argument order matters
    rng = np.random.default_rng(6)
    a = rng.random((4, 4)) + 0.5
    b = 3.0 * a
    assert spectral_convergence(a, b) != spectral_convergence(b, a)


# ------------------------------------------------------------- chunked sums

def test_chunked_metrics_match_the_whole_array_formulas():
    rng = np.random.default_rng(8)
    ref = rng.random((5 * ANALYSIS_ROWS + 3, 257))
    est = np.abs(ref + 0.2 * rng.standard_normal(ref.shape))
    ref[:, :3] = est[7, 5:9] = 0.0    # silent bins on both sides
    floor = 1e-5
    pairs = {"rows": (ref, est), "strided": (ref[:, ::3], est[:, ::3]),
             "one row": (ref[4], est[4]), "one chunk": (ref[:ANALYSIS_ROWS], est[:ANALYSIS_ROWS])}
    for what, (a, b) in pairs.items():
        sc = np.linalg.norm(a - b) / np.linalg.norm(a)
        d = 20.0 * np.log10((a + floor) / (b + floor))
        lsd = np.sqrt(np.mean(d * d))
        assert abs(spectral_convergence(a, b) - sc) <= 1e-12 * sc, what
        assert abs(log_spectral_distance(a, b, floor) - lsd) <= 1e-12 * lsd, what
    # any split into chunks of rows gives the same sums, to rounding
    sums = SpectralSums(floor)
    for r0, r1 in ((0, 1), (1, 30), (30, 31), (31, len(ref))):
        sums.add(ref[r0:r1], est[r0:r1])
    assert abs(sums.convergence() - spectral_convergence(ref, est)) <= 1e-12 * sums.convergence()
    assert abs(sums.lsd() - log_spectral_distance(ref, est, floor)) <= 1e-12 * sums.lsd()
    with pytest.raises(ValueError, match="nonzero reference"):
        SpectralSums().convergence()


# ------------------------------------------------------------------------- snr

def test_snr_cases():
    ref = np.array([1.0, 0.0, 0.0])
    assert snr(ref, ref) == 300.0
    assert abs(snr(ref, np.zeros(3))) < 1e-12
    est = np.array([1.0, 0.1, 0.0])      # orthogonal error, power 0.01
    assert abs(snr(ref, est) - 20.0) < 1e-10
    with pytest.raises(ValueError):
        snr(np.zeros(3), ref)
    with pytest.raises(ValueError):
        snr(ref, np.zeros(4))


def test_snr_accepts_waveforms_and_caps():
    ref = Waveform(np.ones(100))
    near = Waveform(np.ones(100) + 1e-300)
    assert snr(ref, near) == 300.0


# ----------------------------------------------------------------- consistency

def test_consistency_error_cases():
    rng = np.random.default_rng(4)
    y = Waveform(rng.standard_normal(8000))
    C = stft(y, P)
    assert consistency_error(C) < 1e-10

    zero = ComplexSpectrogram(np.zeros((5, P.n_bins), dtype=complex),
                              P, P.max_length_for_frames(5))
    assert consistency_error(zero) == 0.0

    frames = rng.standard_normal((5, P.n_bins)) + 1j * rng.standard_normal((5, P.n_bins))
    rand = ComplexSpectrogram(frames, P, P.max_length_for_frames(5))
    assert consistency_error(rand) > 0.01
    assert consistency_error(project_consistent(rand)) < 1e-10


# ---------------------------------------------------------------------- report

def test_report_aggregates_recompute():
    rng = np.random.default_rng(5)
    rep = EvalReport()
    vals = {}
    for i in range(7):
        v = float(rng.random())
        rep.add(f"f{i}.wav", "snr", v)
        vals[f"f{i}.wav"] = v
    arr = np.array(list(vals.values()))
    assert abs(rep.mean("snr") - arr.mean()) < 1e-12
    assert abs(rep.std("snr") - arr.std()) < 1e-12


def test_report_csv_layout(tmp_path):
    rep = EvalReport()
    rep.add("b.wav", "snr", 12.3456789)
    rep.add("b.wav", "lsd", 1.0)
    rep.add("a.wav", "snr", 10.0)
    rep.add("a.wav", "lsd", 3.0)
    out = tmp_path / "report.csv"
    rep.write_csv(out)
    text = out.read_text(encoding="utf-8")
    assert "\r" not in text
    assert text.splitlines() == [
        "file,metric,value",
        "a.wav,lsd,3",
        "a.wav,snr,10",
        "b.wav,lsd,1",
        "b.wav,snr,12.3457",
        "__mean__,lsd,2",
        "__mean__,snr,11.1728",
        "__std__,lsd,1",
        "__std__,snr,1.17284",
    ]


def test_report_rejects_reserved_names():
    rep = EvalReport()
    with pytest.raises(ValueError):
        rep.add("__mean__", "snr", 1.0)
