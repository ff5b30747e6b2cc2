"""Seeded speech-like test audio and the numpy reference checks.

Everything here is independent of glavoc: the benchmark writes the input
files with its own WAV writer and checks the program's outputs with its
own readers, STFT and mel filterbank, so a defect in glavoc cannot hide
itself by also breaking the check.
"""

import struct

import numpy as np

SAMPLE_RATE = 22050
N_FFT = 2048
HOP = 300
WIN = 1200
N_MELS = 128
F_MIN = 20.0
F_MAX = 11025.0
SNR_CAP_DB = 300.0


# ------------------------------------------------------------------ synthesis

def exact_length(seconds: float) -> int:
    """Sample count near ``seconds`` that the default geometry analyzes and
    synthesizes back to without padding or truncation."""
    frames = max(4, round((seconds * SAMPLE_RATE - WIN + N_FFT) / HOP) + 1)
    return (frames - 1) * HOP + WIN - N_FFT


def n_frames(n_samples: int) -> int:
    """Analysis frame count for ``n_samples`` under the default geometry."""
    return -(-(n_samples + N_FFT - WIN) // HOP) + 1


def speech_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """Syllables of gliding harmonic voicing shaped by three formants, some
    hissing fricatives and pauses, over a -50 dB noise floor; peak 0.5."""
    out = np.zeros(n)
    pos = 0
    while pos < n:
        dur = int(rng.uniform(0.12, 0.35) * SAMPLE_RATE)
        seg = min(dur, n - pos)
        kind = rng.uniform()
        if kind < 0.75:
            out[pos:pos + seg] = _voiced(rng, seg)
        elif kind < 0.9:
            out[pos:pos + seg] = _fricative(rng, seg)
        pos += seg
    out /= max(np.max(np.abs(out)), 1e-9)
    out += 10 ** (-50.0 / 20.0) * rng.standard_normal(n)
    return 0.5 * out / np.max(np.abs(out))


def _voiced(rng, n):
    f0 = rng.uniform(90.0, 240.0) * np.linspace(1.0, rng.uniform(0.85, 1.15), n)
    phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    formants = (rng.uniform(300, 900), rng.uniform(900, 2500), rng.uniform(2300, 3500))
    k = np.arange(1, int(5000.0 / f0.max()) + 1)
    centre = k * f0.mean()
    gain = sum(1.0 / (1.0 + ((centre - f) / (60.0 + 0.08 * f)) ** 2) for f in formants)
    gain = gain / k
    y = (gain[:, None] * np.sin(np.outer(k, phase) + rng.uniform(0, 2 * np.pi, k.size)[:, None])).sum(0)
    return y * np.hanning(n) * rng.uniform(0.4, 1.0)


def _fricative(rng, n):
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    lo = rng.uniform(2000, 4000)
    spec[(f < lo) | (f > lo + 3000)] = 0.0
    y = np.fft.irfft(spec, n)
    return 0.3 * y / max(np.max(np.abs(y)), 1e-9) * np.hanning(n)


# ------------------------------------------------------------------ WAV / mels

def write_wav(path, x: np.ndarray, fmt: str = "float32") -> None:
    """Canonical mono RIFF/WAVE, float32 or PCM16 (round half away from zero)."""
    if fmt == "pcm16":
        c = np.clip(x, -1.0, 32767.0 / 32768.0) * 32768.0
        payload = (np.sign(c) * np.floor(np.abs(c) + 0.5)).astype("<i2").tobytes()
        code, bits = 1, 16
    else:
        payload = np.asarray(x).astype("<f4").tobytes()
        code, bits = 3, 32
    align = bits // 8
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, code, 1, SAMPLE_RATE, SAMPLE_RATE * align,
                         align, bits, b"data", len(payload))
    with open(path, "wb") as fh:
        fh.write(header + payload)


def read_wav(path) -> np.ndarray:
    """Samples of a canonical 44-byte-header mono WAV as float64."""
    with open(path, "rb") as fh:
        data = fh.read()
    code, _, _, _, _, bits = struct.unpack_from("<HHIIHH", data, 20)
    if data[:4] != b"RIFF" or data[36:40] != b"data":
        raise ValueError(f"{path}: not a canonical WAV file")
    payload = data[44:]
    if (code, bits) == (1, 16):
        return np.frombuffer(payload, "<i2").astype(np.float64) / 32768.0
    if (code, bits) == (3, 32):
        return np.frombuffer(payload, "<f4").astype(np.float64)
    raise ValueError(f"{path}: unexpected format {code}/{bits}")


def read_mels_header(path):
    """(frames, bands) from a .mels file header."""
    with open(path, "rb") as fh:
        head = fh.read(20)
    if head[:4] != b"MELS":
        raise ValueError(f"{path}: not a mel file")
    return struct.unpack_from("<II", head, 8)


def read_mels(path) -> np.ndarray:
    frames, bands = read_mels_header(path)
    with open(path, "rb") as fh:
        fh.seek(20)
        data = np.frombuffer(fh.read(), "<f4").astype(np.float64)
    return np.maximum(data.reshape(frames, bands), 0.0)


# ------------------------------------------------------------------ reference DSP

def stft_magnitude(x: np.ndarray) -> np.ndarray:
    """|STFT| with reflect centre padding and a periodic Hann window of WIN
    samples centred in N_FFT, matching the default analysis geometry."""
    pad = N_FFT // 2
    xp = np.pad(x, pad, mode="reflect")
    frames = n_frames(x.shape[0])
    need = (frames - 1) * HOP + N_FFT
    xp = np.concatenate([xp, np.zeros(max(0, need - xp.shape[0]))])
    w = np.zeros(N_FFT)
    left = (N_FFT - WIN) // 2
    w[left:left + WIN] = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(WIN) / WIN))
    view = np.lib.stride_tricks.sliding_window_view(xp, N_FFT)[::HOP][:frames]
    return np.abs(np.fft.rfft(view * w, axis=1))


def mel_pinv() -> np.ndarray:
    """Pseudo-inverse (bins x bands) of the HTK triangular filterbank."""
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    hz = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    edges = hz(np.linspace(mel(F_MIN), mel(F_MAX), N_MELS + 2))
    f = np.arange(N_FFT // 2 + 1) * SAMPLE_RATE / N_FFT
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    weights = np.maximum(0.0, np.minimum((f - lo) / (mid - lo), (hi - f) / (hi - mid)))
    return np.linalg.pinv(weights, rcond=1e-8)


def spectral_convergence(ref_mag: np.ndarray, est_mag: np.ndarray) -> float:
    return float(np.linalg.norm(ref_mag - est_mag) / np.linalg.norm(ref_mag))


def snr_db(ref: np.ndarray, est: np.ndarray) -> float:
    """Signal-to-error ratio in dB, capped at 300 for an exact match."""
    noise = np.sum((ref - est) ** 2)
    if noise == 0.0:
        return SNR_CAP_DB
    return float(min(10.0 * np.log10(np.sum(ref * ref) / noise), SNR_CAP_DB))
