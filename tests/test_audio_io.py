"""WAV boundary: header bytes, clamp/round semantics, round trips."""

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glavoc.audio_io import MAX_SAMPLE_RATE, WavSpec, read_wav, write_wav
from glavoc.dsp import Waveform


def test_float32_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    y = Waveform(rng.standard_normal(5000).astype(np.float32).astype(np.float64))
    path = tmp_path / "f.wav"
    write_wav(path, y, WavSpec(22050, "float32"))
    back, spec = read_wav(path)
    assert spec.bit_depth == "float32"
    assert spec.sample_rate == 22050
    assert np.array_equal(back.samples, y.samples)
    assert path.stat().st_size == 44 + 5000 * 4


def test_float32_overflow_is_refused_before_writing(tmp_path):
    path = tmp_path / "f.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{path}: samples overflow float32"):
            write_wav(path, Waveform([1e39, 0.0]), WavSpec(22050, "float32"))
    assert not path.exists()
    # the largest float32 is written and read back; pcm16 clamps instead
    write_wav(path, Waveform([-3.4028234663852886e38, 0.0]), WavSpec(22050, "float32"))
    assert read_wav(path)[0].samples[0] == -3.4028234663852886e38
    write_wav(path, Waveform([1e39, 0.0]), WavSpec(22050, "pcm16"))
    assert read_wav(path)[0].samples[0] == 32767.0 / 32768.0


def test_an_empty_signal_is_refused_before_writing(tmp_path):
    # read_wav refuses an empty data chunk, so no such file is written
    path = tmp_path / "f.wav"
    for bit_depth in ("float32", "pcm16"):
        with pytest.raises(ValueError, match=f"{path}: no samples to write"):
            write_wav(path, Waveform(np.zeros(0)), WavSpec(22050, bit_depth))
        assert not path.exists()


def pcm16_reference(x: float) -> float:
    """The documented rule, one sample at a time: clamp, scale, round half away."""
    c = min(max(x, -1.0), 32767.0 / 32768.0) * 32768.0
    return math.copysign(math.floor(abs(c) + 0.5), c) / 32768.0


# host timings drift, so no deadline; derandomized so every run checks the
# same files
@settings(deadline=None, derandomize=True, database=None)
@given(
    bit_depth=st.sampled_from(("float32", "pcm16")),
    rate=st.integers(1, MAX_SAMPLE_RATE),
    samples=st.lists(
        st.one_of(
            st.floats(-3.4e38, 3.4e38),
            st.floats(-4.0, 4.0),
            # whole and half steps of the pcm16 grid, clamp edges included
            st.integers(-70000, 70000).map(lambda k: k / 65536.0),
        ),
        min_size=1, max_size=300,
    ),
)
def test_round_trip_on_any_file(tmp_path_factory, bit_depth, rate, samples):
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    x = np.array(samples)
    write_wav(path, Waveform(x), WavSpec(rate, bit_depth))
    back, spec = read_wav(path)
    assert spec == WavSpec(rate, bit_depth)
    if bit_depth == "float32":
        assert np.array_equal(back.samples, x.astype(np.float32).astype(np.float64))
    else:
        assert np.array_equal(back.samples, [pcm16_reference(v) for v in samples])


def test_pcm16_round_trip_error_bound(tmp_path):
    rng = np.random.default_rng(2)
    y = Waveform(rng.uniform(-1.0, 1.0, 8000))
    path = tmp_path / "p.wav"
    write_wav(path, y, WavSpec(22050, "pcm16"))
    back, spec = read_wav(path)
    assert spec.bit_depth == "pcm16"
    assert np.max(np.abs(back.samples - y.samples)) <= 2.0 ** -15


def test_pcm16_scaling_and_clamp(tmp_path):
    path = tmp_path / "s.wav"
    write_wav(path, Waveform(np.array([0.5, 2.0, -2.0, 0.0])), WavSpec(22050, "pcm16"))
    raw = path.read_bytes()
    ints = struct.unpack("<4h", raw[44:])
    assert ints == (16384, 32767, -32768, 0)


def test_pcm16_rounds_half_away_from_zero(tmp_path):
    path = tmp_path / "r.wav"
    x = np.array([2.5, -2.5, 3.5]) / 32768.0
    write_wav(path, Waveform(x), WavSpec(22050, "pcm16"))
    ints = struct.unpack("<3h", path.read_bytes()[44:])
    assert ints == (3, -3, 4)


def test_pcm16_extremes_read_back_exactly(tmp_path):
    path = tmp_path / "e.wav"
    write_wav(path, Waveform(np.array([-1.0, 32767.0 / 32768.0])), WavSpec(22050, "pcm16"))
    back, _ = read_wav(path)
    assert back.samples[0] == -1.0
    assert back.samples[1] == 32767.0 / 32768.0


def test_pcm16_write_rounds_in_one_scratch_array(tmp_path):
    # one float64 scratch array and the int16 payload: 1.25x the samples'
    # bytes; each whole-signal float64 temporary would add 1x
    y = Waveform(np.random.default_rng(5).uniform(-1.1, 1.1, 10 * 22050))
    tracemalloc.start()
    try:
        write_wav(tmp_path / "m.wav", y, WavSpec(22050, "pcm16"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * y.samples.nbytes


def test_header_bytes(tmp_path):
    path = tmp_path / "h.wav"
    write_wav(path, Waveform(np.zeros(10)), WavSpec(16000, "pcm16"))
    raw = path.read_bytes()
    assert raw[:4] == b"RIFF"
    assert struct.unpack("<I", raw[4:8])[0] == 36 + 20
    assert raw[8:12] == b"WAVE"
    assert raw[12:16] == b"fmt "
    fmt_size, audio_format, channels, rate, byte_rate, align, bits = struct.unpack(
        "<IHHIIHH", raw[16:36]
    )
    assert (fmt_size, audio_format, channels, rate) == (16, 1, 1, 16000)
    assert (byte_rate, align, bits) == (32000, 2, 16)
    assert raw[36:40] == b"data"
    assert struct.unpack("<I", raw[40:44])[0] == 20


def test_reader_skips_unknown_chunks(tmp_path):
    base = tmp_path / "b.wav"
    write_wav(base, Waveform(np.array([0.25, -0.25])), WavSpec(22050, "float32"))
    raw = bytearray(base.read_bytes())
    extra = b"LIST" + struct.pack("<I", 4) + b"info"
    patched = raw[:12] + extra + raw[12:]
    patched[4:8] = struct.pack("<I", struct.unpack("<I", raw[4:8])[0] + len(extra))
    weird = tmp_path / "w.wav"
    weird.write_bytes(bytes(patched))
    back, _ = read_wav(weird)
    assert np.array_equal(back.samples, np.array([0.25, -0.25]))


def test_reader_rejects_bad_files(tmp_path):
    not_wav = tmp_path / "x.wav"
    not_wav.write_bytes(b"\x00" * 100)
    with pytest.raises(ValueError, match="RIFF"):
        read_wav(not_wav)

    stereo = tmp_path / "st.wav"
    payload = struct.pack("<4h", 1, 2, 3, 4)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 2, 22050, 22050 * 4, 4, 16,
        b"data", len(payload),
    )
    stereo.write_bytes(header + payload)
    with pytest.raises(ValueError, match="channel count"):
        read_wav(stereo)

    good = tmp_path / "g.wav"
    write_wav(good, Waveform(np.zeros(100)), WavSpec(22050, "pcm16"))
    truncated = tmp_path / "t.wav"
    truncated.write_bytes(good.read_bytes()[:-10])
    with pytest.raises(ValueError, match="truncated"):
        read_wav(truncated)

    zero_rate = tmp_path / "z.wav"
    raw = bytearray(good.read_bytes())
    raw[24:32] = struct.pack("<II", 0, 0)     # sample rate and byte rate
    zero_rate.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as err:
        read_wav(zero_rate)
    assert str(err.value) == f"{zero_rate}: bad sample rate 0"
    high_rate = tmp_path / "h.wav"
    raw[24:32] = struct.pack("<II", MAX_SAMPLE_RATE + 1, 2 * (MAX_SAMPLE_RATE + 1))
    high_rate.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as err:
        read_wav(high_rate)
    assert str(err.value) == f"{high_rate}: bad sample rate 16777217"

    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "missing.wav")


def test_24bit_is_rejected(tmp_path):
    odd = tmp_path / "o.wav"
    payload = b"\x00" * 6
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, 22050, 22050 * 3, 3, 24,
        b"data", len(payload),
    )
    odd.write_bytes(header + payload)
    with pytest.raises(ValueError, match="unsupported format"):
        read_wav(odd)


def test_spec_validation():
    with pytest.raises(TypeError):     # mono only: there is no channel setting
        WavSpec(22050, "pcm16", channels=2)
    with pytest.raises(ValueError):
        WavSpec(22050, "mp3")
    with pytest.raises(ValueError):
        WavSpec(0, "pcm16")
    # 2^24 Hz is the largest rate a .mels header holds exactly
    assert WavSpec(MAX_SAMPLE_RATE, "float32").sample_rate == 16777216
    for rate in (MAX_SAMPLE_RATE + 1, 2_000_000_000):
        with pytest.raises(ValueError, match="1..16777216"):
            WavSpec(rate, "float32")


# bytes 4-15 of the KSDATAFORMAT_SUBTYPE_PCM and _IEEE_FLOAT GUIDs
KS_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def extensible_wav(path, subformat, bits, payload, guid_tail=KS_GUID_TAIL):
    """A mono WAVE_FORMAT_EXTENSIBLE file with a 40-byte fmt chunk."""
    align = bits // 8
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 22050, 22050 * align, align, bits,
                      22, bits, 0x4) + struct.pack("<I", subformat) + guid_tail
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_extensible_format_reads_its_subformat(tmp_path):
    pcm = tmp_path / "pcm.wav"
    extensible_wav(pcm, 1, 16, struct.pack("<3h", -32768, 0, 16384))
    wave, spec = read_wav(pcm)
    assert spec.bit_depth == "pcm16"
    assert np.array_equal(wave.samples, [-1.0, 0.0, 0.5])

    flt = tmp_path / "float.wav"
    extensible_wav(flt, 3, 32, np.array([0.25, -0.75], dtype="<f4").tobytes())
    wave, spec = read_wav(flt)
    assert spec.bit_depth == "float32"
    assert np.array_equal(wave.samples, [0.25, -0.75])

    for name, subformat, bits, tail in (
        ("adpcm.wav", 2, 16, KS_GUID_TAIL),     # another subformat
        ("pcm24.wav", 1, 24, KS_GUID_TAIL),     # PCM at another depth
        ("vendor.wav", 1, 16, b"\x01" * 12),    # a GUID outside the KSDATAFORMAT family
    ):
        odd = tmp_path / name
        extensible_wav(odd, subformat, bits, b"\x00" * 12, tail)
        with pytest.raises(ValueError, match="unsupported format"):
            read_wav(odd)
