"""Mono WAV reading and writing, PCM16 and IEEE float32 only.

Hand-rolled RIFF: the format is 44 bytes of header plus raw samples, and
owning the writer pins the exact clamp/round semantics at the PCM
boundary instead of inheriting whichever convention a library picked.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .dsp import Waveform

BIT_DEPTHS = ("pcm16", "float32")
PCM16_SCALE = 32768.0
# the largest integer a float32 .mels header stores exactly; it also keeps
# the byte rate, 4 bytes per float32 sample, inside the u32 header field
MAX_SAMPLE_RATE = 1 << 24
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 4-15 of every KSDATAFORMAT_SUBTYPE GUID; bytes 0-3 hold the format code
_SUBTYPE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


@dataclass(frozen=True)
class WavSpec:
    """Stored sample format; this toolkit is strictly mono.

    The rate is a whole number of Hz; an integral float is kept as its int.
    """

    sample_rate: int = 22050
    bit_depth: str = "float32"

    def __post_init__(self):
        if self.bit_depth not in BIT_DEPTHS:
            raise ValueError(f"bit_depth must be one of {BIT_DEPTHS}")
        if not 0 < self.sample_rate <= MAX_SAMPLE_RATE:
            raise ValueError(
                f"sample_rate must lie in 1..{MAX_SAMPLE_RATE}, got {self.sample_rate}"
            )
        if self.sample_rate != int(self.sample_rate):
            raise ValueError(f"sample_rate must be a whole number of Hz, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))


def write_wav(path, y: Waveform, spec: WavSpec) -> None:
    """Write a canonical 44-byte-header RIFF/WAVE file.

    PCM16 clamps to [-1, 1 - 2^-15] and rounds half away from zero;
    float32 stores the samples verbatim.  Raises ValueError, before the
    file is opened, when there are no samples, which :func:`read_wav`
    refuses, or when a sample overflows float32.
    """
    x = y.samples
    if x.shape[0] == 0:
        raise ValueError(f"{path}: no samples to write")
    if spec.bit_depth == "pcm16":
        # rounded in one scratch array: |v| + 0.5 floored, the sign put back
        # from x, whose sign clamping and scaling keep
        v = np.clip(x, -1.0, 32767.0 / PCM16_SCALE)
        v *= PCM16_SCALE
        np.abs(v, out=v)
        v += 0.5
        np.floor(v, out=v)
        np.copysign(v, x, out=v)
        payload = v.astype("<i2")
        audio_format, bits = 1, 16
    else:
        with np.errstate(over="ignore"):    # an overflow is reported below, with the path
            samples = x.astype("<f4")
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"{path}: samples overflow float32")
        payload = samples
        audio_format, bits = 3, 32
    block_align = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + payload.nbytes, b"WAVE",
        b"fmt ", 16, audio_format, 1,
        spec.sample_rate, spec.sample_rate * block_align, block_align, bits,
        b"data", payload.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)    # the array's own buffer, not a bytes copy


def read_wav(path):
    """Parse a mono RIFF/WAVE file; returns (Waveform, WavSpec).

    PCM16 maps to [-1, 1) by dividing by 32768; float32 passes through.
    Unknown chunks are skipped, so files with extra metadata still load.
    WAVE_FORMAT_EXTENSIBLE files are read by the format code in their
    subformat GUID.  The file's sample rate, which must lie in
    1..MAX_SAMPLE_RATE, is returned in the WavSpec; the Waveform carries none.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())    # chunk bodies are views, not copies
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{path}: truncated {cid.decode(errors='replace')!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise ValueError(f"{path}: malformed fmt chunk")
            fmt = list(struct.unpack_from("<HHIIHH", body, 0))
            if (fmt[0] == WAVE_FORMAT_EXTENSIBLE and size >= 40
                    and body[28:40] == _SUBTYPE_GUID_TAIL):
                fmt[0] = struct.unpack_from("<I", body, 24)[0]
        elif cid == b"data":
            payload = body
        pos += 8 + size + (size & 1)    # chunks are word-aligned

    if fmt is None or payload is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels != 1:
        raise ValueError(f"{path}: unsupported channel count {channels} (mono only)")
    if not 0 < sample_rate <= MAX_SAMPLE_RATE:
        raise ValueError(f"{path}: bad sample rate {sample_rate}")
    if audio_format == 1 and bits == 16:
        if len(payload) % 2:
            raise ValueError(f"{path}: odd PCM16 payload size")
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64)
        samples /= PCM16_SCALE
        depth = "pcm16"
    elif audio_format == 3 and bits == 32:
        if len(payload) % 4:
            raise ValueError(f"{path}: float32 payload size not a multiple of 4")
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        depth = "float32"
    else:
        raise ValueError(
            f"{path}: unsupported format (code {audio_format}, {bits} bits); "
            "only PCM16 and IEEE float32 are readable"
        )
    if samples.shape[0] == 0:
        raise ValueError(f"{path}: empty data chunk")
    try:    # the Waveform's own scan, the only one
        wave = Waveform(samples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return wave, WavSpec(sample_rate, depth)
