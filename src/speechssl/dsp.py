"""MFCC extraction for first-pass pseudo-labeling.

Pipeline: preemphasis -> Hann window -> squared-magnitude FFT -> HTK-scale
mel filterbank -> floored log -> orthonormal DCT-II, optionally followed by
first/second order deltas. All math is float64 and fully deterministic.
`mfcc_batch` runs the pipeline over B equal-length waveforms in one call:
the spectrum one utterance at a time through one set of buffers, the
filterbank product, log, DCT and deltas on the whole (B, T, .) batch;
`mfcc` is its B=1 case.
"""

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import SAMPLE_RATE, ManifestError, read_json

PREEMPHASIS, LOG_FLOOR = 0.97, 1e-10   # the log floors mel energies at LOG_FLOOR
NUM_MEL = 26                            # HTK mel bands


@dataclass
class MfccConfig:
    window: int = 400
    hop: int = 160
    num_ceps: int = 13
    deltas: bool = True

    def __post_init__(self):
        for key in ("window", "hop", "num_ceps"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.num_ceps > NUM_MEL:
            raise ValueError(f"num_ceps {self.num_ceps} must not exceed the {NUM_MEL} mel bands")

    @property
    def fft_size(self) -> int:         # the smallest power of two >= window: 512 at 400
        return 1 << (self.window - 1).bit_length()

    @property
    def dim(self) -> int:
        return 3 * self.num_ceps if self.deltas else self.num_ceps


@dataclass
class FeatureSequence:
    """T x D frame matrix plus provenance."""

    frames: np.ndarray
    frame_rate: float
    meta: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValueError("frames must be a T x D matrix with T >= 1")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("frames contain non-finite values")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(num_mel: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """num_mel x (fft_size//2 + 1) triangular filters sampled at bin
    frequencies. Built once per argument tuple; the array is shared, so it
    is read-only."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), num_mel + 2))
    bin_hz = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    fb = np.zeros((num_mel, bin_hz.size))
    for j in range(num_mel):
        lo, mid, hi = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        fb[j] = np.maximum(0.0, np.minimum(up, down))
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=16)
def dct_matrix(num_out: int, num_in: int) -> np.ndarray:
    """Orthonormal DCT-II rows (row 0 scaled by 1/sqrt(2)). Built once per
    shape and shared, so read-only."""
    i = np.arange(num_out)[:, None]
    j = np.arange(num_in)[None, :]
    mat = np.sqrt(2.0 / num_in) * np.cos(np.pi * i * (2 * j + 1) / (2.0 * num_in))
    mat[0] /= np.sqrt(2.0)
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=16)
def hann_window(length: int) -> np.ndarray:
    """np.hanning(length), built once per length and shared, so read-only."""
    window = np.hanning(length)
    window.flags.writeable = False
    return window


def frame_count(num_samples: int, window: int, hop: int) -> int:
    return 1 + (num_samples - window) // hop


def _log_mel(waveforms, cfg: MfccConfig) -> np.ndarray:
    """(B, T, NUM_MEL) floored log mel energies of B equal-length waveforms
    at SAMPLE_RATE. The spectrum is taken one utterance at a time, so its
    working arrays are the size of one utterance's frames whatever B is."""
    lengths = {w.size for w in waveforms}
    if len(lengths) != 1:
        raise ValueError(f"waveforms must share one length, got {sorted(lengths)}")
    b, length = len(waveforms), lengths.pop()
    if length < cfg.window:
        raise ValueError(
            f"waveform has {length} samples, shorter than one window ({cfg.window})"
        )
    t = frame_count(length, cfg.window, cfg.hop)
    window = hann_window(cfg.window)
    fb = mel_filterbank(NUM_MEL, cfg.fft_size, SAMPLE_RATE)
    pre, frames = np.empty(length), np.empty((t, cfg.window))
    power = np.empty((t, cfg.fft_size // 2 + 1))
    # frame j of the pre-emphasized signal is pre[hop*j : hop*j + window]
    framed = np.lib.stride_tricks.sliding_window_view(pre, cfg.window)[::cfg.hop]
    mel = np.empty((b, t, NUM_MEL))
    for x, out in zip(waveforms, mel):
        pre[0] = x[0]
        np.multiply(x[:-1], PREEMPHASIS, out=pre[1:])
        np.subtract(x[1:], pre[1:], out=pre[1:])
        np.multiply(framed, window, out=frames)
        np.abs(np.fft.rfft(frames, n=cfg.fft_size, axis=-1), out=power)
        power *= power
        np.matmul(power, fb.T, out=out)
    np.maximum(mel, LOG_FLOOR, out=mel)
    return np.log(mel, out=mel)


def _deltas(ceps: np.ndarray, width: int = 2) -> np.ndarray:
    """Regression deltas along the frame axis (-2) over +-width frames, edge
    frames replicated."""
    t = ceps.shape[-2]
    padded = np.concatenate([ceps[..., :1, :].repeat(width, axis=-2), ceps,
                             ceps[..., -1:, :].repeat(width, axis=-2)], axis=-2)
    num = np.zeros_like(ceps)
    for w in range(1, width + 1):
        num += w * (padded[..., width + w : width + w + t, :]
                    - padded[..., width - w : width - w + t, :])
    return num / (2.0 * sum(w * w for w in range(1, width + 1)))


def mfcc_batch(waveforms, cfg: MfccConfig | None = None) -> np.ndarray:
    """(B, T, D) MFCC features of B equal-length waveforms, computed in one
    pass; D = num_ceps (x3 with deltas). Utterances never interact, so row
    b equals mfcc(waveforms[b]) exactly."""
    cfg = cfg or MfccConfig()
    logmel = _log_mel(waveforms, cfg)
    ceps = logmel @ dct_matrix(cfg.num_ceps, NUM_MEL).T
    if cfg.deltas:
        d1 = _deltas(ceps)
        d2 = _deltas(d1)
        ceps = np.concatenate([ceps, d1, d2], axis=-1)
    return ceps


def mfcc(waveform, cfg: MfccConfig | None = None, meta: str = "") -> FeatureSequence:
    """Extract MFCC features; D = num_ceps (x3 with deltas)."""
    cfg = cfg or MfccConfig()
    return FeatureSequence(mfcc_batch([waveform], cfg)[0], SAMPLE_RATE / cfg.hop, meta=meta)


# ---------------------------------------------------------------------------
# Feature dumps: {id}.f32 float32 little-endian row-major blob + {id}.json


def save_features(out_dir, uid: str, features: FeatureSequence) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{uid}.f32").write_bytes(
        features.frames.astype("<f4").tobytes(order="C")
    )
    sidecar = {
        "id": uid,
        "T": features.num_frames,
        "D": features.dim,
        "frame_rate": features.frame_rate,
    }
    (out_dir / f"{uid}.json").write_text(json.dumps(sidecar) + "\n", encoding="utf-8")


def load_features(out_dir, uid: str) -> FeatureSequence:
    path = Path(out_dir) / f"{uid}.json"
    sidecar = read_json(path, "feature sidecar")
    for key, kind in (("T", int), ("D", int), ("frame_rate", float)):  # an int is a float too
        if type(sidecar.get(key)) not in (int, kind) or not 0 < sidecar[key] < np.inf:
            raise ManifestError(f"feature sidecar {path}: {key!r} must be a positive "
                                f"{kind.__name__}, got {sidecar.get(key)!r}")
    t, d, raw = sidecar["T"], sidecar["D"], path.with_suffix(".f32").read_bytes()
    try:
        if len(raw) != 4 * t * d:
            raise ValueError(f"{uid}.f32 holds {len(raw)} bytes, not 4 x T x D = {4 * t * d}")
        return FeatureSequence(np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(t, d),
                               sidecar["frame_rate"], meta=uid)
    except ValueError as exc:           # a blob of another size, or a non-finite frame
        raise ManifestError(f"feature sidecar {path}: {exc}") from None
