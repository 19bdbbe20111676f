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


@dataclass
class MfccConfig:
    window: int = 400
    hop: int = 160
    num_mel: int = 26
    num_ceps: int = 13
    fft_size: int = 512
    preemphasis: float = 0.97
    floor: float = 1e-10
    deltas: bool = True

    def __post_init__(self):
        if self.window > self.fft_size:
            raise ValueError("window must not exceed fft_size")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        if self.num_ceps > self.num_mel:
            raise ValueError("num_ceps must not exceed num_mel")

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


def _log_mel(waveforms, cfg: MfccConfig, alloc=np.empty) -> np.ndarray:
    """(B, T, num_mel) floored log mel energies of B equal-length waveforms
    sharing one sample rate. The spectrum is taken one utterance at a time,
    so its working arrays (from `alloc`) are the size of one utterance's
    frames whatever B is."""
    rates = {w.sample_rate for w in waveforms}
    if len(rates) != 1:
        raise ValueError(f"waveforms must share one sample rate, got {sorted(rates)}")
    lengths = {w.samples.size for w in waveforms}
    if len(lengths) != 1:
        raise ValueError(f"waveforms must share one length, got {sorted(lengths)}")
    b, length = len(waveforms), lengths.pop()
    if length < cfg.window:
        raise ValueError(
            f"waveform has {length} samples, shorter than one window ({cfg.window})"
        )
    t = frame_count(length, cfg.window, cfg.hop)
    window = hann_window(cfg.window)
    fb = mel_filterbank(cfg.num_mel, cfg.fft_size, rates.pop())
    pre, frames = alloc((length,)), alloc((t, cfg.window))
    power = alloc((t, cfg.fft_size // 2 + 1))
    # frame j of the pre-emphasized signal is pre[hop*j : hop*j + window]
    framed = np.lib.stride_tricks.sliding_window_view(pre, cfg.window)[::cfg.hop]
    mel = np.empty((b, t, cfg.num_mel))
    for waveform, out in zip(waveforms, mel):
        x = waveform.samples
        pre[0] = x[0]
        np.multiply(x[:-1], cfg.preemphasis, out=pre[1:])
        np.subtract(x[1:], pre[1:], out=pre[1:])
        np.multiply(framed, window, out=frames)
        np.abs(np.fft.rfft(frames, n=cfg.fft_size, axis=-1), out=power)
        power *= power
        np.matmul(power, fb.T, out=out)
    np.maximum(mel, cfg.floor, out=mel)
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


def mfcc_batch(waveforms, cfg: MfccConfig | None = None, alloc=np.empty) -> np.ndarray:
    """(B, T, D) MFCC features of B equal-length waveforms at one sample
    rate, computed in one pass; D = num_ceps (x3 with deltas). Utterances
    never interact, so row b equals mfcc(waveforms[b]) exactly. The
    spectrum's working arrays come from `alloc(shape)` (np.empty by
    default; a numerics.BufferPool's `empty` reuses them)."""
    cfg = cfg or MfccConfig()
    logmel = _log_mel(waveforms, cfg, alloc)
    ceps = logmel @ dct_matrix(cfg.num_ceps, cfg.num_mel).T
    if cfg.deltas:
        d1 = _deltas(ceps)
        d2 = _deltas(d1)
        ceps = np.concatenate([ceps, d1, d2], axis=-1)
    return ceps


def mfcc(waveform, cfg: MfccConfig | None = None, meta: str = "") -> FeatureSequence:
    """Extract MFCC features; D = num_ceps (x3 with deltas)."""
    cfg = cfg or MfccConfig()
    return FeatureSequence(mfcc_batch([waveform], cfg)[0], waveform.sample_rate / cfg.hop,
                           meta=meta)


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
    out_dir = Path(out_dir)
    sidecar = json.loads((out_dir / f"{uid}.json").read_text(encoding="utf-8"))
    raw = np.frombuffer((out_dir / f"{uid}.f32").read_bytes(), dtype="<f4")
    frames = raw.astype(np.float64).reshape(sidecar["T"], sidecar["D"])
    return FeatureSequence(frames, sidecar["frame_rate"], meta=sidecar["id"])
