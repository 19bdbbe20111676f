"""Audio ingestion and batching: WAV I/O, JSONL manifests, fixed-length
batch assembly, and a deterministic synthetic multi-speaker corpus.

Synthetic speakers are harmonic stacks: each speaker owns a fundamental
frequency and a harmonic amplitude profile, so utterance embeddings have a
known speaker structure that separability diagnostics can be scored against.
"""

import json
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import rng_from

PCM16_SCALE = 32768.0
SAMPLE_RATE = 16000     # the one rate read_wav accepts and MfccConfig's sample counts assume


class ManifestError(ValueError):
    """Raised for malformed or inconsistent manifest, label and WAV files."""


@dataclass
class Utterance:
    id: str
    waveform: np.ndarray            # 1-D float64 samples at SAMPLE_RATE
    speaker: str | None = None


@dataclass
class Batch:
    """B utterances, each exactly L samples long."""

    utterances: list[Utterance]
    length: int

    def __post_init__(self):
        if len(self.utterances) < 1:
            raise ValueError("batch must contain at least one utterance")
        for utt in self.utterances:
            if len(utt.waveform) != self.length:
                raise ValueError(
                    f"utterance {utt.id!r} has length {len(utt.waveform)}, expected {self.length}"
                )

    @property
    def size(self) -> int:
        return len(self.utterances)


@dataclass
class UtteranceRef:
    """Manifest entry. Its `waveform` reads the WAV on each access, so a list
    of entries stands in for a corpus without holding its audio."""

    id: str
    audio_path: Path
    speaker: str | None = None

    @property
    def waveform(self) -> np.ndarray:
        return read_wav(self.audio_path)

    def load(self) -> Utterance:
        return Utterance(self.id, self.waveform, self.speaker)


# ---------------------------------------------------------------------------
# WAV I/O (RIFF PCM16 mono at SAMPLE_RATE only; stereo is rejected, not
# downmixed, and other rates are rejected, not resampled)


def read_wav(path) -> np.ndarray:
    """A WAV's float64 samples in [-1, 1). Every audio read comes here, so
    this is the one format check: a file that is not PCM16 mono at
    SAMPLE_RATE, or holds no samples, is refused by name."""
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio, got {wav.getnchannels()} channels")
            if wav.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * wav.getsampwidth()}-bit")
            if wav.getframerate() != SAMPLE_RATE:
                raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz audio, "
                                 f"got {wav.getframerate()} Hz")
            n = wav.getnframes()
            raw = wav.readframes(n)
    except (EOFError, OSError, wave.Error) as exc:
        reason = getattr(exc, "strerror", None) or str(exc) or "it ends inside its header"
        raise ManifestError(f"{path}: cannot read it as a WAV file: {reason}") from None
    if len(raw) != 2 * n:
        raise ManifestError(f"{path}: data chunk cut short ({len(raw)} of {2 * n} bytes)")
    if n == 0:
        raise ManifestError(f"{path}: data chunk holds no samples")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM16_SCALE


def write_wav(path, samples: np.ndarray) -> None:
    ints = np.clip(np.rint(samples * PCM16_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE)
        wav.writeframes(ints.tobytes())


# ---------------------------------------------------------------------------
# Manifests: JSON Lines, one {"id", "audio_path", "speaker"?} object per line


def read_jsonl(path, keys: tuple, what: str) -> list[tuple[str, dict]]:
    """(`file:line`, object) for each non-blank line of a JSON Lines file.
    There must be at least one, and every line must be UTF-8 text holding
    a JSON object with each of `keys`, the first of which is a string id no
    earlier line holds."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    rows, seen = [], {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ManifestError(f"{where}: not UTF-8 text (byte 0x{raw[exc.start]:02x} "
                                    f"at column {exc.start + 1}: {exc.reason})") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{where}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or any(key not in obj for key in keys):
                raise ManifestError(f"{where}: expected an object with keys {list(keys)}")
            uid = obj[keys[0]]
            if type(uid) is not str:
                raise ManifestError(f"{where}: {keys[0]!r} must be a string, got {uid!r}")
            if uid in seen:
                raise ManifestError(f"{where}: duplicate id {uid!r} "
                                    f"(first seen on line {seen[uid]})")
            seen[uid] = lineno
            rows.append((where, obj))
    if not rows:
        raise ManifestError(f"{what} {path} holds no rows")
    return rows


def read_json(path, what: str, error=ManifestError) -> dict:
    """The JSON object a file holds; else `error`, naming `what` and the file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:           # malformed JSON, or bytes that are not UTF-8
        raise error(f"{what} {path}: malformed JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise error(f"{what} {path} is not a JSON object")
    return obj


def load_manifest(path) -> list[UtteranceRef]:
    refs: list[UtteranceRef] = []
    for where, obj in read_jsonl(path, ("id", "audio_path"), "manifest"):
        for key in ("audio_path", "speaker"):       # a speaker tag may be absent
            if key in obj and type(obj[key]) is not str:
                raise ManifestError(f"{where}: {key!r} must be a string, got {obj[key]!r}")
        # commands write <--out>/<id>.<ext>, next to their run_manifest.json
        if obj["id"] in ("", ".", "..", "run_manifest") or any(c in obj["id"] for c in "/\0"):
            raise ManifestError(f"{where}: id {obj['id']!r} is not a plain file name "
                                "(one path component, not '.', '..' or 'run_manifest')")
        audio_path = Path(obj["audio_path"])
        if not audio_path.is_absolute():
            audio_path = Path(path).parent / audio_path
        refs.append(UtteranceRef(obj["id"], audio_path, obj.get("speaker")))
    return refs


def write_manifest(path, refs: list[UtteranceRef]) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for ref in refs:
            obj = {"id": ref.id, "audio_path": str(ref.audio_path)}
            if ref.speaker is not None:
                obj["speaker"] = ref.speaker
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# Batching


def crop_or_pad(samples: np.ndarray, length: int) -> np.ndarray:
    """Center-crop to `length` if longer, zero-pad the tail if shorter."""
    n = samples.size
    if n == length:
        return samples
    if n > length:
        start = (n - length) // 2
        return samples[start : start + length].copy()
    padded = np.zeros(length)
    padded[:n] = samples
    return padded


def make_batch(utterances: list[Utterance], batch_size: int, length: int, seed: int) -> Batch:
    """Pick `batch_size` utterances (seeded, without replacement) and
    normalize each to exactly `length` samples."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if batch_size > len(utterances):
        raise ValueError(
            f"batch size {batch_size} exceeds available utterances ({len(utterances)})"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(utterances), size=batch_size, replace=False)
    members = [
        Utterance(u.id, crop_or_pad(u.waveform, length), u.speaker)
        for u in (utterances[i] for i in picks)
    ]
    return Batch(members, length)


# ---------------------------------------------------------------------------
# Synthetic corpus

NUM_HARMONICS = 6
F0_BASE_HZ = 110.0
F0_STEP_HZ = 24.0


def synth_corpus(
    num_speakers: int,
    utts_per_speaker: int,
    duration: float = 0.5,
    seed: int = 0,
    noise_std: float = 0.02,
) -> list[Utterance]:
    """Generate a tagged corpus of harmonic-stack speakers.

    Speaker s gets fundamental F0_BASE + s*F0_STEP plus a seeded harmonic
    amplitude profile; utterances within a speaker differ by harmonic phases,
    additive noise, and an overall level drawn per utterance.
    """
    if num_speakers < 1 or utts_per_speaker < 1:
        raise ValueError("num_speakers and utts_per_speaker must be >= 1")
    if not 0 < duration < np.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    n = int(round(duration * SAMPLE_RATE))
    if n < 1:
        raise ValueError(f"duration {duration} s is shorter than one sample at {SAMPLE_RATE} Hz")
    t = np.arange(n) / SAMPLE_RATE
    utterances = []
    for s in range(num_speakers):
        spk_rng = rng_from(seed, "speaker", s)
        f0 = F0_BASE_HZ + F0_STEP_HZ * s
        amps = spk_rng.uniform(0.2, 1.0, size=NUM_HARMONICS)
        amps /= amps.sum()
        for u in range(utts_per_speaker):
            utt_rng = rng_from(seed, "utt", s, u)
            phases = utt_rng.uniform(0.0, 2.0 * np.pi, size=NUM_HARMONICS)
            level = utt_rng.uniform(0.3, 0.9)
            sig = np.zeros(n)
            for h in range(NUM_HARMONICS):
                sig += amps[h] * np.sin(2.0 * np.pi * f0 * (h + 1) * t + phases[h])
            sig = level * sig + noise_std * utt_rng.standard_normal(n)
            peak = np.max(np.abs(sig))
            if peak >= 1.0:
                sig = sig / (peak * 1.01)
            utterances.append(
                Utterance(
                    id=f"spk{s:02d}_utt{u:03d}",
                    waveform=sig,
                    speaker=f"spk{s:02d}",
                )
            )
    return utterances
