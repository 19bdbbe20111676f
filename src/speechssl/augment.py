"""Utterance mixing: simulate overlapped speech inside a batch.

Each utterance is independently selected with probability p; a selected
utterance gets one chunk of another batch member (self allowed) added over
at most half of its samples, so the original speaker stays dominant and
per-frame labels from the clean audio remain valid. All draws come from a
single seeded generator consumed in a fixed order (selection, then per
selected utterance: source, length, target start, source start, SNR).

Recorded MixSpec positions are 1-based to match the sampling definition of
the chunk bounds; apply/verify converts internally.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Batch, Utterance, Waveform

SNR_DB = (-5.0, 5.0)    # UniSpeech-SAT's range for a mixed-in chunk's SNR


@dataclass
class MixSpec:
    """One applied mix: batch[target][s : s+l] += gain * batch[source][s_b : s_b+l]
    with s, s_b 1-based."""

    target_index: int
    source_index: int
    mix_length: int
    target_start: int
    source_start: int
    gain: float

    def validate(self, batch_size: int, length: int) -> list[str]:
        problems = []
        half = length // 2
        if not 1 <= self.mix_length <= half:
            problems.append(f"mix_length {self.mix_length} outside [1, {half}]")
        if not 1 <= self.target_start <= length - self.mix_length:
            problems.append(f"target_start {self.target_start} out of range")
        if not 1 <= self.source_start <= length - self.mix_length:
            problems.append(f"source_start {self.source_start} out of range")
        if not 0 <= self.target_index < batch_size:
            problems.append(f"target_index {self.target_index} out of range")
        if not 0 <= self.source_index < batch_size:
            problems.append(f"source_index {self.source_index} out of range")
        if not np.isfinite(self.gain):
            problems.append("gain is not finite")
        return problems


@dataclass
class MixedBatch:
    batch: Batch
    specs: list[MixSpec]
    clean: Batch


def _chunk_gain(target_region, source_chunk, rng) -> float:
    """Gain that puts the chunk at an SNR (dB) drawn uniformly from SNR_DB
    against the target region's energy; unit gain when the target region or
    the chunk is silent."""
    snr = rng.uniform(*SNR_DB)
    target_energy = float(np.sum(target_region**2))
    chunk_energy = float(np.sum(source_chunk**2))
    if target_energy == 0.0 or chunk_energy == 0.0:
        return 1.0
    return float(np.sqrt(target_energy / chunk_energy) * 10.0 ** (-snr / 20.0))


def mix_batch(batch: Batch, p: float, seed: int = 0) -> MixedBatch:
    """Overlay a random chunk of a random batch member onto each selected
    utterance. Mixed-in chunks always come from the clean batch, so results
    do not depend on the order the selected utterances are processed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    b, length = batch.size, batch.length
    half = length // 2
    if half < 1:
        raise ValueError("batch length too short to mix (need L >= 2)")

    clean = [u.waveform.samples for u in batch.utterances]
    mixed = np.stack(clean)
    selected = np.nonzero(rng.random(b) < p)[0]
    specs: list[MixSpec] = []
    for target in selected:
        source = int(rng.integers(b))
        l = int(rng.integers(1, half + 1))
        s = int(rng.integers(1, length - l + 1))
        s_b = int(rng.integers(1, length - l + 1))
        chunk = clean[source][s_b - 1 : s_b - 1 + l]
        gain = _chunk_gain(clean[target][s - 1 : s - 1 + l], chunk, rng)
        mixed[target, s - 1 : s - 1 + l] += gain * chunk
        specs.append(MixSpec(int(target), source, l, s, s_b, gain))

    rate = batch.utterances[0].waveform.sample_rate
    out = [
        Utterance(u.id, Waveform(mixed[i], rate), u.speaker)
        for i, u in enumerate(batch.utterances)
    ]
    return MixedBatch(Batch(out, length), specs, batch)


def verify_spec(mixed: MixedBatch) -> list[str]:
    """Re-derive each mixed utterance from clean audio + specs, one at a
    time, and confirm bit-equality, plus every MixSpec bound (notably
    l <= L/2). Returns the problems found; empty means the batch verifies."""
    batch, clean = mixed.batch, mixed.clean
    problems: list[str] = []
    for idx, spec in enumerate(mixed.specs):
        for msg in spec.validate(batch.size, batch.length):
            problems.append(f"spec {idx}: {msg}")
    if problems:
        return problems

    for i, utt in enumerate(batch.utterances):
        owned = [j for j, spec in enumerate(mixed.specs) if spec.target_index == i]
        rebuilt = clean.utterances[i].waveform.samples.copy()
        for spec in (mixed.specs[j] for j in owned):
            s, s_b, l = spec.target_start - 1, spec.source_start - 1, spec.mix_length
            source = clean.utterances[spec.source_index].waveform.samples
            rebuilt[s : s + l] += spec.gain * source[s_b : s_b + l]
        if not np.array_equal(rebuilt, utt.waveform.samples):
            where = "mixed region" if owned else "untouched utterance"
            owner = f"spec {owned[0]}" if owned else "no spec"
            problems.append(f"utterance {i}: {where} differs from reconstruction ({owner})")
    return problems


def save_mixspecs(path, batch_index: int, specs: list[MixSpec]) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "batch_index": batch_index,
            "specs": [
                {
                    "target_index": s.target_index,
                    "source_index": s.source_index,
                    "l": s.mix_length,
                    "s": s.target_start,
                    "s_b": s.source_start,
                    "gain": s.gain,
                }
                for s in specs
            ],
        }) + "\n")
