"""Shared builders for desk-scale training tests: a fast TrainConfig and a
small desk set-up (synthetic corpus and its MFCC-cluster labels) for it."""

import pytest

from speechssl.ablate import desk_setup
from speechssl.encoder import EncoderConfig
from speechssl.losses import LossWeights
from speechssl.quantizer import QuantizerConfig
from speechssl.trainer import Seeds, TrainConfig


def fast_config(steps=8, seed=0, **overrides) -> TrainConfig:
    base = dict(
        steps=steps,
        batch_size=3,
        utterance_length=1600,
        learning_rate=2e-3,
        mix_probability=0.2,
        checkpoint_every=0,
        seeds=Seeds(seed, seed + 1, seed + 2, seed + 3, seed + 4, seed + 5),
        weights=LossWeights(num_negatives=10),
        encoder=EncoderConfig(
            model_dim=32, num_layers=2, num_heads=4, ffn_dim=48,
            num_classes=6, tap_layer=1, mask_span=4, mask_start_prob=0.15,
        ),
        quantizer=QuantizerConfig(
            num_codebooks=2, num_entries=8, entry_dim=16,
        ),
    )
    base.update(overrides)
    return TrainConfig(**base)


def count_calls(monkeypatch, module, *names) -> dict:
    """Wrap each named function of `module` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="session")
def small_setup():
    setup = desk_setup(fast_config(), num_speakers=3, utts_per_speaker=4, restarts=2)
    return setup.config, setup.corpus, setup.labels
