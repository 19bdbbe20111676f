"""Desk-scale ablation runner: one desk set-up, then every (mix_probability,
speaker_loss) variant trained at every run seed and scored, on first read,
by tap-layer speaker separability on clean and on overlapped audio.
"""

from dataclasses import dataclass, replace
from functools import cached_property

from .corpus import SAMPLE_RATE, synth_corpus
from .dsp import mfcc
from .probe import loo_nearest_centroid_accuracy, overlapped_corpus, utterance_means
from .pseudolabel import fit_labels
from .trainer import Seeds, TrainConfig, TrainState, init_state, train


@dataclass
class DeskSetup:
    config: TrainConfig
    corpus: list
    labels: dict        # utterance id -> PseudoLabelSequence
    overlap: list       # overlapped_corpus(corpus, seed)


@dataclass
class DeskRun:
    setup: DeskSetup
    state: TrainState

    @property
    def metrics(self) -> list:
        return self.state.metrics

    @cached_property
    def separability_clean(self) -> float:
        means, tags = utterance_means(self.state, self.setup.corpus)
        return loo_nearest_centroid_accuracy(means[self.setup.config.encoder.tap_layer], tags)

    @cached_property
    def separability_overlap(self) -> float:
        means, tags = utterance_means(self.state, self.setup.overlap)
        return loo_nearest_centroid_accuracy(means[self.setup.config.encoder.tap_layer], tags)


def desk_setup(config: TrainConfig, num_speakers: int = 8, utts_per_speaker: int = 16,
               seed: int = 0, restarts: int = 3) -> DeskSetup:
    """synth_corpus -> MFCC -> fit_labels -> overlapped_corpus, all at `seed`."""
    corpus = synth_corpus(num_speakers, utts_per_speaker,
                          duration=config.utterance_length / SAMPLE_RATE, seed=seed)
    frames = {u.id: mfcc(u.waveform, config.mfcc, meta=u.id).frames for u in corpus}
    _, labels = fit_labels(frames, config.encoder.num_classes, seed=seed, restarts=restarts)
    return DeskSetup(config, corpus, labels, overlapped_corpus(corpus, seed=seed))


def run_seeds(run_seed: int) -> Seeds:
    """The six training seeds of run `run_seed`, a thousand apart per run."""
    return Seeds(*(1000 * run_seed + i for i in range(6)))


def run_grid(setup: DeskSetup, variants, seeds) -> dict:
    """{(mix_probability, speaker_loss, seed): DeskRun}, in variant-major order."""
    runs = {}
    for p, speaker_loss in variants:
        for seed in seeds:
            config = replace(setup.config, mix_probability=p, speaker_loss=speaker_loss,
                             seeds=run_seeds(seed))
            state = train(init_state(config), setup.corpus, setup.labels)
            runs[(p, speaker_loss, seed)] = DeskRun(setup, state)
    return runs
