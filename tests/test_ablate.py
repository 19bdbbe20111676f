import dataclasses

import numpy as np

from speechssl import probe
from speechssl.ablate import desk_setup, run_grid, run_seeds
from speechssl.corpus import synth_corpus
from speechssl.dsp import mfcc
from speechssl.probe import loo_nearest_centroid_accuracy, overlapped_corpus, utterance_means
from speechssl.pseudolabel import fit_labels
from speechssl.trainer import Seeds, init_state, train

from conftest import count_calls, fast_config

SETUP = dict(num_speakers=3, utts_per_speaker=3, seed=5, restarts=1)


def test_desk_setup_matches_the_chain_it_replaces():
    setup = desk_setup(fast_config(), **SETUP)
    corpus = synth_corpus(3, 3, duration=0.1, seed=5)     # utterance_length 1600
    frames = {u.id: mfcc(u.waveform, setup.config.mfcc).frames for u in corpus}
    _, labels = fit_labels(frames, setup.config.encoder.num_classes, seed=5, restarts=1)
    for got, want in ((setup.corpus, corpus), (setup.overlap, overlapped_corpus(corpus, 5))):
        assert [(u.id, u.speaker, u.waveform.tolist()) for u in got] == [
            (u.id, u.speaker, u.waveform.tolist()) for u in want]
    assert {k: v.labels.tolist() for k, v in setup.labels.items()} == {
        k: v.labels.tolist() for k, v in labels.items()}


def test_run_grid_matches_separate_train_and_score_calls():
    setup = desk_setup(fast_config(steps=2), **SETUP)
    runs = run_grid(setup, [(0.0, True), (0.5, False)], [1])
    assert list(runs) == [(0.0, True, 1), (0.5, False, 1)]
    tap = setup.config.encoder.tap_layer
    for (p, speaker_loss, seed), run in runs.items():
        config = dataclasses.replace(setup.config, mix_probability=p,
                                     speaker_loss=speaker_loss, seeds=run_seeds(seed))
        state = train(init_state(config), setup.corpus, setup.labels)
        assert run.state.config == config and run.metrics == state.metrics
        assert np.array_equal(run.state.params.flat, state.params.flat)
        for score, corpus in ((run.separability_clean, setup.corpus),
                              (run.separability_overlap, setup.overlap)):
            means, tags = utterance_means(state, corpus)
            assert score == loo_nearest_centroid_accuracy(means[tap], tags)


def test_second_score_read_encodes_nothing(monkeypatch):
    setup = desk_setup(fast_config(steps=1), **SETUP)
    run = run_grid(setup, [(0.0, True)], [0])[(0.0, True, 0)]
    calls = count_calls(monkeypatch, probe, "forward")
    first = (run.separability_clean, run.separability_overlap)
    assert calls["forward"] == 6        # two corpora of 9 utterances, batch_size 3
    assert (run.separability_clean, run.separability_overlap) == first
    assert calls["forward"] == 6


def test_run_seeds_rule():
    assert run_seeds(4) == Seeds(4000, 4001, 4002, 4003, 4004, 4005)
