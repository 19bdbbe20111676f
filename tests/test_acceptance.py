"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight training
runs of criteria 6-7 share one module-scoped fixture; everything is seeded,
so results are bit-reproducible across runs of this suite.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from speechssl.ablate import desk_setup, run_grid, run_seeds
from speechssl.augment import mix_batch
from speechssl.corpus import Batch, Utterance, Waveform
from speechssl.encoder import BatchMask
from speechssl.losses import (
    LossWeights,
    content_loss_batch,
    contrastive_loss,
    diversity_loss,
    sample_negatives,
)
from speechssl.pseudolabel import kmeans_fit
from speechssl.probe import masked_prediction_accuracy
from speechssl.quantizer import (
    QuantizerConfig,
    gumbel_noise,
    gumbel_probs,
    init_quantizer_params,
    quantize,
)
from speechssl.pseudolabel import PseudoLabelSequence
from speechssl.trainer import TrainConfig, grad_check, init_state, load_checkpoint, train

DESK_SEEDS = (0, 1, 2)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def desk():
    """Desk-scale corpus, labels, and the trained and scored runs shared by
    criteria 6-7: p in {0, 0.2, 0.5} with the speaker loss, plus
    speaker-loss-off at p=0.2, three seeds each."""
    setup = desk_setup(TrainConfig())  # steps=300, B=8, d=64, N=4, k=16, p=0.2
    variants = ((0.2, True), (0.2, False), (0.0, True), (0.5, True))
    return setup, run_grid(setup, variants, DESK_SEEDS)


class TestCriterion1LossValueOracles:
    def test_loss_value_oracles(self):
        k = 16
        logits = np.zeros((4, k))
        labels = PseudoLabelSequence(np.array([3, 7, 1, 0]), k)
        content, _ = content_loss_batch(logits[None], [labels],
                                        BatchMask.from_indices([[0, 1, 2, 3]], 4))
        content_err = abs(content - math.log(k))

        v = 32
        uniform_div, _ = diversity_loss(np.full((2, v), 1.0 / v))
        uniform_err = abs(uniform_div - (-math.log(v) / v))
        onehot = np.zeros((2, v))
        onehot[:, 5] = 1.0
        onehot_div, _ = diversity_loss(onehot)

        taps = [np.array([[1.0, 0.0]])]
        q = np.array([[0.0, 1.0]])
        mask = BatchMask.from_indices([[0]], 1)
        contr = contrastive_loss(taps, q, mask, LossWeights(kappa=1.0, num_negatives=0),
                                 sample_negatives(mask, 0, 0))
        contr_err = abs(contr.value - math.log(2.0))

        worst = max(content_err, uniform_err, abs(onehot_div), contr_err)
        report("criterion 1 (loss-value oracles)", worst < 1e-10,
               f"max closed-form error {worst:.2e} (tolerance 1e-10)")


class TestCriterion2BruteForce:
    def test_contrastive_matches_enumeration(self):
        rng = np.random.default_rng(42)
        b, t, d = 3, 6, 8
        taps = [rng.standard_normal((t, d)) for _ in range(b)]
        masks = [
            sorted(rng.choice(t, size=int(rng.integers(2, t + 1)), replace=False))
            for _ in range(b)
        ]
        qs = [rng.standard_normal((len(m), d)) for m in masks]
        mask = BatchMask.from_indices(masks, t)
        weights = LossWeights(kappa=0.1, num_negatives=5)
        negatives = sample_negatives(mask, weights.num_negatives, 9)
        picks, _ = negatives
        q_all = np.concatenate(qs)
        got = contrastive_loss(taps, q_all, mask, weights, negatives)

        pos_sum = neg_sum = 0.0
        n_pos = n_neg = 0
        p = 0                           # running masked-row index
        for bi in range(b):
            anchors = taps[bi][masks[bi]]
            for i in range(anchors.shape[0]):
                def cos(x, y):
                    return float(x @ y) / (np.linalg.norm(x) * np.linalg.norm(y))

                pos_sum += -math.log(
                    1.0 / (1.0 + math.exp(-cos(anchors[i], qs[bi][i]) / weights.kappa))
                )
                n_pos += 1
                for j in picks[p]:
                    neg_sum += -math.log(
                        1.0 / (1.0 + math.exp(cos(anchors[i], q_all[j]) / weights.kappa))
                    )
                    n_neg += 1
                p += 1
        oracle = 0.5 * (pos_sum / n_pos) + 0.5 * (neg_sum / n_neg)
        err = abs(got.value - oracle)
        report("criterion 2a (contrastive brute force)", err < 1e-12,
               f"B=3,T=6 enumeration difference {err:.2e} (tolerance 1e-12)")

    def test_kmeans_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(3):
            points = rng.standard_normal((8, 2))
            best = np.inf
            for bits in itertools.product([0, 1], repeat=8):
                sse = 0.0
                for side in (0, 1):
                    members = points[np.array(bits) == side]
                    if members.size:
                        sse += float(np.sum((members - members.mean(axis=0)) ** 2))
                best = min(best, sse)
            model = kmeans_fit(points, 2, seed=trial, restarts=20)
            worst = max(worst, abs(model.inertia - best))
        report("criterion 2b (k-means brute force)", worst < 1e-9,
               f"max |inertia - exhaustive optimum| = {worst:.2e} over 3 trials")


class TestCriterion3GradientSuite:
    def test_full_loss_gradients(self):
        rep = grad_check(seed=0, num_coords=220)
        report("criterion 3 (gradient suite)",
               rep.num_coords >= 200 and rep.max_rel_error < 1e-4,
               f"{rep.num_coords} coords across {len(rep.per_group)} groups, "
               f"max rel error {rep.max_rel_error:.2e} (tolerance 1e-4)")


class TestCriterion4MixingStatistics:
    def test_algorithm_statistics(self):
        b, length, p, batches = 8, 64, 0.2, 10_000
        rng = np.random.default_rng(123)
        base = Batch(
            [Utterance(f"u{i}", Waveform(rng.uniform(-0.5, 0.5, length), 8000))
             for i in range(b)],
            length,
        )
        clean = np.stack([u.waveform.samples for u in base.utterances])
        selected = 0
        length_counts = np.zeros(length // 2)
        fraction_ok = True
        outside_ok = True
        for i in range(batches):
            mixed = mix_batch(base, p, seed=i)
            selected += len(mixed.specs)
            for spec in mixed.specs:
                length_counts[spec.mix_length - 1] += 1
                if spec.mix_length / length > 0.5:
                    fraction_ok = False
            out = np.stack([u.waveform.samples for u in mixed.batch.utterances])
            touched = np.zeros_like(out, dtype=bool)
            for spec in mixed.specs:
                s0 = spec.target_start - 1
                touched[spec.target_index, s0 : s0 + spec.mix_length] = True
            if not np.array_equal(out[~touched], clean[~touched]):
                outside_ok = False
        n = b * batches
        se = math.sqrt(p * (1 - p) / n)
        frac_err = abs(selected / n - p)
        _, pvalue = stats.chisquare(length_counts)
        passed = (frac_err < 3 * se) and (pvalue > 0.01) and fraction_ok and outside_ok
        report("criterion 4 (mixing statistics)", passed,
               f"selection |{selected / n:.4f}-{p}|={frac_err:.5f} (<3se={3 * se:.5f}), "
               f"chi-square p={pvalue:.3f} (>0.01), fraction<=0.5 {fraction_ok}, "
               f"unmixed-identical {outside_ok} over {batches} batches")


class TestCriterion5Determinism:
    def test_identical_runs_and_resume(self, tmp_path):
        setup = desk_setup(TrainConfig(steps=40, checkpoint_every=20, seeds=run_seeds(4)),
                           restarts=2)
        config, corpus, labels = setup.config, setup.corpus, setup.labels

        train(init_state(config), corpus, labels, out_dir=tmp_path / "a")
        train(init_state(config), corpus, labels, out_dir=tmp_path / "b")
        same_metrics = (tmp_path / "a/metrics.jsonl").read_bytes() == (
            tmp_path / "b/metrics.jsonl").read_bytes()
        same_params = (tmp_path / "a/checkpoint_final.bin").read_bytes() == (
            tmp_path / "b/checkpoint_final.bin").read_bytes()

        train(init_state(config), corpus, labels, out_dir=tmp_path / "c", until_step=20)
        resumed = load_checkpoint(tmp_path / "c/checkpoint_final")
        train(resumed, corpus, labels, out_dir=tmp_path / "c")
        resume_metrics = (tmp_path / "a/metrics.jsonl").read_bytes() == (
            tmp_path / "c/metrics.jsonl").read_bytes()
        resume_params = (tmp_path / "a/checkpoint_final.bin").read_bytes() == (
            tmp_path / "c/checkpoint_final.bin").read_bytes()
        report("criterion 5 (determinism & checkpointing)",
               same_metrics and same_params and resume_metrics and resume_params,
               f"rerun metrics identical {same_metrics}, rerun params identical "
               f"{same_params}, resumed metrics identical {resume_metrics}, "
               f"resumed params identical {resume_params}")


class TestCriterion6TrainingBehavior:
    def test_loss_descends(self, desk):
        _, runs = desk
        worst = 0.0
        for run_seed in DESK_SEEDS:
            metrics = runs[(0.2, True, run_seed)].metrics
            first = np.mean([m["total"] for m in metrics[:10]])
            last = np.mean([m["total"] for m in metrics[-len(metrics) // 10:]])
            worst = max(worst, last / first)
        report("criterion 6a (loss descent)", worst < 0.8,
               f"max final/first-10 total-loss ratio {worst:.3f} (< 0.8) over 3 seeds")

    def test_masked_prediction_beats_chance(self, desk):
        setup, runs = desk
        k = setup.config.encoder.num_classes
        accs = [
            masked_prediction_accuracy(runs[(0.2, True, s)].state, setup.corpus,
                                       setup.labels, seed=99)
            for s in DESK_SEEDS
        ]
        passed = min(accs) > 2.0 / k
        report("criterion 6b (masked pseudo-label accuracy)", passed,
               f"accuracies {[f'{a:.3f}' for a in accs]} all > 2/k = {2.0 / k:.3f}")

    def test_contrastive_improves_separability(self, desk):
        _, runs = desk
        gaps = [
            runs[(0.2, True, s)].separability_clean - runs[(0.2, False, s)].separability_clean
            for s in DESK_SEEDS
        ]
        mean_gap = float(np.mean(gaps))
        report("criterion 6c (speaker separability gain)", mean_gap >= 0.05,
               f"tap-layer separability gap {[f'{g:+.3f}' for g in gaps]}, "
               f"mean {mean_gap:+.3f} (>= +0.05 over 3 seeds)")


class TestCriterion7MixingSweep:
    def test_sweep_completes_and_orders(self, desk):
        _, runs = desk
        means = {
            p: float(np.mean([runs[(p, True, s)].separability_overlap for s in DESK_SEEDS]))
            for p in (0.0, 0.2, 0.5)
        }
        passed = means[0.2] >= means[0.0] and means[0.5] >= means[0.0]
        report("criterion 7 (mixing-ratio sweep)", passed,
               "overlap separability means "
               f"p=0.0: {means[0.0]:.4f}, p=0.2: {means[0.2]:.4f}, "
               f"p=0.5: {means[0.5]:.4f} (mixing runs >= clean run)")


class TestCriterion8QuantizerBehavior:
    def test_quantizer_contracts(self):
        cfg = QuantizerConfig(num_codebooks=2, num_entries=8, entry_dim=4)
        params = init_quantizer_params(cfg, 8, seed=1)
        rng = np.random.default_rng(3)
        latent = rng.standard_normal((6, 8))
        out = quantize(latent, params, cfg, 0.7,
                       gumbel_noise([5], [len(latent)], cfg), hard=True)
        row_err = float(np.max(np.abs(out.probs.sum(axis=-1) - 1.0)))

        logits = rng.standard_normal((4, 2, 8))
        noise = rng.gumbel(size=logits.shape)
        taus = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0]
        maxima = [gumbel_probs(logits, t, noise).max(axis=-1) for t in taus]
        monotone = all(np.all(hi <= lo + 1e-12) for lo, hi in zip(maxima, maxima[1:]))

        straight_through = True
        for f in range(latent.shape[0]):
            picked = np.concatenate([
                params["quant/codebook"][g, out.hard_indices[f, g]]
                for g in range(cfg.num_codebooks)
            ])
            expected = picked @ params["quant/proj_out/W"] + params["quant/proj_out/b"]
            if not np.allclose(out.q[f], expected, atol=1e-12):
                straight_through = False
        passed = row_err < 1e-6 and monotone and straight_through
        report("criterion 8 (quantizer behavior)", passed,
               f"row-sum error {row_err:.2e} (<1e-6), max-prob non-increasing in tau "
               f"{monotone}, hard forward uses argmax entries {straight_through}")
