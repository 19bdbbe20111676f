import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechssl.encoder import BatchMask
from speechssl.losses import (
    LossWeights,
    combine,
    content_loss_batch,
    contrastive_loss,
    diversity_loss,
    sample_negatives,
)
from speechssl.pseudolabel import PseudoLabelSequence


def make_labels(values, k):
    return PseudoLabelSequence(np.asarray(values, dtype=np.int64), k)


def single_utterance_loss(logits, labels, indices):
    """The batch loss of one utterance, with its (T, C) gradient."""
    mask = BatchMask.from_indices([indices], np.shape(logits)[0])
    loss, dlogits = content_loss_batch(np.asarray(logits)[None], [labels], mask)
    return loss, dlogits[0]


class TestContentLoss:
    def test_uniform_logits_ln_k(self):
        t, k = 6, 5
        logits = np.zeros((t, k))
        labels = make_labels([0, 1, 2, 3, 4, 0], k)
        mask = [0, 2, 4]
        loss, _ = single_utterance_loss(logits, labels, mask)
        assert abs(loss - math.log(k)) < 1e-10

    def test_infinite_margin_goes_to_zero(self):
        t, k = 3, 4
        labels = make_labels([1, 1, 1], k)
        mask = [0, 1, 2]
        losses = []
        for margin in (5.0, 15.0, 40.0):
            logits = np.zeros((t, k))
            logits[:, 1] = margin
            loss, _ = single_utterance_loss(logits, labels, mask)
            losses.append(loss)
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        t, k = 7, 5
        logits = rng.standard_normal((t, k)) * 3
        labels = make_labels(rng.integers(0, k, t), k)
        mask = [1, 2, 5]
        # straight-line oracle: per-frame softmax and log
        total = 0.0
        for idx in mask:
            e = np.exp(logits[idx] - logits[idx].max())
            p = e / e.sum()
            total += -math.log(p[labels.labels[idx]])
        loss, _ = single_utterance_loss(logits, labels, mask)
        assert abs(loss - total / len(mask)) < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            single_utterance_loss(np.zeros((3, 2)), make_labels([0, 1, 0], 2), [])

    def test_label_exceeds_classes(self):
        labels = make_labels([3], 4)
        with pytest.raises(ValueError, match="classes"):
            single_utterance_loss(np.zeros((1, 2)), labels, [0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((5, 4))
        labels = make_labels(rng.integers(0, 4, 5), 4)
        mask = [0, 2, 3]
        _, grad = single_utterance_loss(logits, labels, mask)
        h = 1e-6
        for t in range(5):
            for j in range(4):
                logits[t, j] += h
                up, _ = single_utterance_loss(logits, labels, mask)
                logits[t, j] -= 2 * h
                down, _ = single_utterance_loss(logits, labels, mask)
                logits[t, j] += h
                fd = (up - down) / (2 * h)
                assert abs(grad[t, j] - fd) < 1e-8

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            logits = rng.standard_normal((4, 3)) * 5
            labels = make_labels(rng.integers(0, 3, 4), 3)
            loss, _ = single_utterance_loss(logits, labels, [0, 1])
            assert loss >= 0.0

    def test_batch_mean_over_all_masked_frames(self):
        rng = np.random.default_rng(2)
        logits = [rng.standard_normal((4, 3)), rng.standard_normal((6, 3))]
        labels = [make_labels(rng.integers(0, 3, 4), 3), make_labels(rng.integers(0, 3, 6), 3)]
        masks = [[0], [1, 2, 3]]
        # the batch is stacked (B, T, C): pad the 4-frame utterance with two
        # unmasked frames, which the loss must ignore
        stacked = np.stack([np.concatenate([logits[0], np.full((2, 3), 50.0)]), logits[1]])
        padded_labels = [make_labels(np.concatenate([labels[0].labels, [0, 0]]), 3), labels[1]]
        loss, grads = content_loss_batch(stacked, padded_labels,
                                         BatchMask.from_indices(masks, 6))
        assert grads.shape == (2, 6, 3)
        assert np.all(grads[0, 4:] == 0.0)
        # oracle: pool every masked frame, then average
        total = 0.0
        for lg, lb, m in zip(logits, labels, masks):
            for idx in m:
                e = np.exp(lg[idx] - lg[idx].max())
                total += -math.log((e / e.sum())[lb.labels[idx]])
        assert abs(loss - total / 4) < 1e-12


class TestContrastiveLoss:
    def aligned(self, vecs_list):
        """Build taps, quantized rows and the mask where every frame is masked."""
        taps = [np.asarray(tap, dtype=np.float64) for tap, _ in vecs_list]
        q = np.concatenate([np.asarray(q, dtype=np.float64) for _, q in vecs_list])
        t = taps[0].shape[0]
        return taps, q, BatchMask.from_indices([range(t)] * len(taps), t)

    def test_single_positive_orthogonal_ln2(self):
        # one masked step, K=0, sim=0 -> -log(sigmoid(0)) = ln 2
        taps, q, mask = self.aligned([
            (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
        ])
        weights = LossWeights(kappa=1.0, num_negatives=0)
        res = contrastive_loss(taps, q, mask, weights, seed=0)
        assert abs(res.value - math.log(2.0)) < 1e-10

    def test_one_positive_one_negative_closed_form(self):
        # positive sim=1 and negative sim=1 with kappa=1:
        # mean of (-log sigmoid(1), -log sigmoid(-1)) = 0.813262
        taps, q, mask = self.aligned([
            (np.array([[2.0, 0.0]]), np.array([[3.0, 0.0]])),
            (np.array([[1.0, 1.0]]), np.array([[0.5, 0.0]])),
        ])
        weights = LossWeights(kappa=1.0, num_negatives=1)
        res = contrastive_loss(taps, q, mask, weights, seed=0)
        # positives: (b0: sim 1), (b1: sim(l=[1,1], q=[.5,0]) = 1/sqrt(2))
        # negatives: b0 vs q of b1 (sim 1), b1 vs q of b0 (sim cos45)
        s = 1.0 / math.sqrt(2.0)
        expected = (
            -math.log(1 / (1 + math.exp(-1.0)))
            - math.log(1 / (1 + math.exp(-s)))
            - math.log(1 / (1 + math.exp(1.0)))
            - math.log(1 / (1 + math.exp(s)))
        ) / 4
        assert abs(res.value - expected) < 1e-12
        scalar_pair = (0.3132616875182228 + 1.3132616875182228) / 2
        single_pair = (-math.log(1 / (1 + math.exp(-1.0)))
                       - math.log(1 / (1 + math.exp(1.0)))) / 2
        assert abs(single_pair - scalar_pair) < 1e-12

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(12)
        b, t, d = 3, 6, 4
        taps = [rng.standard_normal((t, d)) for _ in range(b)]
        masks = [
            sorted(rng.choice(t, size=rng.integers(2, t), replace=False))
            for _ in range(b)
        ]
        qs = [rng.standard_normal((len(m), d)) for m in masks]
        mask = BatchMask.from_indices(masks, t)
        weights = LossWeights(kappa=0.3, num_negatives=3)
        seed = 77
        res = contrastive_loss(taps, np.concatenate(qs), mask, weights, seed=seed)

        # Oracle: exhaustive loop over positives with the shared seeded draws;
        # positive and negative term means carry equal weight
        picks, pool, _ = sample_negatives(mask, weights.num_negatives, seed)
        pos_sum, neg_sum = 0.0, 0.0
        n_pos, n_neg = 0, 0

        def cos(a, bvec):
            return float(a @ bvec) / (np.linalg.norm(a) * np.linalg.norm(bvec))

        for bi in range(b):
            anchor = taps[bi][masks[bi]]
            for i in range(anchor.shape[0]):
                sim = cos(anchor[i], qs[bi][i])
                pos_sum += -math.log(1.0 / (1.0 + math.exp(-sim / weights.kappa)))
                n_pos += 1
                for j in picks[bi][i]:
                    ob, oi = pool[j]
                    sim = cos(anchor[i], qs[ob][oi])
                    neg_sum += -math.log(1.0 / (1.0 + math.exp(sim / weights.kappa)))
                    n_neg += 1
        expected = 0.5 * (pos_sum / n_pos) + 0.5 * (neg_sum / n_neg)
        assert abs(res.value - expected) < 1e-12

    def test_single_utterance_with_negatives_rejected(self):
        taps, q, mask = self.aligned([(np.ones((2, 3)), np.ones((2, 3)))])
        with pytest.raises(ValueError, match="single utterance"):
            contrastive_loss(taps, q, mask, LossWeights(num_negatives=2), seed=0)

    def test_rescaling_latent_invariance(self):
        rng = np.random.default_rng(4)
        taps = [rng.standard_normal((3, 5)) for _ in range(2)]
        mask = BatchMask.from_indices([[0, 1, 2]] * 2, 3)
        q = np.concatenate([rng.standard_normal((3, 5)) for _ in range(2)])
        weights = LossWeights(kappa=0.5, num_negatives=2)
        base = contrastive_loss(taps, q, mask, weights, seed=5).value
        taps[0] = taps[0].copy()
        taps[0][1] *= 37.5
        scaled = contrastive_loss(taps, q, mask, weights, seed=5).value
        assert abs(base - scaled) < 1e-10

    # K=5 exceeds either utterance's pool of other-utterance steps (3 and 2),
    # so the replacement fallback draws the same negative more than once
    @pytest.mark.parametrize("num_negatives", [2, 5], ids=["distinct", "duplicate-picks"])
    def test_gradients_match_finite_differences(self, num_negatives):
        rng = np.random.default_rng(9)
        b, t, d = 2, 4, 3
        taps = [rng.standard_normal((t, d)) for _ in range(b)]
        masks = [[0, 2], [1, 2, 3]]
        mask = BatchMask.from_indices(masks, t)
        qvals = [rng.standard_normal((len(m), d)) for m in masks]
        weights = LossWeights(kappa=0.4, num_negatives=num_negatives)

        def value(taps_, qvals_):
            return contrastive_loss(
                taps_, np.concatenate(qvals_), mask, weights, seed=3
            ).value

        res = contrastive_loss(taps, np.concatenate(qvals), mask, weights, seed=3)
        # the gradient at the full tap matrices: the masked rows' gradients
        # scattered into zeros
        dtaps = np.zeros((b * t, d))
        dtaps[mask.rows] = res.danchors
        dqs = np.split(res.dq, np.cumsum(mask.counts)[:-1])
        h = 1e-6
        for arrs, grads in ((taps, dtaps.reshape(b, t, d)), (qvals, dqs)):
            for bi in range(b):
                flat = arrs[bi].reshape(-1)
                for c in range(flat.size):
                    orig = flat[c]
                    flat[c] = orig + h
                    up = value(taps, qvals)
                    flat[c] = orig - h
                    down = value(taps, qvals)
                    flat[c] = orig
                    fd = (up - down) / (2 * h)
                    an = grads[bi].reshape(-1)[c]
                    assert abs(an - fd) / max(abs(an) + abs(fd), 1e-8) < 1e-5

    def test_replacement_fallback_flag(self):
        rng = np.random.default_rng(1)
        taps = [rng.standard_normal((2, 3)) for _ in range(2)]
        mask = BatchMask.from_indices([[0, 1]] * 2, 2)
        q = np.concatenate([rng.standard_normal((2, 3)) for _ in range(2)])
        res = contrastive_loss(taps, q, mask, LossWeights(num_negatives=10), seed=0)
        assert res.with_replacement
        assert res.num_negatives == 4 * 10

    def test_empty_mask_rejected(self):
        taps = [np.ones((2, 3)), np.ones((2, 3))]
        mask = BatchMask.from_indices([[], [0]], 2)
        q = np.concatenate([np.ones((0, 3)), np.ones((1, 3))])
        with pytest.raises(ValueError, match="non-empty"):
            contrastive_loss(taps, q, mask, LossWeights(num_negatives=0), seed=0)


class TestDiversityLoss:
    def test_uniform_closed_form(self):
        for g, v in ((1, 4), (2, 32), (3, 7)):
            value, _ = diversity_loss(np.full((g, v), 1.0 / v))
            assert abs(value - (-math.log(v) / v)) < 1e-12
        value, _ = diversity_loss(np.full((2, 32), 1.0 / 32))
        assert abs(value - (-0.10830424696265687)) < 1e-9

    def test_one_hot_zero(self):
        p = np.zeros((2, 4))
        p[:, 1] = 1.0
        value, _ = diversity_loss(p)
        assert value == 0.0

    def test_matches_naive_sum_oracle(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0.1, 1.0, (2, 5))
        p = raw / raw.sum(axis=1, keepdims=True)
        total = 0.0
        for g in range(2):
            for v in range(5):
                total += p[g, v] * math.log(p[g, v])
        value, _ = diversity_loss(p)
        assert abs(value - total / 10) < 1e-12

    def test_row_sum_validated(self):
        with pytest.raises(ValueError, match="sum"):
            diversity_loss(np.full((2, 4), 0.3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        raw = rng.uniform(0.2, 1.0, (2, 4))
        p = raw / raw.sum(axis=1, keepdims=True)
        _, grad = diversity_loss(p)
        h = 1e-7
        for g in range(2):
            for v in range(4):
                bump = np.zeros_like(p)
                bump[g, v] = h
                # perturb off the simplex slightly; validation tolerance absorbs h
                up, _ = diversity_loss(p + bump)
                down, _ = diversity_loss(p - bump)
                fd = (up - down) / (2 * h)
                assert abs(grad[g, v] - fd) < 1e-6

    @given(seed=st.integers(min_value=0, max_value=10**6),
           v=st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, seed, v):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 1.0, (2, v)) + 1e-12
        p = raw / raw.sum(axis=1, keepdims=True)
        value, _ = diversity_loss(p)
        assert -math.log(v) / v - 1e-9 <= value <= 1e-12


class TestCombine:
    def test_zero_weights(self):
        out = combine(1.5, -0.1, 2.0, LossWeights(alpha=0.0, beta=0.0))
        assert out.total == 1.5
        assert out.speaker == 1.5

    def test_arithmetic(self):
        out = combine(1.0, -0.1, 2.0, LossWeights(alpha=0.1, beta=1.0))
        assert abs(out.speaker - 0.99) < 1e-15
        assert abs(out.total - 2.99) < 1e-15

    @given(
        a=st.floats(-5, 5), a2=st.floats(-5, 5), dv=st.floats(-1, 0),
        dv2=st.floats(-1, 0), c=st.floats(0, 5), c2=st.floats(0, 5),
        alpha=st.floats(0, 2), beta=st.floats(0, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, a2, dv, dv2, c, c2, alpha, beta):
        w = LossWeights(alpha=alpha, beta=beta)
        lhs = combine(a + a2, dv + dv2, c + c2, w)
        r1 = combine(a, dv, c, w)
        r2 = combine(a2, dv2, c2, w)
        assert abs(lhs.speaker - (r1.speaker + r2.speaker)) < 1e-9
        assert abs(lhs.total - (r1.total + r2.total)) < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            combine(np.nan, 0.0, 0.0, LossWeights())

    def test_identity_invariants(self):
        w = LossWeights(alpha=0.25, beta=0.5)
        out = combine(1.0, -0.2, 3.0, w)
        assert abs(out.speaker - (out.contrastive + w.alpha * out.diversity)) < 1e-15
        assert abs(out.total - (out.speaker + w.beta * out.content)) < 1e-15
