"""Analytic backward pass against finite differences, and desk-scale fitting."""

import numpy as np
import pytest

from rsvl.errors import DivergenceDetected
from rsvl.trajectory import (
    PARAM_FIELDS,
    DecoderConfig,
    backward,
    decode,
    fit,
    grad_fd,
    init_weights,
    mse_loss,
)
import rsvl.trajectory


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


TOY_LATENT = np.array([0.5, -0.25, 1.0, 0.75])
TOY_GT = [
    [0.3, 0.4, 0.5, 0.6, 0.5, 0.4],
    [0.4, 0.5, 0.6, 0.7, 0.6, 0.5],
    [0.5, 0.6, 0.7, 0.8, 0.7, 0.6],
]
TOY_CFG = DecoderConfig(d_e=4, d_h=8, max_steps=3, termination_threshold=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_backward_matches_finite_differences(seed):
    # tiny threshold so the step count cannot flip under fd perturbation
    cfg = DecoderConfig(d_e=3, d_h=3, max_steps=4, termination_threshold=1e-30)
    rng = np.random.default_rng(100 + seed)
    w = init_weights(cfg, seed=seed)
    x = rng.uniform(-1.0, 1.0, size=3)
    gt = rng.uniform(0.2, 0.8, size=(4, 6))

    analytic = backward(x, w, cfg, gt)
    numeric = grad_fd(lambda ww: mse_loss(decode(x, ww, cfg), gt), w, eps=1e-5)

    worst = 0.0
    for name in PARAM_FIELDS:
        a = getattr(analytic, name).ravel()
        n = getattr(numeric, name).ravel()
        for ai, ni in zip(a, n):
            worst = max(worst, rel_err(float(ai), float(ni)))
    assert worst < 1e-4, worst


def test_backward_zero_at_fixed_point():
    # ground truth equal to the decoder's own output leaves nothing to move
    cfg = DecoderConfig(d_e=3, d_h=4, max_steps=3, termination_threshold=1e-30)
    w = init_weights(cfg, seed=8)
    x = np.array([0.4, -0.1, 0.2])
    gt = decode(x, w, cfg).as_array()
    grads = backward(x, w, cfg, gt)
    for name in PARAM_FIELDS:
        assert np.allclose(getattr(grads, name), 0.0, atol=1e-15)


def test_backward_ignores_unreached_ground_truth():
    # the tail penalty does not depend on the weights, so gradients agree
    # whether or not extra ground-truth rows exist past the decoded steps
    cfg = DecoderConfig(d_e=2, d_h=3, max_steps=2, termination_threshold=1e-30)
    w = init_weights(cfg, seed=3)
    x = np.array([1.0, -0.5])
    rng = np.random.default_rng(0)
    gt_short = rng.uniform(0.2, 0.8, size=(2, 6))
    gt_long = np.vstack([gt_short, rng.uniform(0.2, 0.8, size=(3, 6))])
    a = backward(x, w, cfg, gt_short)
    b = backward(x, w, cfg, gt_long)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_grad_fd_leaves_weights_untouched():
    cfg = DecoderConfig(d_e=2, d_h=2, max_steps=2, termination_threshold=1e-30)
    w = init_weights(cfg, seed=1)
    before = {f: getattr(w, f).copy() for f in PARAM_FIELDS}
    grad_fd(lambda ww: mse_loss(decode(np.ones(2), ww, cfg), [[0.5] * 6] * 2), w)
    for f in PARAM_FIELDS:
        assert np.array_equal(before[f], getattr(w, f))


# --- fit -----------------------------------------------------------------------


def test_toy_fit_converges_below_ten_percent():
    w, curve = fit(TOY_LATENT, TOY_GT, TOY_CFG, lr=2.0, iters=500, seed=0)
    assert len(curve) == 501
    assert curve[-1] < 0.1 * curve[0]
    # the fitted decoder actually tracks the targets, and fit reports its loss exactly
    assert mse_loss(decode(TOY_LATENT, w, TOY_CFG), TOY_GT) == curve[-1]


@pytest.mark.parametrize("seed", range(8))
def test_fit_curve_ends_at_the_replayed_loss(seed):
    rng = np.random.default_rng(200 + seed)
    d_e, d_h, steps, n_gt = (int(v) for v in rng.integers(2, 9, size=4))
    cfg = DecoderConfig(d_e=d_e, d_h=d_h, max_steps=steps, termination_threshold=1e-3)
    x = rng.uniform(-1.0, 1.0, size=d_e)
    gt = rng.uniform(0.05, 0.95, size=(n_gt, 6))
    w, curve = fit(x, gt, cfg, lr=0.5, iters=3, seed=seed)
    assert mse_loss(decode(x, w, cfg), gt) == curve[-1]


def test_fit_curve_has_iters_plus_one_entries():
    _, curve = fit(TOY_LATENT, TOY_GT, TOY_CFG, lr=0.1, iters=7, seed=0)
    assert len(curve) == 8
    assert all(np.isfinite(v) for v in curve)


def test_fit_zero_iterations_returns_initialization():
    w, curve = fit(TOY_LATENT, TOY_GT, TOY_CFG, lr=0.1, iters=0, seed=12)
    ref = init_weights(TOY_CFG, seed=12)
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(w, f), getattr(ref, f))
    assert len(curve) == 1


def test_fit_is_seeded():
    wa, ca = fit(TOY_LATENT, TOY_GT, TOY_CFG, lr=0.5, iters=20, seed=4)
    wb, cb = fit(TOY_LATENT, TOY_GT, TOY_CFG, lr=0.5, iters=20, seed=4)
    assert ca == cb
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(wa, f), getattr(wb, f))


def test_fit_trend_is_downward_on_the_toy_problem():
    _, curve = fit(TOY_LATENT, TOY_GT, TOY_CFG, lr=0.5, iters=200, seed=0)
    # not asserting monotonicity per step, just that the trend holds
    assert curve[-1] < curve[0]
    assert np.mean(curve[-20:]) < np.mean(curve[:20])


def test_fit_raises_on_divergence(monkeypatch):
    # plain GD on this loss is bounded, so force a blow-up at the seam
    real = rsvl.trajectory._loss_and_grads

    def explode(h_tra, weights, cfg, gt):
        loss, grads = real(h_tra, weights, cfg, gt)
        return float("inf"), grads

    monkeypatch.setattr(rsvl.trajectory, "_loss_and_grads", explode)
    with pytest.raises(DivergenceDetected):
        fit(TOY_LATENT, TOY_GT, TOY_CFG, lr=0.5, iters=5, seed=0)


def test_fit_raises_on_nan_weights(monkeypatch):
    real = rsvl.trajectory._loss_and_grads

    def poison(h_tra, weights, cfg, gt):
        loss, grads = real(h_tra, weights, cfg, gt)
        bad = grads.copy()
        bad.W_out = np.full_like(bad.W_out, np.nan)
        return loss, bad

    monkeypatch.setattr(rsvl.trajectory, "_loss_and_grads", poison)
    with pytest.raises(DivergenceDetected):
        fit(TOY_LATENT, TOY_GT, TOY_CFG, lr=0.5, iters=5, seed=0)
