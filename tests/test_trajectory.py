"""Trajectory decoder: GRU cell, termination loop, loss."""

import math

import numpy as np
import pytest

from rsvl.errors import DimensionMismatch, EmptyGroundTruth, InvariantViolation
from rsvl.trajectory import (
    PARAM_FIELDS,
    DecoderConfig,
    Termination,
    Trajectory,
    TrajState,
    decode,
    gru_step,
    init_weights,
    latent_projection,
    mse_loss,
    zero_weights,
)


def small_cfg(**over):
    kw = dict(d_e=3, d_h=4, max_steps=5)
    kw.update(over)
    return DecoderConfig(**kw)


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


# --- config and weight plumbing -------------------------------------------


def test_config_invariants():
    with pytest.raises(InvariantViolation):
        DecoderConfig(d_e=0, d_h=4, max_steps=5)
    with pytest.raises(InvariantViolation):
        DecoderConfig(d_e=3, d_h=4, max_steps=0)
    with pytest.raises(InvariantViolation):
        DecoderConfig(d_e=3, d_h=4, max_steps=5, termination_threshold=0.0)


def test_init_weights_uniform_band_and_seeded():
    cfg = small_cfg()
    w = init_weights(cfg, seed=0)
    w2 = init_weights(cfg, seed=0)
    w3 = init_weights(cfg, seed=1)
    flat = np.concatenate([getattr(w, f).ravel() for f in PARAM_FIELDS])
    assert float(flat.min()) >= -0.1 and float(flat.max()) <= 0.1
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(w, f), getattr(w2, f))
    assert any(not np.array_equal(getattr(w, f), getattr(w3, f)) for f in PARAM_FIELDS)


def test_weight_shape_check_names_the_field():
    cfg = small_cfg()
    bad = init_weights(cfg, seed=0).copy()
    bad.W_out = np.zeros((5, cfg.d_h))
    with pytest.raises(DimensionMismatch) as exc:
        bad.check(cfg)
    assert "W_out" in str(exc.value)
    assert "expected (6, 4)" in str(exc.value)


def test_zero_weights_are_zero_everywhere():
    w = zero_weights(small_cfg())
    for f in PARAM_FIELDS:
        assert not getattr(w, f).any()


def test_copy_is_deep():
    w = init_weights(small_cfg(), seed=3)
    c = w.copy()
    c.W_z[0, 0] += 1.0
    assert w.W_z[0, 0] != c.W_z[0, 0]


# --- cell-level algebra ----------------------------------------------------


def test_latent_projection_is_affine():
    cfg = small_cfg()
    w = init_weights(cfg, seed=5)
    x = np.array([0.2, -0.4, 0.9])
    got = latent_projection(x, w)
    want = w.W_latent @ x + w.b_latent
    assert np.allclose(got, want, rtol=0, atol=0)


def test_gru_step_matches_scalar_loop():
    # independent re-derivation of the cell with plain Python arithmetic
    cfg = small_cfg(d_h=3)
    w = init_weights(cfg, seed=11)
    f = np.array([0.3, -0.2, 0.7])
    h = np.array([0.1, 0.5, -0.4])

    d = 3
    z = [_sigmoid(sum(w.W_z[i, j] * f[j] for j in range(d))
                  + sum(w.U_z[i, j] * h[j] for j in range(d)) + w.b_z[i])
         for i in range(d)]
    r = [_sigmoid(sum(w.W_r[i, j] * f[j] for j in range(d))
                  + sum(w.U_r[i, j] * h[j] for j in range(d)) + w.b_r[i])
         for i in range(d)]
    rh = [r[i] * h[i] for i in range(d)]
    c = [math.tanh(sum(w.W_c[i, j] * f[j] for j in range(d))
                   + sum(w.U_c[i, j] * rh[j] for j in range(d)) + w.b_c[i])
         for i in range(d)]
    want = [(1 - z[i]) * h[i] + z[i] * c[i] for i in range(d)]

    got = gru_step(f, h, w)
    assert np.allclose(got, np.array(want), rtol=1e-15, atol=1e-15)


def test_gru_output_between_h_prev_and_candidate():
    # h_t is a componentwise convex combination of h_prev and c
    rng = np.random.default_rng(42)
    cfg = small_cfg(d_h=6)
    for seed in range(5):
        w = init_weights(cfg, seed=seed)
        f = rng.standard_normal(6)
        h = rng.standard_normal(6)
        z = 1.0 / (1.0 + np.exp(-(w.W_z @ f + w.U_z @ h + w.b_z)))
        r = 1.0 / (1.0 + np.exp(-(w.W_r @ f + w.U_r @ h + w.b_r)))
        c = np.tanh(w.W_c @ f + w.U_c @ (r * h) + w.b_c)
        got = gru_step(f, h, w)
        lo = np.minimum(h, c) - 1e-12
        hi = np.maximum(h, c) + 1e-12
        assert np.all(got >= lo) and np.all(got <= hi)
        assert np.allclose(got, (1 - z) * h + z * c)


# --- decoding ----------------------------------------------------------------


def test_zero_weight_decode_stops_at_step_two():
    cfg = DecoderConfig(d_e=2, d_h=3, max_steps=7, termination_threshold=1e-3)
    traj = decode(np.array([0.3, -0.7]), zero_weights(cfg), cfg)
    assert traj.terminated_by is Termination.THRESHOLD
    arr = traj.as_array()
    assert arr.shape == (2, 6)
    assert np.all(arr == 0.5)


def test_single_step_cap_reports_max_steps():
    cfg = DecoderConfig(d_e=2, d_h=3, max_steps=1)
    traj = decode(np.zeros(2), zero_weights(cfg), cfg)
    assert traj.terminated_by is Termination.MAX_STEPS
    assert traj.as_array().shape == (1, 6)


def test_decode_states_stay_open():
    cfg = small_cfg(max_steps=8)
    for seed in range(4):
        w = init_weights(cfg, seed=seed)
        arr = decode(np.full(3, 2.0), w, cfg).as_array()
        assert np.all(arr > 0.0) and np.all(arr < 1.0)


def test_decode_matches_manual_forward():
    # composed by hand from the cell-level pieces
    cfg = small_cfg(max_steps=4, termination_threshold=1e-30)
    w = init_weights(cfg, seed=9)
    x = np.array([0.5, -1.0, 0.25])
    h = latent_projection(x, w)
    states = []
    for _ in range(4):
        f = w.W_state @ h + w.b_state
        h = gru_step(f, h, w)
        states.append(1.0 / (1.0 + np.exp(-(w.W_out @ h + w.b_out))))
    got = decode(x, w, cfg)
    assert got.terminated_by is Termination.MAX_STEPS
    assert np.allclose(got.as_array(), np.array(states), atol=1e-12)


def test_termination_is_first_crossing():
    cfg = small_cfg(max_steps=50, termination_threshold=1e-3)
    w = init_weights(cfg, seed=2)
    traj = decode(np.array([1.0, 0.5, -0.5]), w, cfg)
    arr = traj.as_array()
    if traj.terminated_by is Termination.THRESHOLD:
        # every earlier consecutive pair stayed at or above the threshold
        gaps = np.linalg.norm(np.diff(arr, axis=0), axis=1)
        assert gaps[-1] < 1e-3
        assert np.all(gaps[:-1] >= 1e-3)
    else:
        assert arr.shape[0] == 50


def test_decode_is_deterministic():
    cfg = small_cfg(max_steps=6)
    w = init_weights(cfg, seed=7)
    x = np.array([0.1, 0.2, 0.3])
    a = decode(x, w, cfg).as_array()
    b = decode(x, w, cfg).as_array()
    assert np.array_equal(a, b)


def test_decode_checks_dimensions():
    cfg = small_cfg()
    w = init_weights(cfg, seed=0)
    with pytest.raises(DimensionMismatch):
        decode(np.zeros(99), w, cfg)


# --- state and trajectory types ----------------------------------------------


def test_trajstate_rejects_boundary_values():
    with pytest.raises(InvariantViolation):
        TrajState((0.0,) + (0.5,) * 5)
    with pytest.raises(InvariantViolation):
        TrajState((1.0,) + (0.5,) * 5)
    with pytest.raises(InvariantViolation):
        TrajState((0.5,) * 5)


def test_trajectory_invariants():
    with pytest.raises(InvariantViolation):
        Trajectory((), Termination.MAX_STEPS)
    with pytest.raises(InvariantViolation):
        Trajectory((TrajState((0.5,) * 6),), Termination.THRESHOLD)


def test_termination_labels():
    assert Termination.THRESHOLD.value == "threshold"
    assert Termination.MAX_STEPS.value == "max_steps"


# --- loss ----------------------------------------------------------------------


def _traj(*rows):
    return Trajectory(tuple(TrajState(tuple(r)) for r in rows), Termination.MAX_STEPS)


def test_mse_loss_aligned_only():
    pred = _traj([0.6] * 6, [0.7] * 6)
    gt = [[0.5] * 6, [0.5] * 6]
    # sum of squares: 6*(0.1^2) + 6*(0.2^2) = 0.30, over 6K = 12
    assert mse_loss(pred, gt) == pytest.approx(0.3 / 12, abs=1e-15)


def test_mse_loss_unreached_steps_pay_the_half_penalty():
    pred = _traj([0.6] * 6, [0.7] * 6)
    gt = [[0.5] * 6, [0.5] * 6, [0.9] * 6]
    aligned = 0.3 / 12  # normalizer counts aligned steps only
    penalty = (0.5 - 0.9) ** 2  # mean over a constant row
    assert mse_loss(pred, gt) == pytest.approx(aligned + penalty, abs=1e-12)


def test_mse_loss_extra_predicted_steps_are_free():
    short = _traj([0.6] * 6, [0.7] * 6)
    long = _traj([0.6] * 6, [0.7] * 6, [0.9] * 6, [0.2] * 6)
    gt = [[0.5] * 6, [0.5] * 6]
    assert mse_loss(short, gt) == mse_loss(long, gt)


def test_mse_loss_zero_at_exact_match():
    rows = [[0.25, 0.5, 0.75, 0.1, 0.9, 0.5]]
    assert mse_loss(_traj(*rows), rows) == 0.0


def test_mse_loss_at_clamped_sigmoid_limits():
    # a state pinned at the clipped sigmoid ceiling against an all-zero target
    hi = float(np.nextafter(1.0, 0.0))
    lo = float(np.nextafter(0.0, 1.0))
    assert mse_loss(_traj([hi] * 6), [[lo] * 6]) == pytest.approx(1.0, abs=1e-9)


def test_mse_loss_rejects_empty_or_ragged_gt():
    pred = _traj([0.5] * 6)
    with pytest.raises(EmptyGroundTruth):
        mse_loss(pred, [])
    with pytest.raises(DimensionMismatch):
        mse_loss(pred, [[0.5] * 5])
