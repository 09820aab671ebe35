"""The decoder kernels against their per-step reference, bit for bit.

``helpers.sigmoid_split``, ``helpers.forward_steps`` and
``helpers.loss_and_grads_outer`` are the kernels before the whole-sequence
rewrite: a sigmoid split by sign, one sigmoid call per gate and one
``np.outer`` per weight and step.  The loss, every gradient field and the
decoded states must equal theirs exactly, signs of zeros included, on drawn
configurations that reach the edges: a one-unit hidden state, hidden sizes
that are not a multiple of 4, threshold stops, ground truth shorter and
longer than the decoded run, and weights scaled until the gates saturate.
"""

import numpy as np
import pytest

from rsvl.trajectory import (
    PARAM_FIELDS,
    DecoderConfig,
    Termination,
    _loss_and_grads,
    _map_params,
    _sigmoid,
    decode,
    init_weights,
)

from helpers import forward_steps, loss_and_grads_outer, sigmoid_split

D_HS = (1, 2, 5, 8, 9, 11, 13, 16)
DRAWS_PER_D_H = 75
SCALES = (1.0, 1.0, 5.0, 30.0, 1000.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def draw(rng: np.random.Generator, d_h: int):
    d_e = int(rng.integers(1, 6))
    steps = int(rng.integers(1, 13))
    threshold = 1e-30 if rng.random() < 0.3 else float(10 ** rng.uniform(-4.0, -0.5))
    cfg = DecoderConfig(d_e=d_e, d_h=d_h, max_steps=steps, termination_threshold=threshold)
    scale = float(rng.choice(SCALES))
    weights = _map_params(lambda w: w * scale, init_weights(cfg, seed=int(rng.integers(2**31))))
    x = rng.uniform(-1.0, 1.0, size=d_e) * (10.0 if scale > 1 else 1.0)
    gt = rng.uniform(0.05, 0.95, size=(int(rng.integers(1, 15)), 6))
    return cfg, weights, x, gt


@pytest.mark.parametrize("d_h", D_HS)
def test_loss_gradients_and_states_match_the_outer_loop(d_h):
    rng = np.random.default_rng(7000 + d_h)
    seen = {"threshold": 0, "gt shorter": 0, "gt longer": 0, "saturated": 0}
    for _ in range(DRAWS_PER_D_H):
        cfg, weights, x, gt = draw(rng, d_h)
        want_trace = forward_steps(x, weights, cfg)
        want_loss, want = loss_and_grads_outer(x, weights, cfg, gt)
        got_loss, got = _loss_and_grads(x, weights, cfg, gt)

        assert same_bits(got_loss, want_loss)
        for name in PARAM_FIELDS:
            assert same_bits(getattr(got, name), getattr(want, name)), name

        traj = decode(x, weights, cfg)
        assert traj.terminated_by is want_trace["terminated_by"]
        assert same_bits(traj.as_array(), np.array(want_trace["S"]))

        n = len(want_trace["S"])
        seen["threshold"] += want_trace["terminated_by"] is Termination.THRESHOLD
        seen["gt shorter"] += len(gt) < n
        seen["gt longer"] += len(gt) > n
        seen["saturated"] += any(np.any((z == 0.0) | (z == 1.0)) for z in want_trace["z"])
    assert all(count >= 3 for count in seen.values()), seen


SPECIALS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
    709.8, -709.8, 745.2, -745.2, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan,
])


def test_sigmoid_matches_the_split_form_on_special_values():
    for values in (SPECIALS, np.tile(SPECIALS, 7), *([v] for v in SPECIALS)):
        values = np.asarray(values, dtype=np.float64)
        # compared as raw bits: the sign and payload of a NaN count too
        assert np.array_equal(_sigmoid(values).view(np.uint64), sigmoid_split(values).view(np.uint64))


@pytest.mark.parametrize("size", (1, 3, 8, 16, 26, 64, 257))
def test_sigmoid_matches_the_split_form_and_stays_in_the_unit_interval(size):
    rng = np.random.default_rng(size)
    for _ in range(50):
        x = rng.normal(0.0, 10 ** rng.uniform(-3.0, 3.0), size=size)
        x[rng.random(size) < 0.1] *= -1e300
        got = _sigmoid(x)
        assert np.array_equal(got.view(np.uint64), sigmoid_split(x).view(np.uint64))
        assert np.all((got >= 0.0) & (got <= 1.0))
    finite = SPECIALS[np.isfinite(SPECIALS)]
    assert np.all((_sigmoid(finite) >= 0.0) & (_sigmoid(finite) <= 1.0))
