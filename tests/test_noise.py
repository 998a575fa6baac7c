import math

import numpy as np
import pytest

from privsvm.noise import erlang_tail_probability, sample_laplace


class _MedianStream:
    """Stub generator whose uniforms sit exactly at the median."""

    def random(self, count):
        return np.full(count, 0.5)


def test_inverse_cdf_median_maps_to_zero():
    assert np.array_equal(sample_laplace(1.0, 4, _MedianStream()), np.zeros(4))


class _ScriptedStream:
    """Stub generator replaying fixed uniform batches and recording each request."""

    def __init__(self, *batches):
        self.batches = list(batches)
        self.requests = []

    def random(self, count):
        self.requests.append(count)
        batch = np.array(self.batches.pop(0), dtype=np.float64)
        assert batch.shape == (count,)
        return batch


def _inverse_cdf(scale, uniforms):
    u = np.asarray(uniforms) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def test_zero_uniform_is_redrawn_not_infinite():
    # a uniform of exactly 0.0 maps to -inf; those entries alone are redrawn,
    # again if the redraw is 0.0, and every other entry keeps its draw
    stream = _ScriptedStream([0.0, 0.25, 0.0, 0.9], [0.0, 0.75], [0.6])
    draws = sample_laplace(1.5, 4, stream)
    assert np.all(np.isfinite(draws))
    assert stream.requests == [4, 2, 1]
    assert np.array_equal(draws, _inverse_cdf(1.5, [0.6, 0.25, 0.75, 0.9]))


def test_stream_consumption_unchanged_without_zero_uniform():
    rng = np.random.default_rng(9)
    draws = sample_laplace(0.7, 1000, rng)
    ref = np.random.default_rng(9)
    assert np.array_equal(draws, _inverse_cdf(0.7, ref.random(1000)))
    assert rng.random() == ref.random()


def test_sample_moments():
    draws = sample_laplace(2.0, 10**5, np.random.default_rng(123))
    assert -0.05 <= draws.mean() <= 0.05
    assert 7.6 <= draws.var() <= 8.4


def test_sample_determinism():
    a = sample_laplace(0.7, 64, np.random.default_rng(5))
    b = sample_laplace(0.7, 64, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sample_parameter_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_laplace(0.0, 3, rng)
    with pytest.raises(ValueError):
        sample_laplace(-1.0, 3, rng)
    with pytest.raises(ValueError):
        sample_laplace(1.0, 0, rng)


def test_erlang_tail_values():
    assert erlang_tail_probability(3, 2.0, 0.0) == 1.0
    assert erlang_tail_probability(1, 1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)
    assert erlang_tail_probability(2, 1.0, 2.0) == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12)


def test_erlang_tail_monotonicity():
    thresholds = np.linspace(0.0, 10.0, 21)
    tails = [erlang_tail_probability(4, 1.5, t) for t in thresholds]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    for t in (0.5, 2.0, 7.0):
        by_q = [erlang_tail_probability(q, 1.0, t) for q in range(1, 8)]
        assert all(a <= b for a, b in zip(by_q, by_q[1:]))
        by_scale = [erlang_tail_probability(3, s, t) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b for a, b in zip(by_scale, by_scale[1:]))


def test_erlang_tail_domain():
    with pytest.raises(ValueError):
        erlang_tail_probability(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        erlang_tail_probability(2, 1.0, -0.1)


def test_l1_norm_of_draws_is_erlang():
    # |mu|_1 of a q-vector draw follows the q-stage tail formula
    rng = np.random.default_rng(77)
    q, scale, trials = 3, 1.25, 30_000
    norms = np.abs(sample_laplace(scale, trials * q, rng).reshape(trials, q)).sum(axis=1)
    for t in (scale * q * 0.5, scale * q, scale * q * 2.0):
        empirical = float((norms > t).mean())
        assert abs(empirical - erlang_tail_probability(q, scale, t)) <= 0.015
