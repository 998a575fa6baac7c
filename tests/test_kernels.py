import math
import tracemalloc
import zlib

import numpy as np
import pytest

from privsvm import kernels
from privsvm.data import DomainBox
from privsvm.kernels import (
    KernelSpec,
    UnsupportedKernelError,
    cauchy_kernel,
    gram,
    laplacian_kernel,
    linear_kernel,
    rbf_kernel,
    sample_spectral,
    spectral_second_moment,
)

TI_KERNELS = [rbf_kernel(1.0), rbf_kernel(2.5), laplacian_kernel(), cauchy_kernel()]
FAMILIES = [rbf_kernel(1.3), laplacian_kernel(), cauchy_kernel()]


def one_pair(k, x, y):
    # k(x, y) as the 1x1 Gram of one-row arrays
    return gram(k, x[None, :], y[None, :])[0, 0]


def test_gram_one_pair_values():
    assert one_pair(rbf_kernel(1.0), np.array([0.3, -2.0]), np.array([0.3, -2.0])) == 1.0
    assert one_pair(rbf_kernel(1.0), np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(
        math.exp(-0.5), rel=1e-15
    )
    assert one_pair(laplacian_kernel(), np.array([1.0, 1.0]), np.array([0.0, 0.0])) == pytest.approx(
        math.exp(-2.0), rel=1e-15
    )
    assert one_pair(linear_kernel(), np.array([2.0, 0.0]), np.array([3.0, 0.0])) == 6.0
    assert one_pair(cauchy_kernel(), np.array([1.0, -1.0]), np.array([0.0, 0.0])) == pytest.approx(
        0.25, rel=1e-15
    )


def test_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        gram(rbf_kernel(1.0), np.zeros((1, 2)), np.zeros((1, 3)))


@pytest.mark.parametrize("k", FAMILIES + [linear_kernel()], ids=lambda k: k.family)
def test_gram_input_shapes(k):
    for bad in (np.zeros(3), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match="2-D"):
            gram(k, bad)
        with pytest.raises(ValueError, match="2-D"):
            gram(k, np.zeros((2, 3)), bad)
    G = gram(k, np.zeros((0, 3)), np.ones((4, 3)))
    assert G.shape == (0, 4)


def broadcast_gram(k, A, B):
    # the unblocked formula: the full (n_A, n_B, d) difference tensor
    diff = A[:, None, :] - B[None, :, :]
    if k.family == "rbf":
        return np.exp(-(diff**2).sum(axis=-1) / (2.0 * k.sigma**2))
    if k.family == "laplacian":
        return np.exp(-np.abs(diff).sum(axis=-1))
    return np.prod(1.0 / (1.0 + diff**2), axis=-1)


def blocked_cases(d):
    # (A, B) pairs around the block boundaries, with B = None for a square Gram
    rng = np.random.default_rng(100 + d)
    n_b = 100
    rows = kernels._BLOCK_CELLS // n_b
    B = rng.uniform(-2.0, 2.0, (n_b, d))
    cases = [(rng.uniform(-2.0, 2.0, (n_a, d)), B) for n_a in (rows - 1, rows, rows + 1)]
    cases += [(rng.uniform(-2.0, 2.0, (n_a, d)), None) for n_a in (rows - 1, rows + 1)]
    # a grid of several blocks against one of its own points; one row against 5000
    resolution = {1: 40001, 3: 35, 9: 4}[d]
    grid = DomainBox(np.full(d, -2.0), np.full(d, 2.0)).grid(resolution)
    cases.append((grid, grid[[grid.shape[0] // 2]]))
    cases.append((rng.uniform(-2.0, 2.0, (1, d)), rng.uniform(-2.0, 2.0, (5000, d))))
    return cases


@pytest.mark.parametrize("d", [1, 3, 9])
@pytest.mark.parametrize("k", FAMILIES, ids=lambda k: k.family)
def test_blocked_gram_matches_broadcast_formula(k, d):
    for A, B in blocked_cases(d):
        G = gram(k, A, B)
        expected = broadcast_gram(k, A, A if B is None else B)
        assert G.shape == expected.shape
        assert np.max(np.abs(G - expected)) <= 1e-15
        assert np.array_equal(G, gram(k, A, B))
        if B is None:
            assert np.array_equal(G, G.T)
            assert np.all(np.diag(G) == 1.0)
        elif B.shape[0] == 1:
            assert G[A.shape[0] // 2, 0] == 1.0


@pytest.mark.parametrize("k", FAMILIES, ids=lambda k: k.family)
def test_gram_memory_is_output_plus_one_block(k):
    A = np.random.default_rng(5).uniform(-1.0, 1.0, (2000, 4))
    output = 2000 * 2000 * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        gram(k, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert output <= peak <= output + 4 * 2**20


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf")
    with pytest.raises(ValueError):
        KernelSpec("rbf", -1.0)
    with pytest.raises(ValueError):
        KernelSpec("rbf", math.nan)
    with pytest.raises(ValueError):
        KernelSpec("rbf", "abc")
    with pytest.raises(ValueError):
        KernelSpec("linear", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("matern")
    assert not linear_kernel().translation_invariant()
    assert all(k.translation_invariant() for k in TI_KERNELS)


def test_kernel_doc_round_trip():
    for k in TI_KERNELS + [linear_kernel()]:
        assert KernelSpec.from_doc(k.to_doc()) == k


@pytest.mark.parametrize("k", TI_KERNELS)
def test_symmetry_and_translation_invariance(k):
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y, t = rng.standard_normal((3, 3))
        v = one_pair(k, x, y)
        assert v == one_pair(k, y, x)
        assert v == pytest.approx(one_pair(k, x + t, y + t), rel=1e-9, abs=1e-12)
        assert 0.0 < v <= 1.0
        assert one_pair(k, x, x) == 1.0


def test_gram_matches_pointwise():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 2))
    B = rng.standard_normal((3, 2))
    for k in TI_KERNELS + [linear_kernel()]:
        G = gram(k, A, B)
        for i in range(4):
            for j in range(3):
                assert G[i, j] == pytest.approx(one_pair(k, A[i], B[j]), rel=1e-12)


def test_rbf_spectral_variance():
    rng = np.random.default_rng(20)
    draws = sample_spectral(rbf_kernel(2.0), 3, 10**5, rng)
    assert draws.shape == (10**5, 3)
    for c in range(3):
        assert abs(draws[:, c].var() - 0.25) <= 0.01


def test_cauchy_kernel_spectral_mean_abs():
    rng = np.random.default_rng(21)
    draws = sample_spectral(cauchy_kernel(), 1, 10**5, rng)
    assert abs(np.abs(draws).mean() - 1.0) <= 0.02


def test_spectral_determinism():
    a = sample_spectral(laplacian_kernel(), 2, 50, np.random.default_rng(99))
    b = sample_spectral(laplacian_kernel(), 2, 50, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_spectral_unsupported_for_linear():
    with pytest.raises(UnsupportedKernelError):
        sample_spectral(linear_kernel(), 2, 5, np.random.default_rng(0))
    with pytest.raises(UnsupportedKernelError):
        spectral_second_moment(linear_kernel(), 2)


def test_spectral_second_moments():
    assert spectral_second_moment(rbf_kernel(1.0), 2) == 2.0
    assert spectral_second_moment(rbf_kernel(0.5), 3) == pytest.approx(12.0, rel=1e-15)
    assert spectral_second_moment(cauchy_kernel(), 3) == 6.0
    assert math.isinf(spectral_second_moment(laplacian_kernel(), 1))


@pytest.mark.parametrize("k", [rbf_kernel(1.3), laplacian_kernel(), cauchy_kernel()])
def test_bochner_consistency(k):
    # empirical characteristic function of the spectral sample must match the
    # kernel profile at a handful of displacements
    rng = np.random.default_rng(zlib.crc32(k.family.encode()))
    d = 2
    draws = sample_spectral(k, d, 10**5, rng)
    displacements = np.array(
        [[0.1, 0.0], [0.5, -0.25], [1.0, 1.0], [-0.75, 0.3], [2.0, -1.0]]
    )
    for delta in displacements:
        ecf = float(np.cos(draws @ delta).mean())
        expected = one_pair(k, delta, np.zeros(d))
        assert abs(ecf - expected) <= 0.02
