import numpy as np
import pytest

from tensor_reference import numeric_jacobian

from gamedyn import (DomainError, FeedbackBlock, GameSpec, LearningParams,
                     Trajectory, bregman_lse, profile_jacobian, softmax,
                     tangent_basis, write_trajectory_csv)
from gamedyn.choice import log_sum_exp


def test_block_softmax_is_distribution(rng):
    for eps in (0.05, 1.0, 10.0):
        z = rng.uniform(-5, 5, 7)
        s = softmax(z, eps, (7,))
        assert np.all(s > 0)
        assert abs(s.sum() - 1.0) < 1e-12


def test_softmax_handles_large_scores():
    s = softmax(np.array([1e4, 0.0, -1e4]), 1.0, (3,))
    assert np.isfinite(s).all()
    np.testing.assert_allclose(s, [1.0, 0.0, 0.0], atol=1e-300)


def test_temperature_must_be_positive():
    with pytest.raises(DomainError):
        softmax(np.zeros(3), 0.0, (3,))
    with pytest.raises(DomainError):
        softmax(np.zeros(3), -1.0, (3,))
    with pytest.raises(DomainError):
        softmax(np.array([np.nan, 0.0]), 1.0, (2,))
    # an infinite or nan eps or gamma is refused as not finite, not as not positive
    for eps in (np.inf, np.nan):
        with pytest.raises(DomainError,
                           match=f"temperature must be positive and finite, got {eps}"):
            softmax(np.zeros(3), eps, (3,))
    with pytest.raises(DomainError, match="gamma must be positive and finite, got inf"):
        LearningParams(gamma=np.inf)


def test_temperature_too_small_for_its_reciprocal():
    for call in (lambda: profile_jacobian(np.zeros(3), 1e-320, (3,)),
                 lambda: softmax(np.zeros(3), 1e-320, (3,)),
                 lambda: LearningParams(gamma=1.0, eps=1e-320)):
        with pytest.raises(DomainError, match="temperature eps=1e-320"):
            call()
    # an eps just above the smallest normal double has a finite reciprocal
    assert np.isfinite(softmax(np.zeros(3), 2.3e-308, (3,))).all()


def test_shift_invariance_per_block(rng):
    z = rng.uniform(-2, 2, 6)
    shifted = z + 3.7
    np.testing.assert_allclose(softmax(z, 0.7, (6,)), softmax(shifted, 0.7, (6,)),
                               atol=1e-12)


def test_profile_softmax_blocks(rng):
    z = rng.uniform(-3, 3, 5)
    out = softmax(z, 1.3, (3, 2))
    np.testing.assert_allclose(out[:3], softmax(z[:3], 1.3, (3,)), atol=1e-14)
    np.testing.assert_allclose(out[3:], softmax(z[3:], 1.3, (2,)), atol=1e-14)


def test_profile_softmax_batched(rng):
    zs = rng.uniform(-3, 3, (8, 6))
    batched = softmax(zs, 0.5, (3, 3))
    for i in range(8):
        np.testing.assert_allclose(batched[i], softmax(zs[i], 0.5, (3, 3)),
                                   atol=1e-14)


def test_log_sum_exp_gradient_is_softmax(rng):
    for eps in (0.2, 1.0, 4.0):
        z = rng.uniform(-3, 3, 5)
        grad = numeric_jacobian(lambda v: np.atleast_1d(log_sum_exp(v, eps)),
                                z).ravel()
        np.testing.assert_allclose(grad, softmax(z, eps, (5,)), atol=1e-6)


def test_softmax_jacobian_closed_form(rng):
    for eps in (0.2, 1.0, 4.0):
        z = rng.uniform(-3, 3, 4)
        jac_fd = numeric_jacobian(lambda v: softmax(v, eps, (4,)), z)
        np.testing.assert_allclose(jac_fd, profile_jacobian(z, eps, (4,)), atol=1e-6)
        s = softmax(z, eps, (4,))
        np.testing.assert_allclose(profile_jacobian(z, eps, (4,)),
                                   (np.diag(s) - np.outer(s, s)) / eps,
                                   atol=1e-14)


def test_profile_jacobian_block_diagonal(rng):
    z = rng.uniform(-2, 2, 5)
    jac = profile_jacobian(z, 0.8, (3, 2))
    np.testing.assert_allclose(jac[:3, :3], profile_jacobian(z[:3], 0.8, (3,)))
    np.testing.assert_allclose(jac[3:, 3:], profile_jacobian(z[3:], 0.8, (2,)))
    assert np.all(jac[:3, 3:] == 0.0)
    assert np.all(jac[3:, :3] == 0.0)


def test_bregman_nonnegative_zero_on_shifts(rng):
    z = rng.uniform(-2, 2, 6)
    val = bregman_lse(z + 1.9, z, 0.7, (3, 3))
    assert val < 1e-12
    other = rng.uniform(-2, 2, 6)
    assert bregman_lse(other, z, 0.7, (3, 3)) >= 0.0


def test_bregman_sandwich(rng):
    for _ in range(100):
        eps = float(rng.uniform(0.1, 3.0))
        z1 = rng.uniform(-4, 4, 5)
        z2 = rng.uniform(-4, 4, 5)
        dx = softmax(z1, eps, (5,)) - softmax(z2, eps, (5,))
        dz = z1 - z2
        val = float(bregman_lse(z1, z2, eps, (5,)))
        assert val >= 0.5 * eps * (dx @ dx) - 1e-12
        assert val <= 0.5 / eps * (dz @ dz) + 1e-12


def test_choice_map_monotone_and_cocoercive(rng):
    for _ in range(200):
        eps = float(rng.uniform(0.1, 3.0))
        z1 = rng.uniform(-4, 4, 4)
        z2 = rng.uniform(-4, 4, 4)
        dx = softmax(z1, eps, (4,)) - softmax(z2, eps, (4,))
        dz = z1 - z2
        inner = dz @ dx
        assert inner >= -1e-12
        assert inner >= eps * (dx @ dx) - 1e-12
        assert np.linalg.norm(dx) <= np.linalg.norm(dz) / eps + 1e-12


@pytest.mark.parametrize("call", [lambda: softmax(0.5, 1.0, [3]),
                                  lambda: bregman_lse(0.5, np.zeros(3), 1.0, [3])],
                         ids=["softmax", "bregman_lse"])
def test_scalar_scores_are_refused(call):
    """A 0-d score is a vector of length 0, refused with DomainError (it
    raised IndexError)."""
    with pytest.raises(DomainError, match="score vector has length 0, expected 3"):
        call()


LAYOUT_CALLS = {
    "softmax-empty": lambda path: softmax(0.5, 1.0, ()),
    "softmax-negative": lambda path: softmax(np.zeros(3), 1.0, (4, -1)),
    "profile_jacobian-negative": lambda path: profile_jacobian(np.zeros(3), 1.0, (4, -1)),
    "bregman_lse-negative": lambda path: bregman_lse(np.zeros(3), np.zeros(3), 1.0, (4, -1)),
    "write_trajectory_csv-negative": lambda path: write_trajectory_csv(
        path, Trajectory(np.arange(2.0), np.zeros((2, 3)), np.full((2, 3), 1 / 3)), (4, -1)),
    "high_pass-fractional": lambda path: FeedbackBlock.high_pass(1.0, 1.0, (2.5,)),
    "high_pass-cancelling": lambda path: FeedbackBlock.high_pass(1.0, 1.0, (3, -3)),
    "tangent_basis-zero": lambda path: tangent_basis((3, 0)),
    "tangent_basis-one": lambda path: tangent_basis((1, 2)),
    "GameSpec-fractional": lambda path: GameSpec((2.5, 2), (np.zeros((2, 2)),) * 2),
    "softmax-none": lambda path: softmax(np.zeros(3), 1.0, None),
    "softmax-string": lambda path: softmax(np.zeros(3), 1.0, ("a", 3)),
    "softmax-infinite": lambda path: softmax(np.zeros(3), 1.0, (np.inf,)),
}


@pytest.mark.parametrize("call", list(LAYOUT_CALLS.values()), ids=list(LAYOUT_CALLS))
def test_layouts_are_refused_by_one_rule(call, tmp_path):
    """Every entry point that takes action counts refuses a layout that is
    empty or holds a count that is not a whole number of at least 2, with
    GameSpec's message (an empty layout gave softmax's uninitialised output,
    a negative count reached numpy or wrote a file, a fractional one was
    truncated)."""
    path = tmp_path / "out.csv"
    with pytest.raises(DomainError, match="every player needs at least two actions"):
        call(path)
    assert not path.exists()
