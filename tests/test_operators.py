"""Tests for the transfer-operator family."""

import numpy as np
import pytest

from trustprop.errors import ValidationError
from trustprop.graph import Edge
from trustprop.operators import (
    OperatorKind,
    transfer,
    transfer_batch,
    verify_lipschitz,
)

PROJECTION = OperatorKind("projection")
SQUARED = OperatorKind("squared_gating")
SCALAR = OperatorKind("scalar_gated")
RELU = OperatorKind("hadamard_relu")


def unit(*vals):
    v = np.asarray(vals, dtype=np.float64)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- kinds


def test_operator_kind_validation():
    with pytest.raises(ValidationError):
        OperatorKind("nope")
    with pytest.raises(ValidationError):
        OperatorKind("projection", hybrid_gamma=0.5)
    with pytest.raises(ValidationError):
        OperatorKind("hybrid", hybrid_gamma=1.5)
    with pytest.raises(ValidationError):
        OperatorKind("hybrid", hybrid_mode="both_at_once")


def test_operator_kind_hybrid_defaults():
    kind = OperatorKind("hybrid")
    assert kind.hybrid_gamma == 0.5
    assert kind.hybrid_mode == "per_edge_select"


def test_operator_kind_from_name():
    assert OperatorKind.from_name("squared") == SQUARED
    assert OperatorKind.from_name("hybrid", hybrid_gamma=0.25).hybrid_gamma == 0.25
    with pytest.raises(ValidationError):
        OperatorKind.from_name("squared_gating")  # internal spelling, not CLI name


# ---------------------------------------------------------------- unit length


def test_transfer_rejects_a_nan_content():
    with pytest.raises(ValidationError, match="edge content must be unit length"):
        transfer(PROJECTION, np.array([1.0, 2.0]), np.full(2, np.nan))


@pytest.mark.parametrize("scale, unit_length", [(1 + 5e-7, True), (1 + 2e-6, False)])
def test_transfer_takes_the_contents_an_edge_takes(scale, unit_length):
    r, e = np.array([1.0, 2.0]), unit(3.0, 4.0) * scale
    if not unit_length:
        with pytest.raises(ValidationError, match="unit length"):
            Edge(sender="a", receiver="b", kind="labeled", content=e)
        with pytest.raises(ValidationError, match="edge content must be unit length"):
            transfer(PROJECTION, r, e)
        return
    Edge(sender="a", receiver="b", kind="labeled", content=e)
    batch = transfer_batch(PROJECTION, r[None, :], e[None, :], np.array([False]))
    np.testing.assert_array_equal(transfer(PROJECTION, r, e), batch[0])


# ---------------------------------------------------------------- variants


def test_projection_output_is_along_edge_content():
    e = unit(0.0, 1.0, 0.0)
    r = np.array([0.3, 2.0, -1.0])
    out = transfer(PROJECTION, r, e)
    np.testing.assert_allclose(out, 2.0 * e, atol=1e-12)


def test_projection_clips_negative_alignment_to_zero():
    e = unit(1.0, 0.0)
    out = transfer(PROJECTION, np.array([-0.5, 3.0]), e)
    np.testing.assert_array_equal(out, np.zeros(2))


def test_squared_gating_uniform_content_scales_by_dim():
    dim = 8
    e = np.full(dim, 1.0 / np.sqrt(dim))
    r = np.arange(1.0, dim + 1.0)
    out = transfer(SQUARED, r, e)
    np.testing.assert_allclose(out, r / dim, atol=1e-12)


def test_squared_gating_preserves_componentwise_shape():
    e = unit(3.0, 4.0)
    r = np.array([10.0, -5.0])
    np.testing.assert_allclose(transfer(SQUARED, r, e), r * e**2, atol=1e-12)


def test_scalar_gated_scales_whole_vector_by_clamped_cosine():
    e = unit(1.0, 0.0)
    r = np.array([1.0, 1.0])
    out = transfer(SCALAR, r, e)
    np.testing.assert_allclose(out, r / np.sqrt(2.0), atol=1e-12)
    # opposed reputation transfers nothing
    np.testing.assert_array_equal(transfer(SCALAR, -r, e), np.zeros(2))


def test_scalar_gated_zero_reputation_passes_zero():
    np.testing.assert_array_equal(
        transfer(SCALAR, np.zeros(3), unit(1.0, 1.0, 1.0)), np.zeros(3)
    )


def test_hadamard_relu_sign_filters_components():
    e = unit(0.6, -0.8)
    out = transfer(RELU, np.array([1.0, 1.0]), e)
    np.testing.assert_allclose(out, [0.6, 0.0], atol=1e-12)


def test_hybrid_interpolate_blends_endpoints():
    e = unit(1.0, 2.0)
    r = np.array([0.5, -1.5])
    proj = transfer(PROJECTION, r, e)
    sq = transfer(SQUARED, r, e)
    for gamma in (0.0, 0.3, 1.0):
        kind = OperatorKind("hybrid", hybrid_gamma=gamma, hybrid_mode="interpolate")
        np.testing.assert_allclose(
            transfer(kind, r, e), gamma * proj + (1.0 - gamma) * sq, atol=1e-12
        )


def test_hybrid_per_edge_select_switches_on_blindness():
    kind = OperatorKind("hybrid")
    e = unit(1.0, 2.0)
    r = np.array([0.5, -1.5])
    np.testing.assert_allclose(
        transfer(kind, r, e, edge_is_blind=True), transfer(SQUARED, r, e), atol=1e-12
    )
    np.testing.assert_allclose(
        transfer(kind, r, e, edge_is_blind=False),
        transfer(PROJECTION, r, e),
        atol=1e-12,
    )


def test_transfer_validates_inputs():
    with pytest.raises(ValidationError):
        transfer(PROJECTION, np.ones(2), np.ones(2))  # not unit
    with pytest.raises(ValidationError):
        transfer(PROJECTION, np.ones(3), unit(1.0, 0.0))


def test_transfer_batch_matches_single_edge_calls():
    rng = np.random.default_rng(15)
    r = rng.normal(size=(20, 6))
    e = rng.normal(size=(20, 6))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    blind = rng.random(20) < 0.5
    for kind in (PROJECTION, SQUARED, SCALAR, RELU, OperatorKind("hybrid")):
        batch = transfer_batch(kind, r, e, blind)
        for i in range(20):
            np.testing.assert_allclose(
                batch[i], transfer(kind, r[i], e[i], bool(blind[i])), atol=1e-12
            )


# ---------------------------------------------------------------- contraction


@pytest.mark.parametrize(
    "kind",
    [
        PROJECTION,
        SQUARED,
        RELU,
        OperatorKind("hybrid", hybrid_gamma=0.5, hybrid_mode="interpolate"),
        OperatorKind("hybrid"),
    ],
    ids=lambda k: f"{k.variant}:{k.hybrid_mode or '-'}",
)
def test_verify_lipschitz_quick_sample(kind):
    assert verify_lipschitz(kind, samples=500, seed=1, dim=8) <= 1.0 + 1e-9


def test_verify_lipschitz_scalar_gated_on_samples():
    # Not provably 1-Lipschitz in general, but holds across random samples.
    assert verify_lipschitz(SCALAR, samples=500, seed=1, dim=8) <= 1.0 + 1e-9
