"""Tests for multiplicative edge gates and topic distributions.

Single gates are checked by passing one edge (1-row inputs) through the
batch path, ``stack_batch``, that propagation uses.
"""

import math

import numpy as np
import pytest

from trustprop.errors import ValidationError
from trustprop.gates import (
    SMOOTHING,
    ConfidenceGateConfig,
    EntropyGateConfig,
    GateStack,
    KlGateConfig,
    MagnitudeGateConfig,
    stack_batch,
    topic_distribution_batch,
)
from trustprop.graph import Edge

EX = np.array([1.0, 0.0])
ENTROPY = GateStack(entropy=EntropyGateConfig(enabled=True, strength=1.0))
MAGNITUDE = GateStack(magnitude_ratio=MagnitudeGateConfig(enabled=True))
CONFIDENCE = GateStack(confidence=ConfidenceGateConfig(enabled=True))


def kl_cosine(lam):
    return GateStack(kl=KlGateConfig(enabled=True, lam=lam))


def kl_softmax(lam):
    return GateStack(kl=KlGateConfig(enabled=True, lam=lam, form="softmax"))


def gate(stack, r=EX, e=EX, confidence=None, p_int=None, p_rep=None):
    """The gate factor of one edge, computed by ``stack_batch``."""

    def row(x):
        return None if x is None else np.asarray(x, dtype=np.float64)[None, :]

    conf = None if confidence is None else np.array([float(confidence)])
    return float(stack_batch(stack, row(r), row(e), conf, row(p_int), row(p_rep))[0])


# ---------------------------------------------------------------- closed forms


def _entropy(p):
    return -sum(x * math.log(x) for x in p if x > 0)


def _kl(p, q):
    return sum(x * math.log(x / y) for x, y in zip(p, q) if x > 0)


def _reference_gate(stack, r, e, p_int, p_rep, conf):
    """One edge's gate product, written out from each gate's formula."""
    value = 1.0
    rn = math.sqrt(sum(x * x for x in r))
    en = math.sqrt(sum(x * x for x in e))
    dot = sum(a * b for a, b in zip(r, e))
    if stack.kl.enabled:
        if stack.kl.form == "cosine_proxy":
            if rn > 0:
                c = max(-1.0, min(1.0, dot / (rn * en)))
                value *= math.exp(-stack.kl.lam * (1.0 - c * c))
        else:
            value *= math.exp(-stack.kl.lam * _kl(p_int, p_rep))
    if stack.entropy.enabled:
        value *= math.exp(-stack.entropy.strength * _entropy(p_int))
    if stack.magnitude_ratio.enabled and rn > 0:
        value *= max(0.0, dot) / rn
    if stack.confidence.enabled:
        value *= conf
    return value


def _reference_distribution(v, cents, smoothing=SMOOTHING):
    """Smoothed softmax over cosines to the centroids; uniform for v = 0."""
    vn = float(np.linalg.norm(v))
    cos = [0.0 if vn == 0 else float(v @ c) / (vn * float(np.linalg.norm(c))) for c in cents]
    z = [math.exp(x - max(cos)) for x in cos]
    return np.array([(x / sum(z) + smoothing) / (1.0 + len(z) * smoothing) for x in z])


# ---------------------------------------------------------------- distributions


def test_entropy_values():
    # The entropy gate at strength 1 is exp(-H), so -log(gate) = H in nats.
    assert -math.log(gate(ENTROPY, p_int=[1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    got = -math.log(gate(ENTROPY, p_int=[0.5, 0.5]))
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_kl_divergence_values():
    # The softmax KL gate at lambda 1 is exp(-KL), so -log(gate) = KL in nats.
    same = -math.log(gate(kl_softmax(1.0), p_int=[0.5, 0.5], p_rep=[0.5, 0.5]))
    assert same == pytest.approx(0.0, abs=1e-15)
    got = -math.log(gate(kl_softmax(1.0), p_int=[0.9, 0.1], p_rep=[0.5, 0.5]))
    expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
    assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- single gates


def test_kl_gate_softmax_halves_at_ln2():
    p_rep = [0.5, 0.5]
    # Scale lambda so that lambda * KL([0.9, 0.1] || p_rep) = ln 2.
    lam = math.log(2.0) / _kl([0.9, 0.1], p_rep)
    assert gate(kl_softmax(lam), p_int=[0.9, 0.1], p_rep=p_rep) == pytest.approx(0.5, abs=1e-12)
    assert gate(kl_softmax(3.0), p_int=p_rep, p_rep=p_rep) == pytest.approx(1.0, abs=1e-15)


def test_kl_gate_cosine_perpendicular_and_aligned():
    r = np.array([0.0, 2.0])
    assert gate(kl_cosine(1.0), r) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert gate(kl_cosine(1.0), np.array([3.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    # opposite direction still aligns as a subspace (cos^2), gate stays 1
    assert gate(kl_cosine(1.0), np.array([-3.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_kl_gate_cosine_zero_reputation_opens_gate():
    assert gate(kl_cosine(5.0), np.zeros(2)) == 1.0


def test_entropy_gate_values():
    assert gate(ENTROPY, p_int=[1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert gate(ENTROPY, p_int=[0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)
    strong = GateStack(entropy=EntropyGateConfig(enabled=True, strength=2.0))
    assert gate(strong, p_int=[0.5, 0.5]) == pytest.approx(0.25, abs=1e-12)


def test_magnitude_ratio_gate_is_positive_cosine():
    r = np.array([0.5, math.sqrt(3.0) / 2.0])  # 60 degrees off e_x
    assert gate(MAGNITUDE, r) == pytest.approx(0.5, abs=1e-12)
    assert gate(MAGNITUDE, np.array([-1.0, 0.0])) == 0.0
    assert gate(MAGNITUDE, np.zeros(2)) == 1.0
    # scale invariance in r
    assert gate(MAGNITUDE, 7.0 * r) == pytest.approx(0.5, abs=1e-12)


def test_confidence_gate_passthrough_and_range():
    assert gate(CONFIDENCE, confidence=0.3) == pytest.approx(0.3)
    assert gate(CONFIDENCE, confidence=1.0) == 1.0
    # Confidences are range-checked where they enter: edge records and the
    # gate's default.
    for bad in (1.01, -0.2):
        with pytest.raises(ValidationError):
            Edge(sender="a", receiver="b", kind="labeled", content=EX, confidence=bad)
        with pytest.raises(ValidationError):
            ConfidenceGateConfig(enabled=True, default_confidence=bad)


# ---------------------------------------------------------------- topic inference


def test_topic_distribution_prefers_nearest_centroid():
    cents = np.eye(3)
    p = topic_distribution_batch(np.array([[0.9, 0.1, 0.0]]), cents)[0]
    assert p.argmax() == 0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert (p > 0).all()  # smoothing keeps support full


def test_topic_distribution_zero_vector_is_uniform():
    p = topic_distribution_batch(np.zeros((1, 3)), np.eye(3))[0]
    np.testing.assert_allclose(p, np.full(3, 1.0 / 3.0), atol=1e-12)


def test_topic_distribution_batch_matches_single():
    rng = np.random.default_rng(4)
    cents = rng.normal(size=(4, 6))
    vs = rng.normal(size=(10, 6))
    vs[3] = 0.0
    batch = topic_distribution_batch(vs, cents)
    for i in range(10):
        np.testing.assert_allclose(batch[i], _reference_distribution(vs[i], cents), atol=1e-12)


# ---------------------------------------------------------------- the stack


def test_gate_configs_validate():
    with pytest.raises(ValidationError):
        KlGateConfig(enabled=True, lam=-1.0)
    with pytest.raises(ValidationError):
        KlGateConfig(enabled=True, form="mystery")
    with pytest.raises(ValidationError):
        EntropyGateConfig(enabled=True, strength=-0.5)
    with pytest.raises(ValidationError):
        ConfidenceGateConfig(enabled=True, default_confidence=2.0)


def test_stack_disabled_is_identity():
    stack = GateStack()
    assert not stack.any_enabled
    assert gate(stack, np.array([5.0, 5.0])) == 1.0


def test_stack_multiplies_enabled_gates():
    # kl cosine gate at 0.5 times confidence 0.5 -> 0.25
    c2 = 1.0 - math.log(2.0)  # cos^2 with exp(-(1 - cos^2)) = 0.5
    r = np.array([math.sqrt(c2), math.sqrt(1.0 - c2)])
    stack = GateStack(
        kl=KlGateConfig(enabled=True, lam=1.0),
        confidence=ConfidenceGateConfig(enabled=True),
    )
    assert gate(stack, r, confidence=0.5) == pytest.approx(0.25, abs=1e-12)


def test_stack_softmax_form_requires_distributions():
    stack = kl_softmax(1.0)
    assert stack.needs_distributions()
    with pytest.raises(ValidationError):
        gate(stack)
    got = gate(stack, p_int=[0.5, 0.5], p_rep=[0.5, 0.5])
    assert got == pytest.approx(1.0, abs=1e-12)


def test_stack_confidence_requires_value():
    with pytest.raises(ValidationError):
        gate(CONFIDENCE)


def test_stack_values_stay_in_unit_interval():
    rng = np.random.default_rng(8)
    stack = GateStack(
        kl=KlGateConfig(enabled=True, lam=2.0),
        entropy=EntropyGateConfig(enabled=True, strength=1.5),
        magnitude_ratio=MagnitudeGateConfig(enabled=True),
        confidence=ConfidenceGateConfig(enabled=True),
    )
    for _ in range(50):
        r = rng.normal(size=4)
        e = rng.normal(size=4)
        e /= np.linalg.norm(e)
        p = rng.random(3) + 0.05
        p /= p.sum()
        g = gate(stack, r, e, p_int=p, confidence=float(rng.random()))
        assert 0.0 <= g <= 1.0


def test_stack_batch_matches_apply_stack():
    # Each row of stack_batch against the per-edge closed form.
    rng = np.random.default_rng(9)
    m, dim, d = 25, 5, 3
    r = rng.normal(size=(m, dim))
    r[0] = 0.0  # a zero-reputation sender
    e = rng.normal(size=(m, dim))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    conf = rng.random(m)
    p_int = rng.random((m, d)) + 0.05
    p_int /= p_int.sum(axis=1, keepdims=True)
    p_rep = rng.random((m, d)) + 0.05
    p_rep /= p_rep.sum(axis=1, keepdims=True)
    stacks = [
        GateStack(kl=KlGateConfig(enabled=True, lam=1.3)),
        GateStack(kl=KlGateConfig(enabled=True, form="softmax")),
        GateStack(entropy=EntropyGateConfig(enabled=True)),
        GateStack(magnitude_ratio=MagnitudeGateConfig(enabled=True)),
        GateStack(confidence=ConfidenceGateConfig(enabled=True)),
        GateStack(
            kl=KlGateConfig(enabled=True, lam=0.7, form="softmax"),
            entropy=EntropyGateConfig(enabled=True, strength=0.4),
            magnitude_ratio=MagnitudeGateConfig(enabled=True),
            confidence=ConfidenceGateConfig(enabled=True),
        ),
    ]
    for stack in stacks:
        got = stack_batch(stack, r, e, confidence=conf, p_int=p_int, p_rep=p_rep)
        for i in range(m):
            want = _reference_gate(stack, r[i], e[i], p_int[i], p_rep[i], float(conf[i]))
            assert got[i] == pytest.approx(want, abs=1e-12)
