"""Multiplicative gates that attenuate transfers by topical (mis)alignment.

Each gate maps evidence about one edge i -> j, with sender reputation r and
unit content e, to a factor in [0, 1]; enabled gates multiply together.
Every factor is bounded by 1, so gating can only shrink a transfer.  That
keeps the transfer's Lipschitz constant for the factors that do not read r
(``entropy``, ``confidence``), but not for those that do: the alignment and
magnitude gates can raise it above 1 (the magnitude gate with projection to
2/sqrt(3)), and the contraction argument for the damped iteration then
does not cover the config, though it may still converge.

- alignment (``kl``), cosine proxy: exp(-lambda * (1 - cos^2(r, e))), the
  default; softmax form: exp(-lambda * KL(p_int || p_rep)) between the topic
  distributions of the content and of the sender's reputation;
- ``entropy``: exp(-strength * H(p_int)), so focused interactions pass more;
- ``magnitude_ratio``: max(0, r . e) / ||r||, the share of the sender's
  reputation aligned with the edge;
- ``confidence``: an exogenous per-edge confidence passed through.

A zero-reputation sender has nothing to misalign: the cosine and magnitude
gates pass 1.0 for it.  Topic distributions are smoothed softmaxes over
cosines to domain centroids, so they have full support and the KL and
entropy terms are always finite.  Everything here works on all m edges of
an iteration at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .vectorspace import centroid_cosines, overflow_safe_norms, row_dots

SMOOTHING = 1e-6


# --- topic distributions from embeddings -------------------------------------


def topic_distribution_batch(vs: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(m, E) vectors -> (m, D) smoothed softmax-over-cosine distributions."""
    cos, _ = centroid_cosines(vs, centroids)  # zero vector -> uniform
    z = np.exp(cos - cos.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    return (p + SMOOTHING) / (1.0 + p.shape[1] * SMOOTHING)


# --- gate stack ---------------------------------------------------------------


@dataclass(frozen=True)
class KlGateConfig:
    enabled: bool = False
    lam: float = 1.0
    form: str = "cosine_proxy"  # or "softmax"

    def __post_init__(self) -> None:
        if self.form not in ("cosine_proxy", "softmax"):
            raise ValidationError(f"unknown kl gate form {self.form!r}")
        if not self.lam >= 0:
            raise ValidationError("lambda must be >= 0")


@dataclass(frozen=True)
class EntropyGateConfig:
    enabled: bool = False
    strength: float = 1.0

    def __post_init__(self) -> None:
        if not self.strength >= 0:
            raise ValidationError("strength must be >= 0")


@dataclass(frozen=True)
class MagnitudeGateConfig:
    enabled: bool = False


@dataclass(frozen=True)
class ConfidenceGateConfig:
    enabled: bool = False
    default_confidence: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.default_confidence <= 1.0:
            raise ValidationError("default_confidence must lie in [0, 1]")


@dataclass(frozen=True)
class GateStack:
    """Which gates are enabled, with their parameters.  All off by default."""

    kl: KlGateConfig = field(default_factory=KlGateConfig)
    entropy: EntropyGateConfig = field(default_factory=EntropyGateConfig)
    magnitude_ratio: MagnitudeGateConfig = field(default_factory=MagnitudeGateConfig)
    confidence: ConfidenceGateConfig = field(default_factory=ConfidenceGateConfig)

    @property
    def any_enabled(self) -> bool:
        return (
            self.kl.enabled
            or self.entropy.enabled
            or self.magnitude_ratio.enabled
            or self.confidence.enabled
        )

    @property
    def uses_row_geometry(self) -> bool:
        """Whether an enabled gate reads the row dots r . e and norms ||r||."""
        cosine = self.kl.enabled and self.kl.form == "cosine_proxy"
        return cosine or self.magnitude_ratio.enabled

    def needs_distributions(self) -> bool:
        return self.entropy.enabled or (self.kl.enabled and self.kl.form == "softmax")


def entropy_factor(p_int: np.ndarray, strength: float) -> np.ndarray:
    """The entropy gate's factor exp(-strength * H(p_int)), one per (D,) row."""
    logs = np.log(p_int, out=np.zeros_like(p_int), where=p_int > 0)
    h = -(np.where(p_int > 0, p_int, 0.0) * logs).sum(axis=1)
    return np.exp(-strength * h)


def stack_batch(
    stack: GateStack,
    r: np.ndarray,
    e: np.ndarray,
    confidence: np.ndarray | None = None,
    p_int: np.ndarray | None = None,
    p_rep: np.ndarray | None = None,
    dots: np.ndarray | None = None,
    norms: np.ndarray | None = None,
    entropy: np.ndarray | None = None,
) -> np.ndarray:
    """Product of all enabled gate factors for m edges; 1.0 where none is on.

    ``r`` and ``e`` are (m, E) sender reputations and edge contents;
    ``confidence`` is (m,) and ``p_int``/``p_rep`` are (m, D) topic
    distributions.  Raises if an enabled gate is missing its input.  A
    caller that has them already may pass the row dots r . e, the row norms
    ||r|| (as ``vectorspace.overflow_safe_norms`` takes them) and the entropy
    factor of ``p_int`` (each (m,)); what is left out is computed here.
    """
    m = r.shape[0]
    value = np.ones(m)
    if stack.uses_row_geometry:
        norms = overflow_safe_norms(r) if norms is None else norms
        dots = row_dots(r, e) if dots is None else dots
    if stack.kl.enabled:
        if stack.kl.form == "cosine_proxy":
            cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
            cos = np.clip(cos, -1.0, 1.0)
            g = np.exp(-stack.kl.lam * (1.0 - cos * cos))
            value *= np.where(norms > 0, g, 1.0)
        else:
            if p_int is None or p_rep is None:
                raise ValidationError("softmax kl gate requires p_int and p_rep")
            ratio = np.log(p_int / p_rep, out=np.zeros_like(p_int), where=p_int > 0)
            kl = (np.where(p_int > 0, p_int, 0.0) * ratio).sum(axis=1)
            value *= np.exp(-stack.kl.lam * kl)
    if stack.entropy.enabled:
        if entropy is None:
            if p_int is None:
                raise ValidationError("entropy gate requires p_int")
            entropy = entropy_factor(p_int, stack.entropy.strength)
        value *= entropy
    if stack.magnitude_ratio.enabled:
        ratio = np.divide(
            np.maximum(dots, 0.0), norms, out=np.zeros_like(dots), where=norms > 0
        )
        value *= np.where(norms > 0, ratio, 1.0)
    if stack.confidence.enabled:
        if confidence is None:
            raise ValidationError("confidence gate requires per-edge confidences")
        value *= confidence
    return value
