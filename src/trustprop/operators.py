"""Transfer operators: how reputation crosses an edge, filtered by its content.

Every operator maps a sender's reputation vector R and a unit edge content e
to the vector that actually arrives at the receiver.  ``projection``,
``squared_gating``, ``hadamard_relu`` and ``hybrid`` are non-expansive in R
(1-Lipschitz), which is what lets the damped iteration contract.
``scalar_gated`` is not: its Lipschitz constant is 2/sqrt(3) ~ 1.1547,
reached by nearby pairs at cos(R, e) = sqrt(2/3), so the contraction
argument covers it only for alpha < sqrt(3)/2.  ``verify_lipschitz``
samples independent Gaussian pairs, which never come near that angle; it
reports about 0.51 for ``scalar_gated`` and is no bound.

Variants:

- ``projection``      max(0, R.e) e          -- rank-one, content direction only
- ``squared_gating``  R * e^2                -- componentwise, preserves R's shape
- ``scalar_gated``    clamp01(cos(R, e)) R   -- scales R by its alignment with e
- ``hadamard_relu``   max(0, R * e)          -- componentwise sign filter
- ``hybrid``          blend or per-edge choice of projection / squared_gating
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .vectorspace import off_unit, overflow_safe_norms, row_dots

VARIANTS = ("projection", "squared_gating", "scalar_gated", "hadamard_relu", "hybrid")
HYBRID_MODES = ("interpolate", "per_edge_select")

# CLI / config spellings.
OPERATOR_NAMES = {
    "projection": "projection",
    "squared": "squared_gating",
    "scalar": "scalar_gated",
    "relu": "hadamard_relu",
    "hybrid": "hybrid",
}


@dataclass(frozen=True)
class OperatorKind:
    """Selected transfer operator; hybrid parameters apply only to hybrid."""

    variant: str
    hybrid_gamma: float | None = None
    hybrid_mode: str | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown operator variant {self.variant!r}")
        if self.variant == "hybrid":
            gamma = 0.5 if self.hybrid_gamma is None else float(self.hybrid_gamma)
            mode = "per_edge_select" if self.hybrid_mode is None else self.hybrid_mode
            if not 0.0 <= gamma <= 1.0:
                raise ValidationError("hybrid_gamma must lie in [0, 1]")
            if mode not in HYBRID_MODES:
                raise ValidationError(f"unknown hybrid mode {mode!r}")
            object.__setattr__(self, "hybrid_gamma", gamma)
            object.__setattr__(self, "hybrid_mode", mode)
        else:
            if self.hybrid_gamma is not None or self.hybrid_mode is not None:
                raise ValidationError(
                    "hybrid_gamma/hybrid_mode only apply to the hybrid variant"
                )

    @property
    def uses_row_dots(self) -> bool:
        """Whether the transfer reads the row dots r . e."""
        return self.variant in ("projection", "scalar_gated", "hybrid")

    @property
    def uses_row_norms(self) -> bool:
        """Whether the transfer reads the row norms ||r||."""
        return self.variant == "scalar_gated"

    @classmethod
    def from_name(
        cls,
        name: str,
        hybrid_gamma: float | None = None,
        hybrid_mode: str | None = None,
    ) -> OperatorKind:
        if name not in OPERATOR_NAMES:
            raise ValidationError(f"unknown operator name {name!r}")
        variant = OPERATOR_NAMES[name]
        if variant == "hybrid":
            return cls(variant, hybrid_gamma, hybrid_mode)
        return cls(variant)


def transfer(
    kind: OperatorKind,
    r: np.ndarray,
    e: np.ndarray,
    edge_is_blind: bool = False,
) -> np.ndarray:
    """Apply one transfer operator to a single (R, e) pair."""
    r = np.asarray(r, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if r.shape != e.shape or r.ndim != 1:
        raise ValidationError("transfer expects matching 1-d vectors")
    if off_unit(e):
        raise ValidationError("edge content must be unit length")
    blind = np.asarray([edge_is_blind])
    return transfer_batch(kind, r[None, :], e[None, :], blind)[0]


def transfer_batch(
    kind: OperatorKind,
    r: np.ndarray,
    e: np.ndarray,
    blind: np.ndarray,
    dots: np.ndarray | None = None,
    norms: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized transfer over m edges: r, e are (m, E); blind is (m,) bool.

    ``dots`` (the row dots r . e) and ``norms`` (||r|| per row, as
    ``vectorspace.overflow_safe_norms`` takes them), each (m,), may be
    passed by a caller that has them already; what is left out is computed
    here.  The result is written into ``out``, an (m, E) float64 array that
    may be ``r`` itself, and returned; without one it goes into a new array.
    Either way each value comes from the same floating-point operations, so
    ``out`` changes no bit.
    """
    variant = kind.variant
    if variant == "projection":
        return _projection(r, e, dots, out)
    if variant == "squared_gating":
        squared = np.square(e)
        return np.multiply(r, squared, out=squared if out is None else out)
    if variant == "scalar_gated":
        dots = row_dots(r, e) if dots is None else dots
        norms = overflow_safe_norms(r) if norms is None else norms
        cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
        gate = np.clip(cos, 0.0, 1.0)
        return np.multiply(gate[:, None], r, out=out)
    if variant == "hadamard_relu":
        out = np.multiply(r, e, out=out)
        return np.maximum(out, 0.0, out=out)
    # hybrid: both transfers, the squared one first, while r is intact
    squared = np.square(e)
    np.multiply(r, squared, out=squared)
    out = _projection(r, e, dots, out)
    if kind.hybrid_mode == "interpolate":
        g = kind.hybrid_gamma
        out *= g
        squared *= 1.0 - g
        out += squared
    else:  # per_edge_select: squared gating on blind edges, projection on labeled
        np.copyto(out, squared, where=np.asarray(blind, dtype=bool)[:, None])
    return out


def _projection(
    r: np.ndarray, e: np.ndarray, dots: np.ndarray | None, out: np.ndarray | None
) -> np.ndarray:
    dots = row_dots(r, e) if dots is None else dots
    return np.multiply(np.maximum(dots, 0.0)[:, None], e, out=out)


def verify_lipschitz(
    kind: OperatorKind,
    samples: int = 10_000,
    seed: int = 0,
    dim: int = 32,
) -> float:
    """Max sampled expansion ratio ||f(R1,e)-f(R2,e)|| / ||R1-R2||.

    Draws seeded random triples (R1, R2, e) with unit e and random blind
    flags, skipping coincident pairs.  A non-expansive operator stays <= 1
    up to float noise.
    """
    if samples <= 0:
        raise ValidationError("samples must be positive")
    rng = np.random.default_rng([seed, 0x11D])
    r1 = rng.standard_normal((samples, dim))
    r2 = rng.standard_normal((samples, dim))
    e = rng.standard_normal((samples, dim))
    e /= overflow_safe_norms(e)[:, None]
    blind = rng.random(samples) < 0.5
    diff_in = overflow_safe_norms(r1 - r2)
    keep = diff_in > 0
    out = overflow_safe_norms(
        transfer_batch(kind, r1[keep], e[keep], blind[keep])
        - transfer_batch(kind, r2[keep], e[keep], blind[keep])
    )
    ratios = out / diff_in[keep]
    return float(ratios.max()) if ratios.size else 0.0
