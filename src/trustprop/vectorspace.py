"""Embedding-space utilities: mean centering, cosine geometry, synthetic vectors.

Raw embedding corpora tend to occupy a narrow cone (all pairwise cosines high),
which destroys topical discrimination downstream.  The remedy used throughout
this package is simple mean centering fit once per corpus snapshot: subtract
the corpus mean, then renormalize to unit length.

Every L2 row norm in the package follows one float64 rule,
``overflow_safe_norms``: a norm whose squares overflow is taken again on the
row scaled by its largest entry, and a finite norm keeps its bits.  Its
default kernel ``np.linalg.norm(x, axis=1)`` serves the engine, gates,
operators and retrieval (and a state's ``magnitudes``).  ``row_norms``
keeps the bits of the 1-D ``np.linalg.norm``, a BLAS dot product that sums
the squares in another order, so it serves where a batch must equal a
per-vector computation and for the norm of one vector or of a matrix.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DegenerateVectorError, ValidationError

# Norm below which a centered vector is considered to have no usable direction.
DEGENERATE_NORM = 1e-12

# Tolerance for "this stored vector should be unit length".
UNIT_TOL = 1e-6


def fit_centering(corpus: Iterable[np.ndarray]) -> np.ndarray:
    """The (E,) arithmetic mean of a corpus of embeddings, each given alone
    or in a (K, E) block; an empty block adds none.

    The corpus must hold at least one embedding, all of one dim.
    """
    items = [np.asarray(v, dtype=np.float64) for v in corpus]
    if any(v.ndim not in (1, 2) for v in items):
        raise ValidationError("embeddings must be one-dimensional")
    blocks = [b for b in map(np.atleast_2d, items) if len(b)]
    if not blocks:
        raise ValidationError("centering corpus is empty")
    width = blocks[0].shape[1:]
    for b in blocks:
        if b.shape[1:] != width:
            raise ValidationError(
                f"dimension mismatch in centering corpus: {b.shape[1:]} != {width}"
            )
    return np.vstack(blocks).mean(axis=0)


def overflow_safe_norms(
    x: np.ndarray, norm: Callable = lambda x: np.linalg.norm(x, axis=1)
) -> np.ndarray:
    """``norm(x)``, one L2 norm per row of a (K, E) matrix, where a norm whose
    squares overflowed to inf is taken again as m * norm(x / m), m = max |x|
    over its row.  A row with an inf entry, or a norm past the float range,
    stays inf; every finite norm keeps its bits; no overflow warning is raised.
    """
    with np.errstate(over="ignore"):
        norms = norm(x)
        big = np.flatnonzero(np.isinf(norms))
        if big.size:
            rows = x[big]
            m = np.abs(rows).max(axis=1)
            ok = np.isfinite(m)
            norms[big[ok]] = m[ok] * norm(rows[ok] / m[ok, None])
    return norms


def row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a (K, E) matrix, equal bit for bit to a 1-D
    ``np.linalg.norm`` of that row where that is finite, and overflow-safe.

    A stacked (1, E) @ (E, 1) product is the same dot product the 1-D norm
    takes (on contiguous rows, hence the copy of a strided input);
    ``np.linalg.norm(x, axis=1)`` sums in another order.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    return overflow_safe_norms(x, lambda x: np.sqrt((x[:, None, :] @ x[:, :, None]).ravel()))


def off_unit(vectors: np.ndarray) -> np.ndarray | bool:
    """Whether a vector, or each row of a (K, E) matrix, is not unit length.

    Written as "not <=" so that a NaN norm is off too.  A row norm that
    overflows is finite (``row_norms`` scales it) and still off unit length;
    a vector's is inf, and off, with no warning (``np.vdot`` reports none).
    A vector's norm is the one the 1-D ``np.linalg.norm`` takes, bit for bit:
    the square root of the dot product of its ``ravel(order="K")``.
    """
    if vectors.ndim == 1:
        flat = vectors.ravel(order="K")
        return not abs(math.sqrt(np.vdot(flat, flat)) - 1.0) <= UNIT_TOL
    return ~(np.abs(row_norms(vectors) - 1.0) <= UNIT_TOL)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] . b[k] for each row k of two (K, E) matrices."""
    return np.einsum("ij,ij->i", a, b)


def center_and_normalize(mean: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Subtract the corpus mean and rescale to unit length.

    ``v`` is one vector of the mean's dim or a (K, E) matrix, centered row
    by row.  Raises DegenerateVectorError if a centered vector has no
    direction left (norm below 1e-12); silently emitting a zero would poison
    every cosine computed from it downstream.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != mean.shape or v.ndim > 2:
        raise ValidationError(
            f"vector dim {v.shape} does not match centering model {mean.shape}"
        )
    shifted = np.atleast_2d(v) - mean
    norms = row_norms(shifted)
    if (norms < DEGENERATE_NORM).any():
        raise DegenerateVectorError(
            "vector is degenerate after centering (norm < 1e-12)"
        )
    out = shifted / norms[:, None]
    return out[0] if v.ndim == 1 else out


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against float drift; the norms
    are ``row_norms``, so a vector whose squares overflow keeps its cosine."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"cosine shape mismatch: {a.shape} vs {b.shape}")
    na, nb = row_norms(np.stack([a.ravel(), b.ravel()])).tolist()
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine undefined for zero-norm input")
    return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))


def centroid_cosines(vs: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, D) cosines of (m, E) rows to (D, E) centroids, and the (m,) row norms
    (``overflow_safe_norms``); a row whose norm is 0 (its squares may underflow)
    or NaN has cosines 0, and one whose squares overflow keeps its cosines."""
    vs = np.asarray(vs, dtype=np.float64)
    cents = np.asarray(cents, dtype=np.float64)
    norms = overflow_safe_norms(vs)
    cnorms = overflow_safe_norms(cents)
    safe = np.where(norms > 0, norms, 1.0)
    cos = (vs @ cents.T) / (safe[:, None] * cnorms[None, :])
    return np.where(norms[:, None] > 0, cos, 0.0), norms


# --- synthetic embedding space ------------------------------------------------

# Pairwise |cosine| ceiling the centroid family is orthogonalized down to.
CENTROID_MAX_COSINE = 0.2


def build_centroids(
    domains: Sequence[str],
    dim: int,
    seed: int,
    max_cosine: float = CENTROID_MAX_COSINE,
) -> dict[str, np.ndarray]:
    """Seeded near-orthogonal unit centroids, one per domain label.

    Random unit vectors are partially orthogonalized by iterative projection
    removal until every distinct pair satisfies |cosine| <= max_cosine.
    Deterministic for fixed (domains, dim, seed).
    """
    labels = list(domains)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate domain labels")
    if not labels:
        raise ValidationError("no domain labels given")
    if len(labels) > dim:
        raise ValidationError(
            f"cannot fit {len(labels)} near-orthogonal centroids in dim {dim}"
        )
    rng = np.random.default_rng([seed, 0xC3])
    vecs = rng.standard_normal((len(labels), dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    # Leave a small margin under the contract so float drift cannot breach it.
    target = max_cosine - 0.02
    for _ in range(500):
        gram = vecs @ vecs.T
        np.fill_diagonal(gram, 0.0)
        if float(np.abs(gram).max()) <= target:
            break
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                c = float(vecs[i] @ vecs[j])
                if abs(c) > target:
                    vecs[j] = vecs[j] - 0.5 * c * vecs[i]
                    vecs[j] /= np.linalg.norm(vecs[j])
    gram = vecs @ vecs.T
    np.fill_diagonal(gram, 0.0)
    if float(np.abs(gram).max()) > max_cosine:
        raise ValidationError("centroid orthogonalization did not converge")
    return {label: vecs[k] for k, label in enumerate(labels)}


def synthetic_embedding(
    centroids: Mapping[str, np.ndarray],
    seed: int,
    domain_mix: Mapping[str, float],
    noise: float,
) -> np.ndarray:
    """Deterministic unit vector near a weighted blend of domain centroids.

    The blend is the normalized weighted sum of the named centroids; `noise`
    scales a seeded isotropic perturbation added before the final
    renormalization.
    """
    if noise < 0:
        raise ValidationError("noise must be >= 0")
    items = sorted(domain_mix.items())
    if not items or all(w == 0 for _, w in items):
        raise ValidationError("domain_mix has no mass")
    dim = None
    base = None
    for label, weight in items:
        if label not in centroids:
            raise ValidationError(f"unknown domain label {label!r}")
        if weight < 0:
            raise ValidationError("domain_mix weights must be >= 0")
        c = np.asarray(centroids[label], dtype=np.float64)
        if base is None:
            dim = c.shape[0]
            base = np.zeros(dim)
        base = base + weight * c
    norm = float(np.linalg.norm(base))
    if norm < DEGENERATE_NORM:
        raise ValidationError("domain_mix cancels to zero")
    base = base / norm
    if noise > 0.0:
        rng = np.random.default_rng([seed, 0x5E])
        g = rng.standard_normal(dim)
        g /= np.linalg.norm(g)
        base = base + noise * g
        base /= np.linalg.norm(base)
    return base
