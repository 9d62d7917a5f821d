"""Tests for embedding-space utilities: centering, cosine, centroids."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustprop.errors import ValidationError
from trustprop.vectorspace import (
    CENTROID_MAX_COSINE,
    CenteringModel,
    DegenerateVectorError,
    build_centroids,
    center_and_normalize,
    centroid_cosines,
    cosine,
    fit_centering,
    overflow_safe_norms,
    row_norms,
    synthetic_embedding,
)

LABELS = ("alpha", "beta", "gamma", "delta")


def _brute_force_mean(cloud):
    # Plain-Python oracle, deliberately independent of numpy reductions.
    n = len(cloud)
    dim = len(cloud[0])
    sums = [0.0] * dim
    for vec in cloud:
        for k in range(dim):
            sums[k] += float(vec[k])
    return [s / n for s in sums]


def test_fit_centering_matches_brute_force_mean():
    rng = np.random.default_rng(7)
    cloud = rng.normal(size=(40, 8))
    model = fit_centering(cloud)
    oracle = _brute_force_mean(cloud)
    assert model.sample_count == 40
    assert model.dim == 8
    np.testing.assert_allclose(model.mean, oracle, atol=1e-12)


def test_centered_cloud_has_negligible_mean():
    rng = np.random.default_rng(11)
    cloud = rng.normal(size=(64, 16)) + 3.0  # strong shared offset
    model = fit_centering(cloud)
    centered = np.array([center_and_normalize(model, v) for v in cloud])
    residual = np.linalg.norm(centered.mean(axis=0))
    # Directions are re-normalised so the mean is not exactly zero, but the
    # dominant shared component must be gone.
    assert residual < 0.5
    shifted = cloud - model.mean
    assert np.linalg.norm(shifted.mean(axis=0)) <= 1e-9 * math.sqrt(16)


def test_center_and_normalize_returns_unit_vectors():
    rng = np.random.default_rng(3)
    cloud = rng.normal(size=(10, 6))
    model = fit_centering(cloud)
    for v in cloud:
        out = center_and_normalize(model, v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_center_and_normalize_rejects_degenerate_result():
    model = CenteringModel(mean=np.array([1.0, 2.0]), sample_count=4)
    with pytest.raises(DegenerateVectorError):
        center_and_normalize(model, np.array([1.0, 2.0]))
    # A matrix is rejected if any one of its rows degenerates.
    with pytest.raises(DegenerateVectorError):
        center_and_normalize(model, np.array([[3.0, 0.0], [1.0, 2.0]]))


def test_center_and_normalize_rejects_mismatched_shapes():
    model = CenteringModel(mean=np.array([1.0, 2.0]), sample_count=4)
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValidationError):
            center_and_normalize(model, bad)


def _reference_center(model, v):
    """Per-vector centering: shift, then divide by the 1-D norm."""
    shifted = v - model.mean
    return shifted / float(np.linalg.norm(shifted))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 30), dim=st.integers(1, 70))
def test_center_and_normalize_matrix_equals_per_vector(seed, k, dim):
    rng = np.random.default_rng(seed)
    cloud = rng.standard_normal((k + 1, dim)) + 2.0
    model = fit_centering(cloud)
    batch = center_and_normalize(model, cloud[:k])
    expected = np.array([_reference_center(model, v) for v in cloud[:k]])
    assert batch.shape == (k, dim)
    assert np.array_equal(batch, expected)
    for v, row in zip(cloud[:k], expected):
        assert np.array_equal(center_and_normalize(model, v), row)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 40),
    dim=st.integers(1, 70),
    layout=st.sampled_from(["contiguous", "reversed", "fortran", "zero_rows"]),
)
@example(seed=0, k=0, dim=5, layout="contiguous")
@example(seed=1, k=36000, dim=64, layout="contiguous")
def test_row_norms_equal_per_row_norm(seed, k, dim, layout):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, dim)) * rng.uniform(1e-3, 1e3, (k, 1))
    if layout == "reversed":
        x = x[:, ::-1]
    elif layout == "fortran":
        x = np.asfortranarray(x)
    elif layout == "zero_rows":
        x[::3] = 0.0
    expected = np.array([np.linalg.norm(v) for v in x], dtype=np.float64)
    got = row_norms(x)
    assert got.shape == (k,)
    assert np.array_equal(got, expected)


def test_fit_centering_validates_input():
    with pytest.raises(ValueError):
        fit_centering([])
    with pytest.raises(ValueError):
        fit_centering([np.array([1.0, 2.0]), np.array([1.0])])


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5),
    dim=st.integers(1, 9),
)
def test_fit_centering_over_blocks_equals_the_fit_over_their_rows(seed, sizes, dim):
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-3, 4) for k in sizes]
    rows = [row for block in blocks for row in block]
    if not rows:
        with pytest.raises(ValidationError, match="^centering corpus is empty$"):
            fit_centering(blocks)
        return
    # A single vector counts as a block of one.
    for corpus in (blocks, blocks[:1] + rows[len(blocks[0]):]):
        model = fit_centering(corpus)
        reference = fit_centering(rows)
        assert model.sample_count == reference.sample_count == len(rows)
        assert model.mean.tobytes() == reference.mean.tobytes()


@pytest.mark.parametrize(
    "corpus, message",
    [([], "centering corpus is empty"),
     ([np.empty((0, 3)), np.empty((0, 3))], "centering corpus is empty"),
     ([np.zeros((2, 3)), np.zeros(2)], r"dimension mismatch in centering corpus: \(2,\) != \(3,\)"),
     ([np.zeros(3), np.zeros((0, 3)), np.zeros((1, 4))],
      r"dimension mismatch in centering corpus: \(4,\) != \(3,\)"),
     ([np.zeros((1, 2, 3))], "embeddings must be one-dimensional")],
    ids=["no_items", "empty_blocks", "vector_after_block", "block_after_vector", "3d"],
)
def test_fit_centering_rejects_empty_and_mixed_corpora(corpus, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        fit_centering(corpus)


def _cosines_by_formula(vs, cents, norms):
    """centroid_cosines' formula on given row norms."""
    cnorms = np.linalg.norm(cents, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    cos = (vs @ cents.T) / (safe[:, None] * cnorms[None, :])
    return np.where(norms[:, None] > 0, cos, 0.0)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.integers(-320, 307), max_size=8),
    dim=st.integers(1, 8),
)
@example(seed=0, exponents=[306, 0, 154, 155, -200], dim=8)
def test_row_norms_keep_finite_norms_and_rescue_overflowed_ones(seed, exponents, dim):
    # Every row's true norm is finite (at most sqrt(8) * 1e307); a row's
    # squares overflow from about 1e154 on.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (len(exponents), dim)) * 10.0 ** np.array(exponents)[:, None]
    # Unit centroids: no dot product with a row exceeds the row's norm.
    cents = rng.standard_normal((3, dim)) + 0.1
    cents /= np.linalg.norm(cents, axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        per_row = np.array([np.linalg.norm(v) for v in x])
        axis = np.linalg.norm(x, axis=1)
    true = np.array([math.hypot(*v) for v in x])
    cos, norms = centroid_cosines(x, cents)
    for got, plain in ((row_norms(x), per_row), (overflow_safe_norms(x), axis), (norms, axis)):
        assert got.shape == (len(exponents),)
        finite = np.isfinite(plain)
        assert got[finite].tobytes() == plain[finite].tobytes()
        np.testing.assert_allclose(got[~finite], true[~finite], rtol=1e-14)
    assert cos.tobytes() == _cosines_by_formula(x, cents, norms).tobytes()
    assert np.isfinite(cos).all()


def test_norms_of_a_row_whose_squares_overflow_are_finite():
    big = np.full((1, 64), 1e306)
    cents = np.vstack(list(build_centroids(LABELS, dim=64, seed=2).values()))
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert np.isinf(np.linalg.norm(big, axis=1)).all()
    cos, norms = centroid_cosines(big, cents)
    assert row_norms(big)[0] == pytest.approx(8e306, rel=1e-15)
    assert norms[0] == pytest.approx(8e306, rel=1e-15)
    # The cosines are those of the same direction at unit scale.
    np.testing.assert_allclose(cos, centroid_cosines(np.ones((1, 64)), cents)[0], rtol=1e-14)


def test_a_norm_past_the_float_range_stays_inf():
    rows = np.array([[1.5e308, 1.5e308], [np.inf, 1.0], [3.0, 4.0]])
    assert row_norms(rows).tolist() == [np.inf, np.inf, 5.0]
    assert overflow_safe_norms(rows).tolist() == [np.inf, np.inf, 5.0]


def test_cosine_basic_values():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert cosine(a, a) == pytest.approx(1.0, abs=1e-12)
    assert cosine(a, b) == pytest.approx(0.0, abs=1e-12)
    assert cosine(a, -a) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_is_clamped_against_rounding():
    v = np.array([0.1] * 9)
    c = cosine(v, 3.7 * v)
    assert -1.0 <= c <= 1.0
    assert c == pytest.approx(1.0, abs=1e-12)


def test_cosine_of_a_vector_whose_squares_overflow():
    # A plain norm of 1e306 * u is inf, which read the cosine as 0.
    u = np.array([0.6, 0.8, 0.0])
    assert cosine(1e306 * u, u) == pytest.approx(1.0, abs=1e-12)
    assert cosine(u, -1e306 * u) == pytest.approx(-1.0, abs=1e-12)
    assert cosine(1e306 * u, np.array([0.0, 0.0, 1.0])) == 0.0


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 70))
def test_cosine_keeps_the_bits_of_the_plain_formula(seed, dim):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, dim)) * rng.uniform(1e-3, 1e3, (2, 1))
    plain = float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    assert cosine(a, b) == float(np.clip(plain, -1.0, 1.0))


def test_cosine_rejects_zero_norm_and_shape_mismatch():
    with pytest.raises(ValueError):
        cosine(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_build_centroids_unit_norm_and_separation():
    cents = build_centroids(LABELS, dim=32, seed=5)
    assert set(cents) == set(LABELS)
    vecs = [cents[name] for name in LABELS]
    for v in vecs:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert abs(cosine(vecs[i], vecs[j])) <= CENTROID_MAX_COSINE


def test_build_centroids_is_seed_deterministic():
    a = build_centroids(LABELS, dim=16, seed=9)
    b = build_centroids(LABELS, dim=16, seed=9)
    for name in LABELS:
        assert np.array_equal(a[name], b[name])


def test_build_centroids_rejects_bad_requests():
    with pytest.raises(ValueError):
        build_centroids((), dim=8, seed=0)
    with pytest.raises(ValueError):
        build_centroids(("x", "x"), dim=8, seed=0)
    with pytest.raises(ValueError):
        build_centroids(("a", "b", "c"), dim=2, seed=0)


def test_synthetic_embedding_is_unit_and_deterministic():
    cents = build_centroids(LABELS, dim=16, seed=2)
    v1 = synthetic_embedding(cents, seed=10, domain_mix={"alpha": 1.0}, noise=0.3)
    v2 = synthetic_embedding(cents, seed=10, domain_mix={"alpha": 1.0}, noise=0.3)
    assert np.array_equal(v1, v2)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-12


def test_synthetic_embedding_tracks_its_domain():
    cents = build_centroids(LABELS, dim=16, seed=2)
    hits = 0
    for s in range(400):
        label = LABELS[s % len(LABELS)]
        v = synthetic_embedding(cents, seed=s, domain_mix={label: 1.0}, noise=0.3)
        sims = {name: cosine(v, cents[name]) for name in LABELS}
        if max(sims, key=sims.get) == label:
            hits += 1
    assert hits / 400 >= 0.95


def test_synthetic_embedding_mix_leans_toward_heavier_domain():
    cents = build_centroids(LABELS, dim=16, seed=2)
    v = synthetic_embedding(
        cents, seed=77, domain_mix={"alpha": 0.8, "beta": 0.2}, noise=0.1
    )
    assert cosine(v, cents["alpha"]) > cosine(v, cents["beta"])


def test_synthetic_embedding_validates_mix():
    cents = build_centroids(LABELS, dim=16, seed=2)
    with pytest.raises(ValueError):
        synthetic_embedding(cents, seed=0, domain_mix={"nope": 1.0}, noise=0.1)
    with pytest.raises(ValueError):
        synthetic_embedding(cents, seed=0, domain_mix={"alpha": 0.0}, noise=0.1)
    with pytest.raises(ValueError):
        synthetic_embedding(cents, seed=0, domain_mix={"alpha": -1.0}, noise=0.1)
    with pytest.raises(ValueError):
        synthetic_embedding(cents, seed=0, domain_mix={"alpha": 1.0}, noise=-0.5)
