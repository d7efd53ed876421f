"""Tests for the shared k-means implementation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.codebook import train_codebooks
from repro.quant.kmeans import kmeans
from support.reference import assign_to_centroids, reference_kmeans


def _blob_data(seed=0, n_per=50, centers=((0, 0), (10, 10), (-10, 5))):
    rng = np.random.default_rng(seed)
    blobs = [rng.normal(c, 0.5, size=(n_per, 2)) for c in centers]
    return np.concatenate(blobs, axis=0)


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        data = _blob_data()
        result = kmeans(data, 3, seed=0)
        assert result.n_clusters == 3
        # Each found centroid should be within 1.0 of a true blob centre.
        truth = np.asarray([(0, 0), (10, 10), (-10, 5)], dtype=float)
        for centroid in result.centroids:
            assert np.min(np.linalg.norm(truth - centroid, axis=1)) < 1.0

    def test_inertia_decreases_with_more_clusters(self):
        data = _blob_data(seed=1)
        inertia_2 = kmeans(data, 2, seed=0).inertia
        inertia_6 = kmeans(data, 6, seed=0).inertia
        assert inertia_6 < inertia_2

    def test_deterministic_for_seed(self):
        data = _blob_data(seed=2)
        a = kmeans(data, 4, seed=5)
        b = kmeans(data, 4, seed=5)
        np.testing.assert_allclose(a.centroids, b.centroids)

    def test_assignments_shape_and_range(self):
        data = _blob_data(seed=3)
        result = kmeans(data, 3, seed=0)
        assert result.assignments.shape == (data.shape[0],)
        assert result.assignments.min() >= 0 and result.assignments.max() < 3

    def test_fewer_samples_than_clusters(self):
        data = np.random.default_rng(4).normal(size=(3, 4))
        result = kmeans(data, 8, seed=0)
        assert result.centroids.shape == (8, 4)
        assert result.inertia == 0.0

    def test_1d_input(self):
        data = np.concatenate([np.zeros(20), np.ones(20) * 5])
        result = kmeans(data, 2, seed=0)
        assert sorted(np.round(result.centroids.reshape(-1), 1)) == [0.0, 5.0]

    def test_identical_points(self):
        data = np.ones((30, 3))
        result = kmeans(data, 4, seed=0)
        assert np.isfinite(result.centroids).all()
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_random_init(self):
        data = _blob_data(seed=5)
        result = kmeans(data, 3, seed=0, init="random")
        assert result.inertia < kmeans(data, 1, seed=0).inertia

    def test_invalid_args(self):
        data = _blob_data()
        with pytest.raises(Exception):
            kmeans(data, 0)
        with pytest.raises(Exception):
            kmeans(data, 2, n_iters=0)
        with pytest.raises(Exception):
            kmeans(data, 2, init="fancy")

    @given(
        n=st.integers(min_value=5, max_value=80),
        k=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_assignments_are_nearest_property(self, n, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, 3))
        result = kmeans(data, k, seed=seed)
        recomputed = assign_to_centroids(data, result.centroids)
        # Nearest-centroid distances of the recomputed assignment must not
        # exceed those of the returned assignment.
        def total_distance(assignment):
            return float(
                np.sum(np.linalg.norm(data - result.centroids[assignment], axis=1) ** 2)
            )
        assert total_distance(recomputed) <= total_distance(result.assignments) + 1e-6


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_raise(self, bad):
        data = _blob_data(seed=6)
        data[7] = bad
        with pytest.raises(ValueError):
            kmeans(data, 4, seed=0)
        vectors = np.tile(data, (1, 4))
        with pytest.raises(ValueError):
            train_codebooks(vectors, m_subspaces=4, nbits=2, seed=0)

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: prev_inertia starts at inf, so Lloyd stops after one iteration",
    )
    def test_lloyd_runs_more_than_one_iteration(self):
        result = kmeans(_blob_data(seed=7), 8, n_iters=25, seed=0)
        assert result.n_iter > 1


class TestMatchesOracle:
    """``kmeans`` equals the sequential per-problem oracle bit for bit."""

    @given(
        n=st.integers(min_value=1, max_value=60),
        d=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=20),
        distinct=st.integers(min_value=1, max_value=60),
        n_iters=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        init=st.sampled_from(["kmeans++", "random"]),
    )
    @example(n=8, d=2, k=8, distinct=8, n_iters=3, seed=0, init="kmeans++")  # n == K
    @example(n=9, d=2, k=8, distinct=9, n_iters=3, seed=1, init="kmeans++")  # n == K+1
    @example(n=40, d=1, k=6, distinct=40, n_iters=2, seed=2, init="kmeans++")  # d == 1
    @example(n=30, d=3, k=5, distinct=1, n_iters=2, seed=3, init="kmeans++")  # identical
    @example(n=40, d=2, k=12, distinct=3, n_iters=3, seed=4, init="random")  # empty clusters
    @settings(max_examples=60, deadline=None)
    def test_result_identical(self, n, d, k, distinct, n_iters, seed, init):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(distinct, d))[rng.integers(distinct, size=n)]
        got = kmeans(data, k, n_iters=n_iters, seed=seed, init=init)
        want = reference_kmeans(data, k, n_iters=n_iters, seed=seed, init=init)
        np.testing.assert_array_equal(got.centroids, want.centroids)
        np.testing.assert_array_equal(got.assignments, want.assignments)
        assert got.inertia == want.inertia
        assert got.n_iter == want.n_iter

    def test_shared_generator_left_in_the_same_state(self):
        """Callers that reuse one generator (``nuq``) see the same stream."""
        data = _blob_data(seed=8)
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        kmeans(data, 5, seed=got_rng)
        reference_kmeans(data, 5, seed=want_rng)
        assert got_rng.random() == want_rng.random()


class TestAssignToCentroids:
    def test_nearest(self):
        centroids = np.asarray([[0.0, 0.0], [10.0, 10.0]])
        data = np.asarray([[1.0, 0.5], [9.0, 9.5]])
        np.testing.assert_array_equal(assign_to_centroids(data, centroids), [0, 1])

    def test_1d(self):
        centroids = np.asarray([[0.0], [4.0]])
        np.testing.assert_array_equal(
            assign_to_centroids(np.asarray([0.1, 3.0, 5.0]), centroids), [0, 1, 1]
        )
