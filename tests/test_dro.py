"""Distributional random oversampling: profiles, extension, dataset growth."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import chisquare

from stylauth.dro import (
    DroConfig,
    ExtendedVector,
    extend,
    extended_to_csr,
    fit_profiles,
    oversample,
    sample_latent_counts,
    synthetic_positive_count,
)
from stylauth.errors import DroError
from stylauth.features import SparseVector
from stylauth.rng import spawn_rng


def make_vector(indices, values, dim, instance_id="v", occurrences=None) -> SparseVector:
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    return SparseVector(
        instance_id=instance_id,
        indices=indices,
        values=values,
        dim=dim,
        space_fingerprint="",
        occurrence_count=occurrences if occurrences is not None else len(indices),
    )


class TestFitProfiles:
    def test_point_mass_for_single_occurrence_feature(self):
        X = np.zeros((5, 2))
        X[3, 0] = 0.7  # feature 0 occurs only in instance 3
        X[:, 1] = 1.0
        profiles = fit_profiles(sp.csr_matrix(X))
        idx, probs = profiles.profile(0)
        assert idx.tolist() == [3]
        assert probs.tolist() == [1.0]

    def test_equal_weights_split_evenly(self):
        X = np.zeros((4, 1))
        X[1, 0] = 0.5
        X[2, 0] = 0.5
        profiles = fit_profiles(sp.csr_matrix(X))
        idx, probs = profiles.profile(0)
        assert sorted(idx.tolist()) == [1, 2]
        assert probs == pytest.approx([0.5, 0.5])

    def test_profiles_sum_to_one(self):
        rng = np.random.default_rng(31)
        X = sp.random(20, 15, density=0.3, random_state=7, format="csr")
        profiles = fit_profiles(X)
        for f in range(15):
            prof = profiles.profile(f)
            if prof is not None:
                assert prof[1].sum() == pytest.approx(1.0, abs=1e-9)

    def test_unseen_feature_uses_fallback(self):
        X = np.zeros((3, 2))
        X[:, 0] = 1.0  # feature 1 has zero weight everywhere
        profiles = fit_profiles(sp.csr_matrix(X))
        assert profiles.profile(1) is None

    def test_empty_matrix_rejected(self):
        with pytest.raises(DroError):
            fit_profiles(sp.csr_matrix((0, 4)))

    def test_negative_weights_rejected(self):
        X = sp.csr_matrix(np.array([[1.0, -0.1]]))
        with pytest.raises(DroError):
            fit_profiles(X)


class TestExtend:
    def _profiles(self, n=4, d=3):
        rng = np.random.default_rng(8)
        X = sp.csr_matrix(np.abs(rng.normal(size=(n, d))))
        return fit_profiles(X)

    def test_zero_vector_gets_zero_latent_block(self):
        profiles = self._profiles()
        vector = make_vector([], [], 3, occurrences=0)
        extended = extend(vector, profiles, None, spawn_rng(0, "t"))
        assert extended.latent_indices.size == 0
        assert extended.dim == 3 + profiles.latent_dim

    def test_point_mass_profile_forces_unit_vector(self):
        X = np.zeros((5, 1))
        X[2, 0] = 1.0
        profiles = fit_profiles(sp.csr_matrix(X))
        vector = make_vector([0], [0.9], 1)
        for m in (1, 7, 500):
            extended = extend(vector, profiles, m, spawn_rng(m, "t"))
            assert extended.latent_indices.tolist() == [2]
            assert extended.latent_values.tolist() == [1.0]

    def test_latent_block_is_l2_normalized(self):
        profiles = self._profiles()
        vector = make_vector([0, 1, 2], [0.5, 0.3, 0.2], 3)
        extended = extend(vector, profiles, 200, spawn_rng(1, "t"))
        norm = float(np.sqrt(np.sum(extended.latent_values**2)))
        assert norm == pytest.approx(1.0)

    def test_natural_block_is_the_same_object(self):
        profiles = self._profiles()
        vector = make_vector([0, 2], [0.7, 0.3], 3)
        extended = extend(vector, profiles, 50, spawn_rng(2, "t"))
        assert extended.natural is vector

    def test_fixed_seed_reproducible(self):
        profiles = self._profiles()
        vector = make_vector([0, 1], [0.6, 0.4], 3)
        a = extend(vector, profiles, 100, spawn_rng(5, "path"))
        b = extend(vector, profiles, 100, spawn_rng(5, "path"))
        assert np.array_equal(a.latent_indices, b.latent_indices)
        assert a.latent_values.tobytes() == b.latent_values.tobytes()

    def test_zero_samples_with_nonzero_vector_rejected(self):
        profiles = self._profiles()
        vector = make_vector([0], [1.0], 3)
        with pytest.raises(DroError):
            extend(vector, profiles, 0, spawn_rng(0, "t"))

    def test_dimension_mismatch_rejected(self):
        profiles = self._profiles(d=3)
        vector = make_vector([0], [1.0], 7)
        with pytest.raises(DroError):
            extend(vector, profiles, 5, spawn_rng(0, "t"))

    def test_fingerprint_mismatch_rejected(self):
        X = sp.csr_matrix(np.ones((2, 1)))
        profiles = fit_profiles(X, space_fingerprint="space-a")
        vector = make_vector([0], [1.0], 1)
        vector.space_fingerprint = "space-b"
        with pytest.raises(DroError):
            extend(vector, profiles, 5, spawn_rng(0, "t"))

    def test_combined_indices_offset_latent_block(self):
        profiles = self._profiles()
        vector = make_vector([1], [1.0], 3)
        extended = extend(vector, profiles, 30, spawn_rng(3, "t"))
        idx, vals = extended.combined()
        assert idx[0] == 1
        assert np.all(idx[1:] >= 3)
        assert len(idx) == len(vals)

    def test_empirical_latent_distribution_converges_to_profile(self):
        # one feature spread over 6 instances with known proportions
        weights = np.array([0.05, 0.1, 0.15, 0.2, 0.2, 0.3])
        X = sp.csr_matrix(weights.reshape(6, 1))
        profiles = fit_profiles(X)
        vector = make_vector([0], [1.0], 1)
        counts = sample_latent_counts(vector, profiles, 10_000, spawn_rng(99, "chi"))
        result = chisquare(counts, f_exp=weights * 10_000)
        assert result.pvalue > 0.01


def reference_profiles(X) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Each feature's (latent indices, probabilities), divided by its own sum."""
    csc = sp.csc_matrix(X, dtype=np.float64)
    sums = np.asarray(csc.sum(axis=0)).ravel()
    out = []
    for f in range(X.shape[1]):
        start, end = csc.indptr[f], csc.indptr[f + 1]
        idx = csc.indices[start:end].astype(np.int64)
        out.append(None if sums[f] <= 0 else (idx, csc.data[start:end] / sums[f]))
    return out


def reference_latent_counts(vector, X, m, rng) -> np.ndarray:
    """Per-feature inverse-CDF loop: each draw's uniform looked up in its
    feature's own cumulative sum, floor(u * n) for the uniform fallback."""
    n = X.shape[0]
    counts = np.zeros(n)
    total = float(vector.values.sum())
    if total <= 0:
        return counts
    feature_draws = rng.multinomial(m, vector.values / total)
    uniforms = iter(rng.random(m).tolist())
    for pos in np.nonzero(feature_draws)[0]:
        prof = reference_profiles(X)[int(vector.indices[pos])]
        for _ in range(int(feature_draws[pos])):
            u = next(uniforms)
            if prof is None:
                counts[int(u * n)] += 1
            else:
                idx, probs = prof
                cum = np.cumsum(probs)
                cum[-1] = 1.0
                counts[idx[min(int(np.searchsorted(cum, u, side="right")), len(idx) - 1)]] += 1
    return counts


class TestSamplerTables:
    def _fixture(self):
        keep = np.ones(40)
        keep[7] = 0.0  # an all-zero column: uniform fallback
        X = sp.random(30, 40, density=0.2, random_state=11, format="csr") @ sp.diags(keep)
        X = sp.csr_matrix(X)
        X.eliminate_zeros()
        rng = np.random.default_rng(12)
        indices = np.sort(rng.choice(40, size=25, replace=False))
        indices = np.union1d(indices, [7])
        vector = make_vector(indices, rng.random(indices.shape[0]) + 0.01, 40)
        return X, vector

    @pytest.mark.parametrize("m", [1, 5, 200, 20_000])
    def test_draws_match_per_feature_reference(self, m):
        X, vector = self._fixture()
        profiles = fit_profiles(X)
        assert profiles.profile(7) is None
        for seed in range(6):
            got = sample_latent_counts(vector, profiles, m, spawn_rng(seed, "tables"))
            want = reference_latent_counts(vector, X, m, spawn_rng(seed, "tables"))
            assert np.array_equal(got, want)

    def test_each_feature_draws_from_its_profile(self):
        X, _ = self._fixture()
        profiles = fit_profiles(X)
        assert profiles.profile(7) is None
        m = 20_000
        for f, want in enumerate(reference_profiles(X)):
            vector = make_vector([f], [1.0], 40)
            counts = sample_latent_counts(vector, profiles, m, spawn_rng(f, "profile-draws"))
            assert counts.sum() == m
            if want is None:
                assert chisquare(counts).pvalue > 0.01  # uniform over all 30 rows
            else:
                idx, probs = want
                outside = np.delete(counts, idx)
                assert not outside.any(), f"feature {f} drew outside its support"
                assert chisquare(counts[idx], f_exp=probs * m).pvalue > 0.01, f"feature {f}"

    def test_profiles_match_per_feature_division(self):
        X, _ = self._fixture()
        profiles = fit_profiles(X)
        for f, want in enumerate(reference_profiles(X)):
            got = profiles.profile(f)
            if want is None:
                assert got is None
            else:
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()

    def test_profile_arrays_are_read_only(self):
        X, _ = self._fixture()
        profiles = fit_profiles(X)
        idx, probs = profiles.profile(0)
        for array in (idx, probs):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_out_of_range_feature_rejected(self):
        X, _ = self._fixture()
        profiles = fit_profiles(X)
        for feature in (-1, 40):
            with pytest.raises(DroError):
                profiles.profile(feature)


class EdgeUniforms:
    """A generator whose uniforms all sit on one edge of [0, 1)."""

    def __init__(self, edge: float):
        self.edge = edge

    def multinomial(self, n, pvals):
        return np.random.default_rng(0).multinomial(n, pvals)

    def random(self, size):
        return np.full(size, self.edge)


class TestCumulativeTableEdges:
    N_FEATURES = 2056

    def _profiles(self):
        rng = np.random.default_rng(23)
        n = 6
        stored = rng.random((n, self.N_FEATURES)) < 0.5
        stored[rng.integers(0, n, self.N_FEATURES), np.arange(self.N_FEATURES)] = True
        X = np.where(stored, rng.random((n, self.N_FEATURES)) + 0.01, 0.0)
        X[:, -8:] = 0.0  # the last column stays all zero: uniform fallback
        for col, row in enumerate([0, 1, 2, 3, 4, 5, 0]):
            X[row, self.N_FEATURES - 8 + col] = 1.0  # point masses on changing rows
        X[:, -12] = 0.0  # an all-zero column amid full ones
        return X, fit_profiles(sp.csr_matrix(X))

    def test_last_cumulative_entry_is_exactly_column_end(self):
        _, profiles = self._profiles()
        indptr, cum = profiles._indptr, profiles._cum
        filled = 0
        for f in range(self.N_FEATURES):
            if indptr[f + 1] > indptr[f]:
                assert cum[indptr[f + 1] - 1] == f + 1.0
                filled += 1
        assert filled == self.N_FEATURES - 2
        assert np.all(np.diff(cum) >= 0)

    @pytest.mark.parametrize("edge", [0.0, np.nextafter(1.0, 0.0)])
    def test_edge_uniforms_stay_in_their_column(self, edge):
        X, profiles = self._profiles()
        m = 50
        for f in list(range(self.N_FEATURES - 16, self.N_FEATURES)) + [0, 1, 1023, 1024]:
            vector = make_vector([f], [1.0], self.N_FEATURES)
            counts = sample_latent_counts(vector, profiles, m, EdgeUniforms(edge))
            assert counts.sum() == m
            support = np.nonzero(X[:, f])[0]
            if support.size == 0:
                support = np.arange(X.shape[0])
            assert set(np.nonzero(counts)[0]) <= set(support.tolist()), f"feature {f}"


class TestSyntheticCount:
    def test_reference_imbalance(self):
        # 121 positives vs 5309 negatives at a 20/80 target
        assert synthetic_positive_count(121, 5309, 0.20) == 1206

    def test_ratio_already_met(self):
        assert synthetic_positive_count(20, 80, 0.20) == 0

    def test_hand_solved_small_case(self):
        # (0.5*4 - 0.5*1) / 0.5 = 3
        assert synthetic_positive_count(1, 4, 0.50) == 3

    def test_never_negative(self):
        assert synthetic_positive_count(90, 10, 0.20) == 0

    def test_invalid_ratio_rejected(self):
        with pytest.raises(DroError):
            synthetic_positive_count(1, 1, 0.0)

    def test_achieved_ratio_within_one_example(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            n_pos = int(rng.integers(1, 200))
            n_neg = int(rng.integers(1, 5000))
            r = float(rng.uniform(0.05, 0.9))
            s = synthetic_positive_count(n_pos, n_neg, r)
            total_pos = n_pos + s
            bound = r * n_neg / (1.0 - r)
            if n_pos >= bound:
                assert s == 0
            else:
                # minimal count landing within one example of the bound
                assert bound - 1.0 <= total_pos <= bound + 1.0


class TestOversample:
    def _training_set(self, n_pos=3, n_neg=9, d=6, seed=13):
        rng = np.random.default_rng(seed)
        vectors = []
        labels = []
        for i in range(n_pos + n_neg):
            nnz = int(rng.integers(1, d))
            idx = np.sort(rng.choice(d, size=nnz, replace=False))
            vals = np.abs(rng.normal(size=nnz)) + 0.01
            vals /= np.sqrt((vals**2).sum())
            vectors.append(make_vector(idx, vals, d, instance_id=f"inst-{i}", occurrences=30))
            labels.append(1 if i < n_pos else 0)
        X = sp.csr_matrix(
            np.vstack([v.to_dense() for v in vectors])
        )
        profiles = fit_profiles(X)
        return list(zip(vectors, labels)), profiles

    def test_counts_meet_target_within_one(self):
        examples, profiles = self._training_set()
        config = DroConfig(target_positive_ratio=0.4)
        out = oversample(examples, profiles, config, master_seed=1)
        n_pos = sum(1 for ex in out if ex.label == 1)
        n_neg = sum(1 for ex in out if ex.label == 0)
        assert n_neg == 9  # negatives never multiplied
        bound = 0.4 * 9 / 0.6
        assert bound - 1.0 <= n_pos <= bound + 1.0

    def test_every_original_present_once(self):
        examples, profiles = self._training_set()
        out = oversample(examples, profiles, DroConfig(), master_seed=1)
        originals = [ex for ex in out if not ex.synthetic]
        assert [ex.source_id for ex in originals] == [v.instance_id for v, _ in examples]

    def test_synthetic_natural_blocks_byte_identical_to_source(self):
        examples, profiles = self._training_set()
        by_id = {v.instance_id: v for v, _ in examples}
        out = oversample(examples, profiles, DroConfig(target_positive_ratio=0.5), master_seed=2)
        synth = [ex for ex in out if ex.synthetic]
        assert synth, "expected synthetic examples"
        for ex in synth:
            source = by_id[ex.source_id]
            assert ex.vector.natural is source
            assert ex.vector.natural.values.tobytes() == source.values.tobytes()
            assert ex.label == 1

    def test_synthetic_latents_differ_from_source(self):
        examples, profiles = self._training_set()
        out = oversample(examples, profiles, DroConfig(target_positive_ratio=0.5), master_seed=3)
        by_example_id = {ex.example_id: ex for ex in out}
        synth = [ex for ex in out if ex.synthetic]
        differing = 0
        for ex in synth:
            original = by_example_id[ex.source_id]
            if ex.vector.latent_values.tobytes() != original.vector.latent_values.tobytes():
                differing += 1
        assert differing >= len(synth) - 1  # collisions are vanishingly rare

    def test_no_positives_rejected(self):
        examples, profiles = self._training_set(n_pos=2)
        negative_only = [(v, 0) for v, _ in examples]
        with pytest.raises(DroError):
            oversample(negative_only, profiles, DroConfig(), master_seed=0)

    def test_byte_identical_across_runs(self):
        examples, profiles = self._training_set()
        config = DroConfig(target_positive_ratio=0.5)
        a = oversample(examples, profiles, config, master_seed=77)
        b = oversample(examples, profiles, config, master_seed=77)
        assert len(a) == len(b)
        for ex_a, ex_b in zip(a, b):
            assert ex_a.example_id == ex_b.example_id
            assert ex_a.vector.latent_values.tobytes() == ex_b.vector.latent_values.tobytes()
            assert ex_a.vector.latent_indices.tobytes() == ex_b.vector.latent_indices.tobytes()

    def test_matrix_assembly(self):
        examples, profiles = self._training_set()
        out = oversample(examples, profiles, DroConfig(target_positive_ratio=0.4), master_seed=5)
        X, y = extended_to_csr(out)
        assert X.shape == (len(out), 6 + profiles.latent_dim)
        assert y.sum() == sum(1 for ex in out if ex.label == 1)
        natural = X[:, :6].toarray()
        for i, ex in enumerate(out):
            assert natural[i] == pytest.approx(ex.vector.natural.to_dense())


class TestDroConfig:
    def test_ratio_bounds(self):
        with pytest.raises(DroError):
            DroConfig(target_positive_ratio=0.0)
        with pytest.raises(DroError):
            DroConfig(target_positive_ratio=1.0)
