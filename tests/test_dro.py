"""Distributional random oversampling: profiles, extension, dataset growth."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import chisquare

from stylauth.dro import (
    DroConfig,
    extend,
    extended_to_csr,
    fit_profiles,
    oversample,
    sample_latent_counts,
    synthetic_positive_count,
)
from stylauth.errors import DroError
from stylauth.rng import spawn_rng


def make_row(indices, values, dim) -> sp.csr_matrix:
    """A one-row CSR matrix with the given columns and values."""
    values = np.asarray(values, dtype=np.float64)
    return sp.csr_matrix((values, np.asarray(indices, dtype=np.int64), [0, values.shape[0]]),
                         shape=(1, dim))


def latent_block(extended: sp.csr_matrix, natural_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(latent indices, values) of an extended row."""
    latent = extended.indices >= natural_dim
    return extended.indices[latent] - natural_dim, extended.data[latent]


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
        extended = extend(make_row([], [], 3), profiles, 0, spawn_rng(0, "t"))
        assert latent_block(extended, 3)[0].size == 0
        assert extended.shape == (1, 3 + profiles.latent_dim)

    def test_point_mass_profile_forces_unit_vector(self):
        X = np.zeros((5, 1))
        X[2, 0] = 1.0
        profiles = fit_profiles(sp.csr_matrix(X))
        x = make_row([0], [0.9], 1)
        for m in (1, 7, 500):
            extended = extend(x, profiles, m, spawn_rng(m, "t"))
            latent_indices, latent_values = latent_block(extended, 1)
            assert latent_indices.tolist() == [2]
            assert latent_values.tolist() == [1.0]

    def test_latent_block_is_l2_normalized(self):
        profiles = self._profiles()
        x = make_row([0, 1, 2], [0.5, 0.3, 0.2], 3)
        _, latent_values = latent_block(extend(x, profiles, 200, spawn_rng(1, "t")), 3)
        norm = float(np.sqrt(np.sum(latent_values**2)))
        assert norm == pytest.approx(1.0)

    def test_natural_block_is_the_row_unchanged(self):
        profiles = self._profiles()
        x = make_row([0, 2], [0.7, 0.3], 3)
        natural = extend(x, profiles, 50, spawn_rng(2, "t"))[:, :3]
        assert natural.indices.tolist() == x.indices.tolist()
        assert natural.data.tobytes() == x.data.tobytes()

    def test_fixed_seed_reproducible(self):
        profiles = self._profiles()
        x = make_row([0, 1], [0.6, 0.4], 3)
        a = latent_block(extend(x, profiles, 100, spawn_rng(5, "path")), 3)
        b = latent_block(extend(x, profiles, 100, spawn_rng(5, "path")), 3)
        assert np.array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()

    def test_zero_samples_with_nonzero_vector_rejected(self):
        profiles = self._profiles()
        with pytest.raises(DroError):
            extend(make_row([0], [1.0], 3), profiles, 0, spawn_rng(0, "t"))

    def test_dimension_mismatch_rejected(self):
        profiles = self._profiles(d=3)
        with pytest.raises(DroError):
            extend(make_row([0], [1.0], 7), profiles, 5, spawn_rng(0, "t"))

    @pytest.mark.parametrize(
        "x", [np.ones((1, 3)), sp.csc_matrix(np.ones((1, 3))), sp.csr_matrix(np.ones((2, 3)))]
    )
    def test_non_row_input_rejected(self, x):
        with pytest.raises(DroError):
            extend(x, self._profiles(d=3), 5, spawn_rng(0, "t"))

    def test_fingerprint_mismatch_rejected(self):
        X = sp.csr_matrix(np.ones((2, 1)))
        profiles = fit_profiles(X, space_fingerprint="space-a")
        x = make_row([0], [1.0], 1)
        extend(x, profiles, 5, spawn_rng(0, "t"), space_fingerprint="space-a")
        with pytest.raises(DroError):
            extend(x, profiles, 5, spawn_rng(0, "t"), space_fingerprint="space-b")

    def test_latent_indices_offset_past_natural_block(self):
        profiles = self._profiles()
        extended = extend(make_row([1], [1.0], 3), profiles, 30, spawn_rng(3, "t"))
        idx, vals = extended.indices, extended.data
        assert idx[0] == 1
        assert np.all(idx[1:] >= 3)
        assert len(idx) == len(vals)

    def test_empirical_latent_distribution_converges_to_profile(self):
        # one feature spread over 6 instances with known proportions
        weights = np.array([0.05, 0.1, 0.15, 0.2, 0.2, 0.3])
        X = sp.csr_matrix(weights.reshape(6, 1))
        profiles = fit_profiles(X)
        x = make_row([0], [1.0], 1)
        counts = sample_latent_counts(x.indices, x.data, profiles, 10_000, spawn_rng(99, "chi"))
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


def reference_latent_counts(x, X, m, rng) -> np.ndarray:
    """Per-feature inverse-CDF loop: each draw's uniform looked up in its
    feature's own cumulative sum, floor(u * n) for the uniform fallback."""
    n = X.shape[0]
    counts = np.zeros(n)
    total = float(x.data.sum())
    if total <= 0:
        return counts
    feature_draws = rng.multinomial(m, x.data / total)
    uniforms = iter(rng.random(m).tolist())
    for pos in np.nonzero(feature_draws)[0]:
        prof = reference_profiles(X)[int(x.indices[pos])]
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
        return X, make_row(indices, rng.random(indices.shape[0]) + 0.01, 40)

    @pytest.mark.parametrize("m", [1, 5, 200, 20_000])
    def test_draws_match_per_feature_reference(self, m):
        X, x = self._fixture()
        profiles = fit_profiles(X)
        assert profiles.profile(7) is None
        for seed in range(6):
            got = sample_latent_counts(x.indices, x.data, profiles, m, spawn_rng(seed, "tables"))
            want = reference_latent_counts(x, X, m, spawn_rng(seed, "tables"))
            assert np.array_equal(got, want)

    def test_each_feature_draws_from_its_profile(self):
        X, _ = self._fixture()
        profiles = fit_profiles(X)
        assert profiles.profile(7) is None
        m = 20_000
        for f, want in enumerate(reference_profiles(X)):
            x = make_row([f], [1.0], 40)
            rng = spawn_rng(f, "profile-draws")
            counts = sample_latent_counts(x.indices, x.data, profiles, m, rng)
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
    """A generator whose uniforms cycle through the given points of [0, 1)."""

    def __init__(self, *edges: float):
        self.edges = np.asarray(edges, dtype=np.float64)

    def multinomial(self, n, pvals):
        return np.random.default_rng(0).multinomial(n, pvals)

    def random(self, size):
        return np.resize(self.edges, size)


def clipped_lookup_counts(indices, data, profiles, m_samples, rng):
    """The sampler's earlier lookup, kept as the reference for its positions.

    It looks the unsorted keys f + u up in the cumulative table, clips
    each position into [indptr[f], indptr[f+1] - 1], and draws floor(u * n)
    for a feature without stored entries.
    """
    n = profiles.latent_dim
    feature_draws = rng.multinomial(m_samples, data / data.sum())
    drawn = np.nonzero(feature_draws)[0]
    features, k = indices[drawn], feature_draws[drawn]
    u = rng.random(m_samples)
    pos = np.searchsorted(profiles._cum, np.repeat(features, k) + u, side="right")
    starts = np.repeat(profiles._indptr[features], k)
    ends = np.repeat(profiles._indptr[features + 1], k)
    np.clip(pos, starts, ends - 1, out=pos)
    latent = (u * n).astype(np.int64)
    table = starts < ends
    latent[table] = profiles._indices[pos[table]]
    return np.bincount(latent, minlength=n).astype(np.float64)


class TestCumulativeTableEdges:
    N_FEATURES = 2056
    TIED = 1500

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
        # the last three entries round to the column's end, f + 1
        X[:, self.TIED] = [1.0, 0.0, 0.0, 1e-17, 1e-17, 1e-17]
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

    def test_tied_column_end(self):
        _, profiles = self._profiles()
        start, end = profiles._indptr[self.TIED], profiles._indptr[self.TIED + 1]
        assert profiles._cum[start:end].tolist() == [self.TIED + 1.0] * 4

    @pytest.mark.parametrize("edge", [0.0, np.nextafter(1.0, 0.0)])
    def test_edge_uniforms_stay_in_their_column(self, edge):
        X, profiles = self._profiles()
        assert 1024 + edge == (1025.0 if edge else 1024.0)  # f + u rounds up to f + 1
        m = 50
        features = list(range(self.N_FEATURES - 16, self.N_FEATURES)) + [0, 1, 1023, 1024]
        for f in features + [self.TIED]:
            x = make_row([f], [1.0], self.N_FEATURES)
            counts = sample_latent_counts(x.indices, x.data, profiles, m, EdgeUniforms(edge))
            assert counts.sum() == m
            support = np.nonzero(X[:, f])[0]
            if support.size == 0:
                support = np.arange(X.shape[0])
            assert set(np.nonzero(counts)[0]) <= set(support.tolist()), f"feature {f}"
            want = clipped_lookup_counts(x.indices, x.data, profiles, m, EdgeUniforms(edge))
            assert counts.tobytes() == want.tobytes(), f"feature {f}"

    def test_mixed_row_equals_the_clipped_lookup(self):
        _, profiles = self._profiles()
        # fallback (the all-zero columns), rounded (u near 1 above 1024)
        # and regular draws in one row
        columns = [0, 7, 1024, self.TIED, self.N_FEATURES - 12, self.N_FEATURES - 1]
        x = make_row(columns, [1.0, 2.0, 1.0, 3.0, 1.0, 2.0], self.N_FEATURES)
        uniforms = EdgeUniforms(0.0, 0.25, np.nextafter(1.0, 0.0), 0.5, 1e-300)
        got = sample_latent_counts(x.indices, x.data, profiles, 997, uniforms)
        want = clipped_lookup_counts(x.indices, x.data, profiles, 997, uniforms)
        assert got.tobytes() == want.tobytes()
        assert got.sum() == 997

    def test_random_rows_equal_the_clipped_lookup(self):
        _, profiles = self._profiles()
        rng = np.random.default_rng(24)
        for seed in range(40):
            nnz = int(rng.integers(1, 400))
            columns = np.sort(rng.choice(self.N_FEATURES, size=nnz, replace=False))
            x = make_row(columns, rng.random(nnz) + 0.01, self.N_FEATURES)
            m = int(rng.integers(1, 5000))
            got = sample_latent_counts(x.indices, x.data, profiles, m, spawn_rng(seed, "lookup"))
            want = clipped_lookup_counts(x.indices, x.data, profiles, m, spawn_rng(seed, "lookup"))
            assert got.tobytes() == want.tobytes(), seed


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
    OCCURRENCES = 30

    def _training_set(self, n_pos=3, n_neg=9, d=6, seed=13):
        """(X, labels, instance ids, occurrence counts, profiles)."""
        rng = np.random.default_rng(seed)
        rows = []
        labels = []
        for i in range(n_pos + n_neg):
            nnz = int(rng.integers(1, d))
            idx = np.sort(rng.choice(d, size=nnz, replace=False))
            vals = np.abs(rng.normal(size=nnz)) + 0.01
            vals /= np.sqrt((vals**2).sum())
            rows.append(make_row(idx, vals, d))
            labels.append(1 if i < n_pos else 0)
        X = sp.vstack(rows, format="csr")
        ids = [f"inst-{i}" for i in range(n_pos + n_neg)]
        occurrences = [self.OCCURRENCES] * len(ids)
        return X, labels, ids, occurrences, fit_profiles(X)

    def test_counts_meet_target_within_one(self):
        X, y, ids, occurrences, profiles = self._training_set()
        config = DroConfig(target_positive_ratio=0.4)
        out = oversample(X, y, ids, occurrences, profiles, config, 1)
        n_pos = sum(1 for ex in out if ex.label == 1)
        n_neg = sum(1 for ex in out if ex.label == 0)
        assert n_neg == 9  # negatives never multiplied
        bound = 0.4 * 9 / 0.6
        assert bound - 1.0 <= n_pos <= bound + 1.0

    def test_every_original_present_once(self):
        X, y, ids, occurrences, profiles = self._training_set()
        out = oversample(X, y, ids, occurrences, profiles, DroConfig(), 1)
        originals = [ex for ex in out if not ex.synthetic]
        assert [ex.source_id for ex in originals] == ids
        assert [ex.row for ex in originals] == list(range(len(ids)))

    def test_synthetic_natural_blocks_byte_identical_to_source(self):
        X, y, ids, occurrences, profiles = self._training_set()
        config = DroConfig(target_positive_ratio=0.5)
        out = oversample(X, y, ids, occurrences, profiles, config, 2)
        M, _ = extended_to_csr(X, out, profiles.latent_dim)
        synth = [(i, ex) for i, ex in enumerate(out) if ex.synthetic]
        assert synth, "expected synthetic examples"
        for i, ex in synth:
            source = X[ids.index(ex.source_id)]
            assert ex.row == ids.index(ex.source_id)
            assert M[i, :6].data.tobytes() == source.data.tobytes()
            assert ex.label == 1

    def test_synthetic_latents_differ_from_source(self):
        X, y, ids, occurrences, profiles = self._training_set()
        config = DroConfig(target_positive_ratio=0.5)
        out = oversample(X, y, ids, occurrences, profiles, config, 3)
        by_example_id = {ex.example_id: ex for ex in out}
        synth = [ex for ex in out if ex.synthetic]
        differing = 0
        for ex in synth:
            original = by_example_id[ex.source_id]
            if ex.latent_values.tobytes() != original.latent_values.tobytes():
                differing += 1
        assert differing >= len(synth) - 1  # collisions are vanishingly rare

    def test_no_positives_rejected(self):
        X, y, ids, occurrences, profiles = self._training_set(n_pos=2)
        with pytest.raises(DroError):
            oversample(X, [0] * len(y), ids, occurrences, profiles, DroConfig(), 0)

    def test_dimension_mismatch_rejected(self):
        X, y, ids, occurrences, profiles = self._training_set()
        with pytest.raises(DroError):
            oversample(X[:, :5], y, ids, occurrences, profiles, DroConfig(), 0)

    def test_byte_identical_across_runs(self):
        X, y, ids, occurrences, profiles = self._training_set()
        config = DroConfig(target_positive_ratio=0.5)
        a = oversample(X, y, ids, occurrences, profiles, config, 77)
        b = oversample(X, y, ids, occurrences, profiles, config, 77)
        assert len(a) == len(b)
        for ex_a, ex_b in zip(a, b):
            assert ex_a.example_id == ex_b.example_id
            assert ex_a.latent_values.tobytes() == ex_b.latent_values.tobytes()
            assert ex_a.latent_indices.tobytes() == ex_b.latent_indices.tobytes()

    def test_matrix_assembly(self):
        X, y, ids, occurrences, profiles = self._training_set()
        config = DroConfig(target_positive_ratio=0.4)
        out = oversample(X, y, ids, occurrences, profiles, config, 5)
        M, labels = extended_to_csr(X, out, profiles.latent_dim)
        assert M.shape == (len(out), 6 + profiles.latent_dim)
        assert labels.sum() == sum(1 for ex in out if ex.label == 1)
        natural = M[:, :6].toarray()
        for i, ex in enumerate(out):
            assert np.array_equal(natural[i], X[ex.row].toarray()[0])

    def test_latent_blocks_match_extend(self):
        X, y, ids, occurrences, profiles = self._training_set()
        seed = 6
        out = oversample(X, y, ids, occurrences, profiles, DroConfig(0.5), seed)
        M, _ = extended_to_csr(X, out, profiles.latent_dim)
        assert any(ex.synthetic for ex in out)
        for i, ex in enumerate(out):
            rng = spawn_rng(seed, "dro-extend", ex.source_id, ex.replica)
            extended = extend(X[ex.row], profiles, occurrences[ex.row], rng)
            latent_indices, latent_values = latent_block(extended, 6)
            assert latent_indices.tolist() == ex.latent_indices.tolist()
            assert latent_values.tobytes() == ex.latent_values.tobytes()
            assert np.array_equal(M[i].toarray(), extended.toarray())


class TestDroConfig:
    def test_ratio_bounds(self):
        with pytest.raises(DroError):
            DroConfig(target_positive_ratio=0.0)
        with pytest.raises(DroError):
            DroConfig(target_positive_ratio=1.0)
