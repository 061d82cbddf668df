"""Distributional random oversampling: profiles, extension, dataset growth."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import chisquare

from stylauth import dro, learner
from stylauth.dro import (
    DroConfig,
    extend,
    extended_to_csr,
    fit_profiles,
    latent_distributions,
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
        counts = sample_latent_counts(x, profiles, 10_000, spawn_rng(99, "chi"))
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


def reference_mixture(x, X) -> np.ndarray:
    """Sum over the row's features of (w_f / sum(w)) times f's profile, uniform
    over the training rows for a feature without training weight."""
    n = X.shape[0]
    p = np.zeros(n)
    profiles = reference_profiles(X)
    for f, w in zip(x.indices, x.data / x.data.sum()):
        prof = profiles[int(f)]
        if prof is None:
            p += w / n
        else:
            p[prof[0]] += w * prof[1]
    return p


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
        p = reference_mixture(x, X)
        for seed in range(6):
            got = sample_latent_counts(x, profiles, m, spawn_rng(seed, "tables"))
            want = spawn_rng(seed, "tables").multinomial(m, p / p.sum())
            assert np.array_equal(got, want)

    def test_each_feature_draws_from_its_profile(self):
        X, _ = self._fixture()
        profiles = fit_profiles(X)
        assert profiles.profile(7) is None
        m = 20_000
        for f, want in enumerate(reference_profiles(X)):
            x = make_row([f], [1.0], 40)
            rng = spawn_rng(f, "profile-draws")
            counts = sample_latent_counts(x, profiles, m, rng)
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


class TestMixture:
    _fixture = TestSamplerTables._fixture

    def _rows(self):
        """The fixture's matrix, and test rows: its own mixed row, a row of only
        the all-zero column, one mixing that column with a point mass, and a zero row."""
        X, x = self._fixture()
        rows = sp.vstack(
            [x, make_row([7], [2.0], 40), make_row([3, 7], [1.0, 0.5], 40), make_row([], [], 40)],
            format="csr",
        )
        return X, rows

    def test_matches_per_feature_mixture(self):
        X, rows = self._rows()
        profiles = fit_profiles(X)
        assert profiles.profile(7) is None
        for matrix in (X, rows):
            P = latent_distributions(matrix, profiles)
            assert P.shape == (matrix.shape[0], 30)
            for i in range(matrix.shape[0]):
                if matrix[i].nnz:
                    want = reference_mixture(matrix[i], X)
                else:
                    want = np.zeros(30)
                assert np.abs(P[i] - want).max() <= 1e-12, i
        assert np.abs(latent_distributions(rows[1], profiles) - 1.0 / 30).max() <= 1e-15

    def test_column_chunks_add_up(self):
        # wider than one densified chunk, with all-zero columns in both
        # chunks, point masses and shares far below the others
        rng = np.random.default_rng(23)
        n, d = 6, learner._GRAM_CHUNK_COLUMNS + 8
        X = np.where(rng.random((n, d)) < 0.5, rng.random((n, d)) + 0.01, 0.0)
        X[:, [5, d - 12, d - 1]] = 0.0
        X[:, d - 4] = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        X[:, 1500] = [1.0, 0.0, 0.0, 1e-17, 1e-17, 1e-17]
        X = sp.csr_matrix(X)
        profiles = fit_profiles(X)
        columns = [0, 5, 1500, d - 12, d - 4, d - 1]
        rows = sp.vstack(
            [make_row(columns, [1.0, 2.0, 3.0, 1.0, 2.0, 0.5], d), X[2], X[5]], format="csr"
        )
        for matrix in (X, rows):
            P = latent_distributions(matrix, profiles)
            for i in range(matrix.shape[0]):
                assert np.abs(P[i] - reference_mixture(matrix[i], X)).max() <= 1e-12, i

    @pytest.mark.parametrize("width", [30, 2048, 2049, 2 * 2048 + 100])
    def test_training_mixtures_equal_a_chunked_gram_loop(self, width):
        # the training rows' mixtures as a loop of their own built them,
        # 2048 densified columns at a time, before they took the learner's
        # Gram matrix; no benchmark fold is wide enough to reach two chunks
        rng = np.random.default_rng(width)
        # at this density, about an eighth of the features are untrained
        X = sp.random(40, width, density=0.05, random_state=rng, format="csr")
        profiles = fit_profiles(X)
        sums = profiles.column_sums
        scale = np.divide(1.0, np.sqrt(sums), out=np.zeros_like(sums), where=sums > 0)
        P = np.zeros((40, 40))
        for start in range(0, width, 2048):
            cols = slice(start, start + 2048)
            block = X[:, cols].toarray() * scale[cols]
            P += block @ block.T
        totals = P.sum(axis=1, keepdims=True)
        P = np.divide(P, totals, out=P, where=totals > 0)
        assert latent_distributions(X, profiles).tobytes() == P.tobytes()

    def test_rows_are_distributions(self):
        X, rows = self._rows()
        profiles = fit_profiles(X)
        assert X.getnnz(axis=1).all()
        for matrix in (X, rows[:3]):
            P = latent_distributions(matrix, profiles)
            assert (P >= 0).all()
            assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12

    def test_training_rows_take_the_gram_form(self):
        X, _ = self._rows()
        profiles = fit_profiles(X)
        assert profiles.training is X
        P = latent_distributions(X, profiles)
        copy = latent_distributions(X.copy(), profiles)
        assert np.abs(P - copy).max() <= 1e-12

    def test_shares_above_one_do_not_raise(self, monkeypatch):
        X, x = self._fixture()
        profiles = fit_profiles(X)
        p = np.append(np.full(29, (1.0 + 1e-9) / 29), 0.0)  # the last row gets no share
        with pytest.raises(ValueError):
            np.random.default_rng(0).multinomial(100, p)
        monkeypatch.setattr(dro, "latent_distributions", lambda rows, profiles: p[None, :])
        counts = sample_latent_counts(x, profiles, 100, spawn_rng(0, "drift"))
        assert counts.sum() == 100

    def test_stream_is_pinned(self):
        X, x = self._fixture()
        profiles = fit_profiles(X)
        pinned = {
            0: [0, 5, 0, 3, 0, 3, 0, 0, 4, 1, 2, 1, 0, 2, 3, 0, 0, 2, 2, 0, 1, 0, 1, 0, 0, 3, 2, 3, 1, 1],
            1: [0, 2, 3, 0, 1, 4, 1, 0, 1, 1, 1, 1, 1, 4, 1, 1, 1, 4, 1, 0, 2, 0, 0, 0, 0, 5, 4, 0, 0, 1],
            2: [2, 2, 1, 3, 0, 2, 1, 0, 0, 1, 1, 0, 1, 1, 0, 2, 2, 3, 0, 0, 3, 1, 1, 0, 0, 2, 4, 2, 1, 4],
        }
        for seed, want in pinned.items():
            counts = sample_latent_counts(x, profiles, 40, spawn_rng(seed, "pin"))
            assert counts.astype(np.int64).tolist() == want, seed

    def test_mixed_row_draws_from_its_mixture(self):
        X, x = self._fixture()
        profiles = fit_profiles(X)
        p = reference_mixture(x, X)
        m = 20_000
        assert (p * m).min() >= 5
        for seed in range(3):
            counts = sample_latent_counts(x, profiles, m, spawn_rng(seed, "mixed"))
            assert counts.sum() == m
            assert chisquare(counts, f_exp=p * m).pvalue > 0.01, seed


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
