"""Path synthesis: reproducibility, embedding spectra, moment checks."""

import math

import numpy as np
import pytest

from lrdlab.covariance_engine import acvf
from lrdlab.errors import DomainError
from lrdlab.kernel_special import HurstParam, Tolerance
from lrdlab.process_model import Fgn, FracDiff, WhiteNoise
from lrdlab import sampler
from lrdlab.sampler import SamplePath, _embedding, _embedding_size, empirical_acvf, sample, sample_many

WHITE = Fgn(HurstParam(0.5), 1.0)
FGN08 = Fgn(HurstParam(0.8), 1.0)
FGN08_GAMMA1 = 0.5157165665103982  # (2**1.6 - 2) / 2


class TestSampleBasics:
    def test_reproducible_bit_for_bit(self):
        a = sample(FGN08, 256, 12345)
        b = sample(FGN08, 256, 12345)
        assert a.values.tobytes() == b.values.tobytes()

    def test_distinct_seeds_differ(self):
        a = sample(FGN08, 256, 1)
        b = sample(FGN08, 256, 2)
        assert not np.array_equal(a.values, b.values)

    def test_path_shape_and_readonly(self):
        p = sample(WHITE, 64, 7)
        assert p.n == 64
        assert p.values.dtype == np.float64
        with pytest.raises(ValueError):
            p.values[0] = 0.0

    @pytest.mark.parametrize("bad_n", [1, 0, -4, 2.5])
    def test_rejects_short_or_fractional_length(self, bad_n):
        with pytest.raises(DomainError):
            sample(WHITE, bad_n, 1)

    @pytest.mark.parametrize("bad_seed", [-1, 2**64, 1.5])
    def test_rejects_out_of_range_seed(self, bad_seed):
        with pytest.raises(DomainError):
            sample(WHITE, 16, bad_seed)

    def test_path_type_validates_seed(self):
        with pytest.raises(DomainError):
            SamplePath(spec=WHITE, seed=-3, values=np.zeros(4))


class TestEmbedding:
    def test_white_spectrum_is_flat(self):
        lam, m = _embedding(WHITE, 64, Tolerance())
        assert m == 128
        assert np.allclose(lam, 1.0, rtol=0, atol=1e-12)

    def test_strong_dependence_embeds_without_padding(self):
        lam, m = _embedding(Fgn(HurstParam(0.95), 1.0), 1024, Tolerance())
        assert m == 2048
        assert lam.min() > 0

    def test_prime_doubled_length_rounds_up_to_a_power_of_two(self):
        # 2(N-1) = 2 * 8191 is prime-factored; the embedding takes 16384.
        lam, m = _embedding(FGN08, 8192, Tolerance())
        assert m == 16384
        assert lam.min() > 0

    def test_size_is_the_smallest_even_5_smooth_bound(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        for n in range(2, 3000):
            m = max(2, 2 * (n - 1))
            while not smooth(m // 2) or m % 2:
                m += 1
            assert _embedding_size(n) == m, n

    def test_eigenvalues_invert_to_the_covariance_row(self):
        n = 400
        lam, m = _embedding(FGN08, n, Tolerance())
        row = np.fft.irfft(lam, n=m)[:n]
        assert np.allclose(row, acvf(FGN08, n - 1).values, rtol=1e-12, atol=0)

    def test_one_table_at_half_the_embedding(self, monkeypatch):
        # N = 1000 embeds at m = 2000: the sampler asks for gamma(0..1000)
        # once, not for gamma(0..999) and then more.
        calls = []

        def counted(spec, n_max, tol):
            calls.append((spec, n_max))
            return acvf(spec, n_max, tol)

        monkeypatch.setattr(sampler, "acvf", counted)
        sample(FGN08, 1000, 3)
        assert calls == [(FGN08, 1000)]
        calls.clear()
        sample_many(FGN08, 1000, 3, 2)
        assert calls == [(FGN08, 1000)]


class TestSizeGuard:
    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a table or the batch seeds were requested")

        monkeypatch.setattr(sampler, "acvf", unreachable)
        monkeypatch.setattr(np.random, "SeedSequence", unreachable)

    def test_largest_embedding_is_accepted(self):
        assert _embedding_size(2**27 + 1) == 2**28

    @pytest.mark.parametrize("n", [2**27 + 2, 10**12])
    def test_oversized_path_is_named_before_any_table(self, nothing_built, n):
        with pytest.raises(DomainError, match=r"2\^28"):
            sample(WHITE, n, 1)
        with pytest.raises(DomainError, match=r"2\^28"):
            sample_many(WHITE, n, 1, 2)

    def test_oversized_batch_is_named_before_any_seed(self, nothing_built):
        with pytest.raises(DomainError, match=r"2\^28"):
            sample_many(WHITE, 2, 1, 10**15)
        with pytest.raises(DomainError, match=r"2\^28"):
            sample_many(WHITE, 2**14, 1, 2**14 + 1)


class TestSampleMany:
    def test_batch_paths_match_their_own_seeds(self):
        paths = sample_many(FGN08, 128, 99, 3)
        assert len(paths) == 3
        seen = {p.seed for p in paths}
        assert len(seen) == 3
        for p in paths:
            again = sample(FGN08, 128, p.seed)
            assert p.values.tobytes() == again.values.tobytes()

    @pytest.mark.parametrize("n", [1000, 8192])
    def test_padded_embeddings_match_their_own_seeds(self, n):
        # 2(N-1) = 1998 and 16382 are not 5-smooth; both sizes round up.
        for p in sample_many(FGN08, n, 99, 2):
            assert p.values.tobytes() == sample(FGN08, n, p.seed).values.tobytes()

    @pytest.mark.parametrize("bad_count", [0, -1, 2.5])
    def test_rejects_bad_count(self, bad_count):
        with pytest.raises(DomainError):
            sample_many(WHITE, 16, 1, bad_count)


class TestEmpiricalAcvf:
    def test_white_lags_within_three_errors(self):
        paths = sample_many(WHITE, 4096, 2024, 200)
        means, errs = empirical_acvf(paths, [0, 1])
        assert abs(means[0] - 1.0) <= 3 * errs[0]
        assert abs(means[1] - 0.0) <= 3 * errs[1]

    def test_persistent_gaussian_noise_lag_one(self):
        paths = sample_many(FGN08, 4096, 2025, 200)
        means, errs = empirical_acvf(paths, [1])
        assert abs(means[0] - FGN08_GAMMA1) <= 3 * errs[0]

    def test_fractional_filter_lags_within_four_errors(self):
        spec = FracDiff(HurstParam(0.8), WhiteNoise(math.exp(2 * math.lgamma(0.7) - math.lgamma(0.4))))
        exact = acvf(spec, 5).values
        paths = sample_many(spec, 2048, 31337, 100)
        means, errs = empirical_acvf(paths, range(6))
        assert np.all(np.abs(means - exact) <= 4 * errs)

    def test_needs_two_paths(self):
        with pytest.raises(DomainError):
            empirical_acvf([sample(WHITE, 16, 1)], [0])
        with pytest.raises(DomainError, match="at least two paths, got 0"):
            empirical_acvf([], [0])

    def test_rejects_ragged_paths(self):
        paths = [sample(WHITE, 16, 1), sample(WHITE, 17, 2)]
        with pytest.raises(DomainError, match=r"one length, got shapes \[\(16,\), \(17,\)\]"):
            empirical_acvf(paths, [0])

    def test_rejects_lag_outside_path(self):
        paths = sample_many(WHITE, 16, 1, 2)
        with pytest.raises(DomainError):
            empirical_acvf(paths, [16])
        with pytest.raises(DomainError):
            empirical_acvf(paths, [-1])
