"""Path synthesis: reproducibility, embedding spectra, moment checks."""

import math

import numpy as np
import pytest

from lrdlab.covariance_engine import acvf
from lrdlab.errors import ConvergenceError, DomainError
from lrdlab.kernel_special import HurstParam, Tolerance
from lrdlab.process_model import Arma, Fexp, Fgn, FracDiff, WhiteNoise
from lrdlab import sampler
from lrdlab.sampler import SamplePath, _embedding, _embedding_size, empirical_acvf, sample, sample_many

WHITE = Fgn(HurstParam(0.5), 1.0)
FGN08 = Fgn(HurstParam(0.8), 1.0)
FGN08_GAMMA1 = 0.5157165665103982  # (2**1.6 - 2) / 2

# Short-memory drivers strong enough that short paths only embed after
# padding past 2(N-1).
AR099 = FracDiff(HurstParam(0.8), Arma((0.99,), ()))
AR0995 = FracDiff(HurstParam(0.8), Arma((0.995,), ()))
AR2 = FracDiff(HurstParam(0.8), Arma((1.6, -0.9), ()))
FEXP3 = FracDiff(HurstParam(0.8), Fexp((3.0, -2.0, 1.0)))


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
        # N = 5 starts at m = 8 and pads to 256: one table per size.
        calls.clear()
        sample(AR2, 5, 3)
        assert calls == [(AR2, m // 2) for m in (8, 16, 32, 64, 128, 256)]


class TestPadding:
    @pytest.mark.parametrize("spec", [AR099, AR2, FEXP3], ids=["ar0.99", "ar2", "fexp3"])
    @pytest.mark.parametrize("n", [3, 5, 17, 100])
    def test_short_paths_carry_the_exact_covariance(self, spec, n):
        lam, m = _embedding(spec, n, Tolerance())
        exact = acvf(spec, n - 1).values
        row = np.fft.irfft(lam, n=m)[:n]
        assert np.max(np.abs(row - exact)) <= 1e-14 * exact[0]

    @pytest.mark.parametrize(
        "spec",
        [Fgn(HurstParam(h), 1.0) for h in (0.3, 0.55, 0.8, 0.95)]
        + [FracDiff(HurstParam(0.5 + d), WhiteNoise(1.0)) for d in (-0.4, 0.1, 0.45)],
        ids=["fgn0.3", "fgn0.55", "fgn0.8", "fgn0.95", "d-0.4", "d0.1", "d0.45"],
    )
    def test_fgn_and_farima_never_pad(self, spec):
        # Their minimal embeddings are non-negative (Dietrich & Newsam 1997;
        # Craigmile 2003).
        for n in (2, 3, 5, 17, 100, 257, 1000, 4097, 5000):
            assert _embedding(spec, n, Tolerance())[1] == _embedding_size(n), n

    @pytest.mark.parametrize("spec, n, m", [(AR099, 300, 2048), (AR0995, 300, 4096), (AR0995, 1000, 4096)])
    def test_padded_sizes_are_pinned(self, spec, n, m):
        assert _embedding(spec, n, Tolerance())[1] == m

    def test_padding_budget_is_named(self, monkeypatch):
        # Tables at the default budget, so only the padding meets max_terms:
        # AR(0.99) at N = 3 needs m = 2048, and 64 is the last size allowed.
        monkeypatch.setattr(sampler, "acvf", lambda spec, n_max, tol: acvf(spec, n_max))
        with pytest.raises(ConvergenceError, match=r"size 64 .*max_terms 64"):
            sample(AR099, 3, 1, tol=Tolerance(max_terms=64))


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
