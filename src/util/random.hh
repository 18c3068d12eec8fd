/**
 * @file
 * Deterministic random-number generation for simulations.
 *
 * All stochastic components take an explicit Rng so experiments are
 * reproducible and independent streams can be split per subsystem.
 *
 * Rng runs an in-house MT19937-64 (Mt19937_64) that reproduces
 * std::mt19937_64 word for word, and converts words to doubles with a
 * branch-free copy of libstdc++'s generate_canonical<double, 53>, so
 * every draw is bit-identical to the std:: engine and distributions
 * it replaced. What changes is the cost: the std:: engine branches on
 * the random low bit of every regenerated word and the uint64->double
 * conversion branches on the random sign bit, each a coin-flip
 * misprediction. On a 4-vCPU x86-64 host (GCC 12, -O2, no -march) a
 * raw word fell from ~8-9 ns to ~2-3 ns, uniform() from ~16-18 ns to
 * ~3.5-4 ns and exponential() from ~23-25 ns to ~12-13 ns.
 */

#ifndef WSC_UTIL_RANDOM_HH
#define WSC_UTIL_RANDOM_HH

#include <math.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

#include "util/hash.hh"

namespace wsc {

/**
 * MT19937-64 with the seeding, recurrence and tempering of
 * std::mt19937_64 ([rand.predef]): the same seed yields the same
 * 64-bit words. The twist selects the matrix term with a mask,
 * -(y & 1) & a, instead of a branch on the low bit. A standard
 * uniform random bit generator, so std:: distributions accept it.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    explicit Mt19937_64(result_type seed)
    {
        x[0] = seed;
        for (std::size_t i = 1; i < kN; ++i)
            x[i] = 6364136223846793005ULL * (x[i - 1] ^ (x[i - 1] >> 62)) +
                   i;
        pos = kN;
    }

    result_type
    operator()()
    {
        if (pos >= kN)
            regenerate();
        result_type z = x[pos++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
        z ^= (z << 37) & 0xFFF7EEE000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;

    static result_type
    twist(result_type upper, result_type lower, result_type far)
    {
        result_type y = (upper & 0xFFFFFFFF80000000ULL) |
                        (lower & 0x7FFFFFFFULL);
        return far ^ (y >> 1) ^ (-(y & 1) & 0xB5026F5AA96619E9ULL);
    }

    void
    regenerate()
    {
        std::size_t k = 0;
        for (; k < kN - kM; ++k)
            x[k] = twist(x[k], x[k + 1], x[k + kM]);
        for (; k < kN - 1; ++k)
            x[k] = twist(x[k], x[k + 1], x[k + kM - kN]);
        x[kN - 1] = twist(x[kN - 1], x[0], x[kM - 1]);
        pos = 0;
    }

    result_type x[kN];
    std::size_t pos;
};

/**
 * A seedable pseudo-random source over Mt19937_64 with the
 * convenience draws the simulators need. Every draw is bit-identical
 * to the same draw made with std::mt19937_64 and the std::
 * distribution named in its comment (tests/test_util.cc checks each).
 */
class Rng
{
  public:
    /** Construct with an explicit seed (default fixed for reproducibility). */
    explicit Rng(std::uint64_t seed = 0x5DEECE66DULL)
        : engine(seed), seed_(seed)
    {
    }

    /**
     * The [0, 1) double libstdc++'s generate_canonical<double, 53>
     * makes of one 64-bit word: x * 2^-64 rounded to nearest, clamped
     * to the largest double below 1. Splitting x into two exact 32-bit
     * halves gives the same single rounding without the branch a
     * uint64->double conversion takes on the sign bit.
     */
    static double
    canonical(std::uint64_t x)
    {
        double r = (double(std::uint32_t(x >> 32)) * 0x1p32 +
                    double(std::uint32_t(x))) *
                   0x1p-64;
        return std::min(r, 0x1.fffffffffffffp-1);
    }

    /** Uniform double in [0, 1): std::uniform_real_distribution(0, 1). */
    double uniform() { return canonical(engine()); }

    /** Uniform double in [lo, hi): std::uniform_real_distribution. */
    double
    uniform(double lo, double hi)
    {
        return canonical(engine()) * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine);
    }

    /**
     * Exponentially distributed double with the given mean: libstdc++'s
     * std::exponential_distribution(1 / mean) formula.
     */
    double
    exponential(double mean)
    {
        return -std::log(1.0 - uniform()) / (1.0 / mean);
    }

    /** Normally distributed double. */
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine);
    }

    /** Lognormal draw parameterized by the underlying normal's mu/sigma. */
    double
    lognormal(double mu, double sigma)
    {
        return std::lognormal_distribution<double>(mu, sigma)(engine);
    }

    /** Bernoulli draw: uniform() < p. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /**
     * Derive an independent child stream. Splitting from a parent keeps
     * experiment-level determinism while decorrelating subsystems.
     *
     * NOTE: split() consumes one draw from the parent engine, so the
     * child's seed depends on how many draws preceded the split. That
     * is fine inside one strictly sequential simulation, but any code
     * whose draw order can vary (parallel fan-outs, optional model
     * features, fault/repair processes interleaving with load) must
     * use stream() instead, which hangs the child off the construction
     * seed plus an explicit identity and never touches the engine.
     */
    Rng
    split()
    {
        return Rng(engine() ^ 0x9E3779B97F4A7C15ULL);
    }

    /**
     * Derive an independent child stream from this Rng's construction
     * seed plus an identity (integers and/or strings), without
     * consuming parent state. Two streams with different identities
     * are decorrelated; the same identity always yields the same
     * stream no matter how many draws the parent has made. This is
     * the required derivation for logically concurrent processes
     * (per-component fault clocks, per-task sweeps).
     */
    template <typename... Parts>
    Rng
    stream(Parts &&...parts) const
    {
        return Rng(seedFor(seed_, std::forward<Parts>(parts)...));
    }

    /** The seed this Rng was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /** Access the raw engine (for std:: distributions). */
    Mt19937_64 &raw() { return engine; }

  private:
    Mt19937_64 engine;
    std::uint64_t seed_;
};

/**
 * Counter-based splitmix64 generator for bulk uniform draws on
 * fast-mode paths (sim/fast_mode.hh): one add plus three shift-xor-
 * multiply rounds per draw, about 2.5x cheaper per uniform than Rng
 * (~1.4 vs ~3.5 ns on the host above), and statistically solid (it
 * is the standard mixer used to seed xoshiro-family generators).
 * State is a single 64-bit counter, so a stream derived from a seed
 * is trivially reproducible and never aliases a differently-seeded
 * stream.
 *
 * Not a drop-in for Rng: uniforms land on the 53-bit grid via
 * multiplication, so draws are same-law but not bit-identical to
 * Rng::uniform. That is exactly the relaxation fast mode's
 * statistical-equivalence gate (stats/equivalence.hh) covers; exact
 * paths must keep using Rng.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : x(seed) {}

    std::uint64_t
    nextU64()
    {
        std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1) on the 53-bit grid. */
    double
    uniform()
    {
        return double(nextU64() >> 11) * 0x1.0p-53;
    }

    /**
     * Uniform integer in [0, n), n >= 1, via Lemire's multiply-shift
     * reduction: one 64x64->128 multiply instead of the division (or
     * rejection loop) std::uniform_int_distribution performs. The
     * modulo bias is bounded by n / 2^64 -- immaterial against the
     * list sizes simulations index with -- which is the same
     * same-law-not-bit-identical trade the class contract states.
     */
    std::uint64_t
    pick(std::uint64_t n)
    {
        using u128 = unsigned __int128;
        return std::uint64_t((u128(nextU64()) * u128(n)) >> 64);
    }

    /** Exponentially distributed double with the given mean, by
     * inversion. log1p(-u) keeps precision for small draws and never
     * sees log(0) since uniform() < 1. */
    double
    exponential(double mean)
    {
        return -std::log1p(-uniform()) * mean;
    }

    /**
     * Exact Poisson(mean) draw. Small means use Knuth's product-of-
     * uniforms loop (O(mean) uniforms); large means use Hormann's PTRS
     * transformed-rejection sampler (O(1) expected uniforms, exact for
     * mean >= 10). Both are exact samplers — the macro-event fast path
     * (fast-mode/2) leans on this so window arrival *counts* follow
     * the pinned Poisson law with zero distributional error; only the
     * draw order relative to exact mode changes.
     */
    std::uint64_t
    poisson(double mean)
    {
        if (!(mean > 0.0))
            return 0;
        if (mean < 10.0) {
            double limit = std::exp(-mean);
            double prod = 1.0;
            std::uint64_t k = 0;
            for (;;) {
                prod *= uniform();
                if (prod <= limit)
                    return k;
                ++k;
            }
        }
        // PTRS (Hormann 1993): transformed rejection with squeeze.
        double b = 0.931 + 2.53 * std::sqrt(mean);
        double a = -0.059 + 0.02483 * b;
        double invAlpha = 1.1239 + 1.1328 / (b - 3.4);
        double vr = 0.9277 - 3.6224 / (b - 2.0);
        double logMean = std::log(mean);
        for (;;) {
            double u = uniform() - 0.5;
            double v = uniform();
            double us = 0.5 - std::abs(u);
            double kf = std::floor((2.0 * a / us + b) * u + mean + 0.43);
            if (us >= 0.07 && v <= vr)
                return std::uint64_t(kf);
            if (kf < 0.0 || (us < 0.013 && v > us))
                continue;
            if (std::log(v) + std::log(invAlpha) -
                    std::log(a / (us * us) + b) <=
                kf * logMean - mean - logGamma(kf + 1.0))
                return std::uint64_t(kf);
        }
    }

  private:
    /**
     * ln Γ(x) for x > 0. std::lgamma writes the process-global
     * `signgam`, a write-write data race when worker threads draw
     * Poisson counts concurrently; lgamma_r computes the identical
     * value into a local sign instead.
     */
    static double
    logGamma(double v)
    {
#if defined(__unix__) || defined(__APPLE__)
        int sign = 0;
        return ::lgamma_r(v, &sign);
#else
        return std::lgamma(v);
#endif
    }

    std::uint64_t x;
};

} // namespace wsc

#endif // WSC_UTIL_RANDOM_HH
