/**
 * @file
 * Deterministic random number generation for trajectory simulation.
 *
 * Every trajectory derives its own Rng from (master seed, trajectory
 * index) so results are reproducible independent of thread scheduling.
 * The generator is xoshiro256++ seeded via splitmix64.
 *
 * Thread-safety model: an Rng instance is mutable state and must be
 * confined to one thread; there is no internal locking.  Parallel
 * work (trajectory sweeps, ensemble compilation) takes a const
 * master Rng and gives each unit of work its own counter-derived
 * stream via derive(), which is const and safe to call from any
 * number of threads concurrently.  This is what makes parallel
 * results bit-identical to serial ones: stream identity depends
 * only on (seed, index), never on scheduling order.
 */

#ifndef CASQ_COMMON_RNG_HH
#define CASQ_COMMON_RNG_HH

#include <cstdint>

namespace casq {

/** Fast, reproducible PRNG (xoshiro256++). */
class Rng
{
  public:
    /** Seed via splitmix64 so that nearby seeds decorrelate. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Derive an independent stream, e.g. per trajectory. */
    Rng derive(std::uint64_t stream) const;

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal via Box-Muller (cached spare value). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Fair coin flip mapped to {+1, -1}. */
    int randomSign();

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

  private:
    std::uint64_t _state[4];
    double _spare = 0.0;
    bool _hasSpare = false;
    std::uint64_t _seed;
};

} // namespace casq

#endif // CASQ_COMMON_RNG_HH
