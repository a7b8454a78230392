/**
 * @file
 * Seeded, deterministic input mutation for the decoder sweeps: no
 * fuzzing toolchain, the same mutants on every run, and every
 * mutant must either decode or throw SerializeError.
 */

#ifndef CASQ_TESTS_MUTATION_HH
#define CASQ_TESTS_MUTATION_HH

#include <algorithm>
#include <string>

#include "common/rng.hh"

namespace casq::test {

/**
 * Apply 1-4 random edits to `data` (a byte payload or a text
 * recipe): overwrite, insert, erase, duplicate a slice, or truncate.
 * New elements come from `alphabet` seven times in eight and are
 * arbitrary bytes otherwise (always, when the alphabet is empty).
 */
template <class Seq>
void
mutate(Seq &data, Rng &rng, const std::string &alphabet = {})
{
    using Elem = typename Seq::value_type;
    const auto pick = [&]() -> Elem {
        if (!alphabet.empty() && rng.uniformInt(8) != 0)
            return Elem(alphabet[rng.uniformInt(alphabet.size())]);
        return Elem(rng.uniformInt(256));
    };
    const int edits = 1 + int(rng.uniformInt(4));
    for (int e = 0; e < edits; ++e) {
        const std::size_t size = data.size();
        const std::size_t at = rng.uniformInt(size + 1);
        switch (rng.uniformInt(5)) {
          case 0: // overwrite
            if (at < size)
                data[at] = pick();
            break;
          case 1: // insert
            data.insert(data.begin() + std::ptrdiff_t(at), pick());
            break;
          case 2: { // erase a short run
            const std::size_t end =
                std::min(size, at + 1 + std::size_t(rng.uniformInt(4)));
            data.erase(data.begin() + std::ptrdiff_t(at),
                       data.begin() + std::ptrdiff_t(end));
            break;
          }
          case 3: { // duplicate a slice in place
            const std::size_t len =
                std::min(size - at, std::size_t(rng.uniformInt(9)));
            const Seq slice(data.begin() + std::ptrdiff_t(at),
                            data.begin() + std::ptrdiff_t(at + len));
            data.insert(data.begin() + std::ptrdiff_t(at),
                        slice.begin(), slice.end());
            break;
          }
          default: // truncate
            data.resize(at);
            break;
        }
    }
}

} // namespace casq::test

#endif // CASQ_TESTS_MUTATION_HH
