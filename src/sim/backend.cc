#include "sim/backend.hh"

#include <cmath>

#include "common/logging.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"

namespace casq {

const char *
simBackendKindName(SimBackendKind kind)
{
    switch (kind) {
      case SimBackendKind::Auto:
        return "auto";
      case SimBackendKind::Dense:
        return "dense";
      case SimBackendKind::Stabilizer:
        return "stabilizer";
    }
    return "?";
}

std::optional<SimBackendKind>
simBackendKindFromName(const std::string &name)
{
    if (name == "auto")
        return SimBackendKind::Auto;
    if (name == "dense")
        return SimBackendKind::Dense;
    if (name == "stabilizer")
        return SimBackendKind::Stabilizer;
    return std::nullopt;
}

Complex
unitPhase(double theta)
{
    return Complex(std::cos(theta * 0.5), std::sin(theta * 0.5));
}

int
StateBackend::measure(std::uint32_t q, Rng &rng)
{
    // One uniform per measurement, drawn after probabilityOne and
    // before collapse, on every backend: the shared sequence is the
    // cross-backend RNG-stream contract (docs/backends.md).
    const double p1 = probabilityOne(q);
    const int outcome = rng.uniform() < p1 ? 1 : 0;
    collapse(q, outcome);
    return outcome;
}

std::unique_ptr<StateBackend>
makeStateBackend(SimBackendKind kind, std::size_t num_qubits)
{
    switch (kind) {
      case SimBackendKind::Dense:
        return std::make_unique<Statevector>(num_qubits);
      case SimBackendKind::Stabilizer:
        return std::make_unique<StabilizerBackend>(num_qubits);
      case SimBackendKind::Auto:
        break;
    }
    casq_panic("makeStateBackend: Auto is a routing policy, not a "
               "constructible backend");
}

} // namespace casq
