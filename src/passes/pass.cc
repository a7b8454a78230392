#include "passes/pass.hh"

namespace casq {

const char *
stageName(CircuitStage stage)
{
    switch (stage) {
      case CircuitStage::Layered:
        return "layered";
      case CircuitStage::Flat:
        return "flat";
      case CircuitStage::Scheduled:
        return "scheduled";
    }
    casq_panic("invalid CircuitStage");
}

PassContext::PassContext(const LayeredCircuit &logical,
                         const Backend &backend, Rng &rng)
    : _source(&logical), _backend(backend), _rng(rng)
{
}

PassContext::PassContext(const PassContext &snapshot, Rng &rng)
    : _source(snapshot._source), _backend(snapshot._backend),
      _rng(rng), _stage(snapshot._stage),
      _layered(snapshot._layered), _flat(snapshot._flat),
      _scheduled(snapshot._scheduled),
      _properties(snapshot._properties), _notes(snapshot._notes)
{
}

void
PassContext::requireStage(CircuitStage wanted, const char *what) const
{
    casq_assert(_stage == wanted, "cannot access the ", what,
                " circuit while the pipeline is at the ",
                stageName(_stage), " stage");
}

const LayeredCircuit &
PassContext::layered() const
{
    requireStage(CircuitStage::Layered, "layered");
    return _layered ? *_layered : *_source;
}

LayeredCircuit &
PassContext::mutableLayered()
{
    requireStage(CircuitStage::Layered, "layered");
    if (!_layered)
        _layered = *_source;
    return *_layered;
}

void
PassContext::setLayered(LayeredCircuit circuit)
{
    requireStage(CircuitStage::Layered, "layered");
    _layered = std::move(circuit);
}

void
PassContext::setFlat(Circuit circuit)
{
    casq_assert(_stage != CircuitStage::Scheduled,
                "cannot go back to the flat stage after "
                "scheduling");
    _flat = std::move(circuit);
    _layered.reset();
    _stage = CircuitStage::Flat;
}

const Circuit &
PassContext::flat() const
{
    requireStage(CircuitStage::Flat, "flat");
    return *_flat;
}

void
PassContext::setScheduled(ScheduledCircuit circuit)
{
    casq_assert(_stage != CircuitStage::Layered,
                "scheduling requires the circuit to be flattened "
                "first");
    _scheduled = std::move(circuit);
    _flat.reset();
    _stage = CircuitStage::Scheduled;
}

const ScheduledCircuit &
PassContext::scheduled() const
{
    requireStage(CircuitStage::Scheduled, "scheduled");
    return *_scheduled;
}

ScheduledCircuit &
PassContext::mutableScheduled()
{
    requireStage(CircuitStage::Scheduled, "scheduled");
    return *_scheduled;
}

ScheduledCircuit
PassContext::takeScheduled()
{
    requireStage(CircuitStage::Scheduled, "scheduled");
    return std::move(*_scheduled);
}

void
PassContext::setProperty(const std::string &key, std::any value)
{
    _properties[key] = std::move(value);
}

void
PassContext::addNote(std::string note)
{
    _notes.push_back(std::move(note));
}

} // namespace casq
