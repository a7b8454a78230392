#include "passes/ca_dd.hh"

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "passes/dd_sequences.hh"
#include "passes/walsh.hh"
#include "sim/timeline.hh"

namespace casq {

namespace {

bool
overlaps(const IdleWindow &a, const IdleWindow &b)
{
    return a.start < b.end - 1e-9 && b.start < a.end - 1e-9;
}

bool
overlapsSpan(const IdleWindow &w, double start, double end)
{
    return w.start < end - 1e-9 && start < w.end - 1e-9;
}

/**
 * Union-find grouping of windows by overlap + adjacency.  The
 * overlapping adjacent pairs come from one start-ordered sweep that
 * keeps, per qubit, the windows still open; they are then united in
 * (i, j) lexicographic order, so the roots -- and with them the
 * group order -- are those of the all-pairs scan.
 */
std::vector<std::vector<IdleWindow>>
groupWindows(const std::vector<IdleWindow> &windows,
             const CrosstalkGraph &graph)
{
    const int count = int(windows.size());
    std::vector<int> order(count);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return windows[a].start < windows[b].start;
    });
    // The windows still open, per qubit.
    std::map<std::uint32_t, std::vector<int>> open;
    std::vector<std::pair<int, int>> pairs;
    for (int j : order) {
        const IdleWindow &w = windows[j];
        for (auto q : graph.neighbors(w.qubit)) {
            auto it = open.find(q);
            if (it == open.end())
                continue;
            // A window ending by w.start overlaps neither w nor any
            // window the sweep visits later.
            std::erase_if(it->second, [&](int i) {
                return windows[i].end - 1e-9 <= w.start;
            });
            for (int i : it->second)
                if (overlaps(windows[i], w))
                    pairs.emplace_back(std::min(i, j),
                                       std::max(i, j));
        }
        open[w.qubit].push_back(j);
    }
    std::sort(pairs.begin(), pairs.end());

    std::vector<int> parent(count);
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](int x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    for (const auto &[i, j] : pairs)
        parent[find(i)] = find(j);
    std::vector<std::vector<IdleWindow>> buckets(count);
    for (int i = 0; i < count; ++i)
        buckets[find(i)].push_back(windows[i]);
    std::vector<std::vector<IdleWindow>> out;
    for (auto &group : buckets)
        if (!group.empty())
            out.push_back(std::move(group));
    return out;
}

/** Recursive split of one group (Algorithm 1, lines 10-18). */
void
splitGroup(std::vector<IdleWindow> group, double min_duration,
           const CrosstalkGraph &graph,
           std::vector<JointDelayGroup> &out)
{
    if (group.empty())
        return;
    if (group.size() == 1) {
        out.push_back(JointDelayGroup{group[0].start, group[0].end,
                                      {group[0]}});
        return;
    }
    // Widest joint window: the member overlapped by the most
    // members (ties: the longest one).
    std::size_t best = 0;
    std::size_t best_count = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        std::size_t count = 0;
        for (std::size_t j = 0; j < group.size(); ++j)
            if (overlaps(group[i], group[j]))
                ++count;
        const bool better =
            count > best_count ||
            (count == best_count &&
             group[i].duration() > group[best].duration());
        if (better) {
            best = i;
            best_count = count;
        }
    }
    const double span_start = group[best].start;
    const double span_end = group[best].end;

    JointDelayGroup joint{span_start, span_end, {}};
    std::vector<IdleWindow> before, after;
    for (const auto &w : group) {
        if (overlapsSpan(w, span_start, span_end)) {
            IdleWindow clipped = w;
            clipped.start = std::max(w.start, span_start);
            clipped.end = std::min(w.end, span_end);
            if (clipped.duration() >= min_duration)
                joint.members.push_back(clipped);
            // Residual pieces outside the span.  Like every other
            // window in this pass, a residual of exactly
            // min_duration is still worth decoupling (the >= Dmin
            // convention of Algorithm 1); the recursion drops
            // anything shorter.
            if (w.start <= span_start - min_duration) {
                before.push_back(
                    IdleWindow{w.qubit, w.start, span_start});
            }
            if (w.end >= span_end + min_duration) {
                after.push_back(
                    IdleWindow{w.qubit, span_end, w.end});
            }
        } else if (w.end <= span_start + 1e-9) {
            before.push_back(w);
        } else {
            after.push_back(w);
        }
    }
    if (!joint.members.empty())
        out.push_back(std::move(joint));
    for (auto &sub : groupWindows(before, graph))
        splitGroup(std::move(sub), min_duration, graph, out);
    for (auto &sub : groupWindows(after, graph))
        splitGroup(std::move(sub), min_duration, graph, out);
}

/**
 * The echoed two-qubit gates of one schedule (the contexts CA-DD
 * aligns to), built in a single sweep and indexed per qubit by
 * crosstalk neighbour: the list of qubit q holds, ordered by start,
 * every gate acting on a qubit adjacent to q.  It points into the
 * schedule, which must outlive it.
 */
class EchoIndex
{
  public:
    EchoIndex(const ScheduledCircuit &schedule,
              const CrosstalkGraph &graph)
        : _adjacent(graph.numQubits())
    {
        for (const auto &timed : schedule.instructions()) {
            if (!isEchoedTwoQubitOp(timed.inst.op) ||
                timed.duration <= 0.0) {
                continue;
            }
            const int id = int(_gates.size());
            _gates.push_back(&timed);
            _maxDuration = std::max(_maxDuration, timed.duration);
            for (auto gq : timed.inst.qubits) {
                for (auto q : graph.neighbors(gq)) {
                    // A neighbour shared by both gate qubits sees
                    // the gate twice in a row.
                    if (_adjacent[q].empty() ||
                        _adjacent[q].back() != id) {
                        _adjacent[q].push_back(id);
                    }
                }
            }
        }
        for (auto &list : _adjacent)
            std::stable_sort(list.begin(), list.end(),
                             [&](int a, int b) {
                                 return _gates[a]->start <
                                        _gates[b]->start;
                             });
    }

    const TimedInstruction &gate(int id) const { return *_gates[id]; }

    /**
     * The gates adjacent to qubit q that start before hi, leaving out
     * only gates that end before lo.  Callers apply their exact
     * overlap predicate to what they are given.
     */
    std::span<const int>
    adjacent(std::uint32_t q, double lo, double hi) const
    {
        const std::vector<int> &list = _adjacent[q];
        auto starts_before = [&](int id, double t) {
            return _gates[id]->start < t;
        };
        // A gate ending after lo starts after lo - _maxDuration; the
        // extra nanosecond absorbs rounding of start + duration.
        const auto first =
            std::lower_bound(list.begin(), list.end(),
                             lo - _maxDuration - 1.0, starts_before);
        return {first, std::lower_bound(first, list.end(), hi,
                                        starts_before)};
    }

  private:
    std::vector<const TimedInstruction *> _gates; //!< schedule order
    std::vector<std::vector<int>> _adjacent;
    double _maxDuration = 0.0;
};

/**
 * Split idle windows at the start/end times of echoed two-qubit
 * gates running on crosstalk-adjacent qubits, so that spectator
 * sequences stay aligned with the echo/rotary pulses of each
 * individual gate (the per-layer contexts of Sec. III B).  Pieces
 * shorter than min_duration are dropped.
 */
std::vector<IdleWindow>
splitAtContextBoundaries(const std::vector<IdleWindow> &windows,
                         const EchoIndex &echoes,
                         double min_duration)
{
    std::vector<IdleWindow> out;
    for (const auto &w : windows) {
        std::vector<double> cuts{w.start, w.end};
        for (int id : echoes.adjacent(w.qubit, w.start, w.end)) {
            const TimedInstruction &timed = echoes.gate(id);
            for (double t : {timed.start, timed.end()})
                if (t > w.start + 1e-9 && t < w.end - 1e-9)
                    cuts.push_back(t);
        }
        std::sort(cuts.begin(), cuts.end());
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            if (cuts[i + 1] - cuts[i] >= min_duration) {
                out.push_back(
                    IdleWindow{w.qubit, cuts[i], cuts[i + 1]});
            }
        }
    }
    return out;
}

std::vector<JointDelayGroup>
jointDelays(const ScheduledCircuit &schedule, const EchoIndex &echoes,
            const CrosstalkGraph &graph, double min_duration)
{
    const std::vector<IdleWindow> windows = splitAtContextBoundaries(
        schedule.idleWindows(min_duration), echoes, min_duration);
    std::vector<JointDelayGroup> out;
    for (auto &group : groupWindows(windows, graph))
        splitGroup(std::move(group), min_duration, graph, out);
    std::sort(out.begin(), out.end(),
              [](const JointDelayGroup &a, const JointDelayGroup &b) {
                  return a.start < b.start;
              });
    return out;
}

ColoredGroup
colorJointDelay(const JointDelayGroup &group, const EchoIndex &echoes,
                const CrosstalkGraph &graph, int max_color,
                const std::vector<int> &preference)
{
    ColoredGroup result;
    result.group = group;

    // Pin colours of qubits executing echoed two-qubit gates
    // concurrently with this group on crosstalk-adjacent qubits.
    std::set<std::uint32_t> member_qubits;
    for (const auto &w : group.members)
        member_qubits.insert(w.qubit);

    std::vector<int> concurrent;
    for (auto m : member_qubits) {
        for (int id : echoes.adjacent(m, group.start, group.end)) {
            const TimedInstruction &timed = echoes.gate(id);
            if (timed.end() > group.start + 1e-9 &&
                timed.start < group.end - 1e-9) {
                concurrent.push_back(id);
            }
        }
    }
    // Schedule order: a later gate on the same qubit overwrites the
    // pin of an earlier one.
    std::sort(concurrent.begin(), concurrent.end());
    concurrent.erase(std::unique(concurrent.begin(), concurrent.end()),
                     concurrent.end());
    for (int id : concurrent) {
        const TimedInstruction &timed = echoes.gate(id);
        // Only gate qubits that neighbour a member matter.
        for (std::size_t k = 0; k < timed.inst.qubits.size(); ++k) {
            const std::uint32_t gq = timed.inst.qubits[k];
            const bool relevant = std::any_of(
                member_qubits.begin(), member_qubits.end(),
                [&](std::uint32_t m) {
                    return graph.connected(gq, m);
                });
            if (relevant) {
                result.pinned[gq] =
                    (k == 0) ? kControlColor : kTargetColor;
            }
        }
    }

    ColoringProblem problem;
    problem.idleQubits.assign(member_qubits.begin(),
                              member_qubits.end());
    problem.pinned = result.pinned;
    problem.maxColor = max_color;
    result.colors = greedyColor(problem, graph, preference);

    int max_used = 1;
    for (const auto &[q, c] : result.colors)
        max_used = std::max(max_used, c);
    for (const auto &[q, c] : result.pinned)
        max_used = std::max(max_used, c);
    result.slots = walshSlots(max_used);
    return result;
}

} // namespace

std::vector<JointDelayGroup>
collectJointDelays(const ScheduledCircuit &schedule,
                   const CrosstalkGraph &graph, double min_duration)
{
    return jointDelays(schedule, EchoIndex(schedule, graph), graph,
                       min_duration);
}

ColoredGroup
colorGroup(const JointDelayGroup &group,
           const ScheduledCircuit &schedule,
           const CrosstalkGraph &graph, int max_color)
{
    return colorJointDelay(group, EchoIndex(schedule, graph), graph,
                           max_color, colorPreferenceOrder(max_color));
}

ScheduledCircuit
applyCaDd(const ScheduledCircuit &schedule, const Backend &backend,
          const CaddOptions &options)
{
    const CrosstalkGraph graph =
        backend.crosstalkGraph(options.minZzRateMhz);
    const EchoIndex echoes(schedule, graph);
    const std::vector<int> preference =
        colorPreferenceOrder(options.maxWalshIndex);
    std::map<std::pair<int, std::size_t>, DdSequence> sequences;

    ScheduledCircuit out = schedule;
    for (const auto &group : jointDelays(schedule, echoes, graph,
                                         options.minDuration)) {
        const ColoredGroup colored =
            colorJointDelay(group, echoes, graph,
                            options.maxWalshIndex, preference);
        for (const auto &member : colored.group.members) {
            const int color = colored.colors.at(member.qubit);
            auto [it, fresh] =
                sequences.try_emplace({color, colored.slots});
            if (fresh)
                it->second = walshSequence(color, colored.slots);
            insertDdPulses(out, member.qubit, member.start,
                           member.end, it->second,
                           backend.durations().oneQubit);
        }
    }
    out.sortByStart();
    return out;
}

ScheduledCircuit
applyUniformDd(const ScheduledCircuit &schedule,
               const GateDurations &durations, UniformDdStyle style,
               double min_duration)
{
    // Context-unaware padding in the style of standard transpiler
    // DD passes: every scheduled delay (idle windows split at the
    // global gate-boundary grid, i.e. per layer in barrier-aligned
    // circuits) is padded with the same X2 sequence, with no
    // knowledge of crosstalk or of neighbouring gate echoes.
    std::vector<double> grid;
    for (const auto &timed : schedule.instructions()) {
        if (timed.inst.op == Op::Barrier || timed.duration <= 0.0)
            continue;
        grid.push_back(timed.start);
        grid.push_back(timed.end());
    }
    std::sort(grid.begin(), grid.end());
    const DdSequence aligned = alignedX2();
    const DdSequence offset = offsetX2();

    ScheduledCircuit out = schedule;
    for (const auto &window : schedule.idleWindows(min_duration)) {
        // Grid points strictly inside the window, already in order
        // (none when the window is shorter than the tolerances).
        const auto first = std::upper_bound(grid.begin(), grid.end(),
                                            window.start + 1e-9);
        const auto last = std::max(
            first, std::lower_bound(grid.begin(), grid.end(),
                                    window.end - 1e-9));
        std::vector<double> cuts{window.start};
        cuts.insert(cuts.end(), first, last);
        cuts.push_back(window.end);
        const DdSequence &seq =
            style == UniformDdStyle::StaggeredByParity &&
                    window.qubit % 2 == 1
                ? offset
                : aligned;
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            if (cuts[i + 1] - cuts[i] < min_duration)
                continue;
            insertDdPulses(out, window.qubit, cuts[i], cuts[i + 1],
                           seq, durations.oneQubit);
        }
    }
    out.sortByStart();
    return out;
}

} // namespace casq
