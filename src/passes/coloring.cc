#include "passes/coloring.hh"

#include <algorithm>

#include "common/logging.hh"
#include "passes/walsh.hh"

namespace casq {

std::vector<int>
colorPreferenceOrder(int max_color)
{
    std::vector<int> order;
    for (int k = 1; k <= max_color; ++k)
        order.push_back(k);
    std::stable_sort(order.begin(), order.end(), [](int a, int b) {
        const std::size_t pa = walshPulseCount(a);
        const std::size_t pb = walshPulseCount(b);
        if (pa != pb)
            return pa < pb;
        return a < b;
    });
    return order;
}

std::map<std::uint32_t, int>
greedyColor(const ColoringProblem &problem,
            const CrosstalkGraph &graph)
{
    return greedyColor(problem, graph,
                       colorPreferenceOrder(problem.maxColor));
}

std::map<std::uint32_t, int>
greedyColor(const ColoringProblem &problem,
            const CrosstalkGraph &graph,
            const std::vector<int> &preference)
{
    std::map<std::uint32_t, int> colors;

    // Constrained-first ordering: idle qubits adjacent to pinned
    // actives come first (more pinned neighbours = earlier), ties
    // broken by index for determinism: sort by the key
    // (-pinned degree, index), computed once per qubit.
    std::vector<std::pair<int, std::uint32_t>> keyed;
    keyed.reserve(problem.idleQubits.size());
    for (auto q : problem.idleQubits) {
        int d = 0;
        for (auto n : graph.neighbors(q))
            if (problem.pinned.count(n))
                ++d;
        keyed.emplace_back(-d, q);
    }
    std::sort(keyed.begin(), keyed.end());

    for (const auto &[key, q] : keyed) {
        std::set<int> taken;
        for (auto n : graph.neighbors(q)) {
            auto pin = problem.pinned.find(n);
            if (pin != problem.pinned.end())
                taken.insert(pin->second);
            auto col = colors.find(n);
            if (col != colors.end())
                taken.insert(col->second);
        }
        int chosen = -1;
        for (int k : preference) {
            if (!taken.count(k)) {
                chosen = k;
                break;
            }
        }
        casq_assert(chosen > 0, "ran out of Walsh colours at qubit q",
                    q, " (maxColor = ", problem.maxColor, ")");
        colors[q] = chosen;
    }
    return colors;
}

} // namespace casq
