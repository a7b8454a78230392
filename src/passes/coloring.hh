/**
 * @file
 * Constrained greedy graph colouring for CA-DD (Algorithm 1,
 * ColorGraph).
 *
 * Colours are Walsh row indices.  Qubits active in an echoed
 * two-qubit gate are pinned to the rows realized by their own
 * hardware pulses (control echo = row 2, target rotary = row 1);
 * idle qubits are coloured greedily so that no crosstalk-coupled
 * pair shares a colour, preferring rows with fewer pulses and lower
 * position in the Walsh hierarchy.
 */

#ifndef CASQ_PASSES_COLORING_HH
#define CASQ_PASSES_COLORING_HH

#include <map>
#include <set>
#include <vector>

#include "device/crosstalk.hh"

namespace casq {

/** Walsh row realized by the control echo of an ECR-type gate. */
inline constexpr int kControlColor = 2;

/** Walsh row realized by the target rotary pulses. */
inline constexpr int kTargetColor = 1;

/** Input of the constrained colouring step. */
struct ColoringProblem
{
    /** Idle qubits to colour. */
    std::vector<std::uint32_t> idleQubits;

    /**
     * Pinned colours of active qubits (not coloured themselves but
     * constraining their crosstalk neighbours).
     */
    std::map<std::uint32_t, int> pinned;

    /** Highest Walsh row the compiler may use. */
    int maxColor = 15;
};

/**
 * Greedy colouring honoring the crosstalk graph: returns a colour
 * (Walsh row >= 1) per idle qubit such that no two crosstalk
 * neighbours (idle-idle or idle-pinned) share a colour.  Qubits
 * constrained by pinned neighbours are coloured first, as in
 * Algorithm 1.
 */
std::map<std::uint32_t, int> greedyColor(
    const ColoringProblem &problem, const CrosstalkGraph &graph);

/**
 * greedyColor() with the candidate order given: a pass colouring
 * many groups computes colorPreferenceOrder(maxColor) once.
 */
std::map<std::uint32_t, int> greedyColor(
    const ColoringProblem &problem, const CrosstalkGraph &graph,
    const std::vector<int> &preference);

/**
 * Candidate colour order: rows sorted by (pulse count, index), the
 * paper's "minimize pulses while staying low in the hierarchy".
 */
std::vector<int> colorPreferenceOrder(int max_color);

} // namespace casq

#endif // CASQ_PASSES_COLORING_HH
