/**
 * @file
 * The figure registry: every paper figure/table the repo reproduces,
 * addressable by name from the stfm CLI (`stfm fig09`, `stfm list
 * figures`).
 *
 * Two kinds of figures:
 *  - spec-driven: the figure is a named ExperimentSpec (workloads x
 *    the five paper schedulers) that `stfm <name>` runs exactly as
 *    `stfm run` runs a spec file, with the same flags (`--json`, the
 *    fleet flags, ...);
 *  - custom: figures whose harness does not fit the (workload x
 *    scheduler) grid (the fig03 idleness schedule, the fig05 pairing
 *    sweep, table5's geometry grid, the ablations) — plain functions
 *    over the runner. They print a report only, so `--json` and the
 *    fleet flags are usage errors for them, and so are `--telemetry`
 *    and `--trace` unless the figure writes per-run artifacts itself
 *    (fig05).
 *
 * Both kinds take `--full` (or STFM_FULL_SWEEP) for full-size sweeps;
 * harness/cli.cc parses the flags.
 */

#ifndef STFM_HARNESS_FIGURES_HH
#define STFM_HARNESS_FIGURES_HH

#include <string>
#include <vector>

#include "harness/spec.hh"

namespace stfm
{

/** One registered figure. */
struct Figure
{
    std::string name;        ///< Registry key ("fig09", "table5", ...).
    std::string description; ///< One line for `stfm list figures`.
    /** Spec builder (spec-driven figures); null for custom figures. */
    ExperimentSpec (*spec)(bool full) = nullptr;
    /** Custom harness (argument: full-size sweep); null for
     *  spec-driven figures. Prints its report, returns an exit code. */
    int (*custom)(bool full) = nullptr;
    /** Custom figures only: the harness writes the per-run telemetry
     *  and trace artifacts the environment asks for. */
    bool writesObsArtifacts = false;

    bool specDriven() const { return spec != nullptr; }
};

/** All figures, in paper order. */
const std::vector<Figure> &figureRegistry();

/** Lookup by name; nullptr when unknown. */
const Figure *findFigure(const std::string &name);

/** The custom figure harnesses (bodies in figures_custom.cc). */
namespace figures
{

int motivation(bool full);            ///< Figure 1.
int idleness(bool full);              ///< Figure 3.
int twoCore(bool full);               ///< Figure 5.
int threadWeights(bool full);         ///< Figure 14.
int alphaSweep(bool full);            ///< Figure 15.
int table3Characteristics(bool full); ///< Tables 3 and 4.
int table5Sensitivity(bool full);     ///< Table 5.
int ablationStfm(bool full);
int ablationController(bool full);

} // namespace figures

} // namespace stfm

#endif // STFM_HARNESS_FIGURES_HH
