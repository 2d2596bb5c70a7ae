/**
 * @file
 * The figure registry: every paper figure/table the repo reproduces,
 * addressable by name from the stfm CLI (`stfm fig09`, `stfm list
 * figures`).
 *
 * Two kinds of figures:
 *  - spec-driven: the figure is a named ExperimentSpec (workloads x
 *    labelled scheduler entries, the five paper schedulers by default)
 *    that `stfm <name>` runs exactly as `stfm run` runs a spec file,
 *    with the same flags (`--json`, the fleet flags, `--telemetry`,
 *    `--trace`, ...). Most print the generic report; a figure with
 *    figure-specific columns (fig05, fig14) names its own renderer
 *    over the same ExperimentResult;
 *  - custom: figures whose harness does not fit the (workload x
 *    scheduler) grid (fig01's two core counts, the fig03 idleness
 *    schedule, the alone-run tables, table5's geometry grid, the
 *    controller ablations) — plain functions over the runner. They
 *    print a report only, so `--json`, the fleet flags, `--telemetry`
 *    and `--trace` are usage errors for them.
 *
 * Both kinds take `--full` (or STFM_FULL_SWEEP) for full-size sweeps;
 * harness/cli.cc parses the flags.
 */

#ifndef STFM_HARNESS_FIGURES_HH
#define STFM_HARNESS_FIGURES_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/spec.hh"

namespace stfm
{

struct ExperimentResult;

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
    /** Spec-driven figures only: renders the report in place of
     *  printExperiment; null prints the generic report. */
    using Renderer = void (*)(const ExperimentResult &, std::ostream &);
    Renderer report = nullptr;

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
int table3Characteristics(bool full); ///< Tables 3 and 4.
int table5Sensitivity(bool full);     ///< Table 5.
int ablationController(bool full);

} // namespace figures

} // namespace stfm

#endif // STFM_HARNESS_FIGURES_HH
