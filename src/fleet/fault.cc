#include "fleet/fault.hh"

#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "common/parse.hh"

namespace stfm
{
namespace fleet
{

FaultPlan
parseFaultPlan(const std::string &text)
{
    const std::size_t at = text.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= text.size()) {
        throw SimError(formatMessage(
            "STFM_FAULT: expected '<kind>@<shard>', got '%s'",
            text.c_str()));
    }
    const std::string kind = text.substr(0, at);
    const std::string index = text.substr(at + 1);

    FaultPlan plan;
    if (kind == "crash")
        plan.kind = FaultPlan::Kind::Crash;
    else if (kind == "abort")
        plan.kind = FaultPlan::Kind::Abort;
    else if (kind == "hang")
        plan.kind = FaultPlan::Kind::Hang;
    else if (kind == "garbage")
        plan.kind = FaultPlan::Kind::Garbage;
    else if (kind == "sigkill")
        plan.kind = FaultPlan::Kind::Sigkill;
    else if (kind == "slow")
        plan.kind = FaultPlan::Kind::Slow;
    else if (kind == "simfail")
        plan.kind = FaultPlan::Kind::SimFail;
    else {
        throw SimError(formatMessage(
            "STFM_FAULT: unknown fault kind '%s' (crash, abort, hang, "
            "garbage, sigkill, slow, simfail)",
            kind.c_str()));
    }

    const auto shard = parseDecimal(index.c_str(), 0,
                                    std::numeric_limits<unsigned>::max());
    if (!shard) {
        throw SimError(formatMessage(
            "STFM_FAULT: shard index '%s' is not an unsigned integer",
            index.c_str()));
    }
    plan.shard = static_cast<unsigned>(*shard);
    return plan;
}

FaultPlan
faultPlanFromEnv()
{
    const char *value = std::getenv("STFM_FAULT");
    if (value == nullptr || value[0] == '\0')
        return FaultPlan{};
    return parseFaultPlan(value);
}

} // namespace fleet
} // namespace stfm
