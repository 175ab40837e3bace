#include "ropuf/core/oracle.hpp"

#include <algorithm>

namespace ropuf::core {

BudgetedOracle::BudgetedOracle(AnyOracle inner, std::int64_t budget)
    : inner_(std::move(inner)), budget_(budget) {
    if (!inner_) throw std::invalid_argument("BudgetedOracle: null inner oracle");
    if (budget_ < 0) throw std::invalid_argument("BudgetedOracle: negative budget");
}

void BudgetedOracle::evaluate(std::span<const Probe> probes, std::vector<bool>& verdicts) {
    verdicts.clear();
    if (probes.empty()) return;
    if (exhausted_) throw BudgetExhausted(budget_, 0);
    const std::int64_t remaining = budget_ - spent_;
    const std::size_t affordable =
        std::min<std::size_t>(probes.size(),
                              remaining > 0 ? static_cast<std::size_t>(remaining) : 0u);
    if (affordable > 0) {
        // The affordable prefix is evaluated and charged like any batch; the
        // attacker keeps those verdicts (they are in the inner ledger) even
        // though the exception below abandons the rest of the batch.
        inner_.impl()->evaluate(probes.first(affordable), verdicts);
        spent_ += static_cast<std::int64_t>(affordable);
    }
    if (affordable < probes.size()) {
        exhausted_ = true;
        throw BudgetExhausted(budget_, affordable);
    }
}

} // namespace ropuf::core
