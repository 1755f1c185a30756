// Per-target weight sums shared by vanishing-state elimination, lumping and
// the quotient construction (ctmc/imc, ctmc/bisim, ctmc/ctmc).
#pragma once

#include <algorithm>
#include <vector>

#include "ctmc/ctmc.hpp"

namespace slimsim::ctmc {

/// Sums weights per target state: a dense accumulator plus the list of
/// targets touched, emitted in ascending target order. Each target's sum
/// receives its additions in call order (from 0.0), exactly as a
/// `std::map<StateId, double>` accumulation would, without a node per
/// target.
class Accumulator {
public:
    explicit Accumulator(std::size_t states) : sum_(states, 0.0), touched_flag_(states, 0) {}

    void add(StateId t, double w) {
        if (touched_flag_[t] == 0) {
            touched_flag_[t] = 1;
            touched_.push_back(t);
        }
        sum_[t] += w;
    }
    /// Calls emit(target, sum) in ascending target order, then resets.
    template <class Emit>
    void drain(Emit&& emit) {
        std::sort(touched_.begin(), touched_.end());
        for (const StateId t : touched_) {
            emit(t, sum_[t]);
            sum_[t] = 0.0;
            touched_flag_[t] = 0;
        }
        touched_.clear();
    }

private:
    std::vector<double> sum_;
    std::vector<char> touched_flag_;
    std::vector<StateId> touched_;
};

} // namespace slimsim::ctmc
