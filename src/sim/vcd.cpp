#include "sim/vcd.hpp"

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

namespace slimsim::sim {

namespace {

/// Compact VCD identifier codes: printable ASCII 33..126, base-94.
std::string vcd_id(std::size_t index) {
    std::string id;
    do {
        id += static_cast<char>(33 + index % 94);
        index /= 94;
    } while (index != 0);
    return id;
}

std::string vcd_name(std::string name) {
    for (char& c : name) {
        if (c == '.' || c == '@' || c == '#' || c == ' ') c = '_';
    }
    return name;
}

std::string binary64(std::int64_t value) {
    const auto u = static_cast<std::uint64_t>(value);
    std::string bits = "b";
    bool leading = true;
    for (int i = 63; i >= 0; --i) {
        const bool bit = ((u >> i) & 1u) != 0;
        if (bit) leading = false;
        if (!leading || i == 0) bits += bit ? '1' : '0';
    }
    return bits;
}

class VcdWriter {
public:
    VcdWriter(const eda::Network& net, std::ostream& out, const VcdOptions& options)
        : net_(net), out_(out), options_(options) {}

    void header() {
        const auto& m = net_.model();
        out_ << "$comment slimsim path dump $end\n";
        out_ << "$timescale 1 ms $end\n"; // ticks scaled by options_.tick_seconds
        out_ << "$scope module model $end\n";
        std::size_t next = 0;
        for (VarId v = 0; v < m.vars.size(); ++v) {
            const std::string id = vcd_id(next++);
            var_ids_.push_back(id);
            const std::string name = vcd_name(m.vars[v].full_name);
            switch (m.vars[v].type.kind) {
            case TypeKind::Bool:
                out_ << "$var wire 1 " << id << ' ' << name << " $end\n";
                break;
            case TypeKind::Int:
                out_ << "$var integer 64 " << id << ' ' << name << " $end\n";
                break;
            default:
                out_ << "$var real 64 " << id << ' ' << name << " $end\n";
                break;
            }
        }
        for (const auto& p : m.processes) {
            const std::string id = vcd_id(next++);
            loc_ids_.push_back(id);
            out_ << "$var integer 32 " << id << ' ' << vcd_name(p.name) << "_loc $end\n";
        }
        out_ << "$upscope $end\n$enddefinitions $end\n";
    }

    void dump(const eda::NetworkState& s, bool full) {
        const auto& m = net_.model();
        const auto tick =
            static_cast<std::uint64_t>(std::llround(s.time / options_.tick_seconds));
        bool stamped = false;
        auto stamp = [&] {
            if (stamped) return;
            if (!have_tick_ || tick > last_tick_) out_ << '#' << tick << '\n';
            last_tick_ = tick;
            have_tick_ = true;
            stamped = true;
        };
        if (full) {
            stamp();
            out_ << "$dumpvars\n";
        }
        for (VarId v = 0; v < m.vars.size(); ++v) {
            if (!full && prev_values_[v] == s.values[v]) continue;
            stamp();
            emit_value(m.vars[v].type, s.values[v], var_ids_[v]);
        }
        for (std::size_t p = 0; p < m.processes.size(); ++p) {
            if (!full && prev_locations_[p] == s.locations[p]) continue;
            stamp();
            out_ << binary64(s.locations[p]) << ' ' << loc_ids_[p] << '\n';
        }
        if (full) out_ << "$end\n";
        prev_values_ = s.values;
        prev_locations_ = s.locations;
    }

private:
    void emit_value(const Type& t, const Value& v, const std::string& id) {
        switch (t.kind) {
        case TypeKind::Bool:
            out_ << (v.as_bool() ? '1' : '0') << id << '\n';
            break;
        case TypeKind::Int:
            out_ << binary64(v.as_int()) << ' ' << id << '\n';
            break;
        default: {
            char buf[40];
            std::snprintf(buf, sizeof buf, "r%.16g", v.as_real());
            out_ << buf << ' ' << id << '\n';
            break;
        }
        }
    }

    const eda::Network& net_;
    std::ostream& out_;
    VcdOptions options_;
    std::vector<std::string> var_ids_;
    std::vector<std::string> loc_ids_;
    std::vector<Value> prev_values_;
    std::vector<int> prev_locations_;
    std::uint64_t last_tick_ = 0;
    bool have_tick_ = false;
};

} // namespace

PathOutcome write_vcd(const PathGenerator& gen, Rng& rng, std::ostream& out,
                      const VcdOptions& options) {
    if (!(options.tick_seconds > 0.0)) throw Error("VCD tick must be positive");
    VcdWriter writer(gen.network(), out, options);
    writer.header();

    eda::NetworkState s = gen.initial_state();
    writer.dump(s, /*full=*/true);
    std::size_t steps = 0;
    for (;;) {
        const auto outcome = gen.step(s, rng, steps);
        writer.dump(s, /*full=*/false);
        if (outcome) return *outcome;
    }
}

} // namespace slimsim::sim
