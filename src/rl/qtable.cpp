#include "rl/qtable.hpp"

#include <cstdint>
#include <limits>

#include "persist/atomic_file.hpp"

namespace topil::rl {

namespace {

// On-disk format v2: magic + version header in the style of the model
// ("TOPL") file. The original format was two raw u64 dimensions with no
// validation, so a corrupt header triggered a multi-GB allocation; v2
// bounds both dimensions and their product. Headerless files are refused.
constexpr std::uint32_t kQTableMagic = 0x544f5051u;  // "TOPQ"
constexpr std::uint32_t kQTableVersion = 2;
constexpr std::uint64_t kMaxStates = 1u << 24;
constexpr std::uint64_t kMaxActions = 1u << 12;
constexpr std::uint64_t kMaxEntries = 1u << 27;

}  // namespace

QTable::QTable(std::size_t num_states, std::size_t num_actions,
               double initial_value)
    : num_states_(num_states),
      num_actions_(num_actions),
      values_(num_states * num_actions, initial_value) {
  TOPIL_REQUIRE(num_states > 0 && num_actions > 0,
                "Q-table dimensions must be positive");
}

std::size_t QTable::index(std::size_t state, std::size_t action) const {
  TOPIL_REQUIRE(state < num_states_, "state out of range");
  TOPIL_REQUIRE(action < num_actions_, "action out of range");
  return state * num_actions_ + action;
}

double QTable::q(std::size_t state, std::size_t action) const {
  return values_[index(state, action)];
}

void QTable::set_q(std::size_t state, std::size_t action, double value) {
  values_[index(state, action)] = value;
}

std::size_t QTable::greedy_action(std::size_t state,
                                  const std::vector<bool>& allowed) const {
  TOPIL_REQUIRE(allowed.size() == num_actions_, "mask width mismatch");
  std::size_t best = num_actions_;
  double best_q = -std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < num_actions_; ++a) {
    if (!allowed[a]) continue;
    const double value = q(state, a);
    if (value > best_q) {
      best_q = value;
      best = a;
    }
  }
  TOPIL_REQUIRE(best < num_actions_, "no allowed action");
  return best;
}

double QTable::max_q(std::size_t state,
                     const std::vector<bool>& allowed) const {
  return q(state, greedy_action(state, allowed));
}

void QTable::update(std::size_t state, std::size_t action, double reward,
                    std::size_t next_state,
                    const std::vector<bool>& next_allowed, double alpha,
                    double gamma) {
  const double target = reward + gamma * max_q(next_state, next_allowed);
  const std::size_t i = index(state, action);
  values_[i] += alpha * (target - values_[i]);
}

void QTable::update_terminal(std::size_t state, std::size_t action,
                             double reward, double alpha) {
  const std::size_t i = index(state, action);
  values_[i] += alpha * (reward - values_[i]);
}

template <typename Io, typename Self>
void QTable::file_fields(Io& io, Self& table) {
  std::uint32_t magic = kQTableMagic;
  std::uint32_t version = kQTableVersion;
  io.u32(magic);
  io.u32(version);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(magic == kQTableMagic, "not a Q-table file");
    TOPIL_REQUIRE(version == kQTableVersion,
                  "unsupported Q-table file version");
  }
  io.u64(table.num_states_);
  io.u64(table.num_actions_);
  if constexpr (Io::kReading) {
    const std::size_t s = table.num_states_;
    const std::size_t a = table.num_actions_;
    TOPIL_REQUIRE(s > 0 && s <= kMaxStates,
                  "implausible Q-table state count");
    TOPIL_REQUIRE(a > 0 && a <= kMaxActions,
                  "implausible Q-table action count");
    // Bounded dims cannot overflow in the product; bound the entry count
    // so a plausible-looking pair still cannot demand an absurd
    // allocation, and by the bytes left before sizing the table.
    TOPIL_REQUIRE(s * a <= kMaxEntries &&
                      s * a <= io.remaining() / sizeof(double),
                  "implausible Q-table size");
    table.values_.resize(s * a);
  }
  io.array(table.values_.data(), table.values_.size());
}

void QTable::save(const std::string& path) const {
  persist::StateWriter out;
  file_fields(out, *this);
  persist::atomic_write(path, out.buffer());
}

QTable QTable::load(const std::string& path) {
  QTable table(1, 1);
  persist::parse_file(path, "Q-table file", [&](persist::StateReader& in) {
    file_fields(in, table);
  });
  return table;
}

}  // namespace topil::rl
