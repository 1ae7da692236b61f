#include "rl/qtable.hpp"

#include <cstdint>
#include <fstream>
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

template <typename T>
T read_pod(std::ifstream& in, const std::string& path) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  TOPIL_REQUIRE(in.good(), "truncated Q-table file: " + path);
  return value;
}

void check_dims(std::uint64_t s, std::uint64_t a, const std::string& path) {
  TOPIL_REQUIRE(s > 0 && s <= kMaxStates,
                "implausible Q-table state count in " + path);
  TOPIL_REQUIRE(a > 0 && a <= kMaxActions,
                "implausible Q-table action count in " + path);
  // Bounded dims cannot overflow u64 in the product; bound the entry
  // count so a plausible-looking pair still cannot demand an absurd
  // allocation.
  TOPIL_REQUIRE(s * a <= kMaxEntries,
                "implausible Q-table size in " + path);
}

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

void QTable::save(const std::string& path) const {
  persist::atomic_write(path, [&](std::ostream& out) {
    const std::uint64_t s = num_states_;
    const std::uint64_t a = num_actions_;
    out.write(reinterpret_cast<const char*>(&kQTableMagic),
              sizeof(kQTableMagic));
    out.write(reinterpret_cast<const char*>(&kQTableVersion),
              sizeof(kQTableVersion));
    out.write(reinterpret_cast<const char*>(&s), sizeof(s));
    out.write(reinterpret_cast<const char*>(&a), sizeof(a));
    out.write(reinterpret_cast<const char*>(values_.data()),
              static_cast<std::streamsize>(values_.size() * sizeof(double)));
  });
}

QTable QTable::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TOPIL_REQUIRE(in.good(), "cannot open Q-table file: " + path);
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  const auto magic = read_pod<std::uint32_t>(in, path);
  TOPIL_REQUIRE(magic == kQTableMagic, "not a Q-table file: " + path);
  const auto version = read_pod<std::uint32_t>(in, path);
  TOPIL_REQUIRE(version == kQTableVersion,
                "unsupported Q-table file version in " + path);
  const auto s = read_pod<std::uint64_t>(in, path);
  const auto a = read_pod<std::uint64_t>(in, path);
  check_dims(s, a, path);
  const std::uint64_t header_bytes = 24;
  const std::uint64_t value_bytes = s * a * sizeof(double);
  TOPIL_REQUIRE(
      file_size == header_bytes + value_bytes,
      file_size < header_bytes + value_bytes
          ? "truncated Q-table file: " + path
          : "trailing garbage after values in Q-table file: " + path);
  QTable table(static_cast<std::size_t>(s), static_cast<std::size_t>(a));
  in.read(reinterpret_cast<char*>(table.values_.data()),
          static_cast<std::streamsize>(table.values_.size() *
                                       sizeof(double)));
  TOPIL_REQUIRE(in.good(), "truncated Q-table file: " + path);
  return table;
}

}  // namespace topil::rl
