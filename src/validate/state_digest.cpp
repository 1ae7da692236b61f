#include "validate/state_digest.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "sim/system_sim.hpp"

namespace topil::validate {

namespace {

// Domain tags keep equal values in different roles from colliding.
enum class Tag : std::uint64_t {
  kNodeTemp = 0x01,
  kVfLevel = 0x02,
  kProcess = 0x03,
  kCompleted = 0x04,
  kGlobal = 0x05,
};
constexpr std::size_t kTags = 6;  // tag values index kStart directly

constexpr std::uint64_t kPrime = Fnv64::kPrime;

/// FNV-1a over the 8 little-endian bytes of `v`: the steps of Fnv64::u64.
constexpr std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 64; b += 8) h = (h ^ ((v >> b) & 0xff)) * kPrime;
  return h;
}

// Every entity chain starts with u64(tag), u64(key). Keys below
// kTableKeys (node indices, cluster ids, the pids of all but very long
// runs) start from a precomputed state; a larger key hashes its bytes.
constexpr std::uint64_t kTableKeys = 256;

constexpr std::array<std::array<std::uint64_t, kTableKeys>, kTags>
make_start_table() {
  std::array<std::array<std::uint64_t, kTableKeys>, kTags> table{};
  for (std::uint64_t tag = 0; tag < kTags; ++tag) {
    const std::uint64_t after_tag = fnv_word(Fnv64::kOffset, tag);
    for (std::uint64_t key = 0; key < kTableKeys; ++key) {
      table[tag][key] = fnv_word(after_tag, key);
    }
  }
  return table;
}
constexpr auto kStart = make_start_table();

std::uint64_t chain_start(Tag tag, std::uint64_t key) {
  const auto t = static_cast<std::uint64_t>(tag);
  if (key < kTableKeys) return kStart[t][key];
  return fnv_word(fnv_word(Fnv64::kOffset, t), key);
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

constexpr std::size_t kLanes = 4;

/// Absorb `count` words into each of kLanes chains, words[i][l] into
/// chain l. Every byte step of one lane is followed by the same step of
/// the other three, so four independent multiplications are in flight
/// where a single chain would wait on each one's latency.
inline void absorb_lanes(std::uint64_t (&h)[kLanes],
                         const std::uint64_t (*words)[kLanes],
                         std::size_t count) {
  std::uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t w0 = words[i][0], w1 = words[i][1];
    const std::uint64_t w2 = words[i][2], w3 = words[i][3];
#pragma GCC unroll 8
    for (int b = 0; b < 64; b += 8) {
      h0 = (h0 ^ ((w0 >> b) & 0xff)) * kPrime;
      h1 = (h1 ^ ((w1 >> b) & 0xff)) * kPrime;
      h2 = (h2 ^ ((w2 >> b) & 0xff)) * kPrime;
      h3 = (h3 ^ ((w3 >> b) & 0xff)) * kPrime;
    }
  }
  h[0] = h0;
  h[1] = h1;
  h[2] = h2;
  h[3] = h3;
}

/// Wrapping sum of the keyed chains of `count` entities of one tag, each
/// over kWords words, evaluated kLanes at a time. `next(words)` fills the
/// next entity's words and returns its key. The last group's unused lanes
/// hash zeros, and their hashes are dropped.
template <std::size_t kWords, typename Next>
std::uint64_t sum_chains(Tag tag, std::size_t count, Next&& next) {
  std::uint64_t sum = 0;
  for (std::size_t base = 0; base < count; base += kLanes) {
    const std::size_t live = std::min(kLanes, count - base);
    std::uint64_t h[kLanes] = {};
    std::uint64_t words[kWords][kLanes] = {};
    for (std::size_t l = 0; l < live; ++l) {
      std::array<std::uint64_t, kWords> w;
      h[l] = chain_start(tag, next(w));
      for (std::size_t i = 0; i < kWords; ++i) words[i][l] = w[i];
    }
    absorb_lanes(h, words, kWords);
    for (std::size_t l = 0; l < live; ++l) sum += h[l];
  }
  return sum;
}

}  // namespace

std::uint64_t tick_state_digest(const SystemSim& sim) {
  // Wrapping addition makes the combine commutative: the digest is a
  // function of the state set, not of container iteration order, nor of
  // which lane hashed which entity.
  std::uint64_t combined = 0;

  const std::vector<double>& temps = sim.thermal().node_temps_c();
  std::size_t node = 0;
  combined += sum_chains<1>(Tag::kNodeTemp, temps.size(), [&](auto& w) {
    w = {bits(temps[node])};
    return node++;
  });

  ClusterId cluster = 0;
  combined += sum_chains<2>(
      Tag::kVfLevel, sim.platform().num_clusters(), [&](auto& w) {
        w = {sim.requested_vf_level(cluster), sim.vf_level(cluster)};
        return cluster++;
      });

  auto process = sim.processes().begin();
  combined += sum_chains<7>(
      Tag::kProcess, sim.processes().size(), [&](auto& w) {
        const auto& [pid, proc] = *process++;
        w = {proc.core(),
             proc.current_phase_index(),
             bits(proc.instructions_retired()),
             bits(proc.l2d_accesses()),
             bits(proc.qos_below_time_s()),
             bits(proc.qos_observed_time_s()),
             proc.finished() ? 1u : 0u};
        return pid;
      });

  const std::vector<CompletedProcess>& completed = sim.metrics().completed();
  std::size_t record = 0;
  combined += sum_chains<5>(
      Tag::kCompleted, completed.size(), [&](auto& w) {
        const CompletedProcess& rec = completed[record++];
        w = {bits(rec.arrival_time), bits(rec.finish_time),
             bits(rec.average_ips), bits(rec.below_target_fraction),
             rec.qos_violated ? 1u : 0u};
        return rec.pid;
      });

  Fnv64 global = Fnv64::resume(chain_start(Tag::kGlobal, 0));
  global.f64(sim.now());
  global.f64(sim.sensor_temp_c());
  global.u64(sim.num_running());
  combined += global.value();

  // One final FNV round mixes the commutative sum.
  Fnv64 out;
  out.u64(combined);
  return out.value();
}

std::string digest_hex(std::uint64_t digest) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

}  // namespace topil::validate
