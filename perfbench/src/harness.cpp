#include "harness.hpp"

#include <chrono>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "common/rng.hpp"
#include "sim/system_sim.hpp"

namespace perfbench {

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t part) {
  return topil::Rng::stream(seed, part).engine()();
}

void warm_propagator(const topil::PlatformSpec& platform,
                     const topil::CoolingConfig& cooling,
                     const topil::SimConfig& sim) {
  topil::SystemSim probe(platform, cooling, sim);
  probe.thermal().propagator_for(sim.tick_s);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty()
                    ? -1
                    : static_cast<long>(tracer_->open_.back());
  span.unit = tracer_->unit_;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  tracer_->spans_[index_].start_s = wall_now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_s = wall_now_s();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Children of one parent never overlap (one thread, properly nested),
  // so the covered part is the sum of the children's durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child_s[i];
  }
  return self;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::setprecision(17) << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
        << ", \"parent\": " << s.parent << ", \"unit\": " << s.unit << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
