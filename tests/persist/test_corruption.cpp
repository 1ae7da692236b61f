#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "file_test_util.hpp"
#include "nn/serialize.hpp"
#include "rl/qtable.hpp"

// Corruption-injection sweeps over the two persisted artifact formats
// (model "TOPL", Q-table "TOPQ"): every truncation point
// and every header bit flip must raise a clean error — never UB and never
// an attempt to honor an implausible dimension with a giant allocation.
namespace topil {
namespace {

using test::append_bytes;
using test::flip_bit;
using test::read_file;
using test::scratch_dir;
using test::write_file;

nn::Mlp sample_model() {
  nn::Topology topo;
  topo.inputs = 4;
  topo.outputs = 3;
  topo.hidden = {5};
  nn::Mlp model(topo);
  model.init(11);
  return model;
}

rl::QTable sample_qtable() {
  rl::QTable table(6, 4, 0.0);
  for (std::size_t s = 0; s < 6; ++s) {
    for (std::size_t a = 0; a < 4; ++a) {
      table.set_q(s, a, static_cast<double>(s * 10 + a));
    }
  }
  return table;
}

/// Every prefix of the file must fail to load; so must every single-bit
/// flip within the first `header_bytes`; so must one trailing byte.
template <typename LoadFn>
void sweep(const std::string& path, std::size_t header_bytes,
           const LoadFn& load) {
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), header_bytes);

  for (std::size_t len = 0; len < full.size(); ++len) {
    write_file(path, full.substr(0, len));
    EXPECT_THROW(load(path), Error) << "truncated to " << len;
  }
  for (std::size_t byte = 0; byte < header_bytes; ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      write_file(path, full);
      flip_bit(path, byte, bit);
      EXPECT_THROW(load(path), Error)
          << "flip byte " << byte << " bit " << bit;
    }
  }
  write_file(path, full);
  append_bytes(path, "Z");
  EXPECT_THROW(load(path), Error) << "trailing garbage";

  write_file(path, full);  // pristine file still loads
  load(path);
}

TEST(Corruption, ModelSweep) {
  const std::string path = scratch_dir("corrupt_model") + "/model.bin";
  save_model(sample_model(), path);
  // Header: magic + version + inputs + outputs + n_hidden + hidden[0]
  // + weight count.
  sweep(path, 2 * 4 + 5 * 8,
        [](const std::string& p) { (void)nn::load_model(p); });

  const nn::Mlp back = nn::load_model(path);
  EXPECT_EQ(back.save_weights(), sample_model().save_weights());
}

TEST(Corruption, QTableSweep) {
  const std::string path = scratch_dir("corrupt_qtable") + "/table.bin";
  sample_qtable().save(path);
  // Header: magic + version + u64 states + u64 actions.
  sweep(path, 2 * 4 + 2 * 8,
        [](const std::string& p) { (void)rl::QTable::load(p); });

  const rl::QTable back = rl::QTable::load(path);
  EXPECT_EQ(back.q(5, 3), 53.0);
}

TEST(Corruption, EmptyFilesRejected) {
  const std::string dir = scratch_dir("corrupt_empty");
  write_file(dir + "/empty.bin", "");
  EXPECT_THROW(nn::load_model(dir + "/empty.bin"), Error);
  EXPECT_THROW(rl::QTable::load(dir + "/empty.bin"), Error);
}

}  // namespace
}  // namespace topil
