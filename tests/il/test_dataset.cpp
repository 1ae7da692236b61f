#include "il/dataset.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace topil::il {
namespace {

TrainingExample example(float seed) {
  TrainingExample ex;
  ex.features = {seed, seed + 1};
  ex.labels = {seed * 2};
  return ex;
}

TEST(Dataset, AddAndMaterialize) {
  Dataset ds(2, 1);
  ds.add(example(1));
  ds.add(example(2));
  EXPECT_EQ(ds.size(), 2u);
  const nn::Matrix x = ds.features_matrix();
  const nn::Matrix y = ds.labels_matrix();
  EXPECT_EQ(x.rows(), 2u);
  EXPECT_EQ(x.cols(), 2u);
  EXPECT_EQ(y.cols(), 1u);
  EXPECT_FLOAT_EQ(x.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 3.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 4.0f);
}

TEST(Dataset, RejectsWrongWidths) {
  Dataset ds(2, 1);
  TrainingExample bad;
  bad.features = {1.0f};
  bad.labels = {1.0f};
  EXPECT_THROW(ds.add(bad), InvalidArgument);
  bad.features = {1.0f, 2.0f};
  bad.labels = {};
  EXPECT_THROW(ds.add(bad), InvalidArgument);
  EXPECT_THROW(Dataset(0, 1), InvalidArgument);
}

TEST(Dataset, EmptyMaterializeThrows) {
  Dataset ds(2, 1);
  EXPECT_TRUE(ds.empty());
  EXPECT_THROW(ds.features_matrix(), InvalidArgument);
  EXPECT_THROW(ds.at(0), InvalidArgument);
}

TEST(Dataset, SampleCapsSize) {
  Dataset ds(2, 1);
  for (int i = 0; i < 30; ++i) ds.add(example(static_cast<float>(i)));
  Rng rng(2);
  const Dataset small = ds.sample(10, rng);
  EXPECT_EQ(small.size(), 10u);
  const Dataset same = ds.sample(100, rng);
  EXPECT_EQ(same.size(), 30u);
}

TEST(Dataset, AddAllMoves) {
  Dataset ds(2, 1);
  std::vector<TrainingExample> batch = {example(1), example(2), example(3)};
  ds.add_all(std::move(batch));
  EXPECT_EQ(ds.size(), 3u);
}

}  // namespace
}  // namespace topil::il
