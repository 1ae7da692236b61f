#include "il/il_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace topil::il {
namespace {

nn::Matrix ratings_matrix(std::initializer_list<std::initializer_list<float>>
                              rows) {
  const std::size_t r = rows.size();
  const std::size_t c = rows.begin()->size();
  nn::Matrix m(r, c);
  std::size_t i = 0;
  for (const auto& row : rows) {
    std::size_t j = 0;
    for (float v : row) m.at(i, j++) = v;
    ++i;
  }
  return m;
}

std::vector<std::vector<bool>> all_allowed(std::size_t apps,
                                           std::size_t cores) {
  return std::vector<std::vector<bool>>(apps,
                                        std::vector<bool>(cores, true));
}

TEST(SelectBestMigration, PicksLargestImprovement) {
  // App 0 on core 0, app 1 on core 2.
  const nn::Matrix ratings = ratings_matrix({{0.2f, 0.9f, 0.1f, 0.0f},
                                             {0.3f, 0.2f, 0.5f, 0.95f}});
  const auto choice = select_best_migration(ratings, {0, 2},
                                            all_allowed(2, 4));
  ASSERT_TRUE(choice.has_value());
  // App0: best improvement 0.9-0.2=0.7; App1: 0.95-0.5=0.45.
  EXPECT_EQ(choice->app_index, 0u);
  EXPECT_EQ(choice->target_core, 1u);
  EXPECT_NEAR(choice->improvement, 0.7, 1e-6);
}

TEST(SelectBestMigration, RespectsMask) {
  const nn::Matrix ratings = ratings_matrix({{0.2f, 0.9f, 0.6f, 0.0f}});
  auto allowed = all_allowed(1, 4);
  allowed[0][1] = false;  // best core masked (occupied)
  const auto choice = select_best_migration(ratings, {0}, allowed);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->target_core, 2u);
}

TEST(SelectBestMigration, NoImprovementMeansNoMigration) {
  const nn::Matrix ratings = ratings_matrix({{0.9f, 0.5f, 0.2f, 0.1f}});
  EXPECT_FALSE(
      select_best_migration(ratings, {0}, all_allowed(1, 4)).has_value());
}

TEST(SelectBestMigration, MinImprovementThresholdIsHysteresis) {
  const nn::Matrix ratings = ratings_matrix({{0.90f, 0.93f, 0.0f, 0.0f}});
  EXPECT_TRUE(select_best_migration(ratings, {0}, all_allowed(1, 4), 0.0)
                  .has_value());
  EXPECT_FALSE(select_best_migration(ratings, {0}, all_allowed(1, 4), 0.05)
                   .has_value());
}

TEST(SelectBestMigration, ValidatesShapes) {
  const nn::Matrix ratings = ratings_matrix({{0.1f, 0.2f}});
  EXPECT_THROW(
      select_best_migration(ratings, {0, 1}, all_allowed(2, 2)),
      InvalidArgument);
  EXPECT_THROW(select_best_migration(ratings, {5}, all_allowed(1, 2)),
               InvalidArgument);
  EXPECT_THROW(select_best_migration(ratings, {0}, all_allowed(1, 3)),
               InvalidArgument);
}

TEST(IlPolicyModel, BuildBatch) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  nn::Topology topo;
  topo.inputs = 21;
  topo.hidden = {16};
  topo.outputs = 8;
  nn::Mlp net(topo);
  net.init(3);
  const IlPolicyModel model(std::move(net), platform);

  FeatureInput in;
  in.aoi_ips = 5e8;
  in.aoi_l2d_rate = 1e7;
  in.aoi_core = 2;
  in.aoi_qos_target = 3e8;
  in.cluster_freq_ghz = {1.0, 1.2};
  in.freq_without_aoi_ghz = {0.5, 0.7};
  in.core_utilization.assign(8, 0.0);

  const nn::Matrix batch = model.build_batch({in, in});
  EXPECT_EQ(batch.rows(), 2u);
  EXPECT_EQ(batch.cols(), 21u);
  for (std::size_t c = 0; c < batch.cols(); ++c) {
    EXPECT_EQ(batch.at(0, c), batch.at(1, c));
  }
  EXPECT_THROW(model.build_batch({}), InvalidArgument);
}

TEST(IlPolicyModel, RejectsMismatchedTopology) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  nn::Topology topo;
  topo.inputs = 5;  // wrong
  topo.outputs = 8;
  EXPECT_THROW(IlPolicyModel(nn::Mlp(topo), platform), InvalidArgument);
  topo.inputs = 21;
  topo.outputs = 4;  // wrong
  EXPECT_THROW(IlPolicyModel(nn::Mlp(topo), platform), InvalidArgument);
}

}  // namespace
}  // namespace topil::il
