#include "src/storage/dfs.h"

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "tests/alloc_hooks.h"

namespace monosim {
namespace {

using monoutil::MiB;

TEST(DfsTest, SplitsFileIntoBlocks) {
  DfsSim dfs(4, 2, 1, /*seed=*/1);
  const DfsFile& file = dfs.CreateFile("input", MiB(300), MiB(128));
  EXPECT_EQ(file.blocks.size(), 3u);
  EXPECT_EQ(file.blocks[0].size, MiB(128));
  EXPECT_EQ(file.blocks[2].size, MiB(44));  // Remainder block.
  EXPECT_EQ(file.total_bytes(), MiB(300));
}

TEST(DfsTest, CreateFileWithBlocksPinsTaskCount) {
  DfsSim dfs(4, 2, 1, 1);
  const DfsFile& file = dfs.CreateFileWithBlocks("input", MiB(100), 7);
  EXPECT_EQ(file.blocks.size(), 7u);
  EXPECT_EQ(file.total_bytes(), MiB(100));
}

TEST(DfsTest, BlocksSpreadRoundRobinAcrossMachines) {
  DfsSim dfs(4, 1, 1, 1);
  const DfsFile& file = dfs.CreateFileWithBlocks("input", MiB(400), 8);
  // Exactly two blocks per machine.
  std::vector<int> count(4, 0);
  for (size_t b = 0; b < file.blocks.size(); ++b) {
    ASSERT_EQ(file.replicas(b).size(), 1u);
    ++count[static_cast<size_t>(file.replicas(b)[0].machine)];
  }
  for (int c : count) {
    EXPECT_EQ(c, 2);
  }
}

TEST(DfsTest, DisksRotateWithinMachine) {
  DfsSim dfs(1, 2, 1, 1);
  const DfsFile& file = dfs.CreateFileWithBlocks("input", MiB(100), 4);
  EXPECT_NE(file.replicas(0)[0].disk, file.replicas(1)[0].disk);
}

TEST(DfsTest, ReplicasLandOnDistinctMachines) {
  DfsSim dfs(4, 1, 3, 1);
  const DfsFile& file = dfs.CreateFileWithBlocks("input", MiB(100), 4);
  for (size_t b = 0; b < file.blocks.size(); ++b) {
    const auto replicas = file.replicas(b);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_NE(replicas[0].machine, replicas[1].machine);
    EXPECT_NE(replicas[1].machine, replicas[2].machine);
    EXPECT_NE(replicas[0].machine, replicas[2].machine);
  }
}

TEST(DfsTest, GetFileAndHasFile) {
  DfsSim dfs(2, 1, 1, 1);
  dfs.CreateFile("a", MiB(10), MiB(128));
  EXPECT_TRUE(dfs.HasFile("a"));
  EXPECT_FALSE(dfs.HasFile("b"));
  EXPECT_EQ(dfs.GetFile("a").name, "a");
}

TEST(DfsTest, PlacementIsDeterministicPerSeed) {
  DfsSim dfs1(8, 2, 1, 42);
  DfsSim dfs2(8, 2, 1, 42);
  const DfsFile& f1 = dfs1.CreateFileWithBlocks("x", MiB(800), 16);
  const DfsFile& f2 = dfs2.CreateFileWithBlocks("x", MiB(800), 16);
  for (size_t b = 0; b < f1.blocks.size(); ++b) {
    EXPECT_EQ(f1.replicas(b)[0].machine, f2.replicas(b)[0].machine);
    EXPECT_EQ(f1.replicas(b)[0].disk, f2.replicas(b)[0].disk);
  }
}

#if MONO_TEST_ALLOC_HOOKS
TEST(DfsTest, PlacementAllocationsDoNotGrowWithBlockCount) {
  // A file keeps its blocks in one reserved array and every block's replicas
  // in another, so placing 1,000 blocks costs the allocations placing 10 does.
  const auto allocations = [](int num_blocks) {
    DfsSim dfs(20, 2, 3, 1);
    const long before = monotest::AllocationCount().load();
    dfs.CreateFileWithBlocks("input", MiB(num_blocks), num_blocks);
    return monotest::AllocationCount().load() - before;
  };
  EXPECT_EQ(allocations(10), allocations(1000));
}
#endif  // MONO_TEST_ALLOC_HOOKS

}  // namespace
}  // namespace monosim
