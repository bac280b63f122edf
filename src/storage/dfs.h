// DfsSim: an HDFS-like block store model used for job input and output.
//
// Files are split into fixed-size blocks placed across the cluster's machines and
// disks. The job scheduler uses block locations for locality-aware task assignment
// (§3.2: "multitasks are assigned to workers based on data locality"), and the
// executors use them to decide which physical disk serves each read. Placement is
// deterministic given the seed.
#ifndef MONOTASKS_SRC_STORAGE_DFS_H_
#define MONOTASKS_SRC_STORAGE_DFS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace monosim {

struct DfsBlock {
  monoutil::Bytes size;
};

// Machine/disk holding one copy of a block.
struct DfsReplica {
  int machine = 0;
  int disk = 0;
};

struct DfsFile {
  std::string name;
  monoutil::Bytes block_size;
  int replication = 1;
  std::vector<DfsBlock> blocks;
  // Every block's replicas in one array, block by block: `replication` entries
  // per block, the primary first.
  std::vector<DfsReplica> placement;

  // Replicas of block `b`; [0] is the primary.
  std::span<const DfsReplica> replicas(size_t b) const {
    return std::span<const DfsReplica>(placement).subspan(
        b * static_cast<size_t>(replication), static_cast<size_t>(replication));
  }

  monoutil::Bytes total_bytes() const;
};

class DfsSim {
 public:
  // Passive metadata store: files are created at setup time and only read
  // during a run. Files live in a node-based map, so a DfsFile reference (and
  // a span of its replicas) stays valid while more files are created.

  // `disks_per_machine` must match the cluster the file will be read on.
  DfsSim(int num_machines, int disks_per_machine, int replication, uint64_t seed);

  // Creates a file of `total_bytes` split into `block_size` blocks, placed round-robin
  // over machines starting at a seeded offset (so distinct files start on distinct
  // machines) and round-robin over disks within each machine. Replicas beyond the
  // primary land on distinct machines.
  const DfsFile& CreateFile(const std::string& name, monoutil::Bytes total_bytes,
                            monoutil::Bytes block_size = monoutil::MiB(128));

  // Creates a file with exactly `num_blocks` equal blocks (the common way benchmarks
  // pin the number of map tasks).
  const DfsFile& CreateFileWithBlocks(const std::string& name, monoutil::Bytes total_bytes,
                                      int num_blocks);

  const DfsFile& GetFile(const std::string& name) const;
  bool HasFile(const std::string& name) const;

  int num_machines() const { return num_machines_; }

 private:
  const DfsFile& PlaceFile(const std::string& name, monoutil::Bytes total_bytes,
                           monoutil::Bytes block_size, int num_blocks);

  int num_machines_;
  int disks_per_machine_;
  int replication_;
  monoutil::Rng rng_;
  std::vector<int> next_disk_;  // Per-machine round-robin disk cursor.
  std::unordered_map<std::string, DfsFile> files_;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_STORAGE_DFS_H_
