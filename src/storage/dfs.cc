#include "src/storage/dfs.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace monosim {

using monoutil::Bytes;

Bytes DfsFile::total_bytes() const {
  Bytes total;
  for (const auto& block : blocks) {
    total += block.size;
  }
  return total;
}

DfsSim::DfsSim(int num_machines, int disks_per_machine, int replication, uint64_t seed)
    : num_machines_(num_machines),
      disks_per_machine_(disks_per_machine),
      replication_(replication),
      rng_(seed),
      next_disk_(static_cast<size_t>(num_machines), 0) {
  MONO_CHECK(num_machines >= 1);
  MONO_CHECK(disks_per_machine >= 1);
  MONO_CHECK(replication >= 1);
  MONO_CHECK_MSG(replication <= num_machines, "cannot place more replicas than machines");
}

const DfsFile& DfsSim::CreateFile(const std::string& name, Bytes total_bytes,
                                  Bytes block_size) {
  MONO_CHECK(block_size > Bytes(0));
  const int num_blocks = static_cast<int>(
      (total_bytes + block_size - Bytes(1)).count() / block_size.count());
  return PlaceFile(name, total_bytes, block_size, num_blocks);
}

const DfsFile& DfsSim::CreateFileWithBlocks(const std::string& name, Bytes total_bytes,
                                            int num_blocks) {
  MONO_CHECK(num_blocks >= 1);
  const Bytes block_size = (total_bytes + Bytes(num_blocks - 1)) / num_blocks;
  return PlaceFile(name, total_bytes, block_size, num_blocks);
}

const DfsFile& DfsSim::PlaceFile(const std::string& name, Bytes total_bytes,
                                 Bytes block_size, int num_blocks) {
  MONO_CHECK(total_bytes >= Bytes(0));
  MONO_CHECK_MSG(files_.find(name) == files_.end(), "file already exists");

  DfsFile file;
  file.name = name;
  file.block_size = block_size;
  file.replication = replication_;
  file.blocks.reserve(static_cast<size_t>(num_blocks));
  file.placement.reserve(static_cast<size_t>(num_blocks) * static_cast<size_t>(replication_));
  Bytes remaining = total_bytes;
  const int start = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(num_machines_)));
  for (int b = 0; b < num_blocks; ++b) {
    const Bytes size = std::min(block_size, remaining);
    remaining -= size;
    file.blocks.push_back(DfsBlock{size});
    for (int r = 0; r < replication_; ++r) {
      const int machine = (start + b + r) % num_machines_;
      auto& disk_cursor = next_disk_[static_cast<size_t>(machine)];
      file.placement.push_back(DfsReplica{machine, disk_cursor});
      disk_cursor = (disk_cursor + 1) % disks_per_machine_;
    }
  }
  MONO_CHECK_MSG(remaining == Bytes(0), "blocks do not cover the file");
  auto [it, inserted] = files_.emplace(name, std::move(file));
  MONO_CHECK(inserted);
  return it->second;
}

const DfsFile& DfsSim::GetFile(const std::string& name) const {
  auto it = files_.find(name);
  MONO_CHECK_MSG(it != files_.end(), "no such DFS file");
  return it->second;
}

bool DfsSim::HasFile(const std::string& name) const {
  return files_.find(name) != files_.end();
}

}  // namespace monosim
