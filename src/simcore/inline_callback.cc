#include "src/simcore/inline_callback.h"

namespace monosim {

void* CallbackArena::Allocate(CallbackArena* arena, size_t bytes) {
  if (arena != nullptr) {
    for (size_t size_class = 0; size_class < kClassBytes.size(); ++size_class) {
      if (bytes > kClassBytes[size_class]) {
        continue;
      }
      if (arena->free_[size_class] == nullptr) {
        arena->GrowClass(size_class);
      }
      BlockHeader* header = arena->free_[size_class];
      arena->free_[size_class] = header->next_free;
      header->next_free = nullptr;
      return PayloadOf(header);
    }
  }
  // No arena, or the capture exceeds the largest class: a plain heap block,
  // tagged so Free() can tell it apart from pooled ones.
  auto* header = static_cast<BlockHeader*>(
      ::operator new(sizeof(BlockHeader) + bytes, std::align_val_t{alignof(BlockHeader)}));
  header->arena = nullptr;
  header->size_class = 0;
  header->next_free = nullptr;
  return PayloadOf(header);
}

void CallbackArena::Free(void* payload) {
  BlockHeader* header = HeaderOf(payload);
  CallbackArena* arena = header->arena;
  if (arena == nullptr) {
    ::operator delete(header, std::align_val_t{alignof(BlockHeader)});
    return;
  }
  header->next_free = arena->free_[header->size_class];
  arena->free_[header->size_class] = header;
}

void CallbackArena::GrowClass(size_t size_class) {
  const size_t block_bytes = sizeof(BlockHeader) + kClassBytes[size_class];
  auto chunk = std::make_unique<std::byte[]>(block_bytes * kBlocksPerChunk);
  std::byte* cursor = chunk.get();
  for (size_t i = 0; i < kBlocksPerChunk; ++i, cursor += block_bytes) {
    auto* header = ::new (static_cast<void*>(cursor)) BlockHeader;
    header->arena = this;
    header->size_class = size_class;
    header->next_free = free_[size_class];
    free_[size_class] = header;
  }
  chunks_.push_back(std::move(chunk));
}

}  // namespace monosim
