#include "src/api/context.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <utility>

#include "src/common/check.h"

namespace monotasks {
namespace {

// The driver's one wall clock: runs `work` and returns the seconds it took.
template <typename Work>
double WallSeconds(Work&& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::unique_ptr<Monotask> MakeMonotask(
    ResourceType resource, std::string label, std::function<void()> fn,
    int disk_index = 0, monoutil::DiskPhase phase = monoutil::DiskPhase::kRead) {
  auto monotask =
      std::make_unique<FunctionMonotask>(resource, std::move(label), std::move(fn));
  monotask->disk_index = disk_index;
  monotask->disk_phase = phase;
  return monotask;
}

monoutil::Bytes SizeOf(const Buffer& buffer) {
  return static_cast<monoutil::Bytes>(buffer.size());
}

}  // namespace

// ---------- internal structures ----------

struct MonoContext::SourceBlock {
  int worker = 0;
  // Disk index holding the block, or kInMemory for cached (memory-resident) blocks.
  static constexpr int kInMemory = -1;
  int disk = 0;
  std::string block_id;
  // Payload for in-memory blocks (disk == kInMemory).
  std::shared_ptr<const Buffer> cached;
};

// Where one map task's shuffle output lives and how it is sliced per reducer.
struct MonoContext::ShuffleSegment {
  int worker = 0;
  int disk = 0;
  std::string block_id;
  std::vector<std::pair<size_t, size_t>> ranges;  // Per reduce partition: offset, len.
};

struct MonoContext::StagePlan {
  std::string name;
  int num_tasks = 0;
  enum class Input {
    kSource,   // One block of source_name per task.
    kShuffle,  // The previous stage's shuffle, merged with merge_fn.
    kCoGroup,  // That shuffle plus right_plan's, merged with merge2_fn.
  };
  Input input = Input::kSource;
  std::string source_name;
  std::function<Buffer(std::vector<Buffer>)> merge_fn;
  // The right sub-plan runs as its own stage chain whose final stage buckets with
  // right_partition_fn.
  std::function<Buffer(std::vector<Buffer>, std::vector<Buffer>)> merge2_fn;
  std::shared_ptr<const PlanNode> right_plan;
  std::function<std::vector<Buffer>(const Buffer&, int)> right_partition_fn;
  // Body.
  std::vector<std::function<Buffer(const Buffer&)>> transforms;
  // Output.
  bool writes_shuffle = false;
  int shuffle_out_partitions = 0;
  std::function<std::vector<Buffer>(const Buffer&, int)> partition_fn;
};

// What a stage hands on: its shuffle segments if it writes a shuffle, else its
// collected partitions (none when it saves to a source).
struct MonoContext::StageOutput {
  std::vector<ShuffleSegment> segments;
  std::vector<Buffer> collected;
};

// ---------- construction ----------

MonoContext::MonoContext(EngineConfig config) : config_(config) {
  MONO_CHECK(config.num_workers >= 1);
  fabric_ = std::make_unique<InProcessFabric>(config.num_workers, config.nic_bandwidth,
                                              config.time_scale);
  for (int w = 0; w < config.num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(w, config, fabric_.get()));
  }
}

MonoContext::~MonoContext() {
  // Quiesce every worker's scheduler threads before any worker is destroyed:
  // shuffle serves (SubmitDetached) let one worker's threads submit into
  // another worker's schedulers, so destruction must not start while any
  // engine thread is alive (Worker::Shutdown).
  for (auto& worker : workers_) {
    worker->Shutdown();
  }
}

int MonoContext::CreateSource(const std::string& name, std::vector<Buffer> partitions) {
  return AddSource(name, std::move(partitions), /*in_memory=*/false);
}

int MonoContext::CreateMemorySource(const std::string& name,
                                    std::vector<Buffer> partitions) {
  return AddSource(name, std::move(partitions), /*in_memory=*/true);
}

int MonoContext::AddSource(const std::string& name, std::vector<Buffer> partitions,
                           bool in_memory) {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  MONO_CHECK_MSG(sources_.find(name) == sources_.end(), "source already exists");
  std::vector<SourceBlock> blocks;
  for (size_t p = 0; p < partitions.size(); ++p) {
    SourceBlock block;
    block.worker = static_cast<int>(p) % num_workers();
    block.block_id = name + "." + std::to_string(p);
    if (in_memory) {
      block.disk = SourceBlock::kInMemory;
      block.cached = std::make_shared<const Buffer>(std::move(partitions[p]));
    } else {
      Worker& worker = *workers_[static_cast<size_t>(block.worker)];
      block.disk = static_cast<int>(p / static_cast<size_t>(num_workers())) %
                   worker.num_disks();
      worker.disk(block.disk).Write(block.block_id, std::move(partitions[p]));
    }
    blocks.push_back(std::move(block));
  }
  const int count = static_cast<int>(blocks.size());
  sources_.emplace(name, std::move(blocks));
  return count;
}

// ---------- planning ----------

std::vector<MonoContext::StagePlan> MonoContext::BuildStages(
    const std::shared_ptr<const PlanNode>& root) const {
  // Collect the chain source-first.
  std::vector<const PlanNode*> chain;
  for (const PlanNode* node = root.get(); node != nullptr; node = node->parent.get()) {
    chain.push_back(node);
  }
  std::reverse(chain.begin(), chain.end());
  MONO_CHECK_MSG(chain.front()->kind == PlanNode::Kind::kSource,
                 "plan must begin at a source");

  std::vector<StagePlan> stages;
  StagePlan current;
  current.source_name = chain.front()->source_name;
  current.num_tasks = chain.front()->num_partitions;
  for (size_t i = 1; i < chain.size(); ++i) {
    const PlanNode* node = chain[i];
    switch (node->kind) {
      case PlanNode::Kind::kSource:
        MONO_CHECK_MSG(false, "source in the middle of a plan");
        break;
      case PlanNode::Kind::kNarrow:
        current.transforms.push_back(node->transform);
        break;
      case PlanNode::Kind::kShuffle:
      case PlanNode::Kind::kCoGroup: {
        // The chain we are walking buckets with partition_fn (the left side of a
        // cogroup).
        current.writes_shuffle = true;
        current.shuffle_out_partitions = node->num_partitions;
        current.partition_fn = node->partition_fn;
        current.name = "stage" + std::to_string(stage_counter_.fetch_add(1));
        stages.push_back(std::move(current));
        current = StagePlan{};
        current.num_tasks = node->num_partitions;
        if (node->kind == PlanNode::Kind::kShuffle) {
          current.input = StagePlan::Input::kShuffle;
          current.merge_fn = node->merge_fn;
        } else {
          // The joining stage: consumes the left shuffle plus the right sub-plan's.
          current.input = StagePlan::Input::kCoGroup;
          current.merge2_fn = node->merge2_fn;
          current.right_plan = node->parent2;
          current.right_partition_fn = node->partition_fn2;
        }
        break;
      }
    }
  }
  current.name = "stage" + std::to_string(stage_counter_.fetch_add(1));
  stages.push_back(std::move(current));
  return stages;
}

// ---------- stage execution ----------

// Runs one stage: one multitask per partition, assigned to workers up to their
// limit. Each multitask is the same body (Source or fetched input, Merge, Finish,
// WriteOutput or Collect); the two execution modes differ only in how they
// schedule it — as a monotask DAG on the worker's per-resource schedulers, or
// whole on one slot thread.
class MonoContext::StageRunner {
 public:
  // `input` holds the segments of the shuffles the stage reads: the first
  // `left_segments` from the previous stage, the rest from a cogroup's right side.
  StageRunner(MonoContext* ctx, const StagePlan& plan, std::vector<ShuffleSegment> input,
              size_t left_segments, std::string save_as)
      : ctx_(ctx),
        plan_(plan),
        input_(std::move(input)),
        left_segments_(left_segments),
        save_as_(std::move(save_as)),
        local_queue_(static_cast<size_t>(ctx->num_workers())),
        active_(static_cast<size_t>(ctx->num_workers()), 0) {
    metrics_.name = plan_.name;
    metrics_.num_tasks = plan_.num_tasks;
  }

  StageOutput Run() {
    remaining_ = plan_.num_tasks;
    if (plan_.writes_shuffle) {
      output_.segments.resize(static_cast<size_t>(plan_.num_tasks));
    } else if (save_as_.empty()) {
      output_.collected.resize(static_cast<size_t>(plan_.num_tasks));
    }
    // Build locality queues.
    if (plan_.input == StagePlan::Input::kSource) {
      const std::lock_guard<std::mutex> lock(ctx_->catalog_mutex_);
      const auto& blocks = ctx_->sources_.at(plan_.source_name);
      MONO_CHECK_MSG(static_cast<int>(blocks.size()) == plan_.num_tasks,
                     "stage task count must match the source partition count");
      for (int t = 0; t < plan_.num_tasks; ++t) {
        local_queue_[static_cast<size_t>(blocks[static_cast<size_t>(t)].worker)]
            .push_back(t);
      }
    } else {
      for (int t = 0; t < plan_.num_tasks; ++t) {
        any_queue_.push_back(t);
      }
    }
    Timed(&EngineStageMetrics::wall_seconds, [this] {
      std::unique_lock<std::mutex> lock(mutex_);
      // Breadth-first initial fill.
      bool assigned = true;
      while (assigned) {
        assigned = false;
        for (int w = 0; w < ctx_->num_workers(); ++w) {
          if (AssignOneLocked(w)) {
            assigned = true;
          }
        }
      }
      cv_.wait(lock, [this] { return remaining_ == 0; });
    });
    return std::move(output_);
  }

  // Valid once Run() has returned: every task, and so every Add, has finished.
  const EngineStageMetrics& metrics() const { return metrics_; }

 private:
  // A finished partition: one blob, sliced per reducer when the stage shuffles.
  struct Output {
    Buffer blob;
    std::vector<std::pair<size_t, size_t>> ranges;
  };

  // Must hold mutex_. Returns true if a task was launched on `worker`.
  bool AssignOneLocked(int worker) {
    Worker& w = ctx_->worker(worker);
    // Task-thread mode has slots (= cores), the knob monotasks removes (§7); the
    // monotasks mode uses the §3.4 formula.
    const int limit = ctx_->config_.mode == ExecutionMode::kTaskThreads
                          ? ctx_->config_.cores_per_worker
                          : w.MultitaskLimit();
    if (active_[static_cast<size_t>(worker)] >= limit) {
      return false;
    }
    int task = -1;
    auto& local = local_queue_[static_cast<size_t>(worker)];
    if (!local.empty()) {
      task = local.front();
      local.pop_front();
    } else if (!any_queue_.empty()) {
      task = any_queue_.front();
      any_queue_.pop_front();
    } else {
      // Steal from the most-loaded local queue.
      size_t best = 0;
      size_t best_size = 0;
      for (size_t q = 0; q < local_queue_.size(); ++q) {
        if (local_queue_[q].size() > best_size) {
          best = q;
          best_size = local_queue_[q].size();
        }
      }
      if (best_size == 0) {
        return false;
      }
      task = local_queue_[best].front();
      local_queue_[best].pop_front();
    }
    ++active_[static_cast<size_t>(worker)];
    if (ctx_->config_.mode == ExecutionMode::kTaskThreads) {
      LaunchTaskThread(task, worker);
    } else {
      LaunchMonotasks(task, worker);
    }
    return true;
  }

  void OnTaskDone(int worker) {
    const std::lock_guard<std::mutex> lock(mutex_);
    --active_[static_cast<size_t>(worker)];
    --remaining_;
    if (remaining_ == 0) {
      cv_.notify_all();
      return;
    }
    while (AssignOneLocked(worker)) {
    }
  }

  // ---- Metrics ----

  template <typename T>
  void Add(T EngineStageMetrics::*field, T amount) {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.*field += amount;
  }
  template <typename Work>
  void Timed(double EngineStageMetrics::*field, Work&& work) {
    Add(field, WallSeconds(std::forward<Work>(work)));
  }

  // ---- The stage body ----

  // The task's source block, copied under the catalog lock: disk-write completions
  // of a saving stage insert their key into sources_ concurrently (tree rebalance),
  // so even reads of a pre-existing key must synchronize.
  SourceBlock Source(int task) {
    const std::lock_guard<std::mutex> lock(ctx_->catalog_mutex_);
    return ctx_->sources_.at(plan_.source_name)[static_cast<size_t>(task)];
  }

  // Disk reads, counted as read bytes wherever they run.
  Buffer Read(const SourceBlock& block) {
    Buffer buffer = ctx_->worker(block.worker).disk(block.disk).Read(block.block_id);
    Add(&EngineStageMetrics::disk_read_bytes, SizeOf(buffer));
    return buffer;
  }
  Buffer Read(size_t segment_index, int task) {
    const ShuffleSegment& segment = input_[segment_index];
    const auto [offset, length] = segment.ranges[static_cast<size_t>(task)];
    Buffer buffer = ctx_->worker(segment.worker)
                        .disk(segment.disk)
                        .ReadRange(segment.block_id, offset, length);
    Add(&EngineStageMetrics::disk_read_bytes, SizeOf(buffer));
    return buffer;
  }

  // Has the home worker's disk scheduler run `read` as a serve monotask on `disk`.
  // The buffer arrives once the monotask has completed.
  std::future<Buffer> Serve(int home, int disk, std::string label,
                            std::function<Buffer()> read) {
    auto buffer = std::make_shared<Buffer>();
    auto serve = MakeMonotask(
        ResourceType::kDisk, std::move(label),
        [this, buffer, read = std::move(read)] {
          Timed(&EngineStageMetrics::disk_read_seconds, [&] { *buffer = read(); });
        },
        disk, monoutil::DiskPhase::kServe);
    auto served = std::make_shared<std::promise<Buffer>>();
    std::future<Buffer> result = served->get_future();
    ctx_->worker(home).SubmitDetached(
        std::move(serve), [buffer, served] { served->set_value(std::move(*buffer)); });
    return result;
  }

  // Moves `bytes` from worker `src` to `dst` over the fabric; free and uncounted
  // when local.
  void Transfer(int src, int dst, monoutil::Bytes bytes) {
    if (src == dst) {
      return;
    }
    ctx_->fabric_->Transfer(src, dst, bytes);
    Add(&EngineStageMetrics::network_bytes, bytes);
  }

  Buffer Merge(std::vector<Buffer> fetched) const {
    if (plan_.input == StagePlan::Input::kShuffle) {
      return plan_.merge_fn(std::move(fetched));
    }
    const auto split = fetched.begin() + static_cast<ptrdiff_t>(left_segments_);
    std::vector<Buffer> right(std::make_move_iterator(split),
                              std::make_move_iterator(fetched.end()));
    fetched.erase(split, fetched.end());
    return plan_.merge2_fn(std::move(fetched), std::move(right));
  }

  // Runs the transforms, then buckets the result into one blob with a range per
  // reducer if the stage shuffles.
  Output Finish(Buffer current) const {
    for (const auto& transform : plan_.transforms) {
      current = transform(current);
    }
    if (!plan_.writes_shuffle) {
      return Output{std::move(current), {}};
    }
    const std::vector<Buffer> buckets =
        plan_.partition_fn(current, plan_.shuffle_out_partitions);
    MONO_CHECK_MSG(static_cast<int>(buckets.size()) == plan_.shuffle_out_partitions,
                   "partition_fn must return one bucket per output partition");
    Output output;
    for (const Buffer& bucket : buckets) {
      output.ranges.emplace_back(output.blob.size(), bucket.size());
      output.blob.insert(output.blob.end(), bucket.begin(), bucket.end());
    }
    return output;
  }

  bool WritesDisk() const { return plan_.writes_shuffle || !save_as_.empty(); }
  std::string OutputBlockId(int task) const {
    return (plan_.writes_shuffle ? "shuffle." + plan_.name : save_as_) + "." +
           std::to_string(task);
  }

  // Writes the task's output to `disk` and registers it: as a shuffle segment, or
  // as a block of the saved source.
  void WriteOutput(int task, int worker_index, int disk, Output output) {
    const std::string block_id = OutputBlockId(task);
    const monoutil::Bytes bytes = SizeOf(output.blob);
    Timed(&EngineStageMetrics::disk_write_seconds, [&] {
      ctx_->worker(worker_index).disk(disk).Write(block_id, std::move(output.blob));
    });
    Add(&EngineStageMetrics::disk_write_bytes, bytes);
    if (plan_.writes_shuffle) {
      output_.segments[static_cast<size_t>(task)] =
          ShuffleSegment{worker_index, disk, block_id, std::move(output.ranges)};
      return;
    }
    const std::lock_guard<std::mutex> lock(ctx_->catalog_mutex_);
    auto& blocks = ctx_->sources_[save_as_];
    if (blocks.size() < static_cast<size_t>(plan_.num_tasks)) {
      blocks.resize(static_cast<size_t>(plan_.num_tasks));
    }
    blocks[static_cast<size_t>(task)] = SourceBlock{worker_index, disk, block_id, nullptr};
  }

  void Collect(int task, Output output) {
    output_.collected[static_cast<size_t>(task)] = std::move(output.blob);
  }

  // ---- The two schedules ----

  void LaunchMonotasks(int task, int worker_index);
  void LaunchTaskThread(int task, int worker_index);

  MonoContext* ctx_;
  const StagePlan& plan_;
  const std::vector<ShuffleSegment> input_;
  const size_t left_segments_;
  const std::string save_as_;
  // Each task writes only its own element.
  StageOutput output_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::deque<int>> local_queue_;
  std::deque<int> any_queue_;
  std::vector<int> active_;
  int remaining_ = 0;
  std::mutex metrics_mutex_;
  EngineStageMetrics metrics_;
};

// The paper's architecture: the multitask becomes a DAG of single-resource
// monotasks on its worker — input reads and fetches, then compute, then the
// output write (or the collect).
void MonoContext::StageRunner::LaunchMonotasks(int task, int worker_index) {
  Worker& worker = ctx_->worker(worker_index);

  // Shared mutable state of this multitask, owned by the closures.
  struct TaskData {
    Buffer input;                 // Source-read input.
    std::vector<Buffer> fetched;  // Shuffle: one buffer per input segment.
    Output output;
  };
  auto data = std::make_shared<TaskData>();

  std::vector<std::unique_ptr<Monotask>> tasks;
  std::vector<Monotask*> inputs;
  const auto add_input = [&](std::unique_ptr<Monotask> monotask) {
    inputs.push_back(monotask.get());
    tasks.push_back(std::move(monotask));
  };

  if (plan_.input == StagePlan::Input::kSource) {
    const SourceBlock block = Source(task);
    if (block.disk == SourceBlock::kInMemory) {
      if (block.worker == worker_index) {
        // Cached locally: no input monotask at all; hand the buffer to compute.
        data->input = *block.cached;
      } else {
        // Cached on another worker: a network monotask pays only the transfer.
        add_input(MakeMonotask(
            ResourceType::kNetwork, "fetch-cached:" + block.block_id,
            [this, data, worker_index, block] {
              Timed(&EngineStageMetrics::network_seconds, [&] {
                Transfer(block.worker, worker_index, SizeOf(*block.cached));
                data->input = *block.cached;
              });
            }));
      }
    } else if (block.worker == worker_index) {
      add_input(MakeMonotask(
          ResourceType::kDisk, "read:" + block.block_id,
          [this, data, block] {
            Timed(&EngineStageMetrics::disk_read_seconds,
                  [&] { data->input = Read(block); });
          },
          block.disk));
    } else {
      // Remote block: a network monotask that has the block served by the home
      // worker's disk scheduler, then pays for the transfer.
      add_input(MakeMonotask(
          ResourceType::kNetwork, "fetch:" + block.block_id,
          [this, data, worker_index, block] {
            Timed(&EngineStageMetrics::network_seconds, [&] {
              Buffer buffer = Serve(block.worker, block.disk, "serve:" + block.block_id,
                                    [this, block] { return Read(block); })
                                  .get();
              Transfer(block.worker, worker_index, SizeOf(buffer));
              data->input = std::move(buffer);
            });
          }));
    }
  } else {
    data->fetched.resize(input_.size());
    // Local portions: one disk-read monotask per local disk holding segments.
    std::vector<std::vector<size_t>> per_disk(static_cast<size_t>(worker.num_disks()));
    std::vector<size_t> remote;
    for (size_t m = 0; m < input_.size(); ++m) {
      if (input_[m].worker == worker_index) {
        per_disk[static_cast<size_t>(input_[m].disk)].push_back(m);
      } else {
        remote.push_back(m);
      }
    }
    for (int d = 0; d < worker.num_disks(); ++d) {
      if (per_disk[static_cast<size_t>(d)].empty()) {
        continue;
      }
      add_input(MakeMonotask(
          ResourceType::kDisk, "shuffle-read-local",
          [this, data, task, segments = std::move(per_disk[static_cast<size_t>(d)])] {
            Timed(&EngineStageMetrics::disk_read_seconds, [&] {
              for (size_t m : segments) {
                data->fetched[m] = Read(m, task);
              }
            });
          },
          d));
    }
    if (!remote.empty()) {
      // One network monotask performs this multitask's whole remote fetch set, so
      // the receiver-side scheduler admits it as a unit (§3.3).
      add_input(MakeMonotask(
          ResourceType::kNetwork, "shuffle-fetch",
          [this, data, worker_index, task, remote] {
            Timed(&EngineStageMetrics::network_seconds, [&] {
              // Issue every serve read up front; they queue on the remote disks.
              std::vector<std::future<Buffer>> served;
              for (size_t m : remote) {
                served.push_back(Serve(input_[m].worker, input_[m].disk, "shuffle-serve",
                                       [this, m, task] { return Read(m, task); }));
              }
              // Collect each portion as it is served, paying the transfer time.
              for (size_t i = 0; i < remote.size(); ++i) {
                Buffer buffer = served[i].get();
                Transfer(input_[remote[i]].worker, worker_index, SizeOf(buffer));
                data->fetched[remote[i]] = std::move(buffer);
              }
            });
          }));
    }
  }

  tasks.push_back(MakeMonotask(ResourceType::kCpu, plan_.name + ".compute", [this, data] {
    Timed(&EngineStageMetrics::compute_seconds, [&] {
      data->output = Finish(plan_.input == StagePlan::Input::kSource
                                ? std::move(data->input)
                                : Merge(std::move(data->fetched)));
    });
  }));
  Monotask* compute = tasks.back().get();
  std::vector<std::pair<Monotask*, Monotask*>> edges;
  for (Monotask* input : inputs) {
    edges.emplace_back(input, compute);
  }

  if (WritesDisk()) {
    const int disk = worker.PickWriteDisk();
    tasks.push_back(MakeMonotask(
        ResourceType::kDisk, "write:" + OutputBlockId(task),
        [this, data, task, worker_index, disk] {
          WriteOutput(task, worker_index, disk, std::move(data->output));
        },
        disk, monoutil::DiskPhase::kWrite));
  } else {
    // Collected output: stash the buffer at compute completion (no disk involved).
    tasks.push_back(MakeMonotask(ResourceType::kCpu, "collect", [this, data, task] {
      Collect(task, std::move(data->output));
    }));
  }
  edges.emplace_back(compute, tasks.back().get());

  worker.dag_scheduler().SubmitDag(std::move(tasks), edges,
                                   // mono_lint: allow(escaping-capture) -- the runner joins every task before it is destroyed.
                                   [this, worker_index] { OnTaskDone(worker_index); });
}

// The baseline architecture: the entire multitask runs on one slot thread, doing its
// own I/O against the shared devices. No per-resource scheduling, no receiver-side
// admission — concurrent tasks contend however they happen to interleave, and the
// only per-task measurement available afterwards is wall time.
void MonoContext::StageRunner::LaunchTaskThread(int task, int worker_index) {
  auto body = MakeMonotask(ResourceType::kCpu, plan_.name + ".task", [this, task, worker_index] {
    Buffer input;
    std::vector<Buffer> fetched;
    if (plan_.input == StagePlan::Input::kSource) {
      const SourceBlock block = Source(task);
      if (block.disk == SourceBlock::kInMemory) {
        Timed(&EngineStageMetrics::network_seconds, [&] {
          input = *block.cached;
          Transfer(block.worker, worker_index, SizeOf(input));
        });
      } else {
        Timed(&EngineStageMetrics::disk_read_seconds, [&] {
          input = Read(block);
          Transfer(block.worker, worker_index, SizeOf(input));
        });
      }
    } else {
      // Every shuffle read, local or remote, is one unscheduled fetch.
      fetched.resize(input_.size());
      Timed(&EngineStageMetrics::network_seconds, [&] {
        for (size_t m = 0; m < input_.size(); ++m) {
          fetched[m] = Read(m, task);
          Transfer(input_[m].worker, worker_index, SizeOf(fetched[m]));
        }
      });
    }
    Output output;
    Timed(&EngineStageMetrics::compute_seconds, [&] {
      output = Finish(plan_.input == StagePlan::Input::kSource ? std::move(input)
                                                               : Merge(std::move(fetched)));
    });
    if (WritesDisk()) {
      WriteOutput(task, worker_index, ctx_->worker(worker_index).PickWriteDisk(),
                  std::move(output));
    } else {
      Collect(task, std::move(output));
    }
  });
  Worker& worker = ctx_->worker(worker_index);
  worker.SubmitDetached(std::move(body),
                        // mono_lint: allow(escaping-capture) -- the runner joins every task before it is destroyed.
                        [this, worker_index] { OnTaskDone(worker_index); });
}

// ---------- job execution ----------

MonoContext::StageOutput MonoContext::RunStages(const std::vector<StagePlan>& stages,
                                                const std::string& save_as) {
  StageOutput output;
  for (size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& plan = stages[s];
    std::vector<ShuffleSegment> input = std::move(output.segments);
    const size_t left_segments = input.size();
    if (plan.input == StagePlan::Input::kCoGroup) {
      // Execute the right parent sub-plan to its own shuffle output (recursively —
      // it may itself contain shuffles or joins).
      std::vector<ShuffleSegment> right =
          RunToShuffle(plan.right_plan, plan.right_partition_fn, plan.num_tasks);
      input.insert(input.end(), std::make_move_iterator(right.begin()),
                   std::make_move_iterator(right.end()));
    }
    const bool is_last = s + 1 == stages.size();
    StageRunner runner(this, plan, std::move(input), left_segments,
                       is_last ? save_as : std::string());
    output = runner.Run();
    last_metrics_.stages.push_back(runner.metrics());
  }
  return output;
}

std::vector<MonoContext::ShuffleSegment> MonoContext::RunToShuffle(
    const std::shared_ptr<const PlanNode>& root,
    const std::function<std::vector<Buffer>(const Buffer&, int)>& partition_fn,
    int num_out_partitions) {
  std::vector<StagePlan> stages = BuildStages(root);
  // The sub-plan's final stage buckets its output for the consuming join stage.
  StagePlan& last = stages.back();
  MONO_CHECK_MSG(!last.writes_shuffle, "sub-plan already ends in a shuffle write");
  last.writes_shuffle = true;
  last.shuffle_out_partitions = num_out_partitions;
  last.partition_fn = partition_fn;
  return RunStages(stages, std::string()).segments;
}

std::vector<Buffer> MonoContext::RunJob(const std::shared_ptr<const PlanNode>& root) {
  return Execute(root, "");
}

void MonoContext::RunJobToSource(const std::shared_ptr<const PlanNode>& root,
                                 const std::string& name) {
  {
    const std::lock_guard<std::mutex> lock(catalog_mutex_);
    MONO_CHECK_MSG(sources_.find(name) == sources_.end(), "source already exists");
  }
  Execute(root, name);
}

std::vector<Buffer> MonoContext::Execute(const std::shared_ptr<const PlanNode>& root,
                                         const std::string& save_as) {
  const std::vector<StagePlan> stages = BuildStages(root);
  last_metrics_ = EngineJobMetrics{};
  StageOutput output;
  last_metrics_.wall_seconds =
      WallSeconds([&] { output = RunStages(stages, save_as); });
  return std::move(output.collected);
}

}  // namespace monotasks
