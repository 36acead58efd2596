#include "src/server/collection_manager.h"

#include <utility>

#include "src/common/logging.h"
#include "src/core/engine_image.h"
#include "src/io/snapshot.h"

namespace aeetes {
namespace server {

CollectionManager::~CollectionManager() {
  {
    MutexLock lock(compact_mu_);
    stopping_ = true;
    compact_cv_.NotifyAll();
  }
  if (compactor_.joinable()) compactor_.join();
}

Result<std::shared_ptr<ServingEngine>> CollectionManager::Wire(
    std::string_view name, std::string source,
    std::unique_ptr<Aeetes> aeetes) {
  if (options_.enable_flight_recorder) {
    aeetes->EnableFlightRecorder(options_.flight_recorder);
  }
  auto engine = std::make_shared<ServingEngine>();
  engine->name = std::string(name);
  engine->source = std::move(source);
  engine->aeetes = std::move(aeetes);
  DeltaLayer::Options delta_options;
  delta_options.derivation = options_.engine.derivation;
  delta_options.tokenizer = options_.engine.tokenizer;
  AEETES_ASSIGN_OR_RETURN(
      engine->delta,
      DeltaLayer::Create(engine->aeetes->derived_dictionary(),
                         engine->aeetes->derived_dictionary().rule_lines(),
                         delta_options));
  engine->aeetes->AttachDelta(engine->delta);
  AEETES_ASSIGN_OR_RETURN(
      engine->extractor,
      ParallelExtractor::Create(*engine->aeetes, options_.extractor));
  return engine;
}

Status CollectionManager::Create(std::string_view name,
                                 const std::vector<std::string>& entities,
                                 const std::vector<std::string>& rules) {
  {
    // Fail fast (and again under the lock after the slow build — another
    // create may have won the race meanwhile).
    MutexLock lock(mu_);
    if (collections_.find(name) != collections_.end()) {
      return Status::AlreadyExists("collection '" + std::string(name) +
                                   "' already exists");
    }
    if (collections_.size() >= options_.max_collections) {
      return Status::ResourceExhausted("collection limit reached");
    }
  }
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<Aeetes> aeetes,
                          Aeetes::BuildFromText(entities, rules,
                                                options_.engine));
  AEETES_ASSIGN_OR_RETURN(std::shared_ptr<ServingEngine> engine,
                          Wire(name, "build", std::move(aeetes)));
  MutexLock lock(mu_);
  if (collections_.find(name) != collections_.end()) {
    return Status::AlreadyExists("collection '" + std::string(name) +
                                 "' already exists");
  }
  if (collections_.size() >= options_.max_collections) {
    return Status::ResourceExhausted("collection limit reached");
  }
  collections_.emplace(std::string(name), std::move(engine));
  PublishGauge();
  return Status::OK();
}

Status CollectionManager::Load(std::string_view name,
                               const std::string& path) {
  {
    MutexLock lock(mu_);
    if (collections_.find(name) != collections_.end()) {
      return Status::AlreadyExists("collection '" + std::string(name) +
                                   "' already exists");
    }
    if (collections_.size() >= options_.max_collections) {
      return Status::ResourceExhausted("collection limit reached");
    }
  }
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<Aeetes> aeetes,
                          LoadSnapshot(path, options_.engine));
  AEETES_ASSIGN_OR_RETURN(std::shared_ptr<ServingEngine> engine,
                          Wire(name, path, std::move(aeetes)));
  MutexLock lock(mu_);
  if (collections_.find(name) != collections_.end()) {
    return Status::AlreadyExists("collection '" + std::string(name) +
                                 "' already exists");
  }
  if (collections_.size() >= options_.max_collections) {
    return Status::ResourceExhausted("collection limit reached");
  }
  collections_.emplace(std::string(name), std::move(engine));
  PublishGauge();
  return Status::OK();
}

Status CollectionManager::Swap(std::string_view name,
                               const std::string& path) {
  {
    MutexLock lock(mu_);
    if (collections_.find(name) == collections_.end()) {
      return Status::NotFound("collection '" + std::string(name) +
                              "' not found");
    }
  }
  // The expensive load runs unlocked; extractions proceed on the old
  // engine the whole time.
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<Aeetes> aeetes,
                          LoadSnapshot(path, options_.engine));
  AEETES_ASSIGN_OR_RETURN(std::shared_ptr<ServingEngine> engine,
                          Wire(name, path, std::move(aeetes)));
  std::shared_ptr<ServingEngine> retired;
  {
    MutexLock lock(mu_);
    const auto it = collections_.find(name);
    if (it == collections_.end()) {
      return Status::NotFound("collection '" + std::string(name) +
                              "' was deleted during swap");
    }
    engine->version = it->second->version + 1;
    retired = std::move(it->second);
    it->second = std::move(engine);
    PublishDeltaGauge();
  }
  // `retired` drops here, outside the lock — if this was the last
  // reference the old image unmaps now; otherwise the last in-flight
  // request holding it performs the teardown.
  return Status::OK();
}

Status CollectionManager::Delete(std::string_view name) {
  std::shared_ptr<ServingEngine> retired;
  MutexLock lock(mu_);
  const auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + std::string(name) +
                            "' not found");
  }
  retired = std::move(it->second);
  collections_.erase(it);
  PublishGauge();
  PublishDeltaGauge();
  return Status::OK();
}

Result<size_t> CollectionManager::UpsertEntities(
    std::string_view name, const std::vector<std::string>& entities) {
  // The delta mutation runs under mu_ on purpose: the compaction cutover
  // reads the old overlay's mutation log and swaps the engine in one mu_
  // critical section, so a mutation can never slip between its log read
  // and the swap (it lands entirely before — and is replayed — or
  // entirely after, on the successor overlay).
  MutexLock lock(mu_);
  const auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + std::string(name) +
                            "' not found");
  }
  AEETES_ASSIGN_OR_RETURN(const size_t changed,
                          it->second->delta->UpsertEntities(entities));
  PublishDeltaGauge();
  return changed;
}

Result<size_t> CollectionManager::RemoveEntities(
    std::string_view name, const std::vector<std::string>& entities) {
  MutexLock lock(mu_);  // same cutover-exclusion rationale as UpsertEntities
  const auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + std::string(name) +
                            "' not found");
  }
  AEETES_ASSIGN_OR_RETURN(const size_t removed,
                          it->second->delta->RemoveEntities(entities));
  PublishDeltaGauge();
  return removed;
}

Result<uint64_t> CollectionManager::Compact(std::string_view name) {
  uint64_t target = 0;
  {
    MutexLock lock(mu_);
    const auto it = collections_.find(name);
    if (it == collections_.end()) {
      return Status::NotFound("collection '" + std::string(name) +
                              "' not found");
    }
    target = it->second->version + 1;
  }
  EnqueueCompaction(std::string(name));
  return target;
}

void CollectionManager::EnqueueCompaction(std::string name) {
  MutexLock lock(compact_mu_);
  if (!compactor_started_) {
    compactor_started_ = true;
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
  compact_queue_.push_back(std::move(name));
  compact_cv_.NotifyOne();
}

void CollectionManager::CompactorLoop() {
  for (;;) {
    std::string name;
    {
      MutexLock lock(compact_mu_);
      while (compact_queue_.empty() && !stopping_) {
        compact_cv_.Wait(compact_mu_);
      }
      if (stopping_) return;  // pending requests die with the manager
      name = std::move(compact_queue_.front());
      compact_queue_.pop_front();
    }
    if (const Status status = CompactOne(name); !status.ok()) {
      AEETES_LOG(Warning) << "compaction of '" << name
                          << "' failed: " << status.ToString();
    }
  }
}

Status CollectionManager::CompactOne(const std::string& name) {
  // Pin the engine being compacted; extraction and mutation traffic keep
  // flowing against it while the rebuild runs.
  std::shared_ptr<ServingEngine> old_engine;
  {
    MutexLock lock(mu_);
    const auto it = collections_.find(name);
    if (it == collections_.end()) {
      return Status::NotFound("collection '" + name +
                              "' vanished before compaction");
    }
    old_engine = it->second;
  }

  // The snapshot fixes the mutation-log prefix the rebuild covers; the
  // tail past `covered` is replayed onto the successor at cutover.
  const std::shared_ptr<const DeltaIndex> didx = old_engine->delta->snapshot();
  const uint64_t covered = didx->generation();

  AEETES_ASSIGN_OR_RETURN(
      DerivedDictParts parts,
      BuildCompactedParts(old_engine->aeetes->derived_dictionary(), *didx));
  parts.rule_lines = old_engine->delta->rule_lines();
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<EngineImage> image,
                          EngineImage::Pack(std::move(parts)));
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<Aeetes> aeetes,
                          Aeetes::FromImage(std::move(image), options_.engine));
  AEETES_ASSIGN_OR_RETURN(std::shared_ptr<ServingEngine> engine,
                          Wire(name, "compact", std::move(aeetes)));

  // Persist the rollback point before publishing: if the write fails the
  // old engine keeps serving and the compaction reports the error.
  const uint64_t target_version = old_engine->version + 1;
  if (!options_.snapshot_dir.empty()) {
    std::string path;
    AEETES_RETURN_IF_ERROR(SaveVersionedSnapshot(*engine->aeetes,
                                                 options_.snapshot_dir, name,
                                                 target_version, &path));
    engine->source = path;
  }

  std::shared_ptr<ServingEngine> retired;
  {
    MutexLock lock(mu_);
    const auto it = collections_.find(name);
    if (it == collections_.end() || it->second != old_engine) {
      // A delete or swap won the race; the rebuilt image is discarded.
      return Status::FailedPrecondition("collection '" + name +
                                        "' changed during compaction");
    }
    // Mutations that landed after the rebuild's snapshot replay onto the
    // fresh overlay; UpsertEntities/RemoveEntities also hold mu_, so no
    // mutation can land between this read and the swap below.
    AEETES_RETURN_IF_ERROR(
        engine->delta->Replay(old_engine->delta->MutationsSince(covered)));
    engine->version = target_version;
    retired = std::move(it->second);
    it->second = std::move(engine);
    if (compactions_ != nullptr) compactions_->Add(1);
    PublishDeltaGauge();
  }
  // `retired` drops outside the lock — refcounted retirement, as in Swap.
  return Status::OK();
}

Result<std::shared_ptr<const ServingEngine>> CollectionManager::Acquire(
    std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + std::string(name) +
                            "' not found");
  }
  return std::shared_ptr<const ServingEngine>(it->second);
}

std::vector<CollectionManager::Info> CollectionManager::List() const {
  MutexLock lock(mu_);
  std::vector<Info> out;
  out.reserve(collections_.size());
  for (const auto& [name, engine] : collections_) {
    Info info;
    info.name = name;
    info.version = engine->version;
    info.source = engine->source;
    info.delta_entities = engine->delta->live_entities();
    info.tombstones = engine->delta->tombstone_count();
    info.dict_tokens = engine->aeetes->derived_dictionary().token_dict().size();
    out.push_back(std::move(info));
  }
  return out;  // map iteration is already name-sorted
}

size_t CollectionManager::size() const {
  MutexLock lock(mu_);
  return collections_.size();
}

void CollectionManager::PublishGauge() {
  if (active_collections_ != nullptr) {
    active_collections_->Set(static_cast<int64_t>(collections_.size()));
  }
}

void CollectionManager::PublishDeltaGauge() {
  if (delta_entities_ == nullptr) return;
  size_t total = 0;
  for (const auto& [name, engine] : collections_) {
    total += engine->delta->live_entities();
  }
  delta_entities_->Set(static_cast<int64_t>(total));
}

}  // namespace server
}  // namespace aeetes
