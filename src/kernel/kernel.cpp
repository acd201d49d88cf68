#include "kernel/kernel.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "kernel/fiber_sanitizer.h"
#include "kernel/fiber_switch.h"
#include "kernel/quantum_controller.h"
#include "kernel/report.h"
#include "kernel/scheduler.h"
#include "kernel/stack_pool.h"

namespace tdsim {

namespace {
thread_local Kernel* g_current_kernel = nullptr;

Kernel& current_kernel_checked() {
  if (g_current_kernel == nullptr) {
    Report::error("tdsim free function called outside of a running kernel");
  }
  return *g_current_kernel;
}

/// Zeroes a worker-local counter delta in place (keeping the domains
/// vector allocated for reuse across phases).
void clear_stat_delta(KernelStats& stats) {
  const std::size_t domain_count = stats.domains.size();
  std::vector<DomainStats> domains = std::move(stats.domains);
  stats = KernelStats{};
  for (DomainStats& d : domains) {
    d = DomainStats{};
  }
  domains.resize(domain_count);
  stats.domains = std::move(domains);
}

/// Hands out the batch collected in `pending` for the caller to walk and
/// leaves `pending` empty, holding the spare's memory: the two vectors
/// trade places on every call, so draining a batch never frees capacity
/// (see reserve_scheduler_arena). `spare` is cleared first, so a walk cut
/// short by an exception leaves nothing behind for the next batch.
template <typename T>
std::vector<T>& take_batch(std::vector<T>& pending, std::vector<T>& spare) {
  spare.clear();
  spare.swap(pending);
  return spare;
}

/// Appends `from` to `to` and empties `from` (which keeps its capacity).
template <typename Container>
void drain_into(Container& to, Container& from) {
  to.insert(to.end(), from.begin(), from.end());
  from.clear();
}

/// "No date" sentinel for the lookahead bound arithmetic (compares larger
/// than every real date).
constexpr std::uint64_t kNoDatePs = std::uint64_t(0) - 1;

/// Saturating picosecond addition: a bound beyond the representable range
/// means "unbounded", never a wrapped-around early date.
std::uint64_t sat_add_ps(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t sum = a + b;
  return sum < a ? kNoDatePs : sum;
}

/// Synthetic sequence-number base for agenda entries born inside a
/// free-running extension: sorts after every extracted (real-seq) entry of
/// the same date -- exactly where the sequential scheduler would have
/// queued them -- and identifies the entry as locally-born at the merge.
constexpr std::uint64_t kLocalSeqBase = std::uint64_t(1) << 63;

/// All delta-livelock raises funnel through here so they reach the report
/// sink AND carry the DeltaLivelockError type the failure classifier keys
/// on (FailureKind::DeltaLivelock) -- Report::error would throw the
/// untyped SimulationError.
[[noreturn]] void raise_delta_livelock(const std::string& message) {
  Report::notify(Severity::Error, message);
  throw DeltaLivelockError(message);
}
}  // namespace

Kernel::Kernel() : Kernel(KernelConfig{}) {}

Kernel::Kernel(const KernelConfig& config) {
  // The default domain always exists, so single-domain code never has to
  // know domains do.
  domains_.emplace_back(new SyncDomain(*this, "default", 0, Time{}));
  stats_.domains.emplace_back();
  stats_.domains.back().name = "default";
  group_parent_.emplace_back(0);
  published_front_ps_.emplace_back(std::uint64_t{0} - 1);
  main_exec_.kernel = this;
  main_exec_.stats = &stats_;
  main_exec_.cascade = &cascade_;
  // The one resolution point for every execution knob: explicit config >
  // environment > built-in default (see kernel_config.h; CI forces the
  // whole suite parallel through TDSIM_WORKERS this way). After this,
  // config_ is fully resolved -- every field set.
  config_ = config.resolved_over(KernelConfig::from_env());
  if (!config_.workers) config_.workers = 0;
  if (!config_.default_chunk_capacity) config_.default_chunk_capacity = 0;
  if (!config_.adaptive_quantum) config_.adaptive_quantum = false;
  if (!config_.quantum_trace_depth) {
    config_.quantum_trace_depth = kQuantumTraceDepth;
  }
  if (!config_.lookahead_limit) config_.lookahead_limit = lookahead_max_waves_;
  if (!config_.delta_cycle_limit) config_.delta_cycle_limit = 0;
  if (!config_.wall_limit_ms) config_.wall_limit_ms = 0;
  if (!config_.pooled_stacks) config_.pooled_stacks = true;
  if (!config_.stack_guard) config_.stack_guard = true;
  workers_ = *config_.workers;
  lookahead_max_waves_ = *config_.lookahead_limit;
  delta_limit_ = *config_.delta_cycle_limit;
  pooled_stacks_ = *config_.pooled_stacks;
  stack_guard_ = *config_.stack_guard;
  // This kernel is one client of the process-wide scheduler; workers_ is
  // its quota there (see kernel/scheduler.h).
  scheduler_client_ = Scheduler::instance().register_client(workers_);
  // Seeds a default adaptive quantum policy on every domain (the default
  // one included); an explicit policy (DomainOptions::policy,
  // set_quantum_policy) overrides.
  env_adaptive_ = *config_.adaptive_quantum;
  if (env_adaptive_) {
    set_quantum_policy(sync_domain(), QuantumPolicy{});
  }
  constructing_ = false;
}

Kernel::~Kernel() {
  kill_all_threads();
  Scheduler::instance().unregister_client(scheduler_client_);
}

Kernel* Kernel::current() {
  return g_current_kernel;
}

thread_local Kernel::ExecContext* Kernel::t_exec_ = nullptr;
thread_local Kernel::GroupTask* Kernel::t_task_ = nullptr;

Kernel::ExecContext* Kernel::thread_exec() {
  return t_exec_;
}

Kernel::GroupTask* Kernel::thread_task() {
  return t_task_;
}

Kernel::GroupTask* Kernel::active_task() const {
  GroupTask* task = thread_task();
  return (task != nullptr && task->kernel == this) ? task : nullptr;
}

KernelStats& Kernel::active_stats() {
  // Same resolution as sync_context(): the ExecContext already knows its
  // counter sink, so one thread-local read answers both "who is running"
  // and "where do counters go".
  ExecContext* e = thread_exec();
  return (e != nullptr && e->kernel == this) ? *e->stats : stats_;
}

Kernel::Cascade& Kernel::active_cascade() {
  ExecContext* e = thread_exec();
  return (e != nullptr && e->kernel == this) ? *e->cascade : cascade_;
}

void Kernel::note_timed_event_stale() {
  if (GroupTask* task = active_task()) {
    task->stale_notes++;
  } else {
    timed_stale_count_++;
  }
}

// --------------------------------------------------------------------------
// Synchronization domains and concurrency groups
// --------------------------------------------------------------------------

SyncDomain& Kernel::create_domain(const DomainOptions& options) {
  SyncDomain& domain =
      create_domain_impl(options.name, options.quantum, options.concurrent);
  if (options.policy.has_value()) {
    // An explicit policy bypasses the adaptive_quantum default-policy
    // hook: attaching the default first would clamp `quantum` into *its*
    // range before the explicit policy ever saw the caller's seed.
    set_quantum_policy(domain, *options.policy);
  } else if (env_adaptive_) {
    set_quantum_policy(domain, QuantumPolicy{});
  }
  if (options.delta_cycle_limit != 0) {
    domain.set_delta_cycle_limit(options.delta_cycle_limit);
  }
  return domain;
}

SyncDomain& Kernel::create_domain_impl(std::string name, Time quantum,
                                       bool concurrent) {
  if (active_task() != nullptr) {
    Report::error("Kernel::create_domain: cannot create domain '" + name +
                  "' from inside a parallel evaluation round");
  }
  if (find_domain(name) != nullptr) {
    Report::error("Kernel::create_domain: domain '" + name +
                  "' already exists");
  }
  note_external_elaboration();
  const std::size_t id = domains_.size();
  domains_.emplace_back(new SyncDomain(*this, name, id, quantum));
  domains_.back()->concurrent_ = concurrent;
  stats_.domains.emplace_back();
  stats_.domains.back().name = std::move(name);
  group_parent_.emplace_back(id);
  published_front_ps_.emplace_back(std::uint64_t{0} - 1);
  if (!concurrent) {
    std::lock_guard<std::mutex> lock(group_mutex_);
    unite_groups_locked(id, 0);
  }
  return *domains_.back();
}

void Kernel::set_quantum_policy(SyncDomain& domain,
                                const QuantumPolicy& policy) {
  if (&domain.kernel() != this) {
    Report::error("Kernel::set_quantum_policy: domain '" + domain.name() +
                  "' belongs to another kernel");
  }
  if (active_task() != nullptr) {
    Report::error("Kernel::set_quantum_policy: cannot attach a policy to "
                  "domain '" + domain.name() +
                  "' from inside a parallel evaluation round");
  }
  note_external_elaboration();
  if (!quantum_controller_) {
    quantum_controller_ = std::make_unique<QuantumController>(
        *this, *config_.quantum_trace_depth);
  }
  quantum_controller_->set_policy(domain, policy);
}

// --------------------------------------------------------------------------
// Chunked channels (see core/smart_fifo.h and ChunkFlushListener)
// --------------------------------------------------------------------------

void Kernel::register_chunk_flush(ChunkFlushListener* listener) {
  std::lock_guard<std::mutex> lock(chunk_flush_mutex_);
  for (ChunkFlushListener* existing : chunk_flush_listeners_) {
    if (existing == listener) {
      return;
    }
  }
  chunk_flush_listeners_.push_back(listener);
  chunk_flush_count_.store(chunk_flush_listeners_.size(),
                           std::memory_order_relaxed);
}

void Kernel::unregister_chunk_flush(ChunkFlushListener* listener) {
  std::lock_guard<std::mutex> lock(chunk_flush_mutex_);
  chunk_flush_listeners_.erase(
      std::remove(chunk_flush_listeners_.begin(), chunk_flush_listeners_.end(),
                  listener),
      chunk_flush_listeners_.end());
  chunk_flush_count_.store(chunk_flush_listeners_.size(),
                           std::memory_order_relaxed);
}

void Kernel::flush_chunked_channels(const GroupTask* task) {
  // The lock guards the *list* against concurrent register/unregister from
  // processes of other groups (a free-running extension), or one that
  // raced in from the last round (the kernel loop, uncontended then). A
  // group flushes only its own channels -- both sides of a channel always
  // share one group, so the flush is serialized with every user of the
  // channel -- and a foreign listener added mid-walk fails the group check.
  std::lock_guard<std::mutex> lock(chunk_flush_mutex_);
  for (ChunkFlushListener* listener : chunk_flush_listeners_) {
    if (task != nullptr) {
      SyncDomain* home = listener->chunk_home_domain();
      if (home == nullptr || find_group(home->id()) != task->group) {
        continue;
      }
    }
    listener->flush_chunks();
  }
}

namespace {

/// Domain ids are only meaningful within their own kernel; resolving a
/// foreign kernel's domain by id here would silently act on the wrong
/// domain (set_quantum_policy errors loudly -- so do its siblings).
void require_same_kernel(const Kernel* kernel, const SyncDomain& domain,
                         const char* what) {
  if (&domain.kernel() != kernel) {
    Report::error(std::string("Kernel::") + what + ": domain '" +
                  domain.name() + "' belongs to another kernel");
  }
}

}  // namespace

const QuantumPolicy* Kernel::quantum_policy(const SyncDomain& domain) const {
  require_same_kernel(this, domain, "quantum_policy");
  return quantum_controller_ ? quantum_controller_->policy(domain) : nullptr;
}

const QuantumDecision* Kernel::last_quantum_decision(
    const SyncDomain& domain) const {
  require_same_kernel(this, domain, "last_quantum_decision");
  return quantum_controller_ ? quantum_controller_->last_decision(domain)
                             : nullptr;
}

std::vector<QuantumDecision> Kernel::decision_trace(
    const SyncDomain& domain) const {
  require_same_kernel(this, domain, "decision_trace");
  return quantum_controller_ ? quantum_controller_->decision_trace(domain)
                             : std::vector<QuantumDecision>{};
}

SyncDomain* Kernel::find_domain(const std::string& name) const {
  for (const auto& domain : domains_) {
    if (domain->name() == name) {
      return domain.get();
    }
  }
  return nullptr;
}

std::size_t Kernel::find_group(std::size_t domain_id) const {
  // Lock-free root chase: parents are atomics and only ever move toward
  // smaller roots, so a read racing a unite returns one of the two (still
  // valid) roots.
  std::size_t i = domain_id;
  for (;;) {
    const std::size_t parent = group_parent_[i].load(std::memory_order_relaxed);
    if (parent == i) {
      return i;
    }
    i = parent;
  }
}

void Kernel::unite_groups_locked(std::size_t a, std::size_t b) {
  const std::size_t ra = find_group(a);
  const std::size_t rb = find_group(b);
  if (ra == rb) {
    return;
  }
  // The smaller id always wins the root, so the final grouping (and with
  // it the parallel schedule) is independent of link declaration order.
  const std::size_t root = std::min(ra, rb);
  const std::size_t child = std::max(ra, rb);
  group_parent_[child].store(root, std::memory_order_relaxed);
  group_version_++;
}

void Kernel::link_domains(SyncDomain& a, SyncDomain& b, const std::string& via,
                          Time min_latency) {
  if (&a.kernel() != this || &b.kernel() != this) {
    Report::error("Kernel::link_domains: domains '" + a.name() + "' and '" +
                  b.name() + "' must both belong to this kernel");
  }
  if (&a == &b || find_group(a.id()) == find_group(b.id())) {
    return;  // already ordered; keep the channel fast path lock-free
  }
  note_external_elaboration();
  std::lock_guard<std::mutex> lock(group_mutex_);
  domain_links_.push_back({a.id(), b.id(),
                           via.empty() ? "Kernel::link_domains" : via,
                           min_latency, false});
  unite_groups_locked(a.id(), b.id());
}

void Kernel::link_domains(SyncDomain& a, SyncDomain& b, Time min_latency,
                          const std::string& via) {
  if (min_latency.is_zero()) {
    // Zero lookahead means barrier: degenerate to the merging overload.
    link_domains(a, b, via);
    return;
  }
  if (&a.kernel() != this || &b.kernel() != this) {
    Report::error("Kernel::link_domains: domains '" + a.name() + "' and '" +
                  b.name() + "' must both belong to this kernel");
  }
  if (&a == &b) {
    return;
  }
  note_external_elaboration();
  std::lock_guard<std::mutex> lock(group_mutex_);
  domain_links_.push_back(
      {a.id(), b.id(),
       via.empty() ? "Kernel::link_domains (decoupled)" : via, min_latency,
       true});
  // No unite: the groups stay separate, and the lookahead scheduler reads
  // this record at the next horizon (which is what makes a mid-run
  // redeclaration re-tighten the bound).
}

std::vector<std::string> Kernel::explain_group(const SyncDomain& domain) const {
  // Replay the grouping from scratch on a scratch union-find, keeping only
  // the load-bearing merges (a link between already-united groups explains
  // nothing); then filter to the queried domain's final group.
  std::vector<std::size_t> parent(domains_.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](std::size_t i) {
    while (parent[i] != i) {
      i = parent[i];
    }
    return i;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra == rb) {
      return false;
    }
    parent[std::max(ra, rb)] = std::min(ra, rb);
    return true;
  };
  struct Merge {
    std::size_t a;
    std::string text;
  };
  std::vector<Merge> merges;
  std::lock_guard<std::mutex> lock(group_mutex_);
  for (const auto& d : domains_) {
    if (!d->concurrent_ && unite(d->id(), 0)) {
      merges.push_back({d->id(), "'" + d->name() +
                                     "' never opted into concurrency "
                                     "(DomainOptions::concurrent), so it is "
                                     "serialized with the default group"});
    }
  }
  for (const DomainLinkRecord& link : domain_links_) {
    if (link.decoupled) {
      continue;
    }
    if (unite(link.a, link.b)) {
      merges.push_back({link.a, "'" + domains_[link.a]->name() + "' <-> '" +
                                    domains_[link.b]->name() + "' via " +
                                    link.via +
                                    (link.min_latency.is_zero()
                                         ? std::string()
                                         : " (min latency " +
                                               link.min_latency.to_string() +
                                               ")")});
    }
  }
  const std::size_t root = find(domain.id());
  std::vector<std::string> out;
  for (const Merge& merge : merges) {
    if (find(merge.a) == root) {
      out.push_back(merge.text);
    }
  }
  // Decoupled (weighted, non-merging) edges touching this group: the
  // lookahead topology, printed with their latencies so "why is this
  // group's bound what it is" is answerable from the CLI.
  for (const DomainLinkRecord& link : domain_links_) {
    if (!link.decoupled) {
      continue;
    }
    if (find(link.a) == root || find(link.b) == root) {
      out.push_back("'" + domains_[link.a]->name() + "' <-> '" +
                    domains_[link.b]->name() + "' via " + link.via +
                    ": decoupled, min latency " +
                    link.min_latency.to_string() +
                    " (lookahead edge; groups stay separate)");
    }
  }
  return out;
}

std::size_t Kernel::domain_group(const SyncDomain& domain) const {
  return find_group(domain.id());
}

void Kernel::set_workers(std::size_t n) {
  if (current_process() != nullptr || active_task() != nullptr) {
    Report::error(
        "Kernel::set_workers is only callable from outside a running "
        "simulation");
  }
  if (initialized_) {
    // The worker count is this kernel's quota on the process-wide
    // Scheduler; renegotiating it after the first run() would resize a
    // shared resource under other live kernels mid-fleet. Elaboration-only
    // since PR 8 -- prefer KernelConfig{.workers = n} at construction.
    Report::error(
        "Kernel::set_workers is elaboration-only: the first run() has "
        "already initialized processes; construct the kernel with "
        "KernelConfig{.workers = n} instead");
  }
  workers_ = n;
  config_.workers = n;
  Scheduler::instance().set_client_quota(scheduler_client_, n);
}

void Kernel::note_external_elaboration() {
  // Construction seeding, build() steps, fork() replay, and anything a
  // running simulation process does are all replayable; everything else
  // makes the construction log incomplete.
  if (constructing_ || in_build_ || replaying_) {
    return;
  }
  if (current_process() != nullptr || active_task() != nullptr) {
    return;
  }
  external_elaboration_ = true;
}

SyncDomain* Kernel::lagging_domain() const {
  SyncDomain* lagging = nullptr;
  Time lagging_front;
  for (const auto& domain : domains_) {
    const std::optional<Time> front = domain->execution_front();
    if (!front.has_value()) {
      continue;
    }
    if (lagging == nullptr || *front < lagging_front) {
      lagging = domain.get();
      lagging_front = *front;
    }
  }
  return lagging;
}

bool Kernel::foreign_group_read(const SyncDomain& domain) const {
  GroupTask* task = active_task();
  return task != nullptr && find_group(domain.id()) != task->group;
}

std::optional<Time> Kernel::published_front(std::size_t domain_id) const {
  const std::uint64_t ps =
      published_front_ps_[domain_id].value.load(std::memory_order_relaxed);
  if (ps == std::uint64_t{0} - 1) {
    return std::nullopt;
  }
  return Time::from_ps(ps);
}

void Kernel::publish_domain_fronts() {
  // Called with no parallel round in flight, so the exact computation is
  // safe; the atomics are for the mid-round readers on worker threads.
  for (const auto& domain : domains_) {
    const std::optional<Time> front = domain->execution_front();
    published_front_ps_[domain->id()].value.store(
        front.has_value() ? front->ps() : std::uint64_t{0} - 1,
        std::memory_order_relaxed);
  }
}

void Kernel::assign_domain(Process& process, SyncDomain& domain) {
  if (&process.kernel() != this || &domain.kernel() != this) {
    Report::error("Kernel::assign_domain: process '" + process.name() +
                  "' and domain '" + domain.name() +
                  "' must both belong to this kernel");
  }
  if (initialized_) {
    Report::error("Kernel::assign_domain: cannot move process '" +
                  process.name() + "' to domain '" + domain.name() +
                  "' after elaboration; domain membership is fixed once "
                  "the first run() has initialized processes");
  }
  if (process.domain_ == &domain) {
    return;
  }
  note_external_elaboration();
  auto& members = process.domain_->members_;
  members.erase(std::remove(members.begin(), members.end(), &process),
                members.end());
  process.domain_ = &domain;
  domain.members_.push_back(&process);
}

// --------------------------------------------------------------------------
// Statistics views
// --------------------------------------------------------------------------

const KernelStats& Kernel::stats() const {
  GroupTask* task = active_task();
  if (task == nullptr) {
    // The aggregate sync fields are a derived cache over the per-domain
    // entries (the hot path books only into its own domain); refresh them
    // when booking left them stale. Staleness only exists while the
    // kernel is running (syncs happen inside run(), and run() folds on
    // exit), so the fold never races: a quiescent kernel's stats() is a
    // pure read, safe from concurrent threads.
    if (stats_.sync_aggregates_stale != 0) {
      const_cast<Kernel*>(this)->stats_.fold_domain_sync_aggregates();
    }
    return stats_;
  }
  // Mid-round view: the last-horizon aggregate (only mutated between
  // rounds, so copying it here is race-free) plus this group's own
  // in-flight counters.
  if (!task->stats_view) {
    task->stats_view = std::make_unique<KernelStats>();
  }
  *task->stats_view = stats_;
  accumulate(*task->stats_view, task->stat_delta);
  task->stats_view->fold_domain_sync_aggregates();
  return *task->stats_view;
}

// --------------------------------------------------------------------------
// Elaboration
// --------------------------------------------------------------------------

namespace {

/// Validates an explicit spawn-time domain and falls back to the default.
SyncDomain& resolve_spawn_domain(Kernel& kernel, SyncDomain* requested,
                                 const std::string& process_name) {
  if (requested == nullptr) {
    return kernel.sync_domain();
  }
  if (&requested->kernel() != &kernel) {
    Report::error("process '" + process_name + "' spawned into domain '" +
                  requested->name() + "' of a different kernel");
  }
  return *requested;
}

}  // namespace

void Kernel::acquire_fiber_stack(Process& p) {
  KernelStats& stats = active_stats();
  stats.stack_acquires++;
  if (!pooled_stacks_) {
    // Legacy mode (TDSIM_STACK_POOL=0): the pre-pool value-initializing
    // heap allocation -- zeroes the whole stack at spawn. No gate measures
    // it any more; it stays only because the benchmark suite's explicit
    // KernelConfig still names pooled_stacks, and goes with that field.
    p.heap_stack_ = std::make_unique<char[]>(p.stack_size_);
    return;
  }
  StackPool::Acquired acquired =
      StackPool::instance().acquire(p.stack_size_, stack_guard_);
  p.stack_block_ = acquired.block;
  if (acquired.recycled) {
    stats.stack_recycles++;  // timing-dependent in parallel mode, see stats.h
  }
}

void Kernel::note_fiber_stack_released() {
  active_stats().stack_releases++;
}

Process* Kernel::spawn_thread(std::string name, std::function<void()> body,
                              ThreadOptions opts) {
  note_external_elaboration();
  GroupTask* task = active_task();
  std::unique_lock<std::mutex> lock(spawn_mutex_, std::defer_lock);
  if (task != nullptr) {
    lock.lock();  // concurrent groups may spawn in the same round
  }
  auto process = std::unique_ptr<Process>(
      new Process(*this, std::move(name), ProcessKind::Thread, std::move(body),
                  opts.stack_size, next_process_id_++));
  process->dont_initialize_ = opts.dont_initialize;
  process->domain_ = &resolve_spawn_domain(*this, opts.domain,
                                           process->name());
  if (task != nullptr &&
      find_group(process->domain_->id()) != task->group) {
    Report::error("process '" + process->name() + "' spawned into domain '" +
                  process->domain_->name() + "' of another concurrency "
                  "group from inside a parallel round; spawn it from its "
                  "own group or link the domains");
  }
  process->domain_->members_.push_back(process.get());
  Process* raw = process.get();
  processes_.push_back(std::move(process));
  active_stats().processes_spawned++;
  if (initialized_ && !raw->dont_initialize_) {
    make_runnable(raw);  // dynamically spawned: runs in the current phase
    if (task == nullptr && current_process() == nullptr) {
      graft_init_pending_ = true;  // grafted between runs, see kernel.h
    }
  }
  return raw;
}

Process* Kernel::spawn_method(std::string name, std::function<void()> body,
                              MethodOptions opts) {
  note_external_elaboration();
  GroupTask* task = active_task();
  std::unique_lock<std::mutex> lock(spawn_mutex_, std::defer_lock);
  if (task != nullptr) {
    lock.lock();
  }
  auto process = std::unique_ptr<Process>(
      new Process(*this, std::move(name), ProcessKind::Method, std::move(body),
                  0, next_process_id_++));
  process->dont_initialize_ = opts.dont_initialize;
  process->domain_ = &resolve_spawn_domain(*this, opts.domain,
                                           process->name());
  if (task != nullptr &&
      find_group(process->domain_->id()) != task->group) {
    Report::error("process '" + process->name() + "' spawned into domain '" +
                  process->domain_->name() + "' of another concurrency "
                  "group from inside a parallel round; spawn it from its "
                  "own group or link the domains");
  }
  process->domain_->members_.push_back(process.get());
  Process* raw = process.get();
  processes_.push_back(std::move(process));
  active_stats().processes_spawned++;
  for (Event* e : opts.sensitivity) {
    add_static_sensitivity(raw, *e);
  }
  if (initialized_ && !raw->dont_initialize_) {
    make_runnable(raw);
    if (task == nullptr && current_process() == nullptr) {
      graft_init_pending_ = true;  // grafted between runs, see kernel.h
    }
  }
  return raw;
}

void Kernel::add_static_sensitivity(Process* method, Event& event) {
  if (method->kind() != ProcessKind::Method) {
    Report::error("static sensitivity is only supported for method processes");
  }
  note_external_elaboration();
  event.static_waiters_.push_back(method);
  method->static_sensitivity_.push_back(&event);
}

// --------------------------------------------------------------------------
// Scheduling core
// --------------------------------------------------------------------------

void Kernel::make_runnable(Process* p) {
  if (p->in_runnable_ || p->state_ == ProcessState::Terminated) {
    return;
  }
  GroupTask* task = active_task();
  if (task != nullptr && find_group(p->domain_->id()) != task->group) {
    // A wake reaching into another concurrency group (an event shared
    // across groups no channel declared): defer it to the horizon, where
    // it is applied in deterministic group order -- still within the
    // current evaluation phase, matching the sequential schedule. The
    // grouping has usually been merged by the channel layer by the time
    // this happens again.
    task->cross_wakes.push_back(p);
    return;
  }
  enqueue_runnable(p, task != nullptr ? task->cascade : cascade_);
}

void Kernel::enqueue_runnable(Process* p, Cascade& cascade) {
  if (p->in_runnable_ || p->state_ == ProcessState::Terminated) {
    return;
  }
  p->in_runnable_ = true;
  p->domain_->runnable_count_++;
  if (p->state_ == ProcessState::Waiting) {
    p->state_ = ProcessState::Ready;
  }
  cascade.runnable.push_back(p);
}

void Kernel::bump_wake_generation(Process& p) {
  p.wake_generation_++;
  if (p.has_live_resume_entry_) {
    // The entry scheduled under the previous generation is now stale.
    p.has_live_resume_entry_ = false;
    note_timed_event_stale();
  }
}

void Kernel::trigger_event(Event& e) {
  active_stats().event_triggers++;
  for (Process* m : e.static_waiters_) {
    if (!m->trigger_override_) {
      make_runnable(m);
    }
  }
  // Move the dynamic list out first: woken processes may immediately wait on
  // this very event again (from a method re-arming next_trigger).
  std::vector<Process*> waiters = std::move(e.dynamic_waiters_);
  e.dynamic_waiters_.clear();
  for (Process* p : waiters) {
    p->waiting_event_ = nullptr;
    p->trigger_override_ = false;
    p->woke_by_event_ = true;
    bump_wake_generation(*p);  // invalidate a pending timeout, if any
    make_runnable(p);
  }
  if (e.dynamic_waiters_.empty()) {
    // Nobody re-waited: hand the event its vector back, capacity and all,
    // so the next wait on it does not allocate.
    waiters.clear();
    e.dynamic_waiters_ = std::move(waiters);
  }
}

void Kernel::queue_delta_notification(Event& e) {
  active_cascade().delta_notifications.emplace_back(&e, e.generation_);
}

void Kernel::timed_push(const TimedEntry& entry) {
  timed_queue_.push_back(entry);
  std::push_heap(timed_queue_.begin(), timed_queue_.end(),
                 std::greater<TimedEntry>{});
}

void Kernel::timed_pop() {
  std::pop_heap(timed_queue_.begin(), timed_queue_.end(),
                std::greater<TimedEntry>{});
  timed_queue_.pop_back();
}

void Kernel::timed_reheap() {
  std::make_heap(timed_queue_.begin(), timed_queue_.end(),
                 std::greater<TimedEntry>{});
}

void Kernel::schedule_event_fire(Event& e, Time at) {
  e.queued_timed_entries_++;
  schedule_timed(at, TimedEntry::Kind::EventFire, &e, e.generation_, nullptr,
                 0);
}

void Kernel::schedule_process_resume(Process& p, Time at) {
  p.has_live_resume_entry_ = true;
  schedule_timed(at, TimedEntry::Kind::ProcessResume, nullptr, 0, &p,
                 p.wake_generation_);
}

void Kernel::schedule_timed(Time when, TimedEntry::Kind kind, Event* event,
                            std::uint64_t event_generation, Process* process,
                            std::uint64_t process_generation) {
  // Each path builds its entry in place, after the task lookup: a shared
  // local would be address-taken by timed_push, forcing it onto the stack
  // ahead of the call and the buffer copy through a store-forwarding stall
  // -- on every wait inside a group task.
  if (GroupTask* task = active_task()) {
    task->timed.push_back({when, 0, kind, event, event_generation, process,
                           process_generation});
    return;
  }
  timed_push({when, next_timed_seq_++, kind, event, event_generation, process,
              process_generation});
  maybe_compact_timed_queue();
}

void Kernel::purge_timed_event_entries(Event& e) {
  if (e.queued_timed_entries_ == 0) {
    return;
  }
  const auto refers_to_e = [&e](const TimedEntry& entry) {
    return entry.kind == TimedEntry::Kind::EventFire && entry.event == &e;
  };
  // Drops the entries of `entries` from `from` on that refer to `e`, in
  // place (no allocation). Superseded entries were counted stale in
  // `stale_count`; the live one was not.
  const auto drop = [&](std::vector<TimedEntry>& entries, std::size_t from,
                        std::size_t& stale_count) {
    const auto keep_end = std::remove_if(
        entries.begin() + static_cast<std::ptrdiff_t>(from), entries.end(),
        [&](const TimedEntry& entry) {
          if (!refers_to_e(entry)) {
            return false;
          }
          if (is_stale(entry) && stale_count > 0) {
            stale_count--;
          }
          e.queued_timed_entries_--;
          return true;
        });
    entries.erase(keep_end, entries.end());
  };
  if (GroupTask* task = active_task()) {
    if (task->free_running) {
      // The scanned prefix of the timed buffer shrinks by the entries
      // dropped from it; absorb_local_timed() would otherwise skip the
      // next unscanned request.
      task->timed_scan_pos -= static_cast<std::size_t>(std::count_if(
          task->timed.begin(),
          task->timed.begin() +
              static_cast<std::ptrdiff_t>(task->timed_scan_pos),
          refers_to_e));
      // Extracted (or absorbed) entries living in the extension's private
      // agenda also count as queued; drop the unexecuted ones now so the
      // wave loop never dereferences the destroyed event.
      drop(task->agenda, task->agenda_pos, task->stale_notes);
    }
    // Entries buffered this round live in the group's own timed buffer
    // (the event is group-private, so they cannot be in another group's).
    drop(task->timed, 0, task->stale_notes);
    if (e.queued_timed_entries_ == 0) {
      return;
    }
  }
  // Entries already merged into the global queue. Workers purging
  // concurrently serialize here; the main thread never touches the queue
  // while a round is in flight. (An entry made stale earlier this round
  // has its stale note still buffered, so the count can drift by the rare
  // destroy-during-round case -- compaction stays safe either way.)
  std::lock_guard<std::mutex> lock(timed_purge_mutex_);
  drop(timed_queue_, 0, timed_stale_count_);
  timed_reheap();
  e.queued_timed_entries_ = 0;
}

void Kernel::maybe_compact_timed_queue() {
  // Compact when stale entries outnumber live ones; the size floor keeps
  // small queues on the cheap lazy-deletion path. The stale entries are
  // filtered out of the heap storage in place and the heap rebuilt --
  // allocation-free in steady state (the vector keeps its capacity), where
  // the adapter-based rebuild used to allocate a fresh container every
  // compaction under cancel/supersede-heavy workloads.
  constexpr std::size_t kMinSizeForCompaction = 64;
  if (timed_queue_.size() < kMinSizeForCompaction ||
      timed_stale_count_ * 2 <= timed_queue_.size()) {
    return;
  }
  const auto live_end = std::remove_if(
      timed_queue_.begin(), timed_queue_.end(), [&](const TimedEntry& entry) {
        if (!is_stale(entry)) {
          return false;
        }
        if (entry.kind == TimedEntry::Kind::EventFire) {
          entry.event->queued_timed_entries_--;
        }
        return true;
      });
  timed_queue_.erase(live_end, timed_queue_.end());
  timed_reheap();
  timed_stale_count_ = 0;
  stats_.timed_queue_compactions++;
}

bool Kernel::is_stale(const TimedEntry& entry) const {
  switch (entry.kind) {
    case TimedEntry::Kind::EventFire:
      return entry.event->pending_ != Event::Pending::Timed ||
             entry.event->generation_ != entry.event_generation;
    case TimedEntry::Kind::ProcessResume:
      return entry.process->wake_generation_ != entry.process_generation ||
             entry.process->state_ == ProcessState::Terminated;
  }
  return true;
}

void Kernel::initialize_processes() {
  initialized_ = true;
  reserve_scheduler_arena();
  for (const auto& p : processes_) {
    if (!p->dont_initialize_) {
      make_runnable(p.get());
    }
  }
}

void Kernel::reserve_scheduler_arena() {
  // Pre-size the scheduler's event containers to the elaborated platform:
  // in steady state every process has at most one live timed entry and
  // one delta record, so capacity == process count means the hot loops
  // never reallocate mid-run. Runs once, sequentially, before the first
  // wave -- the booked byte count is deterministic.
  const std::size_t n = processes_.size();
  if (n == 0) {
    return;
  }
  const auto reserved_bytes = [this] {
    return static_cast<std::uint64_t>(timed_queue_.capacity()) *
               sizeof(TimedEntry) +
           static_cast<std::uint64_t>(
               cascade_.delta_notifications.capacity()) *
               sizeof(cascade_.delta_notifications[0]) +
           static_cast<std::uint64_t>(cascade_.delta_resume.capacity()) *
               sizeof(Process*);
  };
  const std::uint64_t before = reserved_bytes();
  timed_queue_.reserve(n);
  cascade_.delta_notifications.reserve(n);
  cascade_.delta_resume.reserve(n);
  const std::uint64_t after = reserved_bytes();
  stats_.arena_reserved_bytes += after - before;
}

// --------------------------------------------------------------------------
// The cascade: one evaluate loop, one delta step, one timed-entry firing
//
// run() drives the kernel's cascade through these, and a free-running
// group wave (run_group) drives its task's cascade through the very same
// functions; `task` tells them whose counters, channels and domains the
// step may touch.
// --------------------------------------------------------------------------

void Kernel::evaluate(Cascade& cascade) {
  while (!cascade.runnable.empty()) {
    Process* p = cascade.runnable.front();
    cascade.runnable.pop_front();
    p->in_runnable_ = false;
    p->domain_->runnable_count_--;
    if (p->state_ == ProcessState::Terminated) {
      continue;
    }
    dispatch(p);
    if (cascade.stop) {
      return;
    }
  }
}

bool Kernel::delta_step(Cascade& cascade, GroupTask* task) {
  // Update phase. Updates may request further updates (rare); process
  // until drained.
  while (!cascade.update_requests.empty()) {
    for (UpdateListener* listener :
         take_batch(cascade.update_requests, cascade.update_requests_spare)) {
      listener->update();
    }
  }
  // Chunked-channel flush, folded into every cascade iteration: a group's
  // flush-induced notifications enter the iteration right after its chunks
  // became pending -- a depth determined by the group's own delta chain, so
  // a free-running group's cascade lines up with the sequential schedule
  // index-for-index and the prepaid elementwise-max merge stays exact. It
  // also maintains the chunked-mode invariant: nothing unpublished survives
  // a drained cascade, so time never advances past a dirty chunk.
  if (chunk_flush_count_.load(std::memory_order_relaxed) != 0) {
    flush_chunked_channels(task);
  }
  // Delta-notification phase.
  if (cascade.delta_notifications.empty() && cascade.delta_resume.empty()) {
    return false;
  }
  // A free-running wave logs its iterations for the merge to pay; the
  // kernel loop pays its own unless an extension already prepaid them
  // (counting it again would break the bit-identity with the sequential
  // schedule).
  std::uint64_t wave_deltas = 0;
  if (task != nullptr) {
    wave_deltas = ++task->wave_log.back().second;
  } else {
    if (prepaid_skip_deltas_ > 0) {
      prepaid_skip_deltas_--;
    } else {
      stats_.delta_cycles++;
    }
    if (delta_limit_ != 0) {
      wave_deltas = ++deltas_at_current_date_;
    }
  }
  if (delta_limit_ != 0 && wave_deltas > delta_limit_) {
    const SyncDomain* lagging = lagging_domain();
    raise_delta_livelock(
        "delta-cycle limit (" + std::to_string(delta_limit_) +
        ") exceeded at date " +
        (task != nullptr ? task->local_now : now_).to_string() +
        (lagging != nullptr ? " (lagging domain: '" + lagging->name() + "')"
                            : std::string()) +
        "; livelocked model?");
  }
  for (Process* p :
       take_batch(cascade.delta_resume, cascade.delta_resume_spare)) {
    if (p->state_ != ProcessState::Terminated) {
      make_runnable(p);
    }
  }
  for (auto& [event, generation] : take_batch(
           cascade.delta_notifications, cascade.delta_notifications_spare)) {
    if (event->pending_ == Event::Pending::Delta &&
        event->generation_ == generation) {
      event->pending_ = Event::Pending::None;
      trigger_event(*event);
    }
  }
  check_domain_delta_limits(task, /*wave_start=*/false);
  return true;
}

void Kernel::fire_timed_entry(const TimedEntry& entry,
                              std::size_t& stale_count) {
  if (entry.kind == TimedEntry::Kind::EventFire) {
    entry.event->queued_timed_entries_--;
  }
  if (is_stale(entry)) {
    if (stale_count > 0) {
      stale_count--;
    }
    return;
  }
  if (entry.kind == TimedEntry::Kind::EventFire) {
    entry.event->pending_ = Event::Pending::None;
    trigger_event(*entry.event);
    return;
  }
  cancel_dynamic_wait(*entry.process);
  entry.process->woke_by_event_ = false;
  // The live entry is the one being consumed right now, so the generation
  // bump must not count it stale.
  entry.process->has_live_resume_entry_ = false;
  entry.process->wake_generation_++;
  make_runnable(entry.process);
}

void Kernel::check_domain_delta_limits(const GroupTask* task,
                                       bool wave_start) {
  if (!domain_delta_limits_enabled_) {
    return;  // keep the no-limit default free on the scheduler hot path
  }
  for (const auto& domain : domains_) {
    if (task != nullptr && find_group(domain->id()) != task->group) {
      continue;  // a foreign domain's counters belong to another worker
    }
    if (wave_start || domain->runnable_count_ == 0) {
      // Only *consecutive* delta activity counts toward the limit.
      domain->deltas_at_current_date_ = 0;
    }
    if (domain->runnable_count_ == 0) {
      continue;
    }
    domain->deltas_at_current_date_++;
    if (domain->delta_limit_ != 0 &&
        domain->deltas_at_current_date_ > domain->delta_limit_) {
      raise_delta_livelock(
          "domain '" + domain->name() + "' exceeded its delta-cycle limit (" +
          std::to_string(domain->delta_limit_) + ") at date " +
          (task != nullptr ? task->local_now : now_).to_string() +
          "; livelocked subsystem?");
    }
  }
}

// --------------------------------------------------------------------------
// Parallel evaluation (see README "Parallel execution")
//
// The evaluation phase partitions the runnable set by concurrency group
// (preserving kernel schedule order within each group) and dispatches every
// runnable group onto a worker. A group's processes run strictly in order
// under one worker, so each group's execution is exactly its slice of the
// sequential schedule; groups share no mutable state (that is what the
// grouping means), so the interleaving between workers cannot be observed.
// All side effects on kernel-global structures -- timed notifications,
// delta notifications, update requests, counters -- are buffered per group
// and merged in group order at the synchronization horizon, which makes
// dates, delta counts and per-cause sync counts bit-identical to the
// sequential scheduler by construction. Barrier rounds and lookahead
// extensions share the group body (run_group), the dispatch (run_tasks)
// and the merge (merge_group_tasks).
// --------------------------------------------------------------------------

Kernel::GroupTask& Kernel::task_for_group(std::size_t group_root) {
  if (GroupTask* existing = task_by_root_[group_root]) {
    return *existing;
  }
  if (tasks_in_use_ == tasks_.size()) {
    tasks_.emplace_back(new GroupTask);
  }
  GroupTask& task = *tasks_[tasks_in_use_++];
  task.kernel = this;
  task.group = group_root;
  task.exec.kernel = this;
  task.exec.stats = &task.stat_delta;
  task.exec.cascade = &task.cascade;
  task.stat_delta.domains.resize(stats_.domains.size());
  task_by_root_[group_root] = &task;
  phase_tasks_.push_back(&task);
  return task;
}

void Kernel::partition_runnable() {
  while (!cascade_.runnable.empty()) {
    Process* p = cascade_.runnable.front();
    cascade_.runnable.pop_front();
    task_for_group(find_group(p->domain_->id())).cascade.runnable.push_back(p);
  }
}

void Kernel::sort_phase_tasks() {
  std::sort(phase_tasks_.begin(), phase_tasks_.end(),
            [](const GroupTask* a, const GroupTask* b) {
              return a->group < b->group;
            });
}

void Kernel::run_group(GroupTask& task) {
  // Workers arrive with clean thread-locals; a driving thread running a
  // task inline or stealing one temporarily trades its scheduler context
  // for the group's.
  Kernel* previous_kernel = std::exchange(g_current_kernel, this);
  ExecContext* previous_exec = std::exchange(t_exec_, &task.exec);
  GroupTask* previous_task = std::exchange(t_task_, &task);
  task.exec.tsan_fiber = fiber::tsan_current_fiber();
  Cascade& cascade = task.cascade;
  try {
    evaluate(cascade);
    std::size_t waves = 0;
    while (task.free_running && !cascade.stop &&
           task.agenda_pos < task.agenda.size() &&
           waves < lookahead_max_waves_) {
      const Time date = task.agenda[task.agenda_pos].when;
      task.local_now = date;
      task.wave_log.emplace_back(date.ps(), 0);
      waves++;
      task.stat_delta.lookahead_advances++;
      // The stale bookkeeping goes to the task's buffered notes: that is
      // where in-extension cancels and supersedes booked theirs.
      while (task.agenda_pos < task.agenda.size() &&
             task.agenda[task.agenda_pos].when == date) {
        fire_timed_entry(task.agenda[task.agenda_pos++], task.stale_notes);
      }
      check_domain_delta_limits(&task, /*wave_start=*/true);
      do {
        evaluate(cascade);
      } while (!cascade.stop && delta_step(cascade, &task));
      if (!cascade.stop) {
        absorb_local_timed(task);
      }
    }
  } catch (...) {
    task.exception = std::current_exception();
  }
  t_task_ = previous_task;
  t_exec_ = previous_exec;
  g_current_kernel = previous_kernel;
}

std::exception_ptr Kernel::run_tasks(const std::vector<GroupTask*>& tasks) {
  if (tasks.size() == 1) {
    run_group(*tasks.front());
  } else {
    // Every task goes onto the shared scheduler; instead of parking at the
    // barrier, the driving thread steals this kernel's queued tasks and
    // runs them until the phase drains.
    stats_.horizon_waits += tasks.size() - 1;
    Scheduler& scheduler = Scheduler::instance();
    for (GroupTask* task : tasks) {
      scheduler.submit(
          scheduler_client_,
          [](void* t) {
            GroupTask& group_task = *static_cast<GroupTask*>(t);
            group_task.kernel->run_group(group_task);
          },
          task);
    }
    stats_.steals += scheduler.help_until_done(scheduler_client_);
  }
  // Horizon: surface errors and stops in group order.
  std::exception_ptr first_exception;
  for (GroupTask* task : tasks) {
    if (task->exception != nullptr && first_exception == nullptr) {
      first_exception = task->exception;
      failing_process_ = std::move(task->failed_process);
      failing_domain_ = std::move(task->failed_domain);
      if (task->free_running) {
        failing_at_ = task->local_now;
      }
    }
    task->exception = nullptr;
    task->failed_process.clear();
    task->failed_domain.clear();
    if (task->cascade.stop) {
      cascade_.stop = true;
    }
  }
  return first_exception;
}

void Kernel::merge_group_tasks(std::exception_ptr first_exception) {
  sort_phase_tasks();
  for (GroupTask* task : phase_tasks_) {
    Cascade& from = task->cascade;
    // Leftover runnables (stop or error mid-round) return to the kernel
    // queue so a later run() resumes them, like the sequential scheduler.
    drain_into(cascade_.runnable, from.runnable);
    for (Process* p : task->cross_wakes) {
      enqueue_runnable(p, cascade_);
    }
    task->cross_wakes.clear();
    drain_into(cascade_.delta_resume, from.delta_resume);
    drain_into(cascade_.delta_notifications, from.delta_notifications);
    drain_into(cascade_.update_requests, from.update_requests);
    from.stop = false;
    for (TimedEntry entry : task->timed) {
      entry.seq = next_timed_seq_++;
      timed_push(entry);
    }
    task->timed.clear();
    task->timed_scan_pos = 0;
    timed_stale_count_ += task->stale_notes;
    task->stale_notes = 0;
    accumulate(stats_, task->stat_delta);
    clear_stat_delta(task->stat_delta);
  }
  maybe_compact_timed_queue();
  publish_domain_fronts();
  if (first_exception != nullptr) {
    std::rethrow_exception(first_exception);
  }
}

void Kernel::run_parallel_evaluation_phase() {
  phase_tasks_.clear();
  tasks_in_use_ = 0;
  task_by_root_.assign(domains_.size(), nullptr);
  partition_runnable();
  std::exception_ptr first_exception;
  for (;;) {
    sort_phase_tasks();
    round_tasks_.clear();
    for (GroupTask* task : phase_tasks_) {
      if (!task->cascade.runnable.empty()) {
        round_tasks_.push_back(task);
      }
    }
    if (round_tasks_.empty()) {
      break;
    }
    stats_.parallel_rounds++;
    const std::uint64_t groups_before = group_version_;
    first_exception = run_tasks(round_tasks_);
    // Route cross-group wakes through the kernel's queue into their groups'
    // queues, in group order, so the next round's queues are deterministic
    // (the target groups' workers are quiescent now). enqueue_runnable
    // never records a cross wake, so each list is walked in place and
    // keeps its capacity.
    for (GroupTask* task : round_tasks_) {
      for (Process* p : task->cross_wakes) {
        enqueue_runnable(p, cascade_);
      }
      task->cross_wakes.clear();
    }
    partition_runnable();
    if (first_exception != nullptr || cascade_.stop) {
      break;
    }
    if (group_version_ != groups_before) {
      // The channel layer merged groups mid-round (first cross-domain
      // traffic on some channel). Re-partition the remaining work under
      // the new grouping, in group order, before running another round.
      sort_phase_tasks();
      for (GroupTask* task : phase_tasks_) {
        drain_into(cascade_.runnable, task->cascade.runnable);
      }
      partition_runnable();
    }
  }
  merge_group_tasks(first_exception);
}

// --------------------------------------------------------------------------
// Conservative per-group lookahead (see README "Parallel execution")
//
// The parallel evaluation phase above still rendezvouses every group at
// every timed wave. When the model declares *weighted* inter-group edges
// (link_domains(a, b, min_latency): nothing one side does can affect the
// other sooner than min_latency of simulated time), the kernel can do
// better: per group g it derives the Chandy-Misra-Bryant bound
//
//   E(g) = min(N(g), min over inbound edges (h, lat) of E(h) + lat)
//
// where N(g) is g's earliest live timed entry, and lets each group whose
// entries all fall strictly below its inbound bound execute whole timed
// waves -- dispatch, update, delta cascades, and locally-born follow-up
// waves -- privately on its worker, without a barrier per wave. Everything
// the barrier scheduler buffers per round is still buffered per task, and
// the merge reconstructs the wave/delta accounting (the prepaid ledger in
// run()), so parallel runs stay bit-identical to the sequential schedule.
// Zero-latency links never produce decoupled records (link_domains merges
// instead), so zero-lookahead cycles degrade to the barrier path.
// --------------------------------------------------------------------------

Time Kernel::resolve_now() const {
  GroupTask* task = active_task();
  if (task != nullptr && task->free_running) {
    return task->local_now;
  }
  return now_;
}

std::optional<std::size_t> Kernel::sole_waiter_group(const Event& e) const {
  std::optional<std::size_t> group;
  for (const Process* m : e.static_waiters_) {
    const std::size_t g = find_group(m->domain_->id());
    if (group.has_value() && *group != g) {
      return std::nullopt;
    }
    group = g;
  }
  for (const Process* p : e.dynamic_waiters_) {
    const std::size_t g = find_group(p->domain_->id());
    if (group.has_value() && *group != g) {
      return std::nullopt;
    }
    group = g;
  }
  return group;  // nullopt when the event has no waiters at all
}

void Kernel::compute_lookahead_state(LookaheadScratch& s) const {
  const std::size_t n = domains_.size();
  s.earliest.assign(n, kNoDatePs);
  s.clamp.assign(n, kNoDatePs);
  // Entries no single group owns (events with no or cross-group waiters)
  // choke every window: any group could observe their firing.
  std::uint64_t choke = kNoDatePs;
  for (const TimedEntry& entry : timed_queue_) {
    if (is_stale(entry)) {
      continue;
    }
    const std::uint64_t when = entry.when.ps();
    if (entry.kind == TimedEntry::Kind::ProcessResume) {
      const std::size_t g = find_group(entry.process->domain_->id());
      s.earliest[g] = std::min(s.earliest[g], when);
      continue;
    }
    const std::optional<std::size_t> owner = sole_waiter_group(*entry.event);
    if (!owner.has_value()) {
      choke = std::min(choke, when);
      continue;
    }
    s.earliest[*owner] = std::min(s.earliest[*owner], when);
    if (entry.event->cross_group_notified()) {
      // Declared relay: fired only at global waves (the notifier may be
      // mid-flight); until then it bounds the waiter group's free-run.
      s.clamp[*owner] = std::min(s.clamp[*owner], when);
    }
  }
  // The weighted inter-group edges, both directions per record.
  s.edges.clear();
  {
    std::lock_guard<std::mutex> lock(group_mutex_);
    for (const DomainLinkRecord& link : domain_links_) {
      if (!link.decoupled) {
        continue;
      }
      const std::size_t ra = find_group(link.a);
      const std::size_t rb = find_group(link.b);
      if (ra == rb) {
        continue;  // merged since the declaration; the edge is moot
      }
      const std::uint64_t latency = link.min_latency.ps();
      s.edges.push_back({ra, rb, latency});
      s.edges.push_back({rb, ra, latency});
    }
  }
  // The CMB fixed point. All latencies are positive (zero-latency
  // declarations merge instead), so this is shortest-path relaxation with
  // positive weights: at most n full rounds.
  s.reach = s.earliest;
  for (std::size_t iter = 0; iter < n; ++iter) {
    bool changed = false;
    for (const LookaheadScratch::Edge& edge : s.edges) {
      const std::uint64_t via = sat_add_ps(s.reach[edge.from], edge.latency);
      if (via < s.reach[edge.to]) {
        s.reach[edge.to] = via;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }
  s.window.assign(n, kNoDatePs);
  for (const LookaheadScratch::Edge& edge : s.edges) {
    s.window[edge.to] = std::min(s.window[edge.to],
                                 sat_add_ps(s.reach[edge.from], edge.latency));
  }
  for (std::size_t g = 0; g < n; ++g) {
    s.window[g] = std::min(s.window[g], std::min(s.clamp[g], choke));
  }
}

std::optional<Time> Kernel::lookahead_bound(const SyncDomain& domain) const {
  LookaheadScratch s;
  compute_lookahead_state(s);
  const std::uint64_t bound = s.window[find_group(domain.id())];
  if (bound == kNoDatePs) {
    return std::nullopt;
  }
  return Time::from_ps(bound);
}

bool Kernel::run_lookahead_extension(Time until) {
  if (lookahead_max_waves_ == 0 || !parallel_enabled()) {
    return false;
  }
  if (quantum_controller_ && quantum_controller_->any_active()) {
    // The controller's cost signal reads every domain's execution front at
    // the horizon; a free-running group would feed it fronts the
    // sequential schedule never produces. Adaptive kernels keep the
    // barrier.
    return false;
  }
  if (timed_queue_.size() < 2) {
    return false;
  }
  const std::size_t n = domains_.size();
  LookaheadScratch& s = lookahead_scratch_;
  compute_lookahead_state(s);
  // Exclusive per-group date cap for this extension: the lookahead window
  // clipped to the run limit (entries at `until` itself may still run --
  // hence the +1 -- matching the global loop, which advances to `until`).
  const std::uint64_t until_cap = sat_add_ps(until.ps(), 1);
  s.cap.assign(n, 0);
  std::size_t eligible = 0;
  for (std::size_t g = 0; g < n; ++g) {
    if (s.earliest[g] == kNoDatePs) {
      continue;
    }
    s.cap[g] = std::min(s.window[g], until_cap);
    if (s.earliest[g] < s.cap[g]) {
      eligible++;
    }
  }
  if (eligible < 2) {
    return false;  // nothing to overlap; the barrier wave is just as good
  }
  // Extract every eligible group's executable entries into its private
  // agenda: in-place filter over the heap storage plus one re-heapify,
  // like the compaction paths.
  phase_tasks_.clear();
  tasks_in_use_ = 0;
  task_by_root_.assign(n, nullptr);
  const auto live_end = std::remove_if(
      timed_queue_.begin(), timed_queue_.end(), [&](const TimedEntry& entry) {
        if (is_stale(entry)) {
          return false;  // leave stale entries to the global loop's pops
        }
        std::size_t g;
        if (entry.kind == TimedEntry::Kind::ProcessResume) {
          g = find_group(entry.process->domain_->id());
        } else {
          if (entry.event->cross_group_notified()) {
            return false;  // relays fire at global waves only
          }
          const std::optional<std::size_t> owner =
              sole_waiter_group(*entry.event);
          if (!owner.has_value()) {
            return false;
          }
          g = *owner;
        }
        if (s.earliest[g] == kNoDatePs || s.earliest[g] >= s.cap[g] ||
            entry.when.ps() >= s.cap[g]) {
          return false;
        }
        task_for_group(g).agenda.push_back(entry);
        return true;
      });
  timed_queue_.erase(live_end, timed_queue_.end());
  timed_reheap();
  sort_phase_tasks();
  for (GroupTask* task : phase_tasks_) {
    std::sort(task->agenda.begin(), task->agenda.end());
    task->agenda_pos = 0;
    task->free_running = true;
    task->local_now = now_;
    task->window_cap = Time::from_ps(s.cap[task->group]);
    task->local_seq = 0;
  }
  stats_.parallel_rounds++;
  free_run_live_ = true;
  std::exception_ptr first_exception = run_tasks(phase_tasks_);
  free_run_live_ = false;
  for (GroupTask* task : phase_tasks_) {
    book_prepaid_waves(*task);
    // Unexecuted agenda entries (wave cap, stop, error): extracted entries
    // return to the global queue with their original sequence numbers;
    // locally-born ones go back into the timed buffer at the absorb scan
    // point, in birth order -- everything after that point was born later
    // -- and are sequenced by the merge.
    leftover_local_.clear();
    for (std::size_t i = task->agenda_pos; i < task->agenda.size(); ++i) {
      const TimedEntry& entry = task->agenda[i];
      if (entry.seq >= kLocalSeqBase) {
        leftover_local_.push_back(entry);
      } else {
        timed_push(entry);
      }
    }
    std::sort(leftover_local_.begin(), leftover_local_.end(),
              [](const TimedEntry& a, const TimedEntry& b) {
                return a.seq < b.seq;
              });
    task->timed.insert(task->timed.begin() +
                           static_cast<std::ptrdiff_t>(task->timed_scan_pos),
                       leftover_local_.begin(), leftover_local_.end());
    task->agenda.clear();
    task->agenda_pos = 0;
    task->free_running = false;
  }
  merge_group_tasks(first_exception);
  return true;
}

void Kernel::book_prepaid_waves(GroupTask& task) {
  // Pay the merged schedule's wave and delta increments for the dates this
  // group ran through. The ledger holds the waves the global loop has not
  // reached, so a date's first row is the next wave at that date; the
  // group's same-date waves line up with its rows by index, and per index
  // the merged delta count is the elementwise max across groups -- a
  // shared delta iteration runs every group's chain at once.
  prepaid_.erase(prepaid_.begin(),
                 prepaid_.begin() + static_cast<std::ptrdiff_t>(prepaid_head_));
  prepaid_head_ = 0;
  // The wave log is in date order, so same-date waves are adjacent: a
  // running row index replaces a per-date lookup.
  std::size_t row = 0;
  std::uint64_t row_date = kNoDatePs;
  for (const auto& [date_ps, deltas] : task.wave_log) {
    if (date_ps != row_date) {
      row_date = date_ps;
      row = static_cast<std::size_t>(
          std::lower_bound(prepaid_.begin() + static_cast<std::ptrdiff_t>(row),
                           prepaid_.end(), date_ps,
                           [](const PrepaidWave& w, std::uint64_t date) {
                             return w.date_ps < date;
                           }) -
          prepaid_.begin());
    }
    if (row < prepaid_.size() && prepaid_[row].date_ps == date_ps) {
      if (deltas > prepaid_[row].deltas) {
        stats_.delta_cycles += deltas - prepaid_[row].deltas;
        prepaid_[row].deltas = deltas;
      }
    } else {
      prepaid_.insert(prepaid_.begin() + static_cast<std::ptrdiff_t>(row),
                      PrepaidWave{date_ps, deltas});
      stats_.timed_waves++;
      stats_.delta_cycles += 1 + deltas;
    }
    row++;
  }
  if (!task.wave_log.empty() &&
      task.wave_log.back().first > free_run_end_.ps()) {
    // Furthest date any extension has executed: when the queue later
    // drains, the final now_ must land here, like the sequential
    // schedule's last wave.
    free_run_end_ = Time::from_ps(task.wave_log.back().first);
  }
  task.wave_log.clear();
}

void Kernel::absorb_local_timed(GroupTask& task) {
  // Timed requests born during the extension that fall inside this group's
  // window join the agenda (with synthetic sequence numbers, so they sort
  // after every extracted entry of their date); everything else stays
  // buffered for the horizon flush. The already-scanned prefix is never
  // revisited.
  auto& reqs = task.timed;
  const std::uint64_t cap = task.window_cap.ps();
  std::size_t write = task.timed_scan_pos;
  for (std::size_t read = task.timed_scan_pos; read < reqs.size(); ++read) {
    TimedEntry& entry = reqs[read];
    bool local = false;
    if (entry.when.ps() < cap) {
      if (entry.kind == TimedEntry::Kind::ProcessResume) {
        local = find_group(entry.process->domain_->id()) == task.group;
      } else if (!entry.event->cross_group_notified()) {
        const std::optional<std::size_t> owner =
            sole_waiter_group(*entry.event);
        // A notification this group issued on an event nobody is waiting
        // for (yet) is the group's own to fire: sequentially it would fire
        // at its date and clear the pending state, letting later notifies
        // reschedule. Leaving it buffered would swallow those reschedules
        // ("earlier notification already pending") for the whole window.
        local = owner.has_value() ? *owner == task.group
                                  : entry.event->static_waiters_.empty() &&
                                        entry.event->dynamic_waiters_.empty();
      }
    }
    if (!local) {
      if (write != read) {
        reqs[write] = entry;
      }
      write++;
      continue;
    }
    entry.seq = kLocalSeqBase + task.local_seq++;
    task.agenda.insert(
        std::upper_bound(task.agenda.begin() +
                             static_cast<std::ptrdiff_t>(task.agenda_pos),
                         task.agenda.end(), entry),
        entry);
  }
  reqs.resize(write);
  task.timed_scan_pos = write;
}

// --------------------------------------------------------------------------
// The scheduler main loop
// --------------------------------------------------------------------------

void Kernel::run(Time until) {
  run(RunOptions{.until = until});
}

void Kernel::run(const RunOptions& options) {
  const Time until = options.until;
  if (current_process() != nullptr || active_task() != nullptr) {
    Report::error("Kernel::run() called from inside a simulation process");
  }
  if (health_ == Health::Failed) {
    Report::error("Kernel::run(): kernel is Failed (" +
                  std::string(to_string(failure_report_.kind)) + ": " +
                  failure_report_.message +
                  "); Failed is terminal -- fork a fresh kernel");
  }
  if (!build_log_.empty() && !in_build_ && !replaying_) {
    // A snapshot-capable kernel's warm-up is part of its construction
    // log: fork() replays these run() calls in order (see
    // kernel/snapshot.h).
    build_log_.push_back([options](Kernel& k) { k.run(options); });
  }
  Kernel* previous = std::exchange(g_current_kernel, this);
  ExecContext* previous_exec = std::exchange(t_exec_, &main_exec_);
  main_exec_.tsan_fiber = fiber::tsan_current_fiber();
  cascade_.stop = false;
  prepaid_skip_deltas_ = 0;
  health_ = Health::Running;
  failing_process_.clear();
  failing_domain_.clear();
  failing_at_.reset();
  arm_watchdog(options.wall_limit_ms);
  bool force_sequential_phase = false;
  if (!initialized_) {
    initialize_processes();
    // The initialization wave always runs sequentially, even in parallel
    // mode: it is where channels first see their callers' domains and
    // record the links the concurrency grouping is derived from.
    force_sequential_phase = true;
  } else if (graft_init_pending_) {
    // Same rule for processes grafted between runs (e.g. a fork's diverge
    // step): their first dispatch is their initialization wave.
    force_sequential_phase = true;
  }
  graft_init_pending_ = false;
  if (parallel_enabled()) {
    publish_domain_fronts();
  }
  try {
    while (!cascade_.stop) {
      // Wall-clock watchdog, checked once per scheduler iteration -- a
      // synchronization horizon (delta or timed-wave boundary), where
      // every group is quiescent. One branch while disarmed.
      check_watchdog();
      // Evaluation phase.
      if (parallel_enabled() && !force_sequential_phase) {
        run_parallel_evaluation_phase();
      } else {
        evaluate(cascade_);
      }
      force_sequential_phase = false;
      if (cascade_.stop) {
        break;
      }
      // Update, chunk flush and delta-notification phases.
      if (delta_step(cascade_, nullptr)) {
        continue;
      }
      // Quantum-control horizon: every group is quiescent and the books
      // are merged, so adaptive decisions here read the same deterministic
      // inputs under any worker count (see kernel/quantum_controller.h).
      if (quantum_controller_ && quantum_controller_->any_active()) {
        quantum_controller_->on_horizon(stats_, now_);
      }
      // Timed-notification phase. Drop stale entries (cancelled or
      // superseded notifications) first so they never advance time.
      while (!timed_queue_.empty() && is_stale(timed_queue_.front())) {
        const TimedEntry entry = timed_queue_.front();
        timed_pop();
        fire_timed_entry(entry, timed_stale_count_);
      }
      if (timed_queue_.empty()) {
        if (free_run_end_ > now_) {
          now_ = free_run_end_;  // the last wave ran inside an extension
        }
        break;
      }
      const Time next = timed_queue_.front().when;
      if (next > until) {
        now_ = until;
        break;
      }
      // Conservative lookahead: groups whose bound clears the next horizon
      // free-run to it in parallel; on progress, re-enter the loop without
      // advancing the global date (extensions may leave cross wakes or
      // re-inserted entries behind).
      if (run_lookahead_extension(until)) {
        continue;
      }
      now_ = next;
      deltas_at_current_date_ = 0;
      // Consume the prepaid ledger: if an extension already executed (and
      // paid for) this date's next wave, skip the increments it covered.
      while (prepaid_head_ < prepaid_.size() &&
             prepaid_[prepaid_head_].date_ps < next.ps()) {
        prepaid_head_++;  // dates the global loop never reached
      }
      if (prepaid_head_ < prepaid_.size() &&
          prepaid_[prepaid_head_].date_ps == next.ps()) {
        prepaid_skip_deltas_ = prepaid_[prepaid_head_++].deltas;
      } else {
        prepaid_skip_deltas_ = 0;
        stats_.timed_waves++;
        stats_.delta_cycles++;
      }
      while (!timed_queue_.empty() && timed_queue_.front().when == now_) {
        const TimedEntry entry = timed_queue_.front();
        timed_pop();
        fire_timed_entry(entry, timed_stale_count_);
      }
      check_domain_delta_limits(nullptr, /*wave_start=*/true);
    }
  } catch (...) {
    stats_.fold_domain_sync_aggregates();
    // Running -> Failed: assemble the post-mortem, terminate live fibers,
    // release this kernel's slots on the shared Scheduler. The buffered
    // GroupTask side effects were already merged -- the horizon merge
    // flushes every task before rethrowing the first exception -- so the
    // kernel is inert and leak-free to destroy, and sibling kernels on
    // the scheduler are unaffected.
    enter_failed_state(std::current_exception());
    t_exec_ = previous_exec;
    g_current_kernel = previous;
    throw;
  }
  watchdog_armed_ = false;
  health_ = Health::Idle;
  // Leave with the aggregate cache current, so post-run stats() reads are
  // pure (see stats()).
  stats_.fold_domain_sync_aggregates();
  t_exec_ = previous_exec;
  g_current_kernel = previous;
}

void Kernel::stop() {
  // From a group task the stop is scoped to the group until the horizon:
  // its queue breaks immediately (sequential semantics); other groups
  // finish their round deterministically before the kernel-wide stop is
  // observed.
  active_cascade().stop = true;
}

void Kernel::dispatch(Process* p) {
  p->activation_count_++;
  // Chaos harness: armed faults trigger on (process, activation) -- a
  // deterministic point of the schedule. One relaxed load on fault-free
  // kernels.
  if (faults_pending_.load(std::memory_order_relaxed) != 0) {
    apply_faults(*p);
  }
  if (p->kind() == ProcessKind::Thread) {
    dispatch_thread(p);
  } else {
    dispatch_method(p);
  }
}

void Kernel::dispatch_thread(Process* p) {
  active_stats().context_switches++;
  ExecContext& exec = *t_exec_;
  if (!p->thread_started_) {
    p->start_thread_context();
  }
  p->state_ = ProcessState::Running;
  Process* previous = std::exchange(exec.current_process, p);
  fiber::start_switch(&exec.scheduler_fake_stack, p->stack_bottom(),
                      p->stack_usable_size(), p->tsan_fiber_);
  tdsim_fiber_switch(&exec.scheduler_context, p->context_);
  fiber::finish_switch(exec.scheduler_fake_stack, nullptr, nullptr);
  exec.current_process = previous;
  if (p->state_ == ProcessState::Terminated) {
    // Eager stack reclamation: a platform that churns processes (kill /
    // respawn generations, snapshot-fork fan-out) would otherwise hold
    // every dead fiber's stack until kernel destruction. The fiber just
    // made its final switch off this stack (and ASan freed its fake
    // stack via the trampoline's null save), so the block can go back to
    // the pool now.
    p->release_stack(/*abandoned=*/false);
  }
  if (p->pending_exception_) {
    std::exception_ptr ex = std::exchange(p->pending_exception_, nullptr);
    note_failing_process(*p);
    std::rethrow_exception(ex);
  }
}

void Kernel::dispatch_method(Process* p) {
  active_stats().method_activations++;
  // The next_trigger override is consumed by this activation: unless the
  // body re-arms one, the method falls back to its static sensitivity
  // (SystemC semantics). The event-trigger path already cleared it; the
  // timed-resume path relies on this reset.
  p->trigger_override_ = false;
  // A method activation starts synchronized: its local date is the global
  // date at which it was triggered. inc() may then advance it within the
  // activation (used by packetizing network interfaces, paper SIV.C).
  p->clock_.set_offset(Time{});
  p->state_ = ProcessState::Running;
  ExecContext& exec = *t_exec_;
  Process* previous = std::exchange(exec.current_process, p);
  try {
    p->body_();
  } catch (...) {
    exec.current_process = previous;
    p->state_ = ProcessState::Terminated;
    note_failing_process(*p);
    throw;
  }
  exec.current_process = previous;
  if (p->state_ == ProcessState::Running) {
    // A method is perpetually waiting on its (static or overridden)
    // sensitivity between activations.
    p->state_ = ProcessState::Waiting;
  }
}

void Kernel::yield_current_thread() {
  // This function runs on the fiber's stack and spans a suspension, so
  // both thread-local reads go through the noinline accessor (see
  // thread_exec() in kernel.h).
  ExecContext& from = *thread_exec();
  Process* p = from.current_process;
  fiber::start_switch(&p->fake_stack_, from.scheduler_stack_bottom,
                      from.scheduler_stack_size, from.tsan_fiber);
  tdsim_fiber_switch(&p->context_, from.scheduler_context);
  // Resumed -- in parallel mode possibly under a different worker's
  // execution context; re-read the thread-local before refreshing the
  // scheduler-stack bookkeeping.
  ExecContext& to = *thread_exec();
  fiber::finish_switch(p->fake_stack_, &to.scheduler_stack_bottom,
                       &to.scheduler_stack_size);
  // If the kernel is tearing down, unwind this stack now.
  if (p->kill_requested_) {
    throw ProcessKilled{};
  }
}

Process* Kernel::require_thread(const char* what) const {
  Process* p = current_process();
  if (p == nullptr || p->kind() != ProcessKind::Thread) {
    Report::error(std::string(what) +
                  " may only be called from a thread process");
  }
  return p;
}

Process* Kernel::require_method(const char* what) const {
  Process* p = current_process();
  if (p == nullptr || p->kind() != ProcessKind::Method) {
    Report::error(std::string(what) +
                  " may only be called from a method process");
  }
  return p;
}

// --------------------------------------------------------------------------
// Process-facing API
// --------------------------------------------------------------------------

void Kernel::wait(Time duration) {
  Process* p = require_thread("wait(duration)");
  wait_for(*p, duration);
}

void Kernel::wait_for(Process& p, Time duration) {
  // now() not now_: inside a free-running lookahead extension the resume
  // date is relative to the group's local date.
  schedule_process_resume(p, now() + duration);
  p.state_ = ProcessState::Waiting;
  yield_current_thread();
}

void Kernel::wait(Event& event) {
  Process* p = require_thread("wait(event)");
  event.dynamic_waiters_.push_back(p);
  p->waiting_event_ = &event;
  p->state_ = ProcessState::Waiting;
  yield_current_thread();
}

bool Kernel::wait(Event& event, Time timeout) {
  Process* p = require_thread("wait(event, timeout)");
  event.dynamic_waiters_.push_back(p);
  p->waiting_event_ = &event;
  schedule_process_resume(*p, now() + timeout);
  p->state_ = ProcessState::Waiting;
  yield_current_thread();
  return p->woke_by_event_;
}

void Kernel::wait_delta() {
  Process* p = require_thread("wait_delta()");
  active_cascade().delta_resume.push_back(p);
  bump_wake_generation(*p);  // invalidate any stale timers
  p->state_ = ProcessState::Waiting;
  yield_current_thread();
}

void Kernel::next_trigger(Event& event) {
  Process* p = require_method("next_trigger(event)");
  cancel_dynamic_wait(*p);     // last call wins
  bump_wake_generation(*p);    // cancel a pending next_trigger(delay)
  event.dynamic_waiters_.push_back(p);
  p->waiting_event_ = &event;
  p->trigger_override_ = true;
}

void Kernel::next_trigger(Time delay) {
  Process* p = require_method("next_trigger(delay)");
  cancel_dynamic_wait(*p);
  bump_wake_generation(*p);
  schedule_process_resume(*p, now() + delay);
  p->trigger_override_ = true;
}

void Kernel::cancel_dynamic_wait(Process& p) {
  if (p.waiting_event_ != nullptr) {
    auto& waiters = p.waiting_event_->dynamic_waiters_;
    waiters.erase(std::remove(waiters.begin(), waiters.end(), &p),
                  waiters.end());
    p.waiting_event_ = nullptr;
  }
}

void Kernel::request_update(UpdateListener* listener) {
  active_cascade().update_requests.push_back(listener);
}

void Kernel::kill_all_threads() {
  // Resume every suspended thread so ProcessKilled unwinds its stack and
  // destructors of stack objects run.
  ExecContext* previous_exec = std::exchange(t_exec_, &main_exec_);
  main_exec_.tsan_fiber = fiber::tsan_current_fiber();
  for (const auto& p : processes_) {
    if (p->kind() == ProcessKind::Thread && p->thread_started_ &&
        p->state_ != ProcessState::Terminated) {
      p->kill_requested_ = true;
      Process* previous = std::exchange(main_exec_.current_process, p.get());
      fiber::start_switch(&main_exec_.scheduler_fake_stack, p->stack_bottom(),
                          p->stack_usable_size(), p->tsan_fiber_);
      tdsim_fiber_switch(&main_exec_.scheduler_context, p->context_);
      fiber::finish_switch(main_exec_.scheduler_fake_stack, nullptr, nullptr);
      main_exec_.current_process = previous;
      if (p->state_ != ProcessState::Terminated) {
        Report::warning("process " + p->name() +
                        " survived kill request; abandoning its stack");
      } else {
        p->release_stack(/*abandoned=*/false);
      }
      p->pending_exception_ = nullptr;
    }
  }
  t_exec_ = previous_exec;
}

// --------------------------------------------------------------------------
// Failure semantics, watchdog, chaos harness (see kernel/failure.h)
// --------------------------------------------------------------------------

void Kernel::note_failing_process(Process& p) {
  // First attribution wins: the exception the horizon surfaces is the
  // first one raised in group order, and so is the first note.
  if (GroupTask* task = active_task()) {
    if (task->failed_process.empty()) {
      task->failed_process = p.name();
      task->failed_domain = p.domain().name();
    }
    return;
  }
  if (failing_process_.empty()) {
    failing_process_ = p.name();
    failing_domain_ = p.domain().name();
  }
}

void Kernel::enter_failed_state(std::exception_ptr cause) {
  health_ = Health::Failed;
  stats_.failures++;
  FailureReport& report = failure_report_;
  report = FailureReport{};
  // Classify by exception type; the typed raises (raise_delta_livelock,
  // check_watchdog, apply_faults) already notified the report sink.
  try {
    std::rethrow_exception(cause);
  } catch (const DeltaLivelockError& e) {
    report.kind = FailureKind::DeltaLivelock;
    report.message = e.what();
  } catch (const WatchdogError& e) {
    report.kind = FailureKind::Watchdog;
    report.message = e.what();
  } catch (const InjectedFault& e) {
    report.kind = FailureKind::Injected;
    report.message = e.what();
  } catch (const std::exception& e) {
    report.kind = FailureKind::ModelError;
    report.message = e.what();
  } catch (...) {
    report.kind = FailureKind::Unknown;
    report.message = "non-std::exception payload escaped run()";
  }
  report.process = std::move(failing_process_);
  report.domain = std::move(failing_domain_);
  failing_process_.clear();
  failing_domain_.clear();
  report.at = failing_at_.value_or(now_);
  failing_at_.reset();
  report.delta_cycles = stats_.delta_cycles;
  report.timed_waves = stats_.timed_waves;
  for (const auto& domain : domains_) {
    DomainFront front;
    front.domain = domain->name();
    front.front = domain->execution_front().value_or(Time::max());
    front.syncs = stats_.domains[domain->id()].syncs_performed();
    report.fronts.push_back(std::move(front));
    if (const QuantumDecision* decision = last_quantum_decision(*domain)) {
      report.last_decisions.push_back(*decision);
    }
  }
  if (report.kind == FailureKind::Watchdog ||
      report.kind == FailureKind::DeltaLivelock) {
    if (SyncDomain* lagging = lagging_domain()) {
      if (report.domain.empty()) {
        report.domain = lagging->name();
      }
      report.has_lookahead_bound = true;
      report.lookahead_bound = lookahead_bound(*lagging).value_or(Time::max());
    }
  }
  // Terminate live fibers now (ProcessKilled unwind, destructors run), so
  // a Failed kernel holds no suspended stacks regardless of when it is
  // destroyed.
  kill_all_threads();
  // Release this kernel's worker slots on the process-wide Scheduler --
  // a Failed kernel never runs again, and the quota belongs to the
  // surviving siblings. The client stays registered until destruction.
  if (workers_ > 1) {
    Scheduler::instance().set_client_quota(scheduler_client_, 0);
  }
  workers_ = 0;
  watchdog_armed_ = false;
}

void Kernel::arm_watchdog(const std::optional<std::uint64_t>& override_ms) {
  const std::uint64_t limit =
      override_ms.has_value() ? *override_ms : config_.wall_limit_ms.value_or(0);
  watchdog_limit_ms_ = limit;
  watchdog_armed_ = limit != 0;
  if (watchdog_armed_) {
    watchdog_deadline_ = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(limit);
  }
}

void Kernel::check_watchdog() {
  if (!watchdog_armed_) {
    return;
  }
  if (std::chrono::steady_clock::now() < watchdog_deadline_) {
    return;
  }
  stats_.watchdog_trips++;
  std::string message = "watchdog: wall limit (" +
                        std::to_string(watchdog_limit_ms_) +
                        " ms) exceeded at date " + now_.to_string();
  if (const SyncDomain* lagging = lagging_domain()) {
    message += " (lagging domain: '" + lagging->name() + "')";
  }
  Report::notify(Severity::Error, message);
  throw WatchdogError(message);
}

void Kernel::arm_faults(FaultPlan plan) {
  for (const FaultAction& action : plan.actions) {
    if (action.kind == FaultAction::Kind::FlipMutation &&
        (action.mutations == nullptr || action.flag == nullptr)) {
      Report::error("Kernel::arm_faults: FlipMutation action '" +
                    action.to_string() +
                    "' has no target SmartFifoMutations instance");
    }
  }
  fault_plan_ = std::move(plan);
  fault_fired_ =
      std::make_unique<std::atomic<bool>[]>(fault_plan_.actions.size());
  faults_pending_.store(fault_plan_.actions.size(),
                        std::memory_order_relaxed);
}

void Kernel::apply_faults(Process& p) {
  for (std::size_t i = 0; i < fault_plan_.actions.size(); ++i) {
    if (fault_fired_[i].load(std::memory_order_relaxed)) {
      continue;
    }
    const FaultAction& action = fault_plan_.actions[i];
    if (p.activation_count_ != action.activation ||
        p.name() != action.process) {
      continue;
    }
    // Latch before acting: a fault fires (or is consumed) exactly once.
    // Groups free-running on different workers scan every latch
    // concurrently, so the claim is one atomic exchange; whoever flips
    // the latch fires the action. Relaxed suffices: the latch orders
    // nothing but itself.
    if (fault_fired_[i].exchange(true, std::memory_order_relaxed)) {
      continue;
    }
    faults_pending_.fetch_sub(1, std::memory_order_relaxed);
    switch (action.kind) {
      case FaultAction::Kind::Throw: {
        if (action.only_parallel && workers_ <= 1) {
          break;  // scheduling-dependent bug: sequential retry survives
        }
        const std::string message =
            "fault injection: throw in '" + p.name() + "' at activation " +
            std::to_string(action.activation);
        note_failing_process(p);
        Report::notify(Severity::Warning, message);
        throw InjectedFault(message);
      }
      case FaultAction::Kind::Stall:
        // Advance the process's local clock: its domain falls behind by
        // `stall`, which the lagging-domain / watchdog machinery reports.
        p.clock_.set_offset(p.clock_.offset() + action.stall);
        break;
      case FaultAction::Kind::FlipMutation:
        action.mutations->*(action.flag) =
            !(action.mutations->*(action.flag));
        break;
      case FaultAction::Kind::Stop:
        // stop() routes to the active GroupTask's buffered stop when this
        // dispatch runs on a worker -- the "stop from a worker-run group"
        // path.
        stop();
        break;
    }
  }
}

// --------------------------------------------------------------------------
// Free functions
// --------------------------------------------------------------------------

void wait(Time duration) {
  current_kernel_checked().wait(duration);
}

void wait(Event& event) {
  current_kernel_checked().wait(event);
}

bool wait(Event& event, Time timeout) {
  return current_kernel_checked().wait(event, timeout);
}

void wait_delta() {
  current_kernel_checked().wait_delta();
}

void next_trigger(Event& event) {
  current_kernel_checked().next_trigger(event);
}

void next_trigger(Time delay) {
  current_kernel_checked().next_trigger(delay);
}

Time sim_time_stamp() {
  return current_kernel_checked().now();
}

}  // namespace tdsim
