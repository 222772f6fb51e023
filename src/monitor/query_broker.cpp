#include "monitor/query_broker.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/epoch.hpp"

namespace ct {

namespace {

inline std::uint64_t pack(EventId id) {
  return (static_cast<std::uint64_t>(id.process) << 32) | id.index;
}

/// Position of chain link `b` in the fixed chain (enum order).
std::size_t chain_index(ServingBackend b) {
  CT_CHECK_MSG(
      b >= ServingBackend::kCluster && b <= ServingBackend::kOnDemandFm,
      "not a chain link: " << to_string(b));
  return static_cast<std::size_t>(b) -
         static_cast<std::size_t>(ServingBackend::kCluster);
}

/// The frozen state's trace, once `frozen` is known to be there.
const Trace& frozen_trace(const std::shared_ptr<const FrozenDelivery>& frozen) {
  CT_CHECK_MSG(frozen != nullptr, "broker needs a frozen delivered state");
  return frozen->trace();
}

}  // namespace

FrozenDelivery::FrozenDelivery(Trace trace, ClusterDigests digests)
    : trace_(std::move(trace)),
      digests_(std::move(digests)),
      differential_(trace_, kDifferentialInterval) {}

std::shared_ptr<const FrozenDelivery> FrozenDelivery::freeze(
    const MonitoringEntity& monitor, ClusterDigests digests) {
  return std::shared_ptr<const FrozenDelivery>(
      new FrozenDelivery(monitor.delivered_trace(), std::move(digests)));
}

const char* to_string(ServingBackend b) {
  switch (b) {
    case ServingBackend::kNone:
      return "none";
    case ServingBackend::kCache:
      return "cache";
    case ServingBackend::kCluster:
      return "cluster";
    case ServingBackend::kDifferential:
      return "differential";
    case ServingBackend::kOnDemandFm:
      return "ondemand-fm";
  }
  return "?";
}

const char* to_string(QueryOutcome o) {
  switch (o) {
    case QueryOutcome::kAnswered:
      return "answered";
    case QueryOutcome::kUnknown:
      return "unknown";
    case QueryOutcome::kDeadlineExpired:
      return "deadline-expired";
    case QueryOutcome::kShed:
      return "shed";
    case QueryOutcome::kFailed:
      return "failed";
  }
  return "?";
}

QueryBroker::Breaker& QueryBroker::breaker(ServingBackend b) {
  return breakers_[chain_index(b)];
}

const QueryBroker::Breaker& QueryBroker::breaker(ServingBackend b) const {
  return breakers_[chain_index(b)];
}

QueryBroker::QueryBroker(MonitoringEntity& monitor, ThreadPool& pool,
                         BrokerOptions options)
    : QueryBroker(monitor, pool, std::move(options),
                  FrozenDelivery::freeze(monitor, monitor.cluster_digests())) {}

QueryBroker::QueryBroker(MonitoringEntity& monitor, ThreadPool& pool,
                         BrokerOptions options,
                         std::shared_ptr<const FrozenDelivery> frozen)
    : monitor_(monitor),
      pool_(pool),
      options_(std::move(options)),
      frozen_(std::move(frozen)),
      ondemand_(frozen_trace(frozen_), kOnDemandCacheCapacity) {
  // Fallback answers come from the frozen state, so it must hold exactly
  // the events the monitor has delivered.
  const Trace& trace = frozen_->trace();
  CT_CHECK_MSG(trace.process_count() == monitor_.process_count() &&
                   trace.event_count() == monitor_.delivery_log().size(),
               "frozen delivered state holds "
                   << trace.event_count() << " events of "
                   << trace.process_count() << " processes, the monitor "
                   << monitor_.delivery_log().size() << " of "
                   << monitor_.process_count());
  for (ProcessId p = 0; p < trace.process_count(); ++p) {
    CT_CHECK_MSG(trace.process_size(p) == monitor_.delivered_count(p),
                 "frozen delivered state holds "
                     << trace.process_size(p) << " events of process " << p
                     << ", the monitor " << monitor_.delivered_count(p));
  }
  if (options_.answer_cache_capacity > 0) {
    answer_cache_ = std::make_unique<
        SynchronizedLruCache<PairKey, bool, PairKeyHash>>(
        options_.answer_cache_capacity);
  }
  auditor_ = std::make_unique<IntegrityAuditor>(
      monitor_, trace, frozen_->digests(), options_.audit);
}

QueryBroker::~QueryBroker() { drain(); }

std::future<QueryResult> QueryBroker::submit_precedence(
    EventId e, EventId f, std::optional<std::uint64_t> deadline) {
  auto job = std::make_unique<Job>();
  job->kind = Job::Kind::kPrecedence;
  job->e = e;
  job->f = f;
  job->deadline = deadline.value_or(options_.default_deadline);
  return enqueue(std::move(job));
}

std::future<QueryResult> QueryBroker::submit_frontier(
    EventId e, std::optional<std::uint64_t> deadline) {
  auto job = std::make_unique<Job>();
  job->kind = Job::Kind::kFrontier;
  job->e = e;
  job->deadline = deadline.value_or(options_.default_deadline);
  return enqueue(std::move(job));
}

std::future<QueryResult> QueryBroker::submit_batch(
    std::vector<std::pair<EventId, EventId>> pairs,
    std::optional<std::uint64_t> deadline) {
  auto job = std::make_unique<Job>();
  job->kind = Job::Kind::kBatch;
  job->pairs = std::move(pairs);
  job->deadline = deadline.value_or(options_.default_deadline);
  return enqueue(std::move(job));
}

std::future<QueryResult> QueryBroker::enqueue(std::unique_ptr<Job> job) {
  std::future<QueryResult> future = job->promise.get_future();
  bool admitted = false;
  {
    std::lock_guard lock(mu_);
    ++health_.submitted;
    admitted = options_.max_queue == 0 || queue_.size() < options_.max_queue;
    if (admitted) {
      queue_.push_back(std::move(job));
      ++health_.in_flight;
      ++scheduled_;
      health_.max_queue_depth =
          std::max<std::uint64_t>(health_.max_queue_depth, queue_.size());
    } else {
      ++health_.shed;
    }
  }
  if (!admitted) {
    // Reject-newest: the incoming query is never admitted, and is resolved
    // outside the lock.
    QueryResult shed;
    shed.outcome = QueryOutcome::kShed;
    job->promise.set_value(std::move(shed));
    return future;
  }
  pool_.submit([this] { run_one(); });  // one pool task per admitted job
  return future;
}

void QueryBroker::run_one() {
  std::unique_ptr<Job> job;
  {
    std::lock_guard lock(mu_);
    if (!queue_.empty()) {
      job = std::move(queue_.front());
      queue_.pop_front();
    }
  }
  bool audit_due = false;
  if (job) {
    QueryResult result = execute(*job);
    {
      std::lock_guard lock(mu_);
      switch (result.outcome) {
        case QueryOutcome::kAnswered: {
          ++health_.completed;
          ++health_.answered;
          if (degraded(result.backend_used)) ++health_.fallback_answers;
          break;
        }
        case QueryOutcome::kUnknown:
          ++health_.completed;
          ++health_.unknown;
          break;
        case QueryOutcome::kDeadlineExpired:
          ++health_.deadline_expired;
          break;
        case QueryOutcome::kFailed:
          ++health_.failed;
          break;
        case QueryOutcome::kShed:
          CT_CHECK_MSG(false, "executed queries are never shed");
      }
      --health_.in_flight;
      health_.total_ticks += result.cost;
      if (options_.audit_stride > 0 &&
          ++resolved_since_audit_ >= options_.audit_stride) {
        resolved_since_audit_ = 0;
        audit_due = true;
      }
    }
    job->promise.set_value(std::move(result));
  }
  if (audit_due) audit_step();
  {
    std::lock_guard lock(mu_);
    --scheduled_;
    if (scheduled_ == 0) cv_drained_.notify_all();
  }
}

bool QueryBroker::validate(const Job& job) const {
  const Trace& trace = delivered();
  const auto known = [&](EventId id) {
    return id.process < trace.process_count() && id.index >= 1 &&
           id.index <= trace.process_size(id.process);
  };
  switch (job.kind) {
    case Job::Kind::kPrecedence:
      return known(job.e) && known(job.f);
    case Job::Kind::kFrontier:
      return known(job.e);
    case Job::Kind::kBatch:
      return std::all_of(job.pairs.begin(), job.pairs.end(),
                         [&](const auto& p) {
                           return known(p.first) && known(p.second);
                         });
  }
  return false;
}

QueryResult QueryBroker::execute(const Job& job) {
  QueryResult result;
  QueryCost cost;
  cost.budget = job.deadline;

  // Queries naming undelivered events fail up front: they are caller
  // errors, not backend faults, and must not feed the breakers.
  if (!validate(job)) {
    result.outcome = QueryOutcome::kFailed;
    return result;
  }

  const auto finish_status = [&](ChainStatus status) {
    switch (status) {
      case ChainStatus::kOk:
        result.outcome = QueryOutcome::kAnswered;
        break;
      case ChainStatus::kDeadline:
        result.outcome = QueryOutcome::kDeadlineExpired;
        break;
      case ChainStatus::kUnknown:
        result.outcome = QueryOutcome::kUnknown;
        break;
      case ChainStatus::kFailed:
        result.outcome = QueryOutcome::kFailed;
        break;
    }
  };

  switch (job.kind) {
    case Job::Kind::kPrecedence: {
      bool answer = false;
      ServingBackend used = ServingBackend::kNone;
      const ChainStatus status =
          chain_precedes(job.e, job.f, cost, &answer, &used);
      finish_status(status);
      if (status == ChainStatus::kOk) {
        result.answer = answer;
        result.backend_used = used;
      }
      break;
    }
    case Job::Kind::kFrontier: {
      ServingBackend worst = ServingBackend::kNone;
      ChainStatus failure = ChainStatus::kOk;
      const auto precedes = [&](EventId a, EventId b) {
        if (failure != ChainStatus::kOk) return false;  // unwinding
        bool answer = false;
        ServingBackend used = ServingBackend::kNone;
        const ChainStatus status = chain_precedes(a, b, cost, &answer, &used);
        if (status != ChainStatus::kOk) {
          failure = status;
          return false;
        }
        worst = worse(worst, used);
        return answer;
      };
      const Trace& trace = delivered();
      CausalFrontiers frontiers = compute_frontiers_with(
          trace.process_count(), job.e, precedes,
          [&](ProcessId q) { return trace.process_size(q); });
      finish_status(failure);
      if (failure == ChainStatus::kOk) {
        result.frontiers = std::move(frontiers);
        result.backend_used = worst;
      }
      break;
    }
    case Job::Kind::kBatch: {
      ServingBackend worst = ServingBackend::kNone;
      ChainStatus failure = ChainStatus::kOk;
      result.batch.assign(job.pairs.size(), std::nullopt);
      for (std::size_t i = 0; i < job.pairs.size(); ++i) {
        bool answer = false;
        ServingBackend used = ServingBackend::kNone;
        const ChainStatus status = chain_precedes(
            job.pairs[i].first, job.pairs[i].second, cost, &answer, &used);
        if (status == ChainStatus::kDeadline) {
          failure = status;  // budget gone; later pairs cannot be served
          break;
        }
        if (status != ChainStatus::kOk) {
          failure = worse_of_failures(failure, status);
          continue;  // this pair is unknown/failed; try the rest
        }
        result.batch[i] = answer;
        worst = worse(worst, used);
      }
      finish_status(failure);
      result.backend_used = worst;
      break;
    }
  }
  result.cost = cost.ticks;
  return result;
}

QueryBroker::ChainStatus QueryBroker::worse_of_failures(ChainStatus a,
                                                        ChainStatus b) {
  if (a == ChainStatus::kFailed || b == ChainStatus::kFailed) {
    return ChainStatus::kFailed;
  }
  return a == ChainStatus::kOk ? b : a;
}

QueryBroker::ChainStatus QueryBroker::chain_precedes(EventId e, EventId f,
                                                     QueryCost& cost,
                                                     bool* answer,
                                                     ServingBackend* used) {
  if (answer_cache_) {
    if (!cost.charge(1)) return ChainStatus::kDeadline;
    if (const auto hit = answer_cache_->get({pack(e), pack(f)})) {
      {
        std::lock_guard lock(mu_);
        ++health_.cache_hits;
      }
      *answer = *hit;
      *used = ServingBackend::kCache;
      return ChainStatus::kOk;
    }
  }

  bool any_failure = false;
  for (const ServingBackend link : kChain) {
    const bool audited = link == ServingBackend::kCluster;
    {
      std::lock_guard lock(mu_);
      Breaker& b = breaker(link);
      if (b.open) {
        // Failure-tripped fallback links accept a probe every Nth bypass;
        // the audited cluster link is re-admitted only by clean audit
        // steps.
        const bool probe = !audited && options_.breaker_probe_stride > 0 &&
                           ++b.bypasses % options_.breaker_probe_stride == 0;
        if (!probe) continue;
      }
    }
    try {
      const std::optional<bool> result = link_precedes(link, e, f, cost);
      if (!result) return ChainStatus::kDeadline;
      {
        std::lock_guard lock(mu_);
        Breaker& b = breaker(link);
        b.consecutive_failures = 0;
        if (b.open && !audited) {
          b.open = false;  // successful probe re-admits
          ++health_.readmissions;
        }
      }
      if (answer_cache_) answer_cache_->put({pack(e), pack(f)}, *result);
      *answer = *result;
      *used = link;
      return ChainStatus::kOk;
    } catch (const CheckFailure&) {
      any_failure = true;
      note_failure(link);
    }
  }
  return any_failure ? ChainStatus::kFailed : ChainStatus::kUnknown;
}

std::optional<bool> QueryBroker::link_precedes(ServingBackend link, EventId e,
                                               EventId f, QueryCost& cost) {
  switch (link) {
    case ServingBackend::kCluster: {
      // The engine's repairs publish new snapshots and retire the old
      // ones, so a pinned reader never blocks them and never sees a
      // reclaimed snapshot.
      const util::EpochDomain::Guard pin = util::EpochDomain::global().pin();
      return monitor_.precedes_metered(e, f, cost);
    }
    case ServingBackend::kDifferential:
      return frozen_->differential().precedes_metered(e, f, cost);
    case ServingBackend::kOnDemandFm: {
      std::lock_guard lock(ondemand_mu_);
      return ondemand_.precedes_metered(e, f, cost);
    }
    case ServingBackend::kNone:
    case ServingBackend::kCache:
      break;
  }
  CT_CHECK_MSG(false, "not a chain link: " << to_string(link));
  return std::nullopt;
}

void QueryBroker::note_failure(ServingBackend link) {
  std::lock_guard lock(mu_);
  Breaker& b = breaker(link);
  if (b.open) return;
  if (++b.consecutive_failures >= kBreakerFailureThreshold) {
    b.open = true;
    b.consecutive_failures = 0;
    b.bypasses = 0;
    ++health_.breaker_trips;
  }
}

bool QueryBroker::audit_step() {
  std::lock_guard audit_lock(audit_mu_);
  // Detection reads published snapshots under an epoch pin (a corruption
  // injected meanwhile retires the one it reads, never frees it); repairs
  // are excluded by audit_mu_.
  const AuditFinding finding = [this] {
    const util::EpochDomain::Guard pin = util::EpochDomain::global().pin();
    return auditor_->step();
  }();
  {
    std::lock_guard lock(mu_);
    ++health_.audit_steps;
  }
  if (finding.clean()) {
    std::lock_guard lock(mu_);
    Breaker& cluster = breaker(ServingBackend::kCluster);
    if (cluster.open &&
        ++cluster.clean_streak >= options_.audit.clean_steps_to_readmit) {
      cluster.open = false;
      cluster.clean_streak = 0;
      ++health_.readmissions;
    }
    return true;
  }

  {
    std::lock_guard lock(mu_);
    health_.audit_mismatches += finding.corrupted.size();
    Breaker& cluster = breaker(ServingBackend::kCluster);
    if (!cluster.open) {
      cluster.open = true;
      ++health_.breaker_trips;
    }
    cluster.clean_streak = 0;
  }
  // Answers cached before the trip may be poisoned; drop them all.
  if (answer_cache_) answer_cache_->clear();
  for (const ClusterId c : finding.corrupted) {
    // The engine rebuilds a writer-private snapshot and publishes it with
    // one atomic swap — in-flight readers keep the pre-repair snapshot and
    // are never blocked.
    const std::uint64_t ticks = monitor_.rebuild_cluster(c);
    auditor_->rebaseline(c);
    std::lock_guard lock(mu_);
    ++health_.rebuilds;
    health_.rebuild_ticks += ticks;
  }
  return false;
}

void QueryBroker::trip_backend(ServingBackend link) {
  std::lock_guard lock(mu_);
  Breaker& b = breaker(link);
  if (!b.open) {
    b.open = true;
    b.clean_streak = 0;
    b.bypasses = 0;
    ++health_.breaker_trips;
  }
}

void QueryBroker::readmit_backend(ServingBackend link) {
  std::lock_guard lock(mu_);
  Breaker& b = breaker(link);
  if (b.open) {
    b.open = false;
    b.consecutive_failures = 0;
    b.clean_streak = 0;
    ++health_.readmissions;
  }
}

bool QueryBroker::backend_open(ServingBackend link) const {
  std::lock_guard lock(mu_);
  return breaker(link).open;
}

void QueryBroker::drain() {
  std::unique_lock lock(mu_);
  cv_drained_.wait(lock, [this] { return scheduled_ == 0; });
}

BrokerHealth QueryBroker::health() const {
  std::lock_guard lock(mu_);
  return health_;
}

AuditStats QueryBroker::audit_stats() const {
  std::lock_guard audit_lock(audit_mu_);
  return auditor_->stats();
}

}  // namespace ct
