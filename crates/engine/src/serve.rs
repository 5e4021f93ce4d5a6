//! The serve path: one body for every read.
//!
//! A lone read ([`Engine::execute`](crate::Engine::execute),
//! [`Engine::execute_at`](crate::Engine::execute_at),
//! [`Engine::execute_replicated`](crate::Engine::execute_replicated), a
//! pool job) and every member of a batch
//! ([`Engine::execute_batch`](crate::Engine::execute_batch), a drained
//! pool queue) run the same steps: arity → canonicalize → materialized fast
//! path → plan → execute → meter → record → trace.  What differs is only
//! *how the plan is executed* ([`Exec`]): over the pinned version's local
//! shards, over the attached replicas at the pinned epoch, or as a member
//! of a shared-fetch group that runs the fetch once per plan and finalises
//! every member from it.
//!
//! A lone read emits its trace at once; a group member's trace is drafted
//! the same way and emitted after the group's fetch cost has been
//! attributed, so trace and response meter always agree.

use crate::{
    nanos_of, CachedPlan, CanonicalQuery, EngineError, QueryResponse, ReplicaSet, Request, Result,
    ShapeKey, Shared,
};
use si_access::{AccessSource, ShardedAccess};
use si_core::bounded::{fetch_bounded, SharedFetch};
use si_core::{BoundedPlan, CoreError};
use si_data::{AccessMeter, MeterSnapshot, ShardedSnapshotView, Value};
use si_telemetry::{BatchMembership, Phase, PhaseClock, PhaseTimings, Provenance, RequestTrace};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which version a lone read runs against, and where its probes go.
pub(crate) enum Read<'a> {
    /// The current version, pinned inside the request's clock; local shards.
    Current,
    /// A caller-pinned version; local shards.
    At(&'a Arc<ShardedSnapshotView>),
    /// The current version over the attached replicas, once every replica
    /// has acknowledged it (read-your-writes).
    Replicated,
}

/// How the serve body executes a request's bounded plan.
enum Exec<'a> {
    /// [`ShardedAccess`] over the pinned version.
    Local,
    /// [`si_access::ReplicatedAccess`] at the pinned epoch; the materialized
    /// layer is skipped.
    Replicated(&'a ReplicaSet),
    /// A shared-fetch group member: the fetch runs once per plan, every
    /// member finalises from it.
    Shared(&'a mut GroupFetch),
}

/// The fetch a shared-fetch group's members finalise from.
#[derive(Default)]
struct GroupFetch {
    current: Option<(SharedFetch, Arc<BoundedPlan>)>,
    /// One entry per fetch the group ran: its cost and the request positions
    /// that finalised from it.  More than one only when a racing statistics
    /// refresh swapped the cached plan mid-group.
    generations: Vec<(MeterSnapshot, Vec<usize>)>,
}

/// A served request's trace, built when it finishes serving and emitted by
/// [`Shared::emit`] once its fetched-tuple count is final.
struct TraceDraft {
    trace: RequestTrace,
    /// The request asked for its trace on the response.
    opt_in: bool,
}

/// Checks a request's parameter arity and canonicalizes its query.
pub(crate) fn admit(request: &Request) -> Result<CanonicalQuery> {
    if request.values.len() != request.parameters.len() {
        return Err(EngineError::ParameterArity {
            expected: request.parameters.len(),
            actual: request.values.len(),
        });
    }
    Ok(crate::canonicalize(&request.query, &request.parameters))
}

/// Charges the time since the clock's previous mark to `phase`.
fn mark(clock: &mut Option<PhaseClock>, phase: Phase) {
    if let Some(c) = clock.as_mut() {
        c.mark(phase);
    }
}

/// One response's attributed share of a fetch cost `total` split `k` ways:
/// `total/k` per sharer, remainder on the first, so shares sum to `total`.
fn share_of(total: &MeterSnapshot, k: u64, first: bool) -> MeterSnapshot {
    let part = |c: u64| if first { c / k + c % k } else { c / k };
    MeterSnapshot {
        tuples_fetched: part(total.tuples_fetched),
        index_probes: part(total.index_probes),
        full_scans: part(total.full_scans),
        time_units: part(total.time_units),
    }
}

impl Shared {
    /// Serves one request on the calling thread; `queue_wait_nanos` is the
    /// pool wait a worker measured before it (0 off the pool).
    pub(crate) fn serve(
        &self,
        request: &Request,
        read: Read<'_>,
        queue_wait_nanos: u64,
    ) -> Result<QueryResponse> {
        // A pinned version this store has *not* committed yet (a snapshot
        // from a different engine's future) has no data behind it here —
        // refuse it with a typed error instead of serving whatever the
        // foreign Arc happens to hold.  Old pins stay valid: their versions
        // are retained by the Arc itself.
        if let Read::At(view) = read {
            if view.epoch() > self.store.epoch() {
                return Err(EngineError::EpochUnavailable {
                    requested: view.epoch(),
                    newest: self.store.epoch(),
                });
            }
        }
        let start = Instant::now();
        let _in_flight = self.telemetry.enter();
        self.requests.fetch_add(1, Ordering::Relaxed);
        // The sampling decision comes first so the pin is inside the traced
        // window (the `SnapshotPin` phase).
        let mut clock = self.clock_for(request);
        let canonical = admit(request)?;
        mark(&mut clock, Phase::Admit);
        let replicas = match read {
            Read::Replicated => Some(self.replicas()?),
            _ => None,
        };
        let pinned;
        let snapshot = match read {
            Read::At(view) => view,
            _ => {
                pinned = self.store.pin();
                &pinned
            }
        };
        if let Some(set) = &replicas {
            set.wait_read_your_writes(snapshot.epoch())?;
        }
        mark(&mut clock, Phase::SnapshotPin);
        let exec = match &replicas {
            Some(set) => Exec::Replicated(set),
            None => Exec::Local,
        };
        let (mut response, draft) =
            self.serve_one(snapshot, &canonical, request, clock, start, exec)?;
        response.trace = draft.and_then(|draft| {
            self.emit(
                draft,
                response.accesses.tuples_fetched,
                queue_wait_nanos,
                None,
            )
        });
        Ok(response)
    }

    /// Serves a slice of requests against one pinned current version,
    /// sharing the fetch phase among requests with identical canonical shape
    /// and parameter values (see [`Engine::execute_batch`]).  `queue_waits`
    /// holds each request's measured pool wait (empty off the pool).  A
    /// single request is a lone read, pin included.
    ///
    /// [`Engine::execute_batch`]: crate::Engine::execute_batch
    pub(crate) fn serve_batch(
        &self,
        requests: &[Request],
        queue_waits: &[u64],
    ) -> Vec<Result<QueryResponse>> {
        let wait = |i: usize| queue_waits.get(i).copied().unwrap_or(0);
        if let [request] = requests {
            return vec![self.serve(request, Read::Current, wait(0))];
        }
        let snapshot = self.store.pin();
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);

        // Group by (canonical shape, parameter values) in first-appearance
        // order.  Only the shape key and the values matter: alpha-renamed
        // requests canonicalize identically, so they share a fetch too.
        let mut out: Vec<Option<Result<QueryResponse>>> = requests.iter().map(|_| None).collect();
        let mut groups: Vec<(CanonicalQuery, Vec<usize>)> = Vec::new();
        let mut by_key: HashMap<(ShapeKey, Vec<Value>), usize> = HashMap::new();
        for (i, request) in requests.iter().enumerate() {
            let canonical = match admit(request) {
                Ok(canonical) => canonical,
                Err(e) => {
                    out[i] = Some(Err(e));
                    continue;
                }
            };
            let key = (canonical.key.clone(), request.values.clone());
            match by_key.get(&key) {
                Some(&g) => groups[g].1.push(i),
                None => {
                    by_key.insert(key, groups.len());
                    groups.push((canonical, vec![i]));
                }
            }
        }

        // Members are served sequentially through the same body as a lone
        // read, so hotness counters, admissions, cache-hit flags and
        // materialized hits are exactly what an unbatched engine serving the
        // same sequence would produce.  Only the fetch cost is spent
        // differently: the first member that needs base data runs the fetch
        // once, later members finalise from it with zero marginal accesses.
        for (canonical, members) in &groups {
            let batch = (members.len() > 1).then_some(BatchMembership {
                group_size: members.len() as u32,
                shared_fetch: true,
            });
            if batch.is_some() {
                self.batched_requests
                    .fetch_add(members.len() as u64, Ordering::Relaxed);
            }
            let mut group = GroupFetch::default();
            let mut drafts: Vec<(usize, TraceDraft)> = Vec::new();
            for &i in members {
                let start = Instant::now();
                let _in_flight = self.telemetry.enter();
                let clock = self.clock_for(&requests[i]);
                let exec = match batch {
                    Some(_) => Exec::Shared(&mut group),
                    None => Exec::Local,
                };
                let served = self.serve_one(&snapshot, canonical, &requests[i], clock, start, exec);
                out[i] = Some(served.map(|(response, draft)| {
                    if batch.is_some() && !response.materialized {
                        let (_, sharers) = group
                            .generations
                            .last_mut()
                            .expect("a generation exists once a fetch ran");
                        sharers.push(i);
                    }
                    drafts.extend(draft.map(|draft| (i, draft)));
                    response
                }));
            }

            // Exact attribution: each fetch was charged to the engine meter
            // once; its sharers report `C/k` each with the remainder on the
            // first, so per-response shares sum to exactly `C`.
            for (cost, sharers) in &group.generations {
                let k = sharers.len() as u64;
                for (rank, &i) in sharers.iter().enumerate() {
                    if let Some(Ok(response)) = &mut out[i] {
                        response.accesses = share_of(cost, k, rank == 0);
                    }
                }
            }
            // Traces go out now that each response carries its attributed
            // share — trace and meter agree exactly, shared fetch or not.
            for (i, draft) in drafts {
                if let Some(Ok(response)) = &mut out[i] {
                    response.trace =
                        self.emit(draft, response.accesses.tuples_fetched, wait(i), batch);
                }
            }
        }
        out.into_iter()
            .map(|response| response.expect("every batched request was answered"))
            .collect()
    }

    /// The serve body: materialized fast path → plan → execute → meter →
    /// record → trace draft, for a request already admitted as `canonical`
    /// against the pinned `snapshot`.
    fn serve_one(
        &self,
        snapshot: &Arc<ShardedSnapshotView>,
        canonical: &CanonicalQuery,
        request: &Request,
        mut clock: Option<PhaseClock>,
        start: Instant,
        exec: Exec<'_>,
    ) -> Result<(QueryResponse, Option<TraceDraft>)> {
        let epoch = snapshot.epoch();

        // Materialized fast path: maintained answers exact for the pinned
        // version are served with zero base-data accesses.  The key is built
        // once and reused by the post-execution `record` below.
        let materialized_key = (!self.materialized.is_disabled()
            && !matches!(exec, Exec::Replicated(_)))
        .then(|| (canonical.key.clone(), request.values.clone()));
        if let Some(key) = &materialized_key {
            if let Some(hit) = self.materialized.get(key, epoch) {
                // The answers were admitted when their plan was, but the
                // check is two integer compares.
                self.within_budget(hit.static_cost.max_tuples)?;
                mark(&mut clock, Phase::PlanLookup);
                let static_cost = hit.static_cost;
                let response = QueryResponse {
                    answers: hit.into_answers(),
                    accesses: MeterSnapshot::default(),
                    epoch,
                    cache_hit: false,
                    materialized: true,
                    static_cost,
                    service: Duration::ZERO,
                    trace: None,
                };
                return Ok(self.finish(
                    canonical,
                    response,
                    clock,
                    start,
                    request.trace,
                    (Provenance::Materialized, 0.0, 0, 0),
                ));
            }
        }

        let (cached, cache_hit) = self.plan_for(snapshot, canonical)?;
        mark(&mut clock, Phase::PlanLookup);

        // Execute: fetch (a group member reuses its group's fetch of the
        // same plan), then finalise.
        let plan = &cached.plan;
        let values = &request.values;
        let (answer, routing) = match exec {
            Exec::Local => {
                let source = self.local_source(snapshot);
                let fetch = self.fetch(plan, values, &source, &mut clock)?;
                let routing = (source.routed_fetches(), source.fanned_fetches());
                // A lone read consumes its fetch: no clone of the witness.
                (fetch.into_answer(plan)?, routing)
            }
            Exec::Replicated(set) => {
                let source = set.source_at(epoch)?;
                let fetch = self.fetch(plan, values, &source, &mut clock)?;
                let routing = (source.routed_fetches(), source.fanned_fetches());
                (fetch.into_answer(plan)?, routing)
            }
            Exec::Shared(group) => {
                let mut routing = (0, 0);
                let reuse = group
                    .current
                    .as_ref()
                    .is_some_and(|(_, ran)| Arc::ptr_eq(ran, plan));
                if !reuse {
                    let source = self.local_source(snapshot);
                    let fetch = self.fetch(plan, values, &source, &mut clock)?;
                    routing = (source.routed_fetches(), source.fanned_fetches());
                    self.shared_fetches.fetch_add(1, Ordering::Relaxed);
                    group.generations.push((fetch.accesses(), Vec::new()));
                    group.current = Some((fetch, Arc::clone(plan)));
                }
                let (fetch, _) = group.current.as_ref().expect("the group has fetched");
                (fetch.finalize_one(plan)?, routing)
            }
        };
        mark(&mut clock, Phase::Finalize);

        // Offer the executed answers to the materialized layer, with the
        // full fetch cost as the re-execution cost: counted towards hotness,
        // admitted at the threshold, maintained from the next commit on.
        // Reads of explicitly pinned *old* versions are not offered —
        // materialization tracks the current version (if a commit races this
        // check, the stale-entry drop at the next maintenance pass cleans
        // up).
        if let Some(key) = materialized_key {
            if epoch == self.store.epoch() {
                self.materialized.record(
                    key,
                    &canonical.query,
                    &canonical.parameters,
                    &answer.answers,
                    epoch,
                    cached.stats_epoch,
                    plan.static_cost(),
                    answer.accesses,
                );
            }
        }

        let response = QueryResponse {
            answers: answer.answers,
            accesses: answer.accesses,
            epoch,
            cache_hit,
            materialized: false,
            static_cost: plan.static_cost(),
            service: Duration::ZERO,
            trace: None,
        };
        let facts = (
            Provenance::Planned { cache_hit },
            cached.estimated_tuples,
            routing.0,
            routing.1,
        );
        Ok(self.finish(canonical, response, clock, start, request.trace, facts))
    }

    /// Stamps the response's service time, records the serve latency
    /// histogram and — for sampled, slow, or opted-in requests — drafts the
    /// request's trace from `facts` (provenance, estimated tuples, routed
    /// and fanned fetches).
    fn finish(
        &self,
        canonical: &CanonicalQuery,
        mut response: QueryResponse,
        clock: Option<PhaseClock>,
        start: Instant,
        opt_in: bool,
        facts: (Provenance, f64, u64, u64),
    ) -> (QueryResponse, Option<TraceDraft>) {
        response.service = start.elapsed();
        let service_nanos = nanos_of(response.service);
        self.telemetry.serve.record(service_nanos);
        let slow = self.telemetry.is_slow(service_nanos);
        let (phases, phases_recorded, total_nanos) = match clock {
            Some(mut c) => {
                c.mark(Phase::Reply);
                (c.timings(), true, c.total_nanos())
            }
            // Unsampled requests get a post-hoc trace only when slow; the
            // phase array stays zeroed.
            None if slow => (PhaseTimings::default(), false, service_nanos),
            None => return (response, None),
        };
        let (provenance, estimated_tuples, routed_fetches, fanned_fetches) = facts;
        let trace = RequestTrace {
            shape: canonical.key.clone(),
            epoch: response.epoch,
            phases,
            phases_recorded,
            total_nanos,
            queue_wait_nanos: 0,
            provenance,
            estimated_tuples,
            fetched_tuples: response.accesses.tuples_fetched,
            answers: response.answers.len() as u64,
            routed_fetches,
            fanned_fetches,
            batch: None,
            slow,
        };
        (response, Some(TraceDraft { trace, opt_in }))
    }

    /// Emits a drafted trace with its final fetched-tuple count, queue wait
    /// and batch membership; returns it when the request opted in.
    fn emit(
        &self,
        draft: TraceDraft,
        fetched_tuples: u64,
        queue_wait_nanos: u64,
        batch: Option<BatchMembership>,
    ) -> Option<Arc<RequestTrace>> {
        let TraceDraft { mut trace, opt_in } = draft;
        trace.fetched_tuples = fetched_tuples;
        trace.queue_wait_nanos = queue_wait_nanos;
        trace.batch = batch;
        let trace = self.telemetry.emit(trace);
        opt_in.then_some(trace)
    }

    /// Runs the fetch phase of `plan` over `source` and charges its cost to
    /// the engine meter (four atomic adds — the fetch loops themselves
    /// charged `Cell` meters).
    fn fetch<A: AccessSource>(
        &self,
        plan: &BoundedPlan,
        values: &[Value],
        source: &A,
        clock: &mut Option<PhaseClock>,
    ) -> Result<SharedFetch> {
        let fetch = fetch_bounded(plan, values, source)?;
        mark(clock, Phase::Fetch);
        self.meter.merge(&fetch.accesses());
        Ok(fetch)
    }

    /// A phase clock when this request is traced (sampled or opted in).
    fn clock_for(&self, request: &Request) -> Option<PhaseClock> {
        (self.telemetry.sampler.hit() || request.trace).then(PhaseClock::new)
    }

    /// The replica fleet replicated reads go through.
    fn replicas(&self) -> Result<Arc<ReplicaSet>> {
        self.replication
            .read()
            .expect("replication lock poisoned")
            .clone()
            .ok_or_else(|| EngineError::Replication("no replicas attached".to_owned()))
    }

    /// The metered [`ShardedAccess`] every local read and maintenance run
    /// probes the pinned `snapshot` through.
    pub(crate) fn local_source(
        &self,
        snapshot: &Arc<ShardedSnapshotView>,
    ) -> ShardedAccess<AccessMeter> {
        ShardedAccess::new(Arc::clone(snapshot), Arc::clone(&self.access))
    }

    /// The admission budget check: refuses (and counts) a plan whose
    /// worst-case fetch count is above [`EngineConfig::fetch_budget`].
    ///
    /// [`EngineConfig::fetch_budget`]: crate::EngineConfig::fetch_budget
    fn within_budget(&self, cheapest: u64) -> Result<()> {
        match self.config.fetch_budget {
            Some(budget) if cheapest > budget => {
                self.rejected_by_budget.fetch_add(1, Ordering::Relaxed);
                Err(EngineError::RejectedByBudget { budget, cheapest })
            }
            _ => Ok(()),
        }
    }

    /// Plan-cache lookup with admission control; plans on miss.
    pub(crate) fn plan_for(
        &self,
        snapshot: &Arc<ShardedSnapshotView>,
        canonical: &CanonicalQuery,
    ) -> Result<(CachedPlan, bool)> {
        let (stats, stats_epoch) = {
            let guard = self.stats.read().expect("stats lock poisoned");
            (Arc::clone(&guard.stats), guard.epoch)
        };

        if let Some(hit) = self.cache.get(&canonical.key, stats_epoch) {
            // Defensive re-check: every cached plan was admitted when it was
            // planned, but the check is two integer compares.
            self.within_budget(hit.plan.static_cost().max_tuples)?;
            return Ok((hit, true));
        }

        let planner = si_core::CostBasedPlanner::new(snapshot.schema(), &self.access, &stats);
        let costed = planner
            .plan_costed(
                &canonical.query,
                &canonical.parameters,
                self.config.fetch_budget,
            )
            .map_err(|e| match e {
                CoreError::FetchBudgetExceeded { budget, cheapest } => {
                    self.rejected_by_budget.fetch_add(1, Ordering::Relaxed);
                    EngineError::RejectedByBudget { budget, cheapest }
                }
                other => EngineError::Core(other),
            })?;
        let cached = CachedPlan {
            plan: Arc::new(costed.plan),
            stats_epoch,
            estimated_tuples: costed.estimated_tuples,
        };
        self.cache.insert(canonical.key.clone(), cached.clone());
        Ok((cached, false))
    }
}
