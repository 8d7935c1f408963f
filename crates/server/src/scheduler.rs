//! Session scheduler: a worker pool multiplexing many supervised
//! sessions over the admission queue.
//!
//! Each worker is long-lived and owns exactly the state the PR-8 bugfix
//! satellites made safe to pool:
//!
//! * **one recycled [`SessionSupervisor`]** — `reset()` between
//!   sessions clears the stale absolute deadline and restores the
//!   re-prompt budget (plus a second, zero-re-prompt supervisor used at
//!   brownout);
//! * **one [`SessionScratch`]** — scribble space, never carried state;
//! * **a shared monotonic clock** that keeps advancing across the
//!   sessions the worker runs (deadline arithmetic saturates instead of
//!   going non-finite);
//! * an **obs context reset** ([`p2auth_obs::reset_ctx`]) at every
//!   task-completion boundary, so back-to-back sessions on one worker
//!   produce disjoint span trees.
//!
//! The fault-tolerance layer wraps session execution (see
//! [`crate::supervision`], [`crate::retry`], [`crate::brownout`]): a
//! panicking session becomes a typed [`SessionVerdict::Crashed`] and
//! the worker's session state is respawned in place; transient
//! failures retry under a deadline-aware backoff; and an SLO-driven
//! brownout ladder degrades the pipeline one rung at a time before
//! shedding.
//!
//! Profiles come out of the [`ShardedProfileStore`] as `Arc`s; the
//! interned arena is shared read-only and all scoring goes through the
//! fused arena hot path: each delivered attempt is analyzed once and
//! that analysis serves both the assessment and
//! `decide_session_analyzed`. Every admitted session also
//! writes a typed [`EventLog`] (`p2auth.events.v1`) — the same contract
//! the replay engine consumes — which is how the chaos suite proves
//! shed sessions never corrupt admitted sessions' logs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Instant;

use p2auth_core::{P2Auth, ProfileArena, SessionScratch};
use p2auth_device::supervisor::{SessionSupervisor, SupervisorEvent, SupervisorState};
use p2auth_device::SessionOutcome;
use p2auth_obs::{
    EventLog, MetricsLocal, SessionEvent, SessionSeeds, ShardedEventStore, SloTracker,
};

use crate::brownout::{BrownoutLadder, BrownoutLevel, LadderTransition};
use crate::chaos::ChaosPlan;
use crate::messages::{AuthRequest, AuthResponse, ServerConfig, SessionVerdict, ShedReason};
use crate::queue::AdmissionQueue;
use crate::retry::TransientFailure;
use crate::store::ShardedProfileStore;
use crate::supervision::{panic_message, Supervision};

/// Per-worker counters published (summed) into the global registry
/// when a serve region drains, so pre-existing handles keep observing
/// fleet totals. Dynamic names (per-shard breakdowns) intentionally
/// stay report-local: publishing them would intern an unbounded name
/// set in the leak-on-register global registry.
const PUBLISHED_COUNTERS: &[&str] = &[
    "server.persist.errors",
    "server.session.accepts",
    "server.session.aborts",
    "server.session.non_accepts",
    "server.session.crashes",
    "server.session.retries",
    "server.shed_unknown_user",
    "server.shed_quarantined",
    "server.shed_brownout",
    "server.worker.ctx_leaks",
    "server.worker.respawns",
    "server.worker.panics",
    "server.profile.quarantines",
    "server.brownout.pin_only",
    "server.brownout.transitions",
];

/// Per-worker histograms published (merged bucket-wise) into the
/// global registry when a serve region drains.
const PUBLISHED_HISTOGRAMS: &[&str] = &[
    "server.session.latency_ns",
    "server.session.latency.aborted_ns",
    "server.session.latency.shed_ns",
    "server.session.latency.crashed_ns",
];

/// One admitted session's full record: the response plus its event log.
#[derive(Debug)]
pub struct SessionRecord {
    /// The `p2auth.server.v1` response.
    pub response: AuthResponse,
    /// The session's `p2auth.events.v1` log.
    pub log: EventLog,
}

/// What one [`serve`] region processed.
#[derive(Debug)]
pub struct ServeReport {
    /// Admitted sessions, in completion order.
    pub sessions: Vec<SessionRecord>,
    /// Span-context leaks repaired at task boundaries (should be 0; a
    /// nonzero count means some session leaked an adopt guard).
    pub ctx_leaks_repaired: u64,
    /// Each worker's private metrics registry, indexed by worker id —
    /// the per-worker half of the snapshot/merge pattern.
    pub worker_metrics: Vec<MetricsLocal>,
    /// All worker registries merged (counters summed, histograms
    /// merged bucket-wise): outcome-labelled latency histograms
    /// (`server.session.latency_ns` / `.shed_ns` / `.aborted_ns` /
    /// `.crashed_ns`), session counters, and per-shard breakdowns
    /// (`server.shard.NN.*`).
    pub metrics: MetricsLocal,
    /// Worker threads that died to an *uncaptured* panic (possible
    /// only with `supervision.catch_panics = false`). The region still
    /// drains and reports, but each dead worker's in-hand session is
    /// lost and its capacity is gone for the rest of the region.
    pub worker_panics: u64,
    /// Brownout-ladder moves, in order (empty when the ladder is off).
    pub ladder_transitions: Vec<LadderTransition>,
    /// Ladder evaluations spent at each rung, indexed by
    /// [`BrownoutLevel::rung`] (all zeros when the ladder is off).
    pub ladder_occupancy: [u64; 4],
}

/// Observability and chaos hooks for one serve region, passed
/// alongside the (`Copy`) [`ServerConfig`]: all optional and default
/// to off, so [`serve`] costs nothing extra.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeObs<'a> {
    /// When set, every admitted session's event log is durably
    /// appended to this sharded store (keyed by user id — the same
    /// splitmix64 routing as the profile store).
    pub persist: Option<&'a ShardedEventStore>,
    /// When set, every admitted session feeds one `(latency, error?)`
    /// sample to this SLO tracker (error = shed, aborted or crashed) —
    /// and, when `config.brownout.enabled`, drives the brownout
    /// ladder.
    pub slo: Option<&'a SloTracker>,
    /// When set, the chaos plan injects worker panics and clock skew
    /// into this region (test/bench harness — see [`crate::chaos`]).
    pub chaos: Option<&'a ChaosPlan>,
}

/// Submission handle passed to the driver closure of [`serve`].
///
/// `Sync`: a fleet driver may fan submissions out over its own threads.
#[derive(Debug, Clone, Copy)]
pub struct Submitter<'a> {
    queue: &'a AdmissionQueue,
}

impl Submitter<'_> {
    /// Non-blocking admission; sheds (request handed back) at capacity
    /// or after shutdown. See [`AdmissionQueue::try_submit`].
    pub fn try_submit(&self, req: AuthRequest) -> Result<(), (AuthRequest, ShedReason)> {
        self.queue.try_submit(req)
    }

    /// Blocking admission with FIFO backpressure. See
    /// [`AdmissionQueue::submit_blocking`].
    pub fn submit_blocking(&self, req: AuthRequest) -> Result<(), (AuthRequest, ShedReason)> {
        self.queue.submit_blocking(req)
    }

    /// Requests admitted and waiting for a worker.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.queue.depth()
    }
}

/// Precomputed per-shard metric names. The worker hot loop used to
/// `format!` four `server.shard.NN.*` names per session; the table is
/// built once per serve region so steady-state sessions allocate
/// nothing for metric names.
#[derive(Debug)]
pub struct ShardNameTable {
    entries: Vec<ShardNames>,
}

/// The four per-shard metric names of one shard.
#[derive(Debug)]
pub struct ShardNames {
    /// `server.shard.NN.sheds`
    pub sheds: String,
    /// `server.shard.NN.accepts`
    pub accepts: String,
    /// `server.shard.NN.sessions`
    pub sessions: String,
    /// `server.shard.NN.latency_ns`
    pub latency_ns: String,
}

impl ShardNameTable {
    /// Builds the table for `shard_count` shards (at least one).
    #[must_use]
    pub fn new(shard_count: usize) -> Self {
        let entries = (0..shard_count.max(1))
            .map(|shard| ShardNames {
                sheds: format!("server.shard.{shard:02}.sheds"),
                accepts: format!("server.shard.{shard:02}.accepts"),
                sessions: format!("server.shard.{shard:02}.sessions"),
                latency_ns: format!("server.shard.{shard:02}.latency_ns"),
            })
            .collect();
        Self { entries }
    }

    /// The names of `shard` (modulo the table size, so a stale index
    /// can never panic the hot loop).
    #[must_use]
    pub fn get(&self, shard: usize) -> &ShardNames {
        &self.entries[shard % self.entries.len()]
    }

    /// Shards in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never — `new` clamps to one shard).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Everything a worker borrows from its serve region, bundled so the
/// spawn site stays readable.
struct WorkerCtx<'a> {
    system: &'a P2Auth,
    store: &'a ShardedProfileStore,
    config: &'a ServerConfig,
    obs: ServeObs<'a>,
    names: &'a ShardNameTable,
    supervision: &'a Supervision,
    ladder: Option<&'a BrownoutLadder>,
}

/// Runs a scoped serve region: spawns `config.num_workers` workers,
/// hands the driver a [`Submitter`], and on driver return closes
/// admission, drains the queue gracefully (admitted sessions still
/// run; new submissions shed with [`ShedReason::Shutdown`]) and joins
/// every worker. Returns the report plus the driver's own result.
///
/// The region cannot hang: workers exit when the closed queue is empty,
/// the queue unparks every backpressured producer on close, and each
/// session's supervisor carries finite deadlines.
pub fn serve<T>(
    system: &P2Auth,
    store: &ShardedProfileStore,
    config: &ServerConfig,
    driver: impl FnOnce(Submitter<'_>) -> T,
) -> (ServeReport, T) {
    serve_obs(system, store, config, ServeObs::default(), driver)
}

/// [`serve`] with observability sinks: optional durable event-log
/// persistence and SLO tracking (see [`ServeObs`]). Each worker
/// records into its own [`MetricsLocal`] — no shared atomics on the
/// session hot path — and the locals are merged into
/// [`ServeReport::metrics`] when the region drains, with the known
/// fleet-total names also published into the global registry.
///
/// A worker that panics *outside* the supervised session region (or
/// with `supervision.catch_panics = false`) no longer aborts the
/// region: its panic is captured at join, counted in
/// [`ServeReport::worker_panics`], and the remaining workers' metrics
/// still merge and publish.
pub fn serve_obs<T>(
    system: &P2Auth,
    store: &ShardedProfileStore,
    config: &ServerConfig,
    obs: ServeObs<'_>,
    driver: impl FnOnce(Submitter<'_>) -> T,
) -> (ServeReport, T) {
    let queue = AdmissionQueue::new(config.queue_capacity);
    let (tx, rx) = mpsc::channel::<SessionRecord>();
    let num_workers = config.num_workers.max(1);
    p2auth_obs::gauge!("server.workers").set(num_workers as f64);
    let names = ShardNameTable::new(config.shard_count);
    let supervision = Supervision::new();
    let ladder = config
        .brownout
        .enabled
        .then(|| BrownoutLadder::new(config.brownout));
    let ctx = WorkerCtx {
        system,
        store,
        config,
        obs,
        names: &names,
        supervision: &supervision,
        ladder: ladder.as_ref(),
    };
    let (driver_out, worker_metrics, worker_panics) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..num_workers)
            .map(|worker_idx| {
                let queue = &queue;
                let tx = tx.clone();
                let ctx = &ctx;
                s.spawn(move || worker_loop(worker_idx, ctx, queue, &tx))
            })
            .collect();
        drop(tx);
        let out = driver(Submitter { queue: &queue });
        // Graceful drain: no new admissions, queued work still runs.
        queue.close();
        let mut locals = Vec::with_capacity(num_workers);
        let mut panics = 0_u64;
        for h in handles {
            // A dead worker must not kill the region: count it, keep
            // the survivors' metrics, and keep draining.
            match h.join() {
                Ok(local) => locals.push(local),
                Err(_) => panics += 1,
            }
        }
        (out, locals, panics)
    });
    let sessions: Vec<SessionRecord> = rx.into_iter().collect();
    let ctx_leaks_repaired = sessions
        .iter()
        .filter(|r| r.log.meta_get("ctx_leak").is_some())
        .count() as u64;
    let mut metrics = MetricsLocal::new();
    for local in &worker_metrics {
        metrics.merge(local);
    }
    if worker_panics > 0 {
        metrics.add("server.worker.panics", worker_panics);
    }
    let ladder_transitions = ladder
        .as_ref()
        .map(BrownoutLadder::transitions)
        .unwrap_or_default();
    let ladder_occupancy = ladder
        .as_ref()
        .map(BrownoutLadder::occupancy)
        .unwrap_or_default();
    if !ladder_transitions.is_empty() {
        metrics.add(
            "server.brownout.transitions",
            ladder_transitions.len() as u64,
        );
    }
    publish_fleet_totals(&metrics);
    (
        ServeReport {
            sessions,
            ctx_leaks_repaired,
            worker_metrics,
            metrics,
            worker_panics,
            ladder_transitions,
            ladder_occupancy,
        },
        driver_out,
    )
}

/// Publishes the merged per-worker registries into the global registry
/// — only the fixed fleet-total name set, so repeated serve regions
/// never grow the interned name table.
fn publish_fleet_totals(merged: &MetricsLocal) {
    for &name in PUBLISHED_COUNTERS {
        let v = merged.counter(name);
        if v > 0 {
            p2auth_obs::metrics::counter_handle(name).add(v);
        }
    }
    for &name in PUBLISHED_HISTOGRAMS {
        if let Some(h) = merged.histogram(name) {
            p2auth_obs::metrics::histogram_handle(name).merge_from(h);
        }
    }
}

fn worker_loop(
    worker_idx: usize,
    ctx: &WorkerCtx<'_>,
    queue: &AdmissionQueue,
    tx: &mpsc::Sender<SessionRecord>,
) -> MetricsLocal {
    let mut scratch = SessionScratch::new();
    let mut sup = SessionSupervisor::new(ctx.config.supervisor);
    // The brownout supervisor: same deadlines, zero re-prompt budget.
    let mut sup_brownout = SessionSupervisor::new(brownout_supervisor(ctx.config));
    // The worker's monotonic session clock: shared by every session
    // this worker runs, never rewound — the deployment scenario the
    // supervisor's deadline fixes exist for. Chaos clock-skew is the
    // deliberate exception, clamped at zero.
    let mut clock_s = 0.0_f64;
    // The worker's private registry: plain integers, no contention.
    let mut local = MetricsLocal::new();
    let mut session_idx = 0_u64;
    while let Some(req) = queue.pop() {
        let t0 = Instant::now();
        let mut log = EventLog::new(SessionSeeds::default());
        log.meta_push("request_id", req.request_id.to_string());
        log.meta_push("user_id", req.user_id.to_string());
        log.meta_push("worker", worker_idx.to_string());
        session_idx += 1;
        if let Some(skew) = ctx.obs.chaos.and_then(ChaosPlan::skew) {
            if skew.every > 0 && session_idx.is_multiple_of(skew.every) {
                clock_s = (clock_s - skew.backwards_s).max(0.0);
                local.incr("server.chaos.clock_skews");
                log.push(SessionEvent::Fault {
                    kind: "clock_skew".to_string(),
                    detail: format!("worker clock rewound {:.3}s", skew.backwards_s),
                });
            }
        }
        // One relaxed load (plus a periodic SLO evaluation) per
        // session; Normal when the ladder is off.
        let level = match (ctx.ladder, ctx.obs.slo) {
            (Some(ladder), Some(slo)) => ladder.on_session(slo),
            (Some(ladder), None) => ladder.level(),
            _ => BrownoutLevel::Normal,
        };
        let verdict = {
            let _span = p2auth_obs::span!("server.session");
            if ctx.supervision.is_quarantined(req.user_id) {
                local.incr("server.shed_quarantined");
                SessionVerdict::Shed(ShedReason::Quarantined)
            } else if level == BrownoutLevel::Shed {
                local.incr("server.shed_brownout");
                SessionVerdict::Shed(ShedReason::Brownout)
            } else {
                match ctx.store.get(req.user_id) {
                    None => {
                        local.incr("server.shed_unknown_user");
                        SessionVerdict::Shed(ShedReason::UnknownUser)
                    }
                    Some(entry) => {
                        // Intent journal: the crash-safe restart's
                        // in-flight marker, written before the session
                        // runs (see `crate::recover`).
                        if ctx.config.journal_intents {
                            if let Some(persist) = ctx.obs.persist {
                                let mut intent = EventLog::new(SessionSeeds::default());
                                intent.meta_push("request_id", req.request_id.to_string());
                                intent.meta_push("user_id", req.user_id.to_string());
                                intent.meta_push("phase", "admitted");
                                if persist
                                    .append(req.user_id, intent.encode().as_bytes())
                                    .is_err()
                                {
                                    local.incr("server.persist.errors");
                                }
                            }
                        }
                        run_supervised_session(
                            ctx,
                            &entry.arena,
                            &mut scratch,
                            &mut sup,
                            &mut sup_brownout,
                            &mut clock_s,
                            &req,
                            &mut log,
                            level,
                            &mut local,
                        )
                    }
                }
            }
        };
        // Task-completion boundary (the session span is closed): a
        // context leaked by this session must not parent the next one.
        if p2auth_obs::reset_ctx() {
            local.incr("server.worker.ctx_leaks");
            log.meta_push("ctx_leak", "repaired");
        }
        let latency_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Outcome-labelled latency: completed, shed, aborted and
        // crashed sessions go to separate histograms, so the
        // completed-auth latency story is not diluted (and sheds don't
        // vanish).
        let shard = p2auth_obs::persist::shard_of(req.user_id, ctx.config.shard_count);
        let names = ctx.names.get(shard);
        let mut error = false;
        match &verdict {
            SessionVerdict::Shed(_) => {
                error = true;
                local.record("server.session.latency.shed_ns", latency_ns);
                local.incr(&names.sheds);
            }
            SessionVerdict::Crashed { .. } => {
                // The crash counters moved on the crash path itself.
                error = true;
                local.record("server.session.latency.crashed_ns", latency_ns);
            }
            SessionVerdict::Completed {
                state: SupervisorState::Abort,
                ..
            } => {
                error = true;
                local.incr("server.session.aborts");
                local.incr("server.session.non_accepts");
                local.record("server.session.latency.aborted_ns", latency_ns);
            }
            SessionVerdict::Completed { accepted, .. } => {
                local.incr(if *accepted {
                    "server.session.accepts"
                } else {
                    "server.session.non_accepts"
                });
                if *accepted {
                    local.incr(&names.accepts);
                }
                local.record("server.session.latency_ns", latency_ns);
            }
        }
        // Brownout-1 and above: per-shard breakdowns are the optional
        // obs work the ladder skips first.
        if level < BrownoutLevel::Brownout1 {
            local.incr(&names.sessions);
            local.record(&names.latency_ns, latency_ns);
        }
        if let Some(slo) = ctx.obs.slo {
            slo.record(latency_ns, error);
        }
        if let Some(persist) = ctx.obs.persist {
            if ctx.config.journal_intents {
                log.meta_push("phase", "done");
                log.meta_push("verdict", verdict.tag());
            }
            if persist
                .append(req.user_id, log.encode().as_bytes())
                .is_err()
            {
                // Persistence is best-effort on the hot path: a full
                // disk must degrade observability, not availability.
                local.incr("server.persist.errors");
            }
        }
        let record = SessionRecord {
            response: AuthResponse {
                request_id: req.request_id,
                user_id: req.user_id,
                verdict,
                latency_ns,
                worker: worker_idx,
            },
            log,
        };
        if tx.send(record).is_err() {
            // Receiver gone: the serve region is being torn down.
            return local;
        }
    }
    local
}

/// The supervisor policy used at Brownout-1 and above: identical
/// deadlines, but zero re-prompts — the cheapest way to shorten
/// sessions without changing their decision semantics.
fn brownout_supervisor(config: &ServerConfig) -> p2auth_device::SupervisorConfig {
    p2auth_device::SupervisorConfig {
        max_reprompts: 0,
        ..config.supervisor
    }
}

/// Runs one admitted session under the full fault-tolerance stack:
/// brownout tiering, panic capture (+ quarantine bookkeeping and
/// in-place worker-state respawn), and deadline-aware retry of
/// transient failures.
#[allow(clippy::too_many_arguments)]
fn run_supervised_session(
    ctx: &WorkerCtx<'_>,
    arena: &ProfileArena,
    scratch: &mut SessionScratch,
    sup: &mut SessionSupervisor,
    sup_brownout: &mut SessionSupervisor,
    clock_s: &mut f64,
    req: &AuthRequest,
    log: &mut EventLog,
    level: BrownoutLevel,
    local: &mut MetricsLocal,
) -> SessionVerdict {
    let policy = ctx.config.retry;
    let start_s = *clock_s;
    let mut retry_index = 0_u32;
    loop {
        // Brownout-2: the paper's PIN-only fallback, served first for
        // attempts whose link coverage clears the gate.
        if level >= BrownoutLevel::Brownout2 {
            if let Some(verdict) = pin_only_tier(ctx, arena, clock_s, req, log, local) {
                return verdict;
            }
        }
        let run = {
            let active = if level >= BrownoutLevel::Brownout1 {
                &mut *sup_brownout
            } else {
                &mut *sup
            };
            active.reset();
            if ctx.config.supervision.catch_panics {
                catch_unwind(AssertUnwindSafe(|| {
                    run_session(
                        ctx.system,
                        arena,
                        scratch,
                        active,
                        clock_s,
                        req,
                        log,
                        ctx.obs.chaos,
                    )
                }))
            } else {
                Ok(run_session(
                    ctx.system,
                    arena,
                    scratch,
                    active,
                    clock_s,
                    req,
                    log,
                    ctx.obs.chaos,
                ))
            }
        };
        match run {
            Ok((verdict, transient)) => {
                if let Some(kind) = transient {
                    if let Some(backoff) =
                        policy.next_backoff_s(retry_index, req.request_id, *clock_s - start_s)
                    {
                        retry_index += 1;
                        *clock_s += backoff;
                        local.incr("server.session.retries");
                        log.push(SessionEvent::Fault {
                            kind: "retry".to_string(),
                            detail: format!(
                                "{} retry {retry_index} after {backoff:.3}s backoff",
                                kind.as_str()
                            ),
                        });
                        continue;
                    }
                }
                return verdict;
            }
            Err(payload) => {
                // The worker survives its session's panic: log it,
                // count it, rebuild the session state in place
                // (supervisors and scratch may be mid-transition), and
                // quarantine the profile if it keeps doing this.
                let reason = panic_message(payload.as_ref());
                *scratch = SessionScratch::new();
                *sup = SessionSupervisor::new(ctx.config.supervisor);
                *sup_brownout = SessionSupervisor::new(brownout_supervisor(ctx.config));
                local.incr("server.session.crashes");
                local.incr("server.worker.respawns");
                log.push(SessionEvent::Fault {
                    kind: "crashed".to_string(),
                    detail: reason.clone(),
                });
                let crash = ctx
                    .supervision
                    .record_crash(req.user_id, ctx.config.supervision.quarantine_after);
                if crash.quarantined_now {
                    local.incr("server.profile.quarantines");
                    log.push(SessionEvent::Fault {
                        kind: "quarantined".to_string(),
                        detail: format!("profile quarantined after {} crashes", crash.crashes),
                    });
                }
                return SessionVerdict::Crashed { reason };
            }
        }
    }
}

/// The Brownout-2 fast tier: PIN-only (`authenticate_degraded_arena`)
/// against the first delivered attempt, gated on link coverage so a
/// damaged acquisition still takes the full pipeline (the degraded
/// fallback must not mask a poor-signal reject). Returns `None` to
/// fall through.
fn pin_only_tier(
    ctx: &WorkerCtx<'_>,
    arena: &ProfileArena,
    clock_s: &mut f64,
    req: &AuthRequest,
    log: &mut EventLog,
    local: &mut MetricsLocal,
) -> Option<SessionVerdict> {
    let (recording, quality) = req.attempts.iter().flatten().next()?;
    if quality.coverage < ctx.config.brownout.pin_only_min_coverage {
        return None;
    }
    let decision = ctx
        .system
        .authenticate_degraded_arena(arena, req.claimed_pin.as_ref(), recording)
        .ok()?;
    *clock_s += 1.0;
    local.incr("server.brownout.pin_only");
    log.push(SessionEvent::Fault {
        kind: "brownout".to_string(),
        detail: format!("pin-only tier at coverage {:.3}", quality.coverage),
    });
    log.push(SessionEvent::Decision {
        attempt: 0,
        kind: "brownout_pin_only".to_string(),
        accepted: decision.accepted,
        case: format!("{:?}", decision.case),
        reason: decision.reason.map(|r| r.as_str().to_string()),
        score: decision.score,
        coverage: Some(quality.coverage),
        gap_blocks: Some(quality.gap_blocks as u64),
    });
    let state = if decision.accepted {
        SupervisorState::Accept
    } else {
        SupervisorState::Reject
    };
    log.push(SessionEvent::SessionEnd {
        state: state.as_str().to_string(),
        attempts: 1,
        accepted: decision.accepted,
    });
    Some(SessionVerdict::Completed {
        state,
        attempts: 1,
        accepted: decision.accepted,
    })
}

/// Drives one session's supervisor from its pre-acquired attempts on
/// the worker's shared clock. Identical policy to
/// [`p2auth_device::run_supervised`], but against the store's interned
/// arena, a recycled supervisor, and a clock that does not restart at
/// zero. Exhausted or `None` attempts advance time past the live
/// deadline, so the watchdog — never a hang — ends the session.
///
/// Returns the verdict plus its transient-failure classification
/// (`Abort`, or a reject whose only reason was poor signal) for the
/// retry layer.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_session(
    system: &P2Auth,
    arena: &ProfileArena,
    scratch: &mut SessionScratch,
    sup: &mut SessionSupervisor,
    now: &mut f64,
    req: &AuthRequest,
    log: &mut EventLog,
    chaos: Option<&ChaosPlan>,
) -> (SessionVerdict, Option<TransientFailure>) {
    if let Some(plan) = chaos {
        if plan.should_panic(req.request_id) {
            panic!("chaos: injected panic in request {}", req.request_id);
        }
    }
    macro_rules! step {
        ($event:expr, $now:expr) => {{
            let event = $event;
            let from = sup.state();
            let to = sup.step(event, $now);
            if from == to {
                log.push(SessionEvent::DeadlineTick {
                    state: from.as_str().to_string(),
                    now_s: $now,
                    deadline_s: sup.deadline_s(),
                });
            } else {
                log.push(SessionEvent::Transition {
                    from: from.as_str().to_string(),
                    to: to.as_str().to_string(),
                    event: event.name().to_string(),
                    now_s: $now,
                });
            }
            to
        }};
    }
    step!(SupervisorEvent::Start, *now);
    let mut deliveries = req.attempts.iter();
    let mut last_outcome: Option<SessionOutcome> = None;
    while !sup.state().is_terminal() {
        let attempt_no = sup.reprompts_used();
        match deliveries.next() {
            None | Some(None) => {
                // Nothing (more) was delivered: let time run out.
                let deadline = sup.deadline_s().unwrap_or(*now);
                *now = if deadline >= f64::MAX {
                    deadline
                } else {
                    deadline + 1e-3
                };
                step!(SupervisorEvent::Tick, *now);
            }
            Some(Some((recording, quality))) => {
                *now += 2.0;
                step!(SupervisorEvent::CollectionComplete, *now);
                *now += 0.5;
                // One analysis per delivered attempt: Assessing
                // summarizes it, Deciding scores it.
                let analysis = system.analyze_arena(arena, recording);
                let assessment = analysis.as_ref().ok().map(|a| a.quality(system.config()));
                if let Some(q) = &assessment {
                    log.push(SessionEvent::Assessment {
                        attempt: attempt_no,
                        detected: q.detected as u32,
                        usable: q.usable as u32,
                        mean_sqi: q.mean_sqi,
                    });
                }
                step!(
                    SupervisorEvent::assessed(assessment.as_ref(), system.config().sqi_gating),
                    *now
                );
                // Deciding is only entered on AssessmentReady, so the
                // analysis is always there when the state matches.
                if let (SupervisorState::Deciding, Ok(analysis)) = (sup.state(), &analysis) {
                    *now += 0.5;
                    let outcome = p2auth_device::decide_session_analyzed(
                        system,
                        arena,
                        scratch,
                        req.claimed_pin.as_ref(),
                        analysis,
                        *quality,
                    );
                    log.push(decision_event(attempt_no, &outcome));
                    let event = SupervisorEvent::decided(&outcome);
                    last_outcome = Some(outcome);
                    step!(event, *now);
                }
                if sup.state() == SupervisorState::Reprompt {
                    #[allow(clippy::unwrap_used)]
                    // INVARIANT: Reprompt always carries a deadline.
                    let deadline = sup.deadline_s().unwrap();
                    *now = if deadline >= f64::MAX {
                        deadline
                    } else {
                        deadline + 1e-3
                    };
                    step!(SupervisorEvent::Tick, *now);
                }
            }
        }
    }
    let state = sup.state();
    let accepted = state == SupervisorState::Accept
        && last_outcome.as_ref().is_some_and(SessionOutcome::accepted);
    log.push(SessionEvent::SessionEnd {
        state: state.as_str().to_string(),
        attempts: sup.attempts(),
        accepted,
    });
    // Transient classification for the retry layer: aborts (the link
    // never delivered) and pure poor-signal rejects are worth asking
    // the device again; a hard reject is not (retrying an adversary
    // hands them extra guesses).
    let transient = match state {
        SupervisorState::Abort => Some(TransientFailure::Abort),
        SupervisorState::Reject => {
            let poor_signal = last_outcome
                .as_ref()
                .and_then(SessionOutcome::decision)
                .is_some_and(|d| d.reason == Some(p2auth_core::RejectReason::PoorSignal));
            poor_signal.then_some(TransientFailure::PoorSignal)
        }
        _ => None,
    };
    (
        SessionVerdict::Completed {
            state,
            attempts: sup.attempts(),
            accepted,
        },
        transient,
    )
}

fn decision_event(attempt_no: u32, outcome: &SessionOutcome) -> SessionEvent {
    let (kind, accepted, case, reason, score, coverage, gap_blocks) = match outcome {
        SessionOutcome::Decision(d) => (
            "decision",
            d.accepted,
            format!("{:?}", d.case),
            d.reason.map(|r| r.as_str().to_string()),
            d.score,
            None,
            None,
        ),
        SessionOutcome::Degraded {
            decision,
            coverage,
            gap_blocks,
        } => (
            "degraded",
            decision.accepted,
            format!("{:?}", decision.case),
            decision.reason.map(|r| r.as_str().to_string()),
            decision.score,
            Some(*coverage),
            Some(*gap_blocks as u64),
        ),
        SessionOutcome::Abort {
            reason,
            coverage,
            gap_blocks,
        } => (
            "abort",
            false,
            String::new(),
            Some(reason.clone()),
            0.0,
            Some(*coverage),
            Some(*gap_blocks as u64),
        ),
    };
    SessionEvent::Decision {
        attempt: attempt_no,
        kind: kind.to_string(),
        accepted,
        case,
        reason,
        score,
        coverage,
        gap_blocks,
    }
}
