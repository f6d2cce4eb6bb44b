//! The open-loop serving frontend: request arrivals, batching, and
//! tail-latency accounting.
//!
//! Everything else in this crate runs a *closed-loop* batch job — a
//! fixed round count decided up front. Online inference serving is the
//! opposite shape: requests arrive on their own clock (a Poisson or
//! bursty MMPP process, or a replayed trace), queue in a
//! `RequestBuffer` under a [`BatchPolicy`], and each admitted batch
//! becomes one pipeline round appended to the live
//! [`crate::SystemSimulator`] round machinery. The per-request
//! timeline (arrival → round start → round finish) folds into a
//! [`ServingReport`] with nearest-rank p50/p99/p999 latency, queueing
//! delay, goodput and drop counts.
//!
//! The arrival stream is a pure function of the traffic spec (and
//! seed), never of the simulated system: replaying the same traffic
//! against two configurations compares them under identical load.
//!
//! The frontend is one component on the system's own engine: the
//! `RequestBuffer`, which schedules each arrival of the stream as it
//! handles the one before, batches the requests and appends the
//! admitted rounds to every active chip.

use crate::components::ChipEvent;
use crate::error::SimError;
use pim_engine::{ArrivalGen, Component, ComponentId, EngineCtx, Event, SimTime, TrafficModel};
use serde::{Deserialize, Serialize};
use std::any::Any;

/// A replayable request-arrival trace: absolute arrival instants in
/// nanoseconds, non-decreasing. The JSON form is the interchange
/// format — generate once with [`RequestTrace::synthesize`], commit,
/// and every replay sees byte-identical traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Absolute arrival instants, ns, sorted ascending.
    pub arrivals_ns: Vec<f64>,
}

impl RequestTrace {
    /// Samples `requests` arrivals from `model` seeded with `seed`.
    /// Deterministic: same `(model, seed, requests)` → the same trace,
    /// bit for bit. A model that runs dry (zero rates) yields a
    /// shorter — possibly empty — trace.
    ///
    /// # Panics
    ///
    /// Panics on a model [`ArrivalGen::new`] rejects;
    /// [`TrafficSpec::arrivals`] returns a typed error instead.
    pub fn synthesize(model: TrafficModel, seed: u64, requests: usize) -> Self {
        let mut arrivals = ArrivalGen::new(model, seed);
        let mut arrivals_ns = Vec::new();
        arrivals.fill_arrivals_ns(0.0, requests, &mut arrivals_ns);
        Self { arrivals_ns }
    }
}

/// Where a serving run's requests come from.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// Sample arrivals from a [`TrafficModel`] at run time (still
    /// deterministic per seed — the synthetic path is exactly
    /// [`RequestTrace::synthesize`] inlined).
    Synthetic {
        /// The arrival process.
        model: TrafficModel,
        /// RNG seed; the arrival stream is a pure function of
        /// `(model, seed)`.
        seed: u64,
        /// Number of requests to generate.
        requests: usize,
    },
    /// Replay a pre-recorded (or pre-generated) trace.
    Trace(RequestTrace),
}

impl TrafficSpec {
    /// Resolves the spec to absolute arrival instants.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidServing`] when a synthetic model has a
    /// negative or NaN rate or an MMPP dwell mean that is not finite
    /// and positive, or when a replayed trace is unsorted or carries a
    /// negative/non-finite arrival.
    pub fn arrivals(&self) -> Result<Vec<f64>, SimError> {
        match self {
            TrafficSpec::Synthetic { model, seed, requests } => {
                let (rates, dwell_means) = match *model {
                    TrafficModel::Poisson { rate_per_s } => ([rate_per_s, 0.0], None),
                    TrafficModel::Mmpp {
                        calm_rate_per_s,
                        burst_rate_per_s,
                        mean_calm_s,
                        mean_burst_s,
                    } => ([calm_rate_per_s, burst_rate_per_s], Some([mean_calm_s, mean_burst_s])),
                };
                if let Some(rate) = rates.into_iter().find(|rate| rate.is_nan() || *rate < 0.0) {
                    return Err(SimError::InvalidServing(format!(
                        "traffic rate {rate}/s is not a non-negative number"
                    )));
                }
                let mut means = dwell_means.into_iter().flatten();
                if let Some(mean) = means.find(|mean| !(mean.is_finite() && *mean > 0.0)) {
                    return Err(SimError::InvalidServing(format!(
                        "MMPP dwell mean {mean} s is not finite and positive"
                    )));
                }
                Ok(RequestTrace::synthesize(*model, *seed, *requests).arrivals_ns)
            }
            TrafficSpec::Trace(trace) => {
                let arrivals = &trace.arrivals_ns;
                for (i, &t) in arrivals.iter().enumerate() {
                    if !t.is_finite() || t < 0.0 {
                        return Err(SimError::InvalidServing(format!(
                            "trace arrival {i} is {t}, not a finite non-negative time"
                        )));
                    }
                    if i > 0 && t < arrivals[i - 1] {
                        return Err(SimError::InvalidServing(format!(
                            "trace arrivals must be non-decreasing: arrival {i} at {t} ns \
                             precedes arrival {} at {} ns",
                            i - 1,
                            arrivals[i - 1]
                        )));
                    }
                }
                Ok(arrivals.clone())
            }
        }
    }
}

/// When the request buffer cuts a batch (= one pipeline round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Dispatch every request as its own round the moment capacity
    /// allows — minimum queueing, maximum rounds.
    Immediate,
    /// Wait for a full batch of this size; partial batches flush only
    /// when the arrival stream runs dry.
    MaxSize(
        /// Requests per batch (at least 1).
        usize,
    ),
    /// Batch-versus-deadline: cut at `max_size`, or when the oldest
    /// queued request has waited `timeout_ns` — the classic bounded
    /// batching latency knob.
    Deadline {
        /// Requests per batch (at least 1).
        max_size: usize,
        /// Longest the oldest queued request may wait before a
        /// partial batch is cut anyway.
        timeout_ns: f64,
    },
}

impl BatchPolicy {
    /// Largest batch this policy ever cuts.
    fn max_batch(&self) -> usize {
        match *self {
            BatchPolicy::Immediate => 1,
            BatchPolicy::MaxSize(n) | BatchPolicy::Deadline { max_size: n, .. } => n,
        }
    }
}

/// Configuration of one open-loop serving run — see
/// [`crate::SystemSimulator::run_serving`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// The request arrival stream.
    pub traffic: TrafficSpec,
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Queued requests beyond this are dropped (admission control).
    pub queue_capacity: usize,
    /// Rounds allowed in flight at once before batch formation
    /// backpressures (at least 1).
    pub max_inflight: usize,
    /// Latency SLO; requests finishing later count as violations and
    /// fall out of goodput. `None` counts every completion as good.
    pub slo_ns: Option<f64>,
}

impl ServingConfig {
    /// A config serving `traffic` with immediate dispatch, a
    /// 1024-request queue, two rounds in flight, and no SLO.
    pub fn new(traffic: TrafficSpec) -> Self {
        Self {
            traffic,
            policy: BatchPolicy::Immediate,
            queue_capacity: 1024,
            max_inflight: 2,
            slo_ns: None,
        }
    }

    /// Sets the batch-formation policy.
    pub fn with_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the queue capacity (requests beyond it are dropped).
    pub fn with_queue_capacity(mut self, requests: usize) -> Self {
        self.queue_capacity = requests;
        self
    }

    /// Sets the in-flight round limit.
    pub fn with_max_inflight(mut self, rounds: usize) -> Self {
        self.max_inflight = rounds;
        self
    }

    /// Sets the latency SLO in nanoseconds.
    pub fn with_slo_ns(mut self, slo_ns: f64) -> Self {
        self.slo_ns = Some(slo_ns);
        self
    }
}

/// One served request's timeline within a [`ServingReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Arrival instant, ns.
    pub arrival_ns: f64,
    /// The pipeline round (batch) that served it.
    pub round: usize,
    /// Instant its round started executing, ns.
    pub start_ns: f64,
    /// Instant its round fully drained (all chips), ns.
    pub finish_ns: f64,
}

impl RequestRecord {
    /// Queueing delay: round start minus arrival, ns.
    pub fn queue_ns(&self) -> f64 {
        self.start_ns - self.arrival_ns
    }

    /// End-to-end latency: round finish minus arrival, ns.
    pub fn latency_ns(&self) -> f64 {
        self.finish_ns - self.arrival_ns
    }
}

/// The per-request section of a serving-mode [`crate::SimReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Requests admitted and served to completion.
    pub requests: usize,
    /// Requests dropped at the full queue.
    pub dropped: usize,
    /// Pipeline rounds (batches) dispatched.
    pub rounds: usize,
    /// Median end-to-end latency, ns (nearest-rank).
    pub p50_ns: f64,
    /// 99th-percentile latency, ns (nearest-rank).
    pub p99_ns: f64,
    /// 99.9th-percentile latency, ns (nearest-rank).
    pub p999_ns: f64,
    /// Mean queueing delay, ns.
    pub mean_queue_ns: f64,
    /// Requests completed within the SLO per second of makespan (all
    /// completions when no SLO is set).
    pub goodput_rps: f64,
    /// Completions that missed the SLO.
    pub slo_violations: usize,
    /// Per-request timelines, in admission order.
    pub records: Vec<RequestRecord>,
}

/// Nearest-rank percentile of an ascending-`sorted` sample: the value
/// at rank `ceil(q · n)` (1-based), clamped into the sample — so
/// `q = 0.5` of `[1, 2, 3, 4]` is 2, and any `q` of a single sample is
/// that sample. Empty samples report 0.0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact nearest-rank percentiles of an *unsorted* sample, one value
/// per entry of `qs`, without the full sort: each quantile is one
/// quickselect (`select_nth_unstable` under `f64::total_cmp`), and
/// quantiles are resolved in ascending rank order over the shrinking
/// unpartitioned tail, so the whole batch is O(n) expected instead of
/// the O(n log n) sort [`percentile`] needs. The values are identical
/// to sorting the sample and applying [`percentile`] — the k-th order
/// statistic does not depend on how it was found. `sample` is
/// reordered in place; empty samples report 0.0 for every quantile.
pub fn percentiles(sample: &mut [f64], qs: &[f64]) -> Vec<f64> {
    let n = sample.len();
    if n == 0 {
        return vec![0.0; qs.len()];
    }
    let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let mut order: Vec<usize> = (0..qs.len()).collect();
    order.sort_by_key(|&i| rank(qs[i]));
    let mut out = vec![0.0; qs.len()];
    // Everything below `base` is already partitioned to its final
    // position by an earlier select, so later (larger) ranks only
    // search the tail.
    let mut base = 0;
    let mut prev: Option<usize> = None;
    for &i in &order {
        let r = rank(qs[i]);
        if prev == Some(r) {
            // `select_nth_unstable` left the value in place.
            out[i] = sample[r];
            continue;
        }
        let (_, value, _) = sample[base..].select_nth_unstable_by(r - base, |a, b| a.total_cmp(b));
        out[i] = *value;
        base = r + 1;
        prev = Some(r);
    }
    out
}

/// The admission latency of the request buffer, in nanoseconds: a cut
/// at instant `t` delivers its `ChipEvent::AppendRound`s at
/// `t + ADMISSION_LATENCY_NS`. The value is an exact binary fraction
/// (2⁻¹², ~0.24 ps) so the addition is lossless against every
/// realistic simulated timestamp, and it is far below any physical
/// latency in the model, so it never reorders real work.
///
/// It stays non-zero because every recorded serving result — the
/// serving baselines, the benchmarked p99 — was taken with it: a
/// zero-latency admission would shift every serving timestamp by the
/// quantum and change report bytes. Dropping it is a behaviour change
/// in its own right, not a cleanup.
pub const ADMISSION_LATENCY_NS: f64 = 1.0 / 4096.0;

/// The request buffer + dispatcher component: delivers the arrival
/// stream to itself one [`ChipEvent::NewRequest`] at a time, queues
/// arrivals under admission control, cuts batches per the
/// [`BatchPolicy`], and counts per-chip round completions for the
/// in-flight backpressure limit. The stream is fixed at construction
/// (open loop: arrivals never react to the system), and handling one
/// arrival schedules the next, so one arrival is pending at a time.
/// Each cut schedules one [`ChipEvent::AppendRound`] per active chip
/// [`ADMISSION_LATENCY_NS`] after the cut; deadline timers are
/// [`ChipEvent::FlushDeadline`] self-events. After the run its
/// admission ledger (`formed`, `admitted`, `dropped`) feeds the report
/// fold.
pub(crate) struct RequestBuffer {
    /// The whole arrival stream, ns, non-decreasing.
    arrivals_ns: Vec<f64>,
    /// Arrivals handled so far; the stream has run dry once this
    /// reaches its length.
    handled: usize,
    policy: BatchPolicy,
    queue_capacity: usize,
    max_inflight: usize,
    /// Active chips `(index, sequencer address)`, in admission fan-out
    /// order.
    active: Vec<(usize, ComponentId)>,
    /// Rounds each active chip has completed, parallel to `active`.
    completed: Vec<usize>,
    /// Arrival instants of queued requests, oldest first.
    queue: Vec<f64>,
    /// Batch generation — stale flush timers carry an older value and
    /// are ignored.
    generation: u64,
    /// A deadline fired while backpressured: cut as soon as a round
    /// slot frees, even below `max_size`.
    deadline_due: bool,
    /// Rounds dispatched so far.
    pub(crate) formed: usize,
    /// `(arrival instant, round)` per admitted request, in admission
    /// order.
    pub(crate) admitted: Vec<(f64, usize)>,
    /// Requests dropped at the full queue.
    pub(crate) dropped: usize,
}

impl RequestBuffer {
    pub(crate) fn new(
        config: &ServingConfig,
        arrivals_ns: Vec<f64>,
        active: Vec<(usize, ComponentId)>,
    ) -> Self {
        let completed = vec![0; active.len()];
        Self {
            arrivals_ns,
            handled: 0,
            policy: config.policy,
            queue_capacity: config.queue_capacity,
            max_inflight: config.max_inflight,
            active,
            completed,
            queue: Vec::new(),
            generation: 0,
            deadline_due: false,
            formed: 0,
            admitted: Vec::new(),
            dropped: 0,
        }
    }

    /// Schedules the first arrival not yet handled, if any is left.
    fn schedule_next_arrival(&self, me: ComponentId, ctx: &mut EngineCtx<'_, ChipEvent>) {
        if let Some(&at) = self.arrivals_ns.get(self.handled) {
            ctx.schedule(SimTime::from_ns(at), me, ChipEvent::NewRequest);
        }
    }

    /// Whether every arrival of the stream has been handled.
    fn drained(&self) -> bool {
        self.handled == self.arrivals_ns.len()
    }

    /// Rounds dispatched but not yet completed by every active chip.
    fn inflight(&self) -> usize {
        self.formed - self.completed.iter().copied().min().unwrap_or(0)
    }

    /// Whether the queue currently justifies cutting a batch.
    fn batch_due(&self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        match self.policy {
            BatchPolicy::Immediate => true,
            BatchPolicy::MaxSize(n) => self.queue.len() >= n || self.drained(),
            BatchPolicy::Deadline { max_size, .. } => {
                self.queue.len() >= max_size || self.drained() || self.deadline_due
            }
        }
    }

    /// Cuts every batch that is due and fits under the in-flight
    /// limit. Each cut admits the oldest queued requests as round
    /// `formed`, broadcasts the round to every active chip, and
    /// re-arms the flush timer.
    fn try_cut(&mut self, now_ns: f64, me: ComponentId, ctx: &mut EngineCtx<'_, ChipEvent>) {
        while self.inflight() < self.max_inflight && self.batch_due() {
            let take = self.queue.len().min(self.policy.max_batch());
            let round = self.formed;
            self.formed += 1;
            for arrival in self.queue.drain(..take) {
                self.admitted.push((arrival, round));
            }
            self.generation += 1;
            self.deadline_due = false;
            let at = SimTime::from_ns(now_ns + ADMISSION_LATENCY_NS);
            for &(_, sequencer) in &self.active {
                ctx.schedule(at, sequencer, ChipEvent::AppendRound);
            }
            self.arm_deadline(now_ns, me, ctx);
        }
    }

    /// (Re)arms the flush timer for the oldest queued request, if the
    /// policy has one.
    fn arm_deadline(&self, now_ns: f64, me: ComponentId, ctx: &mut EngineCtx<'_, ChipEvent>) {
        let BatchPolicy::Deadline { timeout_ns, .. } = self.policy else { return };
        let Some(&oldest) = self.queue.first() else { return };
        let due = SimTime::from_ns((oldest + timeout_ns).max(now_ns));
        ctx.schedule(due, me, ChipEvent::FlushDeadline { generation: self.generation });
    }
}

impl Component<ChipEvent> for RequestBuffer {
    fn on_event(&mut self, event: Event<ChipEvent>, ctx: &mut EngineCtx<'_, ChipEvent>) {
        let now_ns = event.time.as_ns();
        let me = event.target;
        match event.payload {
            ChipEvent::Kick => self.schedule_next_arrival(me, ctx),
            ChipEvent::NewRequest => {
                // Scheduled first, so the next arrival precedes any
                // deadline timer this arrival arms for the same instant.
                self.handled += 1;
                self.schedule_next_arrival(me, ctx);
                if self.queue.len() >= self.queue_capacity {
                    self.dropped += 1;
                } else {
                    self.queue.push(now_ns);
                    if self.queue.len() == 1 {
                        self.arm_deadline(now_ns, me, ctx);
                    }
                }
            }
            ChipEvent::FlushDeadline { generation } => {
                if generation != self.generation {
                    return;
                }
                self.deadline_due = true;
            }
            ChipEvent::RoundDone { chip } => {
                let slot = self
                    .active
                    .iter()
                    .position(|&(c, _)| c == chip)
                    .expect("round reports come from registered sequencers");
                self.completed[slot] += 1;
            }
            other => unreachable!("request buffer received {other:?}"),
        }
        self.try_cut(now_ns, me, ctx);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [10.0, 20.0, 30.0, 40.0];
        // ceil(0.5 * 4) = 2 → the *lower* median, per nearest-rank.
        assert_eq!(percentile(&sample, 0.5), 20.0);
        assert_eq!(percentile(&sample, 0.25), 10.0);
        // Anything past the last rank boundary lands on the max.
        assert_eq!(percentile(&sample, 0.76), 40.0);
        assert_eq!(percentile(&sample, 0.99), 40.0);
        assert_eq!(percentile(&sample, 1.0), 40.0);
        // Tie values: the rank picks the tied value either side.
        let tied = [1.0, 2.0, 2.0, 2.0, 3.0];
        assert_eq!(percentile(&tied, 0.5), 2.0);
        assert_eq!(percentile(&tied, 0.4), 2.0);
        assert_eq!(percentile(&tied, 0.8), 2.0);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.99), 0.0, "empty buffer reports zero");
        let single = [42.0];
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(percentile(&single, q), 42.0, "single request is every percentile");
        }
        // q = 0 clamps up to rank 1 instead of underflowing.
        assert_eq!(percentile(&[5.0, 6.0], 0.0), 5.0);
    }

    #[test]
    fn synthesized_traces_are_seed_deterministic() {
        let model = TrafficModel::Poisson { rate_per_s: 1e6 };
        let a = RequestTrace::synthesize(model, 9, 100);
        let b = RequestTrace::synthesize(model, 9, 100);
        assert_eq!(a, b);
        assert_eq!(a.arrivals_ns.len(), 100);
        assert!(a.arrivals_ns.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
        let c = RequestTrace::synthesize(model, 10, 100);
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn trace_round_trips_byte_identically() {
        let model = TrafficModel::Mmpp {
            calm_rate_per_s: 1e5,
            burst_rate_per_s: 1e6,
            mean_calm_s: 1e-3,
            mean_burst_s: 1e-4,
        };
        let trace = RequestTrace::synthesize(model, 21, 64);
        let json = serde_json::to_string(&trace).unwrap();
        let back: RequestTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace, "values survive the round trip");
        let again = serde_json::to_string(&back).unwrap();
        assert_eq!(json, again, "re-serialization is byte-identical");
        // And the replayed spec resolves to the same arrivals as the
        // synthetic one.
        let synthetic =
            TrafficSpec::Synthetic { model, seed: 21, requests: 64 }.arrivals().unwrap();
        assert_eq!(TrafficSpec::Trace(back).arrivals().unwrap(), synthetic);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        let unsorted = TrafficSpec::Trace(RequestTrace { arrivals_ns: vec![5.0, 3.0] });
        assert!(matches!(unsorted.arrivals(), Err(SimError::InvalidServing(_))));
        let negative = TrafficSpec::Trace(RequestTrace { arrivals_ns: vec![-1.0] });
        assert!(matches!(negative.arrivals(), Err(SimError::InvalidServing(_))));
        let nan = TrafficSpec::Trace(RequestTrace { arrivals_ns: vec![f64::NAN] });
        assert!(matches!(nan.arrivals(), Err(SimError::InvalidServing(_))));
    }

    #[test]
    fn buffer_sees_exactly_the_trace_arrivals_in_order() {
        // A buffer with no chips to feed never waits on a round, so its
        // admission ledger is the stream it handled. Returns the ledger
        // and the instant the run went idle.
        fn handled(arrivals: &[f64], policy: BatchPolicy) -> (Vec<(f64, usize)>, SimTime) {
            let trace = TrafficSpec::Trace(RequestTrace { arrivals_ns: arrivals.to_vec() });
            let config =
                ServingConfig::new(trace).with_policy(policy).with_max_inflight(arrivals.len() + 1);
            let mut engine = pim_engine::Engine::new(0);
            let id = engine.add_component(RequestBuffer::new(&config, arrivals.to_vec(), vec![]));
            engine.schedule(SimTime::ZERO, id, ChipEvent::Kick);
            engine.run_until_idle();
            let buffer: RequestBuffer = engine.extract(id).expect("buffer survives the run");
            assert_eq!(buffer.dropped, 0);
            (buffer.admitted, engine.now())
        }
        let model = TrafficModel::Poisson { rate_per_s: 2.5e5 };
        let poisson = RequestTrace::synthesize(model, 13, 48).arrivals_ns;
        let duplicates = vec![0.0, 0.0, 5.0, 5.0, 5.0, 9.5];
        for arrivals in [duplicates, vec![0.0], vec![3.0], poisson] {
            let last = SimTime::from_ns(*arrivals.last().expect("non-empty trace"));
            // One round per arrival, each cut the moment it lands.
            let (ledger, idle) = handled(&arrivals, BatchPolicy::Immediate);
            let one_each: Vec<_> = arrivals.iter().enumerate().map(|(r, &a)| (a, r)).collect();
            assert_eq!(ledger, one_each, "{arrivals:?}");
            assert_eq!(idle, last);
            // A batch larger than the trace is cut only once the last
            // arrival marks the stream drained.
            let (ledger, idle) = handled(&arrivals, BatchPolicy::MaxSize(arrivals.len() + 1));
            let one_batch: Vec<_> = arrivals.iter().map(|&a| (a, 0)).collect();
            assert_eq!(ledger, one_batch, "{arrivals:?}");
            assert_eq!(idle, last);
        }
        assert_eq!(handled(&[], BatchPolicy::Immediate), (vec![], SimTime::ZERO), "empty trace");
    }

    #[test]
    fn config_builder_sets_knobs() {
        let trace = TrafficSpec::Trace(RequestTrace { arrivals_ns: vec![0.0] });
        let config = ServingConfig::new(trace)
            .with_policy(BatchPolicy::Deadline { max_size: 8, timeout_ns: 5e3 })
            .with_queue_capacity(32)
            .with_max_inflight(4)
            .with_slo_ns(1e6);
        assert_eq!(config.policy, BatchPolicy::Deadline { max_size: 8, timeout_ns: 5e3 });
        assert_eq!(config.queue_capacity, 32);
        assert_eq!(config.max_inflight, 4);
        assert_eq!(config.slo_ns, Some(1e6));
    }
}
