//! Threaded message-passing SPMD runtime over compiled execution plans.
//!
//! One OS thread per simulated mesh device. Each device executes a
//! [`CompiledPlan`] ([`crate::plan`]) — the device-local program
//! pre-resolved to direct kernel calls over a fixed arena, with
//! collective schedules wired per device at compile time — rather than
//! re-interpreting the program op by op every run. Collectives exchange
//! tensors over per-device-pair channels using the algorithms in
//! [`crate::collectives`] (ring all-gather, scatter-reduce + ring
//! all-reduce, direct-exchange reduce-scatter / all-to-all). Unlike the
//! lockstep interpreter ([`crate::interp::run_devices`]) — kept as the
//! differential oracle — nothing reaches into another device's
//! environment: every cross-device byte travels through a channel, is
//! sequence-numbered and checksummed, and is counted per mesh axis into
//! [`RuntimeStats`] — which `partir_sim::reconcile` cross-checks against
//! the analytical cost model and the exact mirror
//! [`crate::collectives::predict_traffic`].
//!
//! The runtime is deterministic where it matters: collective fold and
//! concatenation orders are fixed by mesh coordinates (matching the
//! staged lockstep interpreter bit-for-bit), so fault-free concurrent
//! runs produce bit-identical outputs regardless of thread scheduling.
//! Only [`RuntimeStats::rendezvous_waits`] — how often a receive had to
//! park the thread because its peer had not sent yet — varies run to
//! run.
//!
//! # Fault injection
//!
//! [`Fault`]s make failure paths testable: a device can stall (peers
//! detect the missed rendezvous via [`RuntimeConfig::rendezvous_timeout`]
//! and surface [`RuntimeError::Timeout`]), corrupt the payload of its
//! n-th message after checksumming (the receiver surfaces
//! [`RuntimeError::Corrupt`]), or drop out before executing anything
//! ([`RuntimeError::Dropped`]). [`seeded_faults`] derives a deterministic
//! fault plan from a `partir-prng` seed so failing cases replay exactly.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

use partir_ir::{DType, Func, IrError, Literal};
use partir_mesh::{Axis, Mesh};
use partir_prng::Rng;

use crate::collectives::{AxisTraffic, Exchange, TrafficPrediction};
use crate::plan::{CompiledPlan, PlanOptions};

/// Knobs for one threaded execution.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// How long a device waits on a rendezvous before declaring the
    /// program deadlocked ([`RuntimeError::Timeout`]).
    pub rendezvous_timeout: Duration,
    /// Faults to inject, normally empty.
    pub faults: Vec<Fault>,
    /// Whether to checksum every message (FNV-1a over the payload) and
    /// verify it on receive. Off by default — in-process channels cannot
    /// corrupt payloads, and hashing every byte dominates small-message
    /// runs. Forced on whenever `faults` is non-empty, so every
    /// fault-injection test verifies checksums regardless of this flag.
    pub verify_checksums: bool,
    /// Schedule-perturbation fuzzing: when set, every device injects
    /// seeded random yields/sleeps at its channel send/recv boundaries.
    /// Payloads and counters are untouched — chaos shakes thread
    /// interleavings, so a run that is bit-identical under chaos really
    /// is schedule-independent. `None` (the default) injects nothing.
    pub chaos: Option<ChaosConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            rendezvous_timeout: Duration::from_secs(5),
            faults: Vec::new(),
            verify_checksums: false,
            chaos: None,
        }
    }
}

impl RuntimeConfig {
    /// Default config with a different rendezvous timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        RuntimeConfig {
            rendezvous_timeout: timeout,
            ..RuntimeConfig::default()
        }
    }

    /// Default config with the given fault plan. A non-empty plan forces
    /// checksum verification on.
    pub fn with_faults(faults: Vec<Fault>) -> Self {
        RuntimeConfig {
            faults,
            ..RuntimeConfig::default()
        }
    }

    /// Default config with checksum verification explicitly enabled.
    pub fn with_checksums() -> Self {
        RuntimeConfig {
            verify_checksums: true,
            ..RuntimeConfig::default()
        }
    }

    /// Default config with schedule-perturbation fuzzing armed from
    /// `seed`. Equal seeds perturb identically per device, so a failing
    /// interleaving replays exactly.
    pub fn with_chaos(seed: u64) -> Self {
        RuntimeConfig {
            chaos: Some(ChaosConfig { seed }),
            ..RuntimeConfig::default()
        }
    }

    /// Whether this run computes and verifies message checksums: the
    /// explicit flag, or any armed fault.
    pub fn checksums_armed(&self) -> bool {
        self.verify_checksums || !self.faults.is_empty()
    }
}

/// A deterministic fault to inject into one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The device sleeps `millis` before executing anything. With a
    /// shorter rendezvous timeout its peers surface
    /// [`RuntimeError::Timeout`] — the deadlock-detection path.
    Stall {
        /// Device to stall.
        device: usize,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// The device NaN-poisons (f32) or bit-flips (i32/pred) the payload
    /// of its `message`-th outgoing message *after* checksumming, so the
    /// receiver's checksum verification fails with
    /// [`RuntimeError::Corrupt`].
    Corrupt {
        /// Device whose outgoing message is corrupted.
        device: usize,
        /// 0-based index of the outgoing message to corrupt.
        message: u64,
    },
    /// The device exits before executing anything, as a crashed
    /// participant. Surfaced as [`RuntimeError::Dropped`].
    Drop {
        /// Device that drops out.
        device: usize,
    },
}

/// Seeded schedule-perturbation fuzzing ([`RuntimeConfig::chaos`]).
///
/// Each device derives its own generator from `seed` and, at every
/// channel send/receive boundary, draws one perturbation: usually
/// nothing, sometimes a scheduler yield, occasionally a sleep of tens
/// of microseconds. That is enough to shake loose any ordering the
/// runtime silently relies on — an overlapped plan whose eager sends
/// race peers' receives must produce bit-identical outputs and exact
/// traffic counts under every seed (`spmd/tests/chaos_conformance.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Root seed; device `d` perturbs with a generator derived from
    /// `(seed, d)`, so plans replay exactly.
    pub seed: u64,
}

impl ChaosConfig {
    /// The perturbation generator for one device.
    fn rng_for(&self, device: usize) -> Rng {
        Rng::seed_from_u64(self.seed ^ (device as u64).wrapping_mul(0x9e3779b97f4a7c15))
    }
}

/// Derives a deterministic single-fault plan from a seed.
///
/// Equal seeds on equal meshes produce equal plans, so a failing
/// fault-injection case replays exactly.
pub fn seeded_faults(seed: u64, mesh: &Mesh) -> Vec<Fault> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut pick = rng.split();
    let device = pick.gen_range(mesh.num_devices());
    match rng.gen_range(3) {
        0 => vec![Fault::Stall {
            device,
            millis: 100 + rng.gen_range(150) as u64,
        }],
        1 => vec![Fault::Corrupt {
            device,
            message: rng.gen_range(4) as u64,
        }],
        _ => vec![Fault::Drop { device }],
    }
}

/// A failure of a threaded execution, attributed to the device that
/// observed it.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A receive's checksum did not match: the payload was corrupted in
    /// flight (e.g. by a [`Fault::Corrupt`]).
    Corrupt {
        /// Device that detected the corruption.
        device: usize,
        /// Sender of the corrupted message.
        peer: usize,
        /// Mesh axis the exchange ran over.
        axis: Axis,
    },
    /// A device dropped out of the computation ([`Fault::Drop`]).
    Dropped {
        /// The dropped device.
        device: usize,
    },
    /// Device-local evaluation failed.
    Ir(IrError),
    /// A message arrived out of sequence — a runtime bug, not a fault.
    Protocol {
        /// Device that detected the violation.
        device: usize,
        /// Sender of the out-of-sequence message.
        peer: usize,
        /// Expected sequence number.
        expected: u64,
        /// Received sequence number.
        got: u64,
    },
    /// A rendezvous did not complete within the configured timeout:
    /// the runtime's deadlock detection.
    Timeout {
        /// Device whose receive timed out.
        device: usize,
        /// Peer it was waiting on.
        peer: usize,
        /// Mesh axis of the pending exchange.
        axis: Axis,
    },
    /// A device thread panicked.
    Panicked {
        /// The panicked device.
        device: usize,
    },
    /// A peer's channel closed mid-collective (the peer already failed;
    /// usually shadowed by the peer's own, more specific error).
    Disconnected {
        /// Device that observed the closed channel.
        device: usize,
        /// The vanished peer.
        peer: usize,
    },
}

impl RuntimeError {
    /// How diagnostic the error is; when several devices fail, the run
    /// surfaces the most specific one (cascade errors like
    /// [`RuntimeError::Disconnected`] rank lowest).
    fn severity(&self) -> u8 {
        match self {
            RuntimeError::Corrupt { .. } => 7,
            RuntimeError::Dropped { .. } => 6,
            RuntimeError::Ir(_) => 5,
            RuntimeError::Protocol { .. } => 4,
            RuntimeError::Timeout { .. } => 3,
            RuntimeError::Panicked { .. } => 2,
            RuntimeError::Disconnected { .. } => 1,
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Corrupt { device, peer, axis } => write!(
                f,
                "device {device}: corrupted message from device {peer} over axis {:?}",
                axis.name()
            ),
            RuntimeError::Dropped { device } => {
                write!(f, "device {device} dropped out of the computation")
            }
            RuntimeError::Ir(e) => write!(f, "device-local evaluation failed: {e}"),
            RuntimeError::Protocol {
                device,
                peer,
                expected,
                got,
            } => write!(
                f,
                "device {device}: message from device {peer} out of sequence \
                 (expected #{expected}, got #{got})"
            ),
            RuntimeError::Timeout { device, peer, axis } => write!(
                f,
                "device {device}: rendezvous with device {peer} over axis {:?} \
                 timed out (deadlock?)",
                axis.name()
            ),
            RuntimeError::Panicked { device } => write!(f, "device {device} panicked"),
            RuntimeError::Disconnected { device, peer } => {
                write!(
                    f,
                    "device {device}: peer {peer} disconnected mid-collective"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<IrError> for RuntimeError {
    fn from(e: IrError) -> Self {
        RuntimeError::Ir(e)
    }
}

/// Traffic and scheduling counters observed by one threaded execution.
///
/// # Post-join invariant
///
/// Every counter here — including [`RuntimeStats::rendezvous_waits`] —
/// is only meaningful *after all device threads have joined*: each
/// device accumulates its own [`DeviceCounters`] privately while
/// running, and [`ThreadedRuntime::run`] merges them exactly once after
/// the join barrier. There is no mid-run view; a `RuntimeStats` you hold
/// is always complete. By construction the merged totals are exact sums
/// of the per-device rows: `per_axis` is the axis-wise sum of every
/// `per_device[d].per_axis`, `per_device_bytes[d] ==
/// per_device[d].bytes`, and `rendezvous_waits` is the sum of
/// `per_device[d].rendezvous_waits` (asserted by a unit test).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Executed traffic per mesh axis (deterministic).
    pub per_axis: BTreeMap<Axis, AxisTraffic>,
    /// Payload bytes sent by each device (deterministic). Equal to
    /// `per_device[d].bytes`; kept as a flat view for reporting.
    pub per_device_bytes: Vec<u64>,
    /// Receives that actually parked the thread waiting for the peer —
    /// misses that resolve within the yield-and-poll rounds are not
    /// counted. Depends on thread scheduling — a measure of rendezvous
    /// pressure, not part of the deterministic contract.
    pub rendezvous_waits: u64,
    /// The unmerged per-device rows, indexed by device id.
    pub per_device: Vec<DeviceCounters>,
}

impl RuntimeStats {
    /// Total payload bytes moved over all axes.
    pub fn total_bytes(&self) -> u64 {
        self.per_axis.values().map(|t| t.bytes).sum()
    }

    /// Total messages moved over all axes.
    pub fn total_messages(&self) -> u64 {
        self.per_axis.values().map(|t| t.messages).sum()
    }

    /// Executed bytes on one axis (0 if the axis moved nothing).
    pub fn bytes_on(&self, axis: &Axis) -> u64 {
        self.per_axis.get(axis).map_or(0, |t| t.bytes)
    }

    /// Whether the executed per-axis traffic equals `prediction` exactly
    /// (bytes and message counts).
    pub fn matches_prediction(&self, prediction: &TrafficPrediction) -> bool {
        self.per_axis == prediction.per_axis
    }
}

/// Result of a successful threaded execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Device-local outputs, indexed by device id.
    pub outputs: Vec<Vec<Literal>>,
    /// Observed traffic and scheduling counters.
    pub stats: RuntimeStats,
}

/// A message as it travels between two devices.
struct Message {
    /// Per (sender, receiver) sequence number, checked in transport
    /// order as messages leave the channel.
    seq: u64,
    /// Collective-instance tag; receives match on `(src, tag)` so one
    /// collective's eagerly started payloads can sit in the stash while
    /// another collective's wait drains the same channel.
    tag: u32,
    /// FNV-1a over the payload, computed before fault injection; 0 when
    /// checksumming is disarmed (see [`RuntimeConfig::checksums_armed`]).
    checksum: u64,
    /// The tensor itself. `Literal` buffers are `Arc`-backed, so moving
    /// one through a channel (and the send-side `clone()` in ring
    /// collectives) transfers a refcount, not the data — payloads are
    /// zero-copy end to end.
    payload: Literal,
}

/// FNV-1a over the payload's dtype, shape and element bits.
fn literal_checksum(lit: &Literal) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    };
    let tag: u8 = match lit.dtype() {
        DType::F32 => 0,
        DType::I32 => 1,
        DType::Pred => 2,
        _ => u8::MAX,
    };
    eat(tag);
    for &d in lit.shape().dims() {
        for b in (d as u64).to_le_bytes() {
            eat(b);
        }
    }
    match lit.dtype() {
        DType::I32 => {
            for v in lit.as_i32().expect("dtype checked") {
                for b in v.to_le_bytes() {
                    eat(b);
                }
            }
        }
        DType::Pred => {
            for &v in lit.as_pred().expect("dtype checked") {
                eat(v as u8);
            }
        }
        // F32 (and any future float type) hashes element bit patterns,
        // so NaN payloads still checksum deterministically.
        _ => {
            for v in lit.as_f32().expect("dtype checked") {
                for b in v.to_bits().to_le_bytes() {
                    eat(b);
                }
            }
        }
    }
    h
}

/// Destroys a payload in a way the checksum is guaranteed to catch.
fn poison(lit: &mut Literal) {
    match lit.dtype() {
        DType::I32 => {
            let flipped: Vec<i32> = lit
                .as_i32()
                .expect("dtype checked")
                .iter()
                .map(|v| !v)
                .collect();
            *lit = Literal::from_i32(flipped, lit.shape().clone()).expect("same shape");
        }
        DType::Pred => {
            let flipped: Vec<bool> = lit
                .as_pred()
                .expect("dtype checked")
                .iter()
                .map(|v| !v)
                .collect();
            *lit = Literal::from_pred(flipped, lit.shape().clone()).expect("same shape");
        }
        _ => {
            for v in lit.as_f32_mut().expect("dtype checked") {
                *v = f32::NAN;
            }
        }
    }
}

/// One device's traffic counters, accumulated thread-locally while the
/// device runs and merged into [`RuntimeStats`] after the join barrier
/// (see the post-join invariant on [`RuntimeStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Traffic this device *sent*, per mesh axis.
    pub per_axis: BTreeMap<Axis, AxisTraffic>,
    /// Total payload bytes this device sent.
    pub bytes: u64,
    /// Receives on this device that actually parked the thread.
    pub rendezvous_waits: u64,
}

/// One device's channel endpoints — the [`Exchange`] the collective
/// algorithms run over. Rendezvous partners are baked into the plan's
/// collective schedules, so links carry no mesh topology of their own.
struct DeviceLinks {
    device: usize,
    /// Senders to every device, indexed by destination (self unused).
    txs: Vec<Sender<Message>>,
    /// Receivers from every device, indexed by source (`None` = self).
    rxs: Vec<Option<Receiver<Message>>>,
    timeout: Duration,
    seq_out: Vec<u64>,
    seq_in: Vec<u64>,
    /// Verified messages dequeued from each channel whose tag did not
    /// match the receive in progress — another collective's eagerly
    /// started payloads, stashed until their wait drains them. FIFO
    /// within a tag, which is all tag matching needs: each device issues
    /// a given tag's messages in one deterministic program order.
    stash: Vec<VecDeque<Message>>,
    /// Outgoing messages so far (for [`Fault::Corrupt`] targeting).
    sent_total: u64,
    corrupt_at: Option<u64>,
    /// Compute + verify checksums ([`RuntimeConfig::checksums_armed`]).
    verify: bool,
    /// Schedule-perturbation generator ([`ChaosConfig`]), drawn at every
    /// send/recv boundary.
    chaos: Option<Rng>,
    /// Whether an observability collector is installed for this thread
    /// (checked once at device start so the per-axis counter names below
    /// are only formatted when recording).
    traced: bool,
    stats: DeviceCounters,
}

impl DeviceLinks {
    /// Draws one chaos perturbation: usually nothing, sometimes a
    /// scheduler yield, occasionally a sleep of tens of microseconds.
    /// Payloads and counters are never touched.
    fn perturb(&mut self) {
        if let Some(rng) = &mut self.chaos {
            match rng.gen_range(8) {
                0..=4 => {}
                5 => std::thread::yield_now(),
                6 => {
                    for _ in 0..rng.gen_range(4) + 1 {
                        std::thread::yield_now();
                    }
                }
                _ => std::thread::sleep(Duration::from_micros(rng.gen_range(50) as u64 + 1)),
            }
        }
    }

    /// Dequeues the next message from `src`'s channel in transport
    /// order, verifying sequence and checksum as it leaves the channel
    /// (so violations surface exactly once per message, regardless of
    /// which receive ends up consuming it).
    fn dequeue(&mut self, src: usize, axis: &Axis) -> Result<Message, RuntimeError> {
        /// Yield-and-poll rounds before parking on the timed receive.
        ///
        /// A rendezvous miss usually means the peer just hasn't been
        /// scheduled yet; `yield_now` hands it the core and the message
        /// is typically there on re-poll — microseconds, versus the
        /// futex sleep + wake of parking in `recv_timeout`. If the peer
        /// is genuinely far behind (or stalled), fall through to the
        /// parked wait so deadlock detection still fires.
        const YIELD_ROUNDS: usize = 32;
        let rx = self.rxs[src].as_ref().expect("no self-receive");
        let mut first = rx.try_recv();
        let wait_span = if matches!(first, Err(TryRecvError::Empty)) {
            let span = self
                .traced
                .then(|| partir_obs::span_enter("rendezvous_wait"));
            for _ in 0..YIELD_ROUNDS {
                std::thread::yield_now();
                first = rx.try_recv();
                if !matches!(first, Err(TryRecvError::Empty)) {
                    break;
                }
            }
            span
        } else {
            None
        };
        let msg = match first {
            Ok(m) => m,
            Err(TryRecvError::Empty) => {
                // Still empty after the yield-and-poll rounds: this
                // receive genuinely parks. Count it only now — a miss
                // that resolves within the yield loop is the scheduler
                // being a step behind, not rendezvous pressure.
                self.stats.rendezvous_waits += 1;
                match rx.recv_timeout(self.timeout) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(RuntimeError::Timeout {
                            device: self.device,
                            peer: src,
                            axis: axis.clone(),
                        })
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(RuntimeError::Disconnected {
                            device: self.device,
                            peer: src,
                        })
                    }
                }
            }
            Err(TryRecvError::Disconnected) => {
                return Err(RuntimeError::Disconnected {
                    device: self.device,
                    peer: src,
                })
            }
        };
        // The wait span covers exactly the blocked portion of the
        // rendezvous, not sequence/checksum verification.
        drop(wait_span);
        if self.traced {
            partir_obs::counter_add("runtime.recv.messages", 1.0);
            partir_obs::counter_add("runtime.recv.bytes", msg.payload.ty().size_bytes() as f64);
        }
        let expected = self.seq_in[src];
        self.seq_in[src] += 1;
        if msg.seq != expected {
            return Err(RuntimeError::Protocol {
                device: self.device,
                peer: src,
                expected,
                got: msg.seq,
            });
        }
        if self.verify && literal_checksum(&msg.payload) != msg.checksum {
            return Err(RuntimeError::Corrupt {
                device: self.device,
                peer: src,
                axis: axis.clone(),
            });
        }
        Ok(msg)
    }
}

impl Exchange for DeviceLinks {
    fn device(&self) -> usize {
        self.device
    }

    fn send(
        &mut self,
        dst: usize,
        axis: &Axis,
        tag: u32,
        mut payload: Literal,
    ) -> Result<(), RuntimeError> {
        self.perturb();
        let checksum = if self.verify {
            literal_checksum(&payload)
        } else {
            0
        };
        if self.corrupt_at == Some(self.sent_total) {
            poison(&mut payload);
        }
        self.sent_total += 1;
        let bytes = payload.ty().size_bytes() as u64;
        self.stats
            .per_axis
            .entry(axis.clone())
            .or_default()
            .add(AxisTraffic { bytes, messages: 1 });
        self.stats.bytes += bytes;
        if self.traced {
            partir_obs::counter_add("runtime.send.bytes", bytes as f64);
            partir_obs::counter_add("runtime.send.messages", 1.0);
            partir_obs::counter_add(format!("runtime.send.bytes.{}", axis.name()), bytes as f64);
        }
        let seq = self.seq_out[dst];
        self.seq_out[dst] += 1;
        self.txs[dst]
            .send(Message {
                seq,
                tag,
                checksum,
                payload,
            })
            .map_err(|_| RuntimeError::Disconnected {
                device: self.device,
                peer: dst,
            })
    }

    fn recv(&mut self, src: usize, axis: &Axis, tag: u32) -> Result<Literal, RuntimeError> {
        self.perturb();
        // A stashed message for this tag takes priority: it left the
        // channel (and passed verification) before anything still
        // queued, so FIFO-within-tag is preserved.
        if let Some(pos) = self.stash[src].iter().position(|m| m.tag == tag) {
            let msg = self.stash[src].remove(pos).expect("position just found");
            return Ok(msg.payload);
        }
        loop {
            let msg = self.dequeue(src, axis)?;
            if msg.tag == tag {
                return Ok(msg.payload);
            }
            // Another collective's eager payload overtook this one's on
            // the shared channel: park it for its own wait.
            self.stash[src].push_back(msg);
        }
    }
}

/// The threaded runtime: spawns one thread per mesh device and runs the
/// device-local `func` on each, exchanging collectives over channels.
#[derive(Debug, Clone, Default)]
pub struct ThreadedRuntime {
    config: RuntimeConfig,
}

impl ThreadedRuntime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        ThreadedRuntime { config }
    }

    /// Compiles `func` into a [`CompiledPlan`] and runs it on every
    /// device of `mesh` concurrently — compile-once/run-once
    /// convenience over [`ThreadedRuntime::run_plan`].
    ///
    /// `inputs[d]` are device `d`'s local inputs. On success returns the
    /// per-device outputs — bit-identical to the lockstep
    /// [`crate::interp::run_devices`] — plus observed [`RuntimeStats`].
    ///
    /// # Errors
    ///
    /// Returns the most diagnostic failure across devices: malformed
    /// programs or inputs, detected deadlock ([`RuntimeError::Timeout`]),
    /// corruption, or a dropped participant.
    pub fn run(
        &self,
        func: &Func,
        mesh: &Mesh,
        inputs: &[Vec<Literal>],
    ) -> Result<RunOutcome, RuntimeError> {
        let plan = CompiledPlan::compile(func, mesh, &PlanOptions::default())?;
        self.run_plan(&plan, inputs)
    }

    /// Runs a pre-compiled plan on every device concurrently. The plan
    /// carries everything once derived from the program — kernel
    /// bindings, arena layout, per-device collective schedules — so
    /// repeated steps pay no per-op dispatch or shape inference.
    ///
    /// # Errors
    ///
    /// See [`ThreadedRuntime::run`].
    pub fn run_plan(
        &self,
        plan: &CompiledPlan,
        inputs: &[Vec<Literal>],
    ) -> Result<RunOutcome, RuntimeError> {
        let n = plan.num_devices();
        if inputs.len() != n {
            return Err(IrError::invalid(format!(
                "expected inputs for {n} devices, got {}",
                inputs.len()
            ))
            .into());
        }
        for (d, device_inputs) in inputs.iter().enumerate() {
            if device_inputs.len() != plan.param_tys().len() {
                return Err(
                    IrError::invalid(format!("device {d}: wrong per-device input arity")).into(),
                );
            }
            for (ty, lit) in plan.param_tys().iter().zip(device_inputs) {
                if &lit.ty() != ty {
                    return Err(IrError::invalid(format!(
                        "device {d} input has type {}, expected {ty}",
                        lit.ty()
                    ))
                    .into());
                }
            }
        }

        // One channel per ordered device pair: txs[src][dst] feeds
        // rxs[dst][src]. Senders never block (unbounded), so with every
        // receive bounded by the rendezvous timeout all threads terminate.
        let mut txs: Vec<Vec<Sender<Message>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut rxs: Vec<Vec<Option<Receiver<Message>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for src in 0..n {
            for rx_row in rxs.iter_mut() {
                let (tx, rx) = channel();
                txs[src].push(tx);
                rx_row[src] = Some(rx);
            }
        }

        let mut stall_ms = vec![0u64; n];
        let mut corrupt_at: Vec<Option<u64>> = vec![None; n];
        let mut dropped = vec![false; n];
        for fault in &self.config.faults {
            match *fault {
                Fault::Stall { device, millis } => stall_ms[device] = millis,
                Fault::Corrupt { device, message } => corrupt_at[device] = Some(message),
                Fault::Drop { device } => dropped[device] = true,
            }
        }

        type DeviceResult = Result<(Vec<Literal>, DeviceCounters), RuntimeError>;
        let timeout = self.config.rendezvous_timeout;
        let verify = self.config.checksums_armed();
        let chaos = self.config.chaos;
        // Device threads do not inherit the caller's thread-local
        // observability scope — capture it here and re-install it inside
        // each worker under a per-device track, so one run produces one
        // multi-track timeline (`device0`, `device1`, ...).
        let collector = partir_obs::current();
        // The arenas are resident on the plan: checked out (and, the
        // first time, allocated) here on the calling thread, one lent to
        // each device thread, parked again after the join whatever the
        // outcome.
        let mut executors = plan.checkout_executors();
        let results: Vec<DeviceResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = txs
                .into_iter()
                .zip(rxs)
                .zip(&mut executors)
                .enumerate()
                .map(|(d, ((tx_row, rx_row), state))| {
                    let my_inputs = inputs[d].clone();
                    let stall = stall_ms[d];
                    let corrupt = corrupt_at[d];
                    let drop_out = dropped[d];
                    let collector = collector.clone();
                    scope.spawn(move || -> DeviceResult {
                        let body = move || -> DeviceResult {
                            if drop_out {
                                return Err(RuntimeError::Dropped { device: d });
                            }
                            if stall > 0 {
                                std::thread::sleep(Duration::from_millis(stall));
                            }
                            let mut links = DeviceLinks {
                                device: d,
                                txs: tx_row,
                                rxs: rx_row,
                                timeout,
                                seq_out: vec![0; n],
                                seq_in: vec![0; n],
                                stash: (0..n).map(|_| VecDeque::new()).collect(),
                                sent_total: 0,
                                corrupt_at: corrupt,
                                verify,
                                chaos: chaos.map(|c| c.rng_for(d)),
                                traced: partir_obs::current().is_some(),
                                stats: DeviceCounters::default(),
                            };
                            let outputs = plan.run_device(&mut links, state, &my_inputs)?;
                            Ok((outputs, links.stats))
                        };
                        match &collector {
                            Some(c) => partir_obs::with_track(c, &format!("device{d}"), body),
                            None => body(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(d, h)| {
                    h.join()
                        .unwrap_or(Err(RuntimeError::Panicked { device: d }))
                })
                .collect()
        });
        plan.park_executors(executors);

        if let Some(err) = results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .max_by_key(|e| e.severity())
        {
            return Err(err.clone());
        }

        let mut stats = RuntimeStats {
            per_device_bytes: vec![0; n],
            ..RuntimeStats::default()
        };
        let mut outputs = Vec::with_capacity(n);
        for (d, result) in results.into_iter().enumerate() {
            let (outs, device_stats) = result.expect("errors handled above");
            for (axis, traffic) in &device_stats.per_axis {
                stats
                    .per_axis
                    .entry(axis.clone())
                    .or_default()
                    .add(*traffic);
            }
            stats.per_device_bytes[d] = device_stats.bytes;
            stats.rendezvous_waits += device_stats.rendezvous_waits;
            stats.per_device.push(device_stats);
            outputs.push(outs);
        }
        Ok(RunOutcome { outputs, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::predict_traffic;
    use crate::interp::run_devices;
    use partir_ir::{Collective, FuncBuilder, ReduceOp, TensorType};

    fn collective_func(mesh: &Mesh, c: Collective, ty: TensorType) -> Func {
        let mut b = FuncBuilder::with_mesh("f", mesh.clone());
        let x = b.param("x", ty);
        let y = b.collective(c, x).unwrap();
        b.build([y]).unwrap()
    }

    fn device_inputs(mesh: &Mesh, n: usize) -> Vec<Vec<Literal>> {
        (0..mesh.num_devices())
            .map(|d| {
                let data: Vec<f32> = (0..n).map(|i| (d * n + i) as f32 * 0.25 - 3.0).collect();
                vec![Literal::from_f32(data, [n]).unwrap()]
            })
            .collect()
    }

    #[test]
    fn threaded_all_reduce_matches_lockstep_bitwise() {
        let mesh = Mesh::new([("x", 2), ("y", 2)]).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["x".into(), "y".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c, TensorType::f32([8]));
        let inputs = device_inputs(&mesh, 8);
        let lockstep = run_devices(&func, &mesh, &inputs).unwrap();
        let outcome = ThreadedRuntime::default()
            .run(&func, &mesh, &inputs)
            .unwrap();
        assert_eq!(outcome.outputs, lockstep);
        let prediction = predict_traffic(&func, &mesh).unwrap();
        assert!(
            outcome.stats.matches_prediction(&prediction),
            "executed {:?} != predicted {:?}",
            outcome.stats.per_axis,
            prediction.per_axis
        );
    }

    /// The post-join invariant documented on [`RuntimeStats`]: the
    /// merged totals are exact sums of the per-device rows.
    #[test]
    fn per_device_counters_sum_to_merged_totals() {
        let mesh = Mesh::new([("x", 2), ("y", 2)]).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["x".into(), "y".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c, TensorType::f32([1024]));
        let inputs = device_inputs(&mesh, 1024);
        let stats = ThreadedRuntime::default()
            .run(&func, &mesh, &inputs)
            .unwrap()
            .stats;
        assert_eq!(stats.per_device.len(), mesh.num_devices());
        let mut per_axis: BTreeMap<Axis, AxisTraffic> = BTreeMap::new();
        let mut waits = 0;
        for (d, dev) in stats.per_device.iter().enumerate() {
            assert_eq!(
                dev.bytes, stats.per_device_bytes[d],
                "flat per_device_bytes view diverged on device {d}"
            );
            for (axis, traffic) in &dev.per_axis {
                per_axis.entry(axis.clone()).or_default().add(*traffic);
            }
            waits += dev.rendezvous_waits;
        }
        assert_eq!(per_axis, stats.per_axis);
        assert_eq!(waits, stats.rendezvous_waits);
        assert_eq!(
            stats.per_device.iter().map(|d| d.bytes).sum::<u64>(),
            stats.total_bytes()
        );
    }

    #[test]
    fn large_all_reduce_takes_ring_path_and_matches_lockstep() {
        // 80_001 f32 = ~312 KiB > LEADER_ALL_REDUCE_MAX_BYTES: exercises
        // the chunked scatter-reduce + ring gather with uneven chunks.
        let n = 80_001usize;
        let mesh = Mesh::single("a", 4).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["a".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c, TensorType::f32([n]));
        let inputs = device_inputs(&mesh, n);
        let lockstep = run_devices(&func, &mesh, &inputs).unwrap();
        let outcome = ThreadedRuntime::default()
            .run(&func, &mesh, &inputs)
            .unwrap();
        assert_eq!(outcome.outputs, lockstep);
        let prediction = predict_traffic(&func, &mesh).unwrap();
        assert!(
            outcome.stats.matches_prediction(&prediction),
            "executed {:?} != predicted {:?}",
            outcome.stats.per_axis,
            prediction.per_axis
        );
    }

    #[test]
    fn uneven_chunks_still_match_lockstep() {
        // n = 3 elements on a 4-way axis: one chunk is empty.
        let mesh = Mesh::single("a", 4).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["a".into()],
            reduce: ReduceOp::Max,
        };
        let func = collective_func(&mesh, c, TensorType::f32([3]));
        let inputs = device_inputs(&mesh, 3);
        let lockstep = run_devices(&func, &mesh, &inputs).unwrap();
        let outcome = ThreadedRuntime::default()
            .run(&func, &mesh, &inputs)
            .unwrap();
        assert_eq!(outcome.outputs, lockstep);
        let prediction = predict_traffic(&func, &mesh).unwrap();
        assert!(outcome.stats.matches_prediction(&prediction));
    }

    #[test]
    fn stall_is_detected_as_timeout() {
        let mesh = Mesh::single("a", 2).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["a".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c, TensorType::f32([4]));
        let inputs = device_inputs(&mesh, 4);
        // Timeout scaled from plan metadata (not a hard-coded constant
        // that assumes blocking collectives), stall far beyond it.
        let plan = CompiledPlan::compile(&func, &mesh, &PlanOptions::default()).unwrap();
        let timeout = plan.rendezvous_budget(Duration::from_millis(5));
        let mut config = RuntimeConfig::with_timeout(timeout);
        config.faults = vec![Fault::Stall {
            device: 0,
            millis: (timeout.as_millis() as u64 + 1) * 10,
        }];
        let err = ThreadedRuntime::new(config)
            .run_plan(&plan, &inputs)
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::Timeout { peer: 0, .. }),
            "expected a timeout waiting on the stalled device, got: {err}"
        );
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let mesh = Mesh::single("a", 2).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["a".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c, TensorType::f32([4]));
        let inputs = device_inputs(&mesh, 4);
        let config = RuntimeConfig::with_faults(vec![Fault::Corrupt {
            device: 1,
            message: 0,
        }]);
        let err = ThreadedRuntime::new(config)
            .run(&func, &mesh, &inputs)
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::Corrupt { peer: 1, .. }),
            "expected corruption detected from device 1, got: {err}"
        );
    }

    #[test]
    fn dropped_participant_is_surfaced() {
        let mesh = Mesh::single("a", 2).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["a".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c, TensorType::f32([4]));
        let inputs = device_inputs(&mesh, 4);
        let plan = CompiledPlan::compile(&func, &mesh, &PlanOptions::default()).unwrap();
        let mut config =
            RuntimeConfig::with_timeout(plan.rendezvous_budget(Duration::from_millis(5)));
        config.faults = vec![Fault::Drop { device: 1 }];
        let err = ThreadedRuntime::new(config)
            .run_plan(&plan, &inputs)
            .unwrap_err();
        assert_eq!(err, RuntimeError::Dropped { device: 1 });
    }

    #[test]
    fn seeded_fault_plans_are_deterministic() {
        let mesh = Mesh::new([("x", 2), ("y", 2)]).unwrap();
        assert_eq!(seeded_faults(11, &mesh), seeded_faults(11, &mesh));
        let distinct: std::collections::BTreeSet<String> = (0..32)
            .map(|s| format!("{:?}", seeded_faults(s, &mesh)))
            .collect();
        assert!(distinct.len() > 3, "plans vary across seeds");
    }

    #[test]
    fn checksums_armed_by_flag_or_faults() {
        assert!(!RuntimeConfig::default().checksums_armed());
        assert!(RuntimeConfig::with_checksums().checksums_armed());
        assert!(
            RuntimeConfig::with_faults(vec![Fault::Drop { device: 0 }]).checksums_armed(),
            "any fault plan forces verification on"
        );
    }

    #[test]
    fn explicit_checksums_still_match_lockstep() {
        let mesh = Mesh::new([("x", 2), ("y", 2)]).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["x".into(), "y".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c, TensorType::f32([8]));
        let inputs = device_inputs(&mesh, 8);
        let lockstep = run_devices(&func, &mesh, &inputs).unwrap();
        let outcome = ThreadedRuntime::new(RuntimeConfig::with_checksums())
            .run(&func, &mesh, &inputs)
            .unwrap();
        assert_eq!(outcome.outputs, lockstep);
    }

    #[test]
    fn checksum_catches_poisoning() {
        let lit = Literal::from_f32(vec![1.0, 2.0, 3.0], [3]).unwrap();
        let before = literal_checksum(&lit);
        let mut poisoned = lit.clone();
        poison(&mut poisoned);
        assert_ne!(before, literal_checksum(&poisoned));
        // NaN payloads still checksum deterministically (bit pattern).
        assert_eq!(literal_checksum(&poisoned), literal_checksum(&poisoned));
    }
}
