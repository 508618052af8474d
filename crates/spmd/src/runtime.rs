//! Threaded message-passing SPMD runtime over compiled execution plans:
//! the one executor of partitioned programs.
//!
//! One OS thread per simulated mesh device. Each device executes a
//! [`CompiledPlan`] ([`crate::plan`]) — the device-local program
//! pre-resolved to direct kernel calls over a fixed arena, with
//! collective schedules wired per device at compile time. Collectives
//! exchange tensors over per-device-pair channels using the algorithms
//! in [`crate::collectives`]. Every cross-device byte travels through a
//! channel, is sequence-numbered (checksummed when faults are armed) and
//! is counted per mesh axis into [`RuntimeStats`] — which
//! `partir_sim::reconcile` cross-checks against the analytical cost
//! model and the exact mirror [`crate::collectives::predict_traffic`].
//!
//! The threads belong to a device session
//! ([`ThreadedRuntime::with_session`]): one worker per device, parked
//! between steps, owning its arena and its channel ends for the
//! session's life. Inputs stay in the arenas until set again, and a
//! bound output is copied into an input slot on the device after each
//! step, so loop state such as a KV cache never crosses to the host.
//!
//! [`ThreadedRuntime::run_plan`] is a session of one step from host
//! inputs; its threads run free and detect deadlock by
//! [`RuntimeConfig::rendezvous_timeout`].
//! [`ThreadedRuntime::run_scheduled`] runs the same body under a seeded
//! turn-taking scheduler, so the interleaving replays from its seed and
//! a deadlock is reported at once ([`RuntimeError::Deadlock`]). Outputs
//! never depend on the interleaving: folds and concatenations follow
//! mesh coordinates, as in each collective's specification
//! ([`crate::apply_collective`]).
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

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use partir_ir::{DType, IrError, Literal};
use partir_mesh::{Axis, Mesh};
use partir_prng::Rng;

use crate::collectives::{AxisTraffic, Exchange, TrafficPrediction};
use crate::plan::{CompiledPlan, PlanExecutor};

/// Knobs for one threaded execution.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// How long a free-running device waits on a rendezvous before
    /// declaring the program deadlocked ([`RuntimeError::Timeout`]).
    pub rendezvous_timeout: Duration,
    /// Faults to inject, normally empty. A non-empty plan also arms
    /// message checksums ([`RuntimeConfig::checksums_armed`]).
    pub faults: Vec<Fault>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            rendezvous_timeout: Duration::from_secs(5),
            faults: Vec::new(),
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

    /// Default config with the given fault plan. A non-empty plan arms
    /// checksum verification.
    pub fn with_faults(faults: Vec<Fault>) -> Self {
        RuntimeConfig {
            faults,
            ..RuntimeConfig::default()
        }
    }

    /// Whether this run computes and verifies message checksums (FNV-1a
    /// over every payload): exactly when a fault is armed. In-process
    /// channels cannot corrupt payloads on their own, and hashing every
    /// byte dominates small-message runs.
    pub fn checksums_armed(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// A deterministic fault to inject into one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The device sleeps `millis` before executing anything. With a
    /// shorter rendezvous timeout its free-running peers surface
    /// [`RuntimeError::Timeout`].
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
    /// A rendezvous did not complete within the configured timeout: the
    /// free-running runtime's deadlock detection.
    Timeout {
        /// Device whose receive timed out.
        device: usize,
        /// Peer it was waiting on.
        peer: usize,
        /// Mesh axis of the pending exchange.
        axis: Axis,
    },
    /// Under [`ThreadedRuntime::run_scheduled`], no device could run
    /// while some had not finished.
    Deadlock {
        /// Every blocked receive, in device order.
        waits: Vec<BlockedWait>,
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

/// One receive that can never complete: `device` waits for a message
/// from `peer` over `axis`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedWait {
    /// The blocked device.
    pub device: usize,
    /// The peer whose message it waits for.
    pub peer: usize,
    /// Mesh axis of the pending exchange.
    pub axis: Axis,
}

impl RuntimeError {
    /// How diagnostic the error is; when several devices fail, the run
    /// surfaces the most specific one (cascades such as a deadlock behind
    /// a failed device, or [`RuntimeError::Disconnected`], rank lowest).
    fn severity(&self) -> u8 {
        match self {
            RuntimeError::Corrupt { .. } => 8,
            RuntimeError::Dropped { .. } => 7,
            RuntimeError::Ir(_) => 6,
            RuntimeError::Protocol { .. } => 5,
            RuntimeError::Timeout { .. } => 4,
            RuntimeError::Panicked { .. } => 3,
            RuntimeError::Deadlock { .. } => 2,
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
            RuntimeError::Deadlock { waits } => {
                write!(f, "deadlock, no device can run:")?;
                for w in waits {
                    let axis = w.axis.name();
                    write!(f, " device {} waits on {} over {axis:?};", w.device, w.peer)?;
                }
                Ok(())
            }
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
/// covers one step and is only meaningful *after every device has
/// replied to it*: each device accumulates its own [`DeviceCounters`]
/// privately while running the step, and [`Session::step`] merges them
/// exactly once after the last reply. There is no mid-step view; a
/// `RuntimeStats` you hold is always complete. By construction the
/// merged totals are exact sums of the per-device rows: `per_axis` is
/// the axis-wise sum of every `per_device[d].per_axis`,
/// `per_device_bytes[d] == per_device[d].bytes`, and `rendezvous_waits`
/// is the sum of `per_device[d].rendezvous_waits` (asserted by a unit
/// test).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Executed traffic per mesh axis (deterministic).
    pub per_axis: BTreeMap<Axis, AxisTraffic>,
    /// Payload bytes sent by each device (deterministic). Equal to
    /// `per_device[d].bytes`; kept as a flat view for reporting.
    pub per_device_bytes: Vec<u64>,
    /// Receives that had to wait for the peer: free-running, those that
    /// parked the thread (it depends on thread scheduling); scheduled,
    /// those that found the channel empty (a function of the seed).
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
    /// The tensor itself, copied once, out of the sender's arena.
    /// `Literal` buffers are `Arc`-backed, so moving one through a
    /// channel (and forwarding it around a ring, or broadcasting it)
    /// transfers a refcount, not the data.
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

/// One device's traffic counters for one step, accumulated
/// thread-locally while the device runs it and merged into
/// [`RuntimeStats`] after every device replied (see the post-join
/// invariant on [`RuntimeStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Traffic this device *sent*, per mesh axis.
    pub per_axis: BTreeMap<Axis, AxisTraffic>,
    /// Total payload bytes this device sent.
    pub bytes: u64,
    /// Receives on this device that had to wait for the peer (see
    /// [`RuntimeStats::rendezvous_waits`]).
    pub rendezvous_waits: u64,
}

/// Where one device stands in a scheduled run.
#[derive(Debug, Clone)]
enum Standing {
    /// May take the turn.
    Runnable,
    /// Runnable again once the peer it waits on sends to it.
    Blocked(BlockedWait),
    /// Returned, failed or panicked.
    Finished,
}

/// The turn table of [`ThreadedRuntime::run_scheduled`]: only the
/// holder runs, and at every scheduling point it hands the turn to a
/// runnable device drawn from the seeded stream. Everything the draw
/// depends on changes only under the turn.
struct Turns {
    state: Mutex<TurnState>,
    /// `wake[d]` is signalled when device `d` gets the turn, and when a
    /// deadlock is declared.
    wake: Vec<Condvar>,
}

struct TurnState {
    /// `None` once every device finished or a deadlock was declared.
    holder: Option<usize>,
    standing: Vec<Standing>,
    rng: Rng,
    /// Every blocked wait, once no device could run.
    deadlock: Option<Vec<BlockedWait>>,
}

impl Turns {
    fn new(devices: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let state = TurnState {
            holder: Some(rng.gen_range(devices)),
            standing: vec![Standing::Runnable; devices],
            rng,
            deadlock: None,
        };
        Turns {
            state: Mutex::new(state),
            wake: (0..devices).map(|_| Condvar::new()).collect(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TurnState> {
        // Standings are replaced whole under the lock, so the table is
        // valid even if a holder panicked.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until `device` holds the turn or a deadlock is declared.
    fn wait<'a>(
        &'a self,
        mut st: MutexGuard<'a, TurnState>,
        device: usize,
    ) -> MutexGuard<'a, TurnState> {
        while st.holder != Some(device) && st.deadlock.is_none() {
            st = self.wake[device]
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st
    }

    /// Waits for `device`'s first turn. The guard passes the turn on
    /// when the device's thread exits — returned, failed or panicked —
    /// so no other device is left parked.
    fn enter(&self, device: usize) -> TurnGuard<'_> {
        drop(self.wait(self.lock(), device));
        TurnGuard {
            turns: self,
            device,
        }
    }

    /// Hands the turn to a runnable device drawn from the seeded stream;
    /// with none runnable and some blocked, declares the deadlock.
    fn pass(&self, st: &mut TurnState) {
        let runnable: Vec<usize> = (0..st.standing.len())
            .filter(|&d| matches!(st.standing[d], Standing::Runnable))
            .collect();
        if !runnable.is_empty() {
            let next = runnable[st.rng.gen_range(runnable.len())];
            st.holder = Some(next);
            self.wake[next].notify_one();
            return;
        }
        st.holder = None;
        let waits: Vec<BlockedWait> = st
            .standing
            .iter()
            .filter_map(|s| match s {
                Standing::Blocked(w) => Some(w.clone()),
                _ => None,
            })
            .collect();
        if !waits.is_empty() {
            st.deadlock = Some(waits);
            self.wake.iter().for_each(Condvar::notify_one);
        }
    }

    /// The scheduling point after `device` sent to `dst`.
    fn sent(&self, device: usize, dst: usize) {
        let mut st = self.lock();
        if matches!(&st.standing[dst], Standing::Blocked(w) if w.peer == device) {
            st.standing[dst] = Standing::Runnable;
        }
        self.pass(&mut st);
        drop(self.wait(st, device));
    }

    /// The scheduling point at a receive that found its channel empty:
    /// the device blocks until the peer sends to it, or until no device
    /// can run ([`RuntimeError::Deadlock`]).
    fn block(&self, wait: BlockedWait) -> Result<(), RuntimeError> {
        let device = wait.device;
        let mut st = self.lock();
        st.standing[device] = Standing::Blocked(wait);
        self.pass(&mut st);
        let st = self.wait(st, device);
        match &st.deadlock {
            Some(waits) => Err(RuntimeError::Deadlock {
                waits: waits.clone(),
            }),
            None => Ok(()),
        }
    }
}

/// Marks its device finished, passing the turn on if it held it.
struct TurnGuard<'t> {
    turns: &'t Turns,
    device: usize,
}

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.turns.lock();
        st.standing[self.device] = Standing::Finished;
        if st.holder == Some(self.device) {
            self.turns.pass(&mut st);
        }
    }
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
    /// The shared turn table of a scheduled step; `None` runs free.
    turns: Option<Arc<Turns>>,
    /// Whether an observability collector is installed for this thread
    /// (checked once at device start so the per-axis counter names below
    /// are only formatted when recording).
    traced: bool,
    stats: DeviceCounters,
}

impl DeviceLinks {
    fn disconnected(&self, peer: usize) -> RuntimeError {
        RuntimeError::Disconnected {
            device: self.device,
            peer,
        }
    }

    /// Dequeues the next message from `src`'s channel in transport
    /// order, verifying sequence and checksum as it leaves the channel
    /// (so violations surface exactly once per message, regardless of
    /// which receive ends up consuming it).
    fn dequeue(&mut self, src: usize, axis: &Axis) -> Result<Message, RuntimeError> {
        let rx = self.rxs[src].as_ref().expect("no self-receive");
        let msg = match rx.try_recv() {
            Ok(m) => m,
            Err(TryRecvError::Empty) => self.wait_for(src, axis)?,
            Err(TryRecvError::Disconnected) => return Err(self.disconnected(src)),
        };
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

    /// A receive that found `src`'s channel empty. Scheduled, the device
    /// gives up the turn until `src` sends to it. Free-running, it yields
    /// and re-polls, then parks in the timed receive. The
    /// `rendezvous_wait` span covers exactly this blocked portion.
    fn wait_for(&mut self, src: usize, axis: &Axis) -> Result<Message, RuntimeError> {
        /// Yield-and-poll rounds before parking on the timed receive: a
        /// miss usually means the peer just hasn't been scheduled yet, and
        /// re-polling after `yield_now` takes microseconds, versus the
        /// futex sleep + wake of parking in `recv_timeout`.
        const YIELD_ROUNDS: usize = 32;
        let _span = self
            .traced
            .then(|| partir_obs::span_enter("rendezvous_wait"));
        let rx = self.rxs[src].as_ref().expect("no self-receive");
        if let Some(turns) = &self.turns {
            self.stats.rendezvous_waits += 1;
            turns.block(BlockedWait {
                device: self.device,
                peer: src,
                axis: axis.clone(),
            })?;
            // The turn came back because `src` sent: the message is there.
            return rx.try_recv().map_err(|_| self.disconnected(src));
        }
        for _ in 0..YIELD_ROUNDS {
            std::thread::yield_now();
            match rx.try_recv() {
                Ok(m) => return Ok(m),
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => return Err(self.disconnected(src)),
            }
        }
        // Only a receive that genuinely parks counts: a miss the yield
        // loop resolves is the OS scheduler a step behind, not pressure.
        self.stats.rendezvous_waits += 1;
        rx.recv_timeout(self.timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RuntimeError::Timeout {
                device: self.device,
                peer: src,
                axis: axis.clone(),
            },
            RecvTimeoutError::Disconnected => self.disconnected(src),
        })
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
        let checksum = if self.verify {
            literal_checksum(&payload)
        } else {
            0
        };
        if self.corrupt_at == Some(self.sent_total) {
            poison(&mut payload);
        }
        self.sent_total += 1;
        let bytes = (payload.num_elements() * payload.dtype().size_bytes()) as u64;
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
            .map_err(|_| self.disconnected(dst))?;
        if let Some(turns) = &self.turns {
            turns.sent(self.device, dst);
        }
        Ok(())
    }

    fn recv(&mut self, src: usize, axis: &Axis, tag: u32) -> Result<Literal, RuntimeError> {
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

/// The threaded runtime: runs a compiled plan on one worker thread per
/// mesh device, exchanging collectives over channels.
#[derive(Debug, Clone, Default)]
pub struct ThreadedRuntime {
    config: RuntimeConfig,
}

/// What a session sends its parked workers.
enum Cmd<'a> {
    /// Copy output `.0` into input `.1`'s slot after every step.
    Bind(usize, usize),
    /// Run one step: copy these changed inputs in first. A scheduled step
    /// carries its turn table.
    Step {
        inputs: Vec<(usize, Cow<'a, Literal>)>,
        turns: Option<Arc<Turns>>,
    },
}

/// One device's reply to a step: its unbound outputs and counters.
type DeviceResult = Result<(Vec<Literal>, DeviceCounters), RuntimeError>;

/// A compiled plan opened on the devices by
/// [`ThreadedRuntime::with_session`]: one parked worker per device, each
/// owning its [`PlanExecutor`] and its ends of the device-pair channels
/// for the session's whole life.
///
/// Inputs are resident: [`Session::set_input`] stages new shards of one
/// input, and the next [`Session::step`] copies only the staged inputs
/// into the arenas — every other parameter slot still holds what it held
/// after the previous step. [`Session::bind`] makes an output loop state:
/// after every step each device copies that output into an input's slot
/// and the step no longer returns it.
///
/// A step that fails poisons the session: its workers exit, and that
/// step and every later one return the same [`RuntimeError`]. A caller
/// mistake — a wrong type, arity or index, or a step before every input
/// was set — is refused with an error and poisons nothing.
pub struct Session<'a> {
    plan: &'a CompiledPlan,
    cmds: Vec<Sender<Cmd<'a>>>,
    replies: Vec<Receiver<DeviceResult>>,
    /// Inputs staged for the next step, per device.
    staged: Vec<Vec<(usize, Cow<'a, Literal>)>>,
    /// Whether each input has been set at least once.
    set: Vec<bool>,
    /// `bound[out] == Some(k)`: output `out` feeds input `k`.
    bound: Vec<Option<usize>>,
    poisoned: Option<RuntimeError>,
}

fn invalid(msg: String) -> RuntimeError {
    RuntimeError::Ir(IrError::invalid(msg))
}

impl<'a> Session<'a> {
    /// Stages new shards of input `k`, `shards[d]` for device `d`, for
    /// the next step.
    ///
    /// # Errors
    ///
    /// If `k` names no input, or the shards are not one per device of
    /// the input's per-device type.
    pub fn set_input(&mut self, k: usize, shards: Vec<Literal>) -> Result<(), RuntimeError> {
        let n = self.staged.len();
        if shards.len() != n {
            return Err(invalid(format!(
                "input {k}: expected one shard for each of {n} devices, got {}",
                shards.len()
            )));
        }
        for (d, lit) in shards.iter().enumerate() {
            self.check(d, k, lit)?;
        }
        for (staged, lit) in self.staged.iter_mut().zip(shards) {
            staged.retain(|(j, _)| *j != k);
            staged.push((k, Cow::Owned(lit)));
        }
        self.set[k] = true;
        Ok(())
    }

    /// Stages every input from host shards as [`ThreadedRuntime::run_plan`]
    /// takes them (`inputs[d][k]`), borrowed rather than cloned.
    fn set_all(&mut self, inputs: &'a [Vec<Literal>]) -> Result<(), RuntimeError> {
        let n = self.staged.len();
        if inputs.len() != n {
            return Err(invalid(format!(
                "expected inputs for {n} devices, got {}",
                inputs.len()
            )));
        }
        let arity = self.set.len();
        for (d, dev) in inputs.iter().enumerate() {
            if dev.len() != arity {
                return Err(invalid(format!(
                    "device {d}: plan expects {arity} inputs, got {}",
                    dev.len()
                )));
            }
            for (k, lit) in dev.iter().enumerate() {
                self.check(d, k, lit)?;
            }
        }
        for (staged, dev) in self.staged.iter_mut().zip(inputs) {
            staged.clear();
            staged.extend(dev.iter().map(Cow::Borrowed).enumerate());
        }
        self.set.fill(true);
        Ok(())
    }

    /// Whether `lit` may be device `d`'s shard of input `k`.
    fn check(&self, d: usize, k: usize, lit: &Literal) -> Result<(), RuntimeError> {
        self.plan
            .check_input(k, lit)
            .map_err(|e| invalid(format!("device {d}: {e}")))
    }

    /// Binds output `output` to input `input`: after every step, each
    /// device copies its shard of the output into the input's slot, and
    /// steps stop returning the output. An input set later overrides the
    /// fed-back value for the step after.
    ///
    /// # Errors
    ///
    /// If either index is out of range, the two per-device types differ,
    /// another output already feeds `input`, or the output is a
    /// different input returned unchanged. A poisoned session returns
    /// its error.
    pub fn bind(&mut self, output: usize, input: usize) -> Result<(), RuntimeError> {
        let (outs, ins) = (self.plan.result_tys(), self.plan.param_tys());
        if output >= outs.len() || input >= ins.len() {
            return Err(invalid(format!(
                "bind {output} -> {input}: the plan has {} outputs and {} inputs",
                outs.len(),
                ins.len()
            )));
        }
        if outs[output] != ins[input] {
            return Err(invalid(format!(
                "bind {output} -> {input}: output type {} differs from input type {}",
                outs[output], ins[input]
            )));
        }
        if let Some(other) = (0..outs.len()).find(|&o| o != output && self.bound[o] == Some(input))
        {
            return Err(invalid(format!(
                "bind {output} -> {input}: output {other} already feeds input {input}"
            )));
        }
        if let Some(m) =
            (0..ins.len()).find(|&m| m != input && self.plan.output_aliases_input(output, m))
        {
            return Err(invalid(format!(
                "bind {output} -> {input}: output {output} is input {m} returned unchanged"
            )));
        }
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        self.bound[output] = Some(input);
        for tx in &self.cmds {
            // A worker that is gone failed a step, which poisoned the
            // session; the next step reports it.
            let _ = tx.send(Cmd::Bind(output, input));
        }
        Ok(())
    }

    /// Runs one step on every device concurrently and returns each
    /// device's unbound outputs, in output order, with the step's
    /// [`RuntimeStats`].
    ///
    /// # Errors
    ///
    /// Before any worker runs: if some input was never set, or the
    /// session is poisoned (its error again). Otherwise the most
    /// diagnostic failure across devices, as [`ThreadedRuntime::run_plan`]
    /// reports it; it poisons the session.
    pub fn step(&mut self) -> Result<RunOutcome, RuntimeError> {
        self.step_with(None)
    }

    /// [`Session::step`], free-running (`seed == None`) or under the
    /// turn table seeded by `seed`.
    fn step_with(&mut self, seed: Option<u64>) -> Result<RunOutcome, RuntimeError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if let Some(k) = self.set.iter().position(|s| !s) {
            return Err(invalid(format!("input {k} was never set")));
        }
        let turns = seed.map(|s| Arc::new(Turns::new(self.cmds.len(), s)));
        for (tx, staged) in self.cmds.iter().zip(&mut self.staged) {
            let inputs = std::mem::take(staged);
            // A worker that is gone panicked; its reply channel says so.
            let _ = tx.send(Cmd::Step {
                inputs,
                turns: turns.clone(),
            });
        }
        let results: Vec<DeviceResult> = self
            .replies
            .iter()
            .enumerate()
            .map(|(d, rx)| {
                rx.recv()
                    .unwrap_or(Err(RuntimeError::Panicked { device: d }))
            })
            .collect();
        merge_results(results).inspect_err(|e| {
            self.poisoned = Some(e.clone());
            // Parked workers exit once their command channel closes.
            self.cmds.clear();
        })
    }
}

/// One device's worker: parks on its command channel for the session's
/// life and runs each step it is sent. After a failed step it exits,
/// dropping its channel ends, so peers still waiting on it see
/// [`RuntimeError::Disconnected`] instead of a timeout.
fn worker(
    plan: &CompiledPlan,
    mut links: DeviceLinks,
    st: &mut PlanExecutor,
    cmds: Receiver<Cmd<'_>>,
    replies: Sender<DeviceResult>,
    (stall_ms, drop_out): (u64, bool),
) {
    let d = links.device;
    let mut bound: Vec<Option<usize>> = vec![None; plan.result_tys().len()];
    let mut first = true;
    while let Ok(cmd) = cmds.recv() {
        let (inputs, turns) = match cmd {
            Cmd::Bind(out, k) => {
                bound[out] = Some(k);
                continue;
            }
            Cmd::Step { inputs, turns } => (inputs, turns),
        };
        let result = {
            // Scheduled, nothing — not even a drop-out — runs before the
            // device's first turn; declared first, the guard passes the
            // turn on last, before the reply.
            let _turn = turns.as_deref().map(|t| t.enter(d));
            links.turns = turns.clone();
            let first_step = std::mem::take(&mut first);
            let result = if first_step && drop_out {
                Err(RuntimeError::Dropped { device: d })
            } else {
                if first_step && stall_ms > 0 {
                    std::thread::sleep(Duration::from_millis(stall_ms));
                }
                plan.run_device(&mut links, st, &inputs, &bound)
                    .map(|outputs| (outputs, std::mem::take(&mut links.stats)))
            };
            links.turns = None;
            result
        };
        let failed = result.is_err();
        if replies.send(result).is_err() || failed {
            break;
        }
    }
}

/// The most diagnostic error of a step, or its merged outcome.
fn merge_results(results: Vec<DeviceResult>) -> Result<RunOutcome, RuntimeError> {
    if let Some(err) = results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .max_by_key(|e| e.severity())
    {
        return Err(err.clone());
    }
    let n = results.len();
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

impl ThreadedRuntime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        ThreadedRuntime { config }
    }

    /// Opens `plan` on the devices for the duration of `f`: spawns one
    /// worker per device, each owning one of the plan's resident
    /// executors and its ends of persistent device-pair channels, and
    /// hands `f` the [`Session`] that steps them. The workers are scoped
    /// to this call: when `f` returns, every worker exits and is joined,
    /// and the executors are parked on the plan again, whatever the
    /// outcome.
    ///
    /// [`RuntimeConfig::faults`] apply once per session: a stall or a
    /// drop-out at the first step, a corruption at the device's n-th
    /// message of the session.
    pub fn with_session<'a, R>(
        &self,
        plan: &'a CompiledPlan,
        f: impl FnOnce(&mut Session<'a>) -> R,
    ) -> R {
        let n = plan.num_devices();
        // One channel per ordered device pair: txs[src][dst] feeds
        // rxs[dst][src]. Senders never block (unbounded), so with every
        // receive bounded by the rendezvous timeout (free-running) or by
        // deadlock detection (scheduled) every step terminates.
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

        let timeout = self.config.rendezvous_timeout;
        let verify = self.config.checksums_armed();
        // Worker threads do not inherit the caller's thread-local
        // observability scope — capture it here and re-install it inside
        // each worker under a per-device track, so one session produces
        // one multi-track timeline (`device0`, `device1`, ...).
        let collector = partir_obs::current();
        // The arenas are resident on the plan: checked out (and, the
        // first time, allocated) here on the calling thread, one lent to
        // each worker, parked again after the join whatever the outcome.
        let mut executors = plan.checkout_executors();
        let result = std::thread::scope(|scope| {
            let mut cmds = Vec::with_capacity(n);
            let mut replies = Vec::with_capacity(n);
            let handles: Vec<_> = txs
                .into_iter()
                .zip(rxs)
                .zip(&mut executors)
                .enumerate()
                .map(|(d, ((tx_row, rx_row), st))| {
                    let (cmd_tx, cmd_rx) = channel();
                    let (reply_tx, reply_rx) = channel();
                    cmds.push(cmd_tx);
                    replies.push(reply_rx);
                    let fault = (stall_ms[d], dropped[d]);
                    let corrupt = corrupt_at[d];
                    let collector = collector.clone();
                    scope.spawn(move || {
                        let body = move || {
                            let links = DeviceLinks {
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
                                turns: None,
                                traced: partir_obs::current().is_some(),
                                stats: DeviceCounters::default(),
                            };
                            worker(plan, links, st, cmd_rx, reply_tx, fault);
                        };
                        match &collector {
                            Some(c) => partir_obs::with_track(c, &format!("device{d}"), body),
                            None => body(),
                        }
                    })
                })
                .collect();
            let mut session = Session {
                plan,
                cmds,
                replies,
                staged: (0..n).map(|_| Vec::new()).collect(),
                set: vec![false; plan.param_tys().len()],
                bound: vec![None; plan.result_tys().len()],
                poisoned: None,
            };
            let result = f(&mut session);
            // Closing the command channels releases the parked workers.
            drop(session);
            for h in handles {
                // A panic was already reported by the step it broke.
                let _ = h.join();
            }
            result
        });
        plan.park_executors(executors);
        result
    }

    /// Runs a pre-compiled plan on every device concurrently: a session
    /// of one step from host inputs. The plan carries everything once
    /// derived from the program — kernel bindings, arena layout,
    /// per-device collective schedules — so repeated steps pay no per-op
    /// dispatch or shape inference.
    ///
    /// `inputs[d]` are device `d`'s local inputs. On success returns the
    /// per-device outputs plus observed [`RuntimeStats`].
    ///
    /// # Errors
    ///
    /// Returns the most diagnostic failure across devices: malformed
    /// inputs, detected deadlock ([`RuntimeError::Timeout`]), corruption,
    /// or a dropped participant.
    pub fn run_plan(
        &self,
        plan: &CompiledPlan,
        inputs: &[Vec<Literal>],
    ) -> Result<RunOutcome, RuntimeError> {
        self.run_once(plan, inputs, None)
    }

    /// Runs a pre-compiled plan as [`ThreadedRuntime::run_plan`] does,
    /// but one device at a time: at every send and at every receive that
    /// finds its channel empty, a stream seeded by `seed` picks which
    /// runnable device goes next. The interleaving, and with it
    /// [`RuntimeStats::rendezvous_waits`], is a pure function of (plan,
    /// inputs, seed); outputs and traffic equal a free-running run's.
    ///
    /// # Errors
    ///
    /// As [`ThreadedRuntime::run_plan`], except that no receive times
    /// out: when no device can run while some have not finished, the run
    /// fails at once with [`RuntimeError::Deadlock`].
    pub fn run_scheduled(
        &self,
        plan: &CompiledPlan,
        inputs: &[Vec<Literal>],
        seed: u64,
    ) -> Result<RunOutcome, RuntimeError> {
        self.run_once(plan, inputs, Some(seed))
    }

    /// The one body of [`ThreadedRuntime::run_plan`] (`seed == None`)
    /// and [`ThreadedRuntime::run_scheduled`]: a one-step session.
    fn run_once(
        &self,
        plan: &CompiledPlan,
        inputs: &[Vec<Literal>],
        seed: Option<u64>,
    ) -> Result<RunOutcome, RuntimeError> {
        self.with_session(plan, |session| {
            session.set_all(inputs)?;
            session.step_with(seed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::predict_traffic;
    use crate::interp::apply_collective;
    use crate::plan::PlanOptions;
    use partir_ir::{Collective, Func, FuncBuilder, ReduceOp, TensorType};

    fn collective_func(mesh: &Mesh, c: Collective, ty: TensorType) -> Func {
        let mut b = FuncBuilder::with_mesh("f", mesh.clone());
        let x = b.param("x", ty);
        let y = b.collective(c, x).unwrap();
        b.build([y]).unwrap()
    }

    /// Compiles `func` and runs it free on every device of `mesh`.
    fn run(
        rt: &ThreadedRuntime,
        func: &Func,
        mesh: &Mesh,
        inputs: &[Vec<Literal>],
    ) -> Result<RunOutcome, RuntimeError> {
        let plan = CompiledPlan::compile(func, mesh, &PlanOptions::default())?;
        rt.run_plan(&plan, inputs)
    }

    /// The collective's specification applied to every device's input in
    /// lockstep ([`apply_collective`]), as per-device outputs.
    fn lockstep(c: &Collective, mesh: &Mesh, inputs: &[Vec<Literal>]) -> Vec<Vec<Literal>> {
        let vals = inputs.iter().map(|d| d[0].clone()).collect();
        apply_collective(c, mesh, vals)
            .unwrap()
            .into_iter()
            .map(|v| vec![v])
            .collect()
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
        let func = collective_func(&mesh, c.clone(), TensorType::f32([8]));
        let inputs = device_inputs(&mesh, 8);
        let lockstep = lockstep(&c, &mesh, &inputs);
        let outcome = run(&ThreadedRuntime::default(), &func, &mesh, &inputs).unwrap();
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
        let stats = run(&ThreadedRuntime::default(), &func, &mesh, &inputs)
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
    fn large_all_reduce_takes_leader_path_and_matches_lockstep() {
        // 80_001 f32 = ~312 KiB, above the payloads any workload reduces:
        // the leader algorithm still folds bit-identically to the spec,
        // in 2(k-1) messages of the full payload per group.
        let n = 80_001usize;
        let k = 4;
        let mesh = Mesh::single("a", k).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["a".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c.clone(), TensorType::f32([n]));
        let inputs = device_inputs(&mesh, n);
        let lockstep = lockstep(&c, &mesh, &inputs);
        let outcome = run(&ThreadedRuntime::default(), &func, &mesh, &inputs).unwrap();
        assert_eq!(outcome.outputs, lockstep);
        let traffic = outcome.stats.per_axis[&Axis::new("a")];
        assert_eq!(traffic.messages, 2 * (k as u64 - 1));
        assert_eq!(traffic.bytes, 2 * (k as u64 - 1) * n as u64 * 4);
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
        // n = 3 elements on a 4-way axis: fewer elements than members.
        let mesh = Mesh::single("a", 4).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["a".into()],
            reduce: ReduceOp::Max,
        };
        let func = collective_func(&mesh, c.clone(), TensorType::f32([3]));
        let inputs = device_inputs(&mesh, 3);
        let lockstep = lockstep(&c, &mesh, &inputs);
        let outcome = run(&ThreadedRuntime::default(), &func, &mesh, &inputs).unwrap();
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
        let err = run(&ThreadedRuntime::new(config), &func, &mesh, &inputs).unwrap_err();
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

    /// Scheduled, a dropped participant needs no timeout: its peers'
    /// waits on it are a deadlock the moment nothing else can run, and
    /// the drop outranks that cascade on every seed.
    #[test]
    fn dropped_participant_is_surfaced_by_the_scheduler() {
        let mesh = Mesh::new([("x", 2), ("y", 2)]).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["x".into(), "y".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c, TensorType::f32([4]));
        let inputs = device_inputs(&mesh, 4);
        let plan = CompiledPlan::compile(&func, &mesh, &PlanOptions::default()).unwrap();
        let rt = ThreadedRuntime::new(RuntimeConfig::with_faults(vec![Fault::Drop { device: 1 }]));
        for seed in 0..8 {
            let err = rt.run_scheduled(&plan, &inputs, seed).unwrap_err();
            assert_eq!(err, RuntimeError::Dropped { device: 1 }, "seed {seed}");
        }
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
    fn checksums_armed_by_faults() {
        assert!(!RuntimeConfig::default().checksums_armed());
        assert!(
            RuntimeConfig::with_faults(vec![Fault::Drop { device: 0 }]).checksums_armed(),
            "any fault plan arms verification"
        );
    }

    /// A fault plan that never fires — a corruption past the last
    /// message any device sends — still arms checksums on every message,
    /// and changes nothing: the outputs equal the fault-free run's.
    #[test]
    fn armed_fault_that_never_fires_matches_fault_free_run() {
        let mesh = Mesh::new([("x", 2), ("y", 2)]).unwrap();
        let c = Collective::AllReduce {
            axes: vec!["x".into(), "y".into()],
            reduce: ReduceOp::Sum,
        };
        let func = collective_func(&mesh, c, TensorType::f32([8]));
        let inputs = device_inputs(&mesh, 8);
        let fault_free = run(&ThreadedRuntime::default(), &func, &mesh, &inputs).unwrap();
        let config = RuntimeConfig::with_faults(vec![Fault::Corrupt {
            device: 0,
            message: u64::MAX,
        }]);
        assert!(config.checksums_armed());
        let armed = run(&ThreadedRuntime::new(config), &func, &mesh, &inputs).unwrap();
        assert_eq!(armed.outputs, fault_free.outputs);
        assert_eq!(armed.stats.per_axis, fault_free.stats.per_axis);
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
