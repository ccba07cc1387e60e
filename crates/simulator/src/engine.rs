//! The deterministic event loop.
//!
//! All stochastic choices are drawn from per-subsystem RNG streams, and
//! events are ordered by `(time, sequence)`, so a given [`SimConfig`]
//! always produces bit-identical output.
//!
//! The loop is strictly single-threaded by design: parallelism in this
//! workspace only ever runs *across* independent simulations (see the
//! replication runner in `titan-runner` and DETERMINISM.md), never
//! inside one. titan-lint rule D4 enforces this mechanically.
//!
//! The engine is split into an explicit [`EngineState`] so a run can be
//! paused at any sim-time boundary, captured as an [`EngineSnapshot`],
//! and resumed later (or in another process) with byte-identical
//! output — the checkpoint/restore contract pinned by the `titan-ckpt/3`
//! tests in `titan-runner`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use titan_conlog::time::SimTime;
use titan_conlog::{ConsoleEvent, JobRecord};
use titan_faults::calibration;
use titan_faults::cascade::CascadeModel;
use titan_faults::hardware::{DbeProcess, OtbProcess, SbeProcess};
use titan_faults::rngstream::{RngStreams, StreamTag};
use titan_faults::software::SoftwareXidModel;
use titan_faults::telemetry::DraftTelemetry;
use titan_gpu::pages::{RetireDecision, RetirementCause};
use titan_gpu::{GpuErrorKind, MemoryStructure, PageAddress};
use titan_nvsmi::{GpuSnapshot, JobEccDelta};
use titan_obs::{CostKind, Obs, ObsEvent};
use titan_topology::{gpu_index_to_node, node_to_gpu_index, NodeId, TOTAL_SLOTS};
use titan_workload::{ScheduledJob, WorkloadSchedule};

use crate::config::SimConfig;
use crate::fleet::{Fleet, FleetSnapshot};
use crate::output::{DbeTruth, OtbTruth, RetireTruth, SimOutput, SwapTruth};

/// Sentinel: no job on this node / job not active.
const NO_JOB: u32 = u32::MAX;

/// One schedulable event. Every payload is plain-old-data, so the event
/// loop reads it by copy — no per-event clone on the hot path — and a
/// checkpoint can serialize the dynamic payload tail directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Ev {
    JobStart(u32),
    JobEnd(u32),
    Dbe {
        structure: MemoryStructure,
        page: Option<PageAddress>,
        persisted: bool,
        /// Flight-recorder id of the fault draft (0 when tracing is off).
        trace: u64,
    },
    Otb {
        trace: u64,
    },
    Sbe {
        structure: MemoryStructure,
        hot_page: Option<u32>,
        trace: u64,
    },
    Soft {
        kind: GpuErrorKind,
        job_wide: bool,
        trace: u64,
    },
    /// Cascade child event landing on a specific node. Carries the apid
    /// of the originating job: by the time the child lands the job has
    /// usually crashed, but the console line still names the application
    /// that caused it (the driver logs the context's apid).
    Child {
        node: NodeId,
        kind: GpuErrorKind,
        apid: Option<u64>,
        /// Flight-recorder id of the engine event that spawned the
        /// cascade (0 when tracing is off).
        trace: u64,
    },
    /// Deferred XID 63 console record for a retirement on `card`.
    RetireRecord {
        card: u32,
        /// Flight-recorder id of the retirement decision.
        trace: u64,
    },
    /// Hot-spare maintenance swap for `slot`, scheduled because `card`
    /// (the occupant at schedule time) crossed the pull threshold. The
    /// card id travels with the event so the fire-time check can tell a
    /// stale schedule from a live one.
    Swap {
        slot: u32,
        card: u32,
        /// Flight-recorder id of the DBE engine event that scheduled it.
        trace: u64,
    },
}

/// Per-job runtime state.
#[derive(Debug, Clone, Default)]
struct JobState {
    started: bool,
    ended: bool,
    /// The nvidia-smi prologue, kept sparse: for each node of the job
    /// whose reported SBE vector changed while the job held it, the
    /// vector just before its first such change, in order of first
    /// change. Every other node still reports what it reported at job
    /// start. Present only while running.
    pre_sbe: Option<Vec<(NodeId, [u64; 5])>>,
    actual_end: SimTime,
}

/// [`JobState`] as `titan-ckpt/3` carries it: the prologue is the dense
/// per-node vector list, in allocation order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JobStateSnapshot {
    started: bool,
    ended: bool,
    pre_sbe: Option<Vec<[u64; 5]>>,
    actual_end: SimTime,
}

/// Runtime job bookkeeping: per-job state, node occupancy, and the
/// active set with O(1) membership updates (`active_pos` tracks each
/// job's index in `active`, so ending a job is a `swap_remove` instead
/// of an O(active) scan).
///
/// The prologue/epilogue SBE delta costs O(counter changes), not
/// O(allocated nodes): [`Fleet`] notes every change to a reported SBE
/// vector, and [`JobTable::absorb`] hands each to every job holding the
/// node before the set of holders next changes.
#[derive(Debug)]
struct JobTable {
    state: Vec<JobState>,
    /// Node → running job (NO_JOB when idle).
    node_job: Vec<u32>,
    /// `(node, job)` for every running job that holds a node whose
    /// `node_job` entry names another job or none. Job starts run
    /// before job ends at one second, so a job handed a node at the
    /// second its previous holder ends shares it until that end.
    shared: BTreeSet<(u32, u32)>,
    /// Currently running jobs.
    active: Vec<u32>,
    /// Job → index in `active` (NO_JOB when not active).
    active_pos: Vec<u32>,
    /// Recycled `pre_sbe` change lists (one allocation per concurrent
    /// job, reused across the whole run).
    spare_pre: Vec<Vec<(NodeId, [u64; 5])>>,
    #[cfg(test)]
    oracle: DenseOracle,
}

/// Portable [`JobTable`] state for checkpointing. The recycled
/// `spare_pre` buffers are captured as a *count* only: their contents
/// are cleared before every reuse, so only how many exist matters (it
/// decides the `pre_sbe_reuse_hits` / `pre_sbe_allocs` counter split on
/// the resumed run). `shared` is not captured: it follows from `state`,
/// `node_job` and the schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JobTableSnapshot {
    state: Vec<JobStateSnapshot>,
    node_job: Vec<u32>,
    active: Vec<u32>,
    active_pos: Vec<u32>,
    spare_pre_len: u64,
}

impl JobTable {
    fn new(n_jobs: usize) -> Self {
        JobTable {
            state: vec![JobState::default(); n_jobs],
            node_job: vec![NO_JOB; TOTAL_SLOTS],
            shared: BTreeSet::new(),
            active: Vec::new(),
            active_pos: vec![NO_JOB; n_jobs],
            spare_pre: Vec::new(),
            #[cfg(test)]
            oracle: DenseOracle::default(),
        }
    }

    /// Captures the table, writing each running job's prologue densely:
    /// the noted vector for nodes that changed, the current one for the
    /// rest. Pending fleet changes must have been absorbed.
    fn snapshot(&self, schedule: &WorkloadSchedule, fleet: &Fleet) -> JobTableSnapshot {
        let state = self
            .state
            .iter()
            .zip(&schedule.jobs)
            .map(|(st, job)| JobStateSnapshot {
                started: st.started,
                ended: st.ended,
                pre_sbe: st.pre_sbe.as_ref().map(|changed| {
                    let first_change: BTreeMap<NodeId, [u64; 5]> =
                        changed.iter().copied().collect();
                    job.nodes
                        .iter()
                        .map(|n| match first_change.get(n) {
                            Some(&before) => before,
                            None => reported_sbe_vector(fleet, *n),
                        })
                        .collect()
                }),
                actual_end: st.actual_end,
            })
            .collect();
        JobTableSnapshot {
            state,
            node_job: self.node_job.clone(),
            active: self.active.clone(),
            active_pos: self.active_pos.clone(),
            // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
            spare_pre_len: self.spare_pre.len() as u64,
        }
    }

    /// Rebuilds the table from `s`: a running job's change list holds
    /// the nodes whose dense prologue entry differs from what `fleet`
    /// reports now. Fails unless the table has one entry per job and
    /// per slot and names only scheduled jobs, each active one where
    /// `active_pos` says and no other job placed, and `node_job` gives
    /// every node of a running job to that job. That last check makes
    /// running jobs hold disjoint nodes, so `shared` starts empty: two
    /// jobs share a node only between a start and an end in the same
    /// second, and a checkpoint boundary never falls inside a second.
    fn from_snapshot(
        s: &JobTableSnapshot,
        schedule: &WorkloadSchedule,
        fleet: &Fleet,
    ) -> Result<JobTable, String> {
        let jobs = schedule.jobs.len();
        for (name, len, want) in [
            ("state", s.state.len(), jobs),
            ("active_pos", s.active_pos.len(), jobs),
            ("node_job", s.node_job.len(), TOTAL_SLOTS),
        ] {
            if len != want {
                return Err(format!("{name} holds {len} entries, want {want}"));
            }
        }
        // lint: allow(N1, u32 job id to usize is lossless)
        let known = |j: u32| (j as usize) < jobs;
        if let Some(j) = s.node_job.iter().find(|&&j| j != NO_JOB && !known(j)) {
            return Err(format!("node_job names job {j}, the schedule has {jobs}"));
        }
        for (pos, &j) in (0u32..).zip(&s.active) {
            // lint: allow(N1, u32 job id to usize is lossless)
            if !known(j) || s.active_pos.get(j as usize) != Some(&pos) {
                return Err(format!("active[{pos}] names job {j}, which active_pos does not place there"));
            }
        }
        let placed = s.active_pos.iter().filter(|&&p| p != NO_JOB).count();
        if placed != s.active.len() {
            return Err(format!("active_pos places {placed} jobs, active holds {}", s.active.len()));
        }
        let mut table = JobTable {
            state: s
                .state
                .iter()
                .map(|st| JobState {
                    started: st.started,
                    ended: st.ended,
                    pre_sbe: None,
                    actual_end: st.actual_end,
                })
                .collect(),
            node_job: s.node_job.clone(),
            shared: BTreeSet::new(),
            active: s.active.clone(),
            active_pos: s.active_pos.clone(),
            spare_pre: (0..s.spare_pre_len).map(|_| Vec::new()).collect(),
            #[cfg(test)]
            oracle: DenseOracle::default(),
        };
        for ((j, st), job) in (0u32..).zip(&s.state).zip(&schedule.jobs) {
            let Some(dense) = &st.pre_sbe else {
                continue;
            };
            if let Some(&NodeId(n)) = job.nodes.iter().find(|&&n| table.job_at(n) != Some(j)) {
                // lint: allow(N1, u32 job id to usize is lossless)
                let running = |k: u32| s.state.get(k as usize).is_some_and(|o| o.pre_sbe.is_some());
                return Err(match table.job_at(NodeId(n)) {
                    Some(k) if running(k) => format!("node {n} is held by running jobs {k} and {j}"),
                    Some(k) => format!("running job {j} holds node {n}, node_job says job {k}"),
                    None => format!("running job {j} holds node {n}, node_job says none"),
                });
            }
            let changed = job
                .nodes
                .iter()
                .zip(dense)
                .filter(|&(n, before)| *before != reported_sbe_vector(fleet, *n))
                .map(|(n, before)| (*n, *before))
                .collect();
            if let Some(st) = job_state(&mut table.state, j) {
                st.pre_sbe = Some(changed);
            }
        }
        Ok(table)
    }

    /// Notes each counter change `fleet` saw since the last call for
    /// every job holding the changed node, keeping the first change per
    /// job and node. Must run before the set of holders changes.
    fn absorb(&mut self, fleet: &mut Fleet) {
        for (slot, before) in fleet.drain_changes() {
            let node = gpu_index_to_node(slot);
            let others = self.shared.range((node.0, 0)..=(node.0, NO_JOB));
            for j in self.job_at(node).into_iter().chain(others.map(|&(_, j)| j)) {
                let changed = job_state(&mut self.state, j).and_then(|st| st.pre_sbe.as_mut());
                if let Some(changed) = changed {
                    if changed.iter().all(|(n, _)| *n != node) {
                        changed.push((node, before));
                    }
                }
            }
        }
    }

    /// Marks job `j` started and occupies its nodes. Reading the nodes'
    /// SBE counters (the nvidia-smi prologue) is deferred to their first
    /// change.
    fn start(&mut self, j: u32, job: &ScheduledJob, fleet: &mut Fleet, obs: &mut Obs) {
        self.absorb(fleet);
        let spare = self.spare_pre.pop();
        let reused = spare.is_some();
        let mut pre = spare.unwrap_or_default();
        let Some(st) = job_state(&mut self.state, j) else {
            return;
        };
        st.started = true;
        st.actual_end = job.end;
        pre.clear();
        st.pre_sbe = Some(pre);
        for n in &job.nodes {
            if let Some(slot) = self.node_job.get_mut(n.0 as usize) {
                if *slot != NO_JOB {
                    self.shared.insert((n.0, *slot));
                }
                *slot = j;
            }
        }
        #[cfg(test)]
        self.oracle.start(j, job, fleet);
        let pos = self.active.len();
        if let Some(p) = self.active_pos.get_mut(j as usize) {
            // lint: allow(N1, active job count is bounded by the schedule length, far below 2^32)
            *p = pos as u32;
        }
        self.active.push(j);
        obs.emit(ObsEvent::JobStart {
            nodes: job.nodes.len(),
            reused,
            active: self.active.len(),
        });
    }

    /// Ends job `j` at `t` (normal completion or crash), producing the
    /// job record and the nvidia-smi prologue/epilogue SBE delta.
    fn end(
        &mut self,
        j: u32,
        t: SimTime,
        schedule: &WorkloadSchedule,
        fleet: &mut Fleet,
        out: &mut SimOutput,
        obs: &mut Obs,
    ) {
        self.absorb(fleet);
        let Some(st) = job_state(&mut self.state, j) else {
            return;
        };
        if !st.started || st.ended {
            return;
        }
        st.ended = true;
        st.actual_end = t;
        let Some(job) = schedule.jobs.get(j as usize) else {
            return;
        };
        for n in &job.nodes {
            if let Some(slot) = self.node_job.get_mut(n.0 as usize) {
                if *slot == j {
                    *slot = NO_JOB;
                } else {
                    self.shared.remove(&(n.0, j));
                }
            }
        }
        // O(1) active-set removal.
        let pos = self
            .active_pos
            .get(j as usize)
            .copied()
            .unwrap_or(NO_JOB) as usize;
        if let Some(p) = self.active_pos.get_mut(j as usize) {
            *p = NO_JOB;
        }
        if pos < self.active.len() {
            self.active.swap_remove(pos);
            if let Some(&moved) = self.active.get(pos) {
                if let Some(p) = self.active_pos.get_mut(moved as usize) {
                    // lint: allow(N1, pos indexes the active vec, bounded by the schedule length)
                    *p = pos as u32;
                }
            }
        }

        // nvidia-smi epilogue: per-node SBE delta over the nodes whose
        // counters changed (every other node's delta is 0), kept only
        // for nodes that gained one (see `JobEccDelta`), in allocation
        // order.
        let mut pre = st.pre_sbe.take().unwrap_or_default();
        if pre.len() > 1 {
            let first_change: BTreeMap<NodeId, [u64; 5]> = pre.drain(..).collect();
            pre.extend(
                job.nodes
                    .iter()
                    .filter_map(|n| first_change.get(n).map(|&before| (*n, before))),
            );
        }
        let mut per_node_sbe = Vec::new();
        let mut per_structure_sbe = vec![0u64; 5];
        for (n, before) in &pre {
            let after = reported_sbe_vector(fleet, *n);
            let mut node_total = 0;
            for ((a, b), ps) in after
                .iter()
                .zip(before.iter())
                .zip(per_structure_sbe.iter_mut())
            {
                let d = a.saturating_sub(*b);
                node_total += d;
                *ps += d;
            }
            if node_total > 0 {
                per_node_sbe.push((*n, node_total));
            }
        }
        self.spare_pre.push(pre);
        obs.emit(ObsEvent::JobEnd { nodes: job.nodes.len() });
        let delta = JobEccDelta {
            apid: job.spec.apid,
            per_node_sbe,
            per_structure_sbe,
        };
        #[cfg(test)]
        self.oracle.check(j, job, fleet, &delta);
        out.job_sbe.push(delta);

        // Job log record with *actual* runtime.
        let wall = t.saturating_sub(job.start);
        let frac = if job.spec.wall == 0 {
            0.0
        } else {
            wall as f64 / job.spec.wall as f64
        };
        out.jobs.push(JobRecord {
            apid: job.spec.apid,
            user: job.spec.user,
            nodes: job.nodes.iter().copied().collect(),
            start: job.start,
            end: t,
            gpu_core_hours: job.spec.gpu_core_hours() * frac.min(1.0),
            max_memory_bytes: job.spec.mem_max_bytes,
            total_memory_byte_hours: job.spec.total_memory_byte_hours() * frac.min(1.0),
        });
    }

    fn job_at(&self, node: NodeId) -> Option<u32> {
        let j = self
            .node_job
            .get(node.0 as usize)
            .copied()
            .unwrap_or(NO_JOB);
        (j != NO_JOB).then_some(j)
    }

    fn apid_at(&self, schedule: &WorkloadSchedule, node: NodeId) -> Option<u64> {
        self.job_at(node)
            .and_then(|j| schedule.jobs.get(j as usize))
            .map(|job| job.spec.apid)
    }
}

/// Job `j`'s runtime state.
fn job_state(state: &mut [JobState], j: u32) -> Option<&mut JobState> {
    state.get_mut(j as usize)
}

/// The nvidia-smi prologue/epilogue read densely: every allocated
/// node's reported SBE vector at job start and again at job end.
/// [`JobTable::end`] checks its delta against this one for every job
/// whose start the oracle saw.
#[cfg(test)]
#[derive(Debug, Default)]
struct DenseOracle {
    pre: BTreeMap<u32, Vec<[u64; 5]>>,
    /// Deltas checked so far.
    checked: usize,
}

#[cfg(test)]
impl DenseOracle {
    fn start(&mut self, j: u32, job: &ScheduledJob, fleet: &Fleet) {
        let pre = job
            .nodes
            .iter()
            .map(|n| reported_sbe_vector(fleet, *n))
            .collect();
        self.pre.insert(j, pre);
    }

    fn check(&mut self, j: u32, job: &ScheduledJob, fleet: &Fleet, delta: &JobEccDelta) {
        let Some(pre) = self.pre.remove(&j) else {
            return;
        };
        let mut per_node_sbe = Vec::new();
        let mut per_structure_sbe = vec![0u64; 5];
        for (n, before) in job.nodes.iter().zip(&pre) {
            let after = reported_sbe_vector(fleet, *n);
            let mut node_total = 0;
            for ((a, b), ps) in after.iter().zip(before).zip(per_structure_sbe.iter_mut()) {
                let d = a.saturating_sub(*b);
                node_total += d;
                *ps += d;
            }
            if node_total > 0 {
                per_node_sbe.push((*n, node_total));
            }
        }
        assert_eq!(delta.per_node_sbe, per_node_sbe, "job {j}: per-node deltas");
        assert_eq!(
            delta.per_structure_sbe, per_structure_sbe,
            "job {j}: per-structure"
        );
        self.checked += 1;
    }
}

/// The event heap and its payload arena. Heap entries are
/// `(time, class, seq)`: ties at one timestamp order by class (job
/// starts before faults before job ends, so a fault at a job's exact
/// start second sees the job as running), then by insertion sequence.
#[derive(Debug)]
struct Queue {
    heap: BinaryHeap<Reverse<(SimTime, u8, u64)>>,
    payloads: Vec<Ev>,
}

impl Queue {
    fn with_capacity(n: usize) -> Queue {
        Queue {
            heap: BinaryHeap::with_capacity(n),
            payloads: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, t: SimTime, class: u8, ev: Ev) {
        // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
        let seq = self.payloads.len() as u64;
        self.payloads.push(ev);
        self.heap.push(Reverse((t, class, seq)));
    }
}

/// A paused simulation: the full mutable state of the event loop plus
/// everything needed to keep executing it. [`Simulator::run_with`] is
/// now a thin `new → run_until(∞) → finalize` over this type; the
/// checkpoint path instead stops at interval boundaries, captures an
/// [`EngineSnapshot`], and keeps going.
pub struct EngineState {
    cfg: SimConfig,
    schedule: WorkloadSchedule,
    queue: Queue,
    /// How many payload slots the deterministic setup (job schedule +
    /// fault drafts) produced. Everything after this index was appended
    /// dynamically by the event loop — that tail is what a checkpoint
    /// must carry, because the prefix is regenerated from the config.
    initial_payload_len: usize,
    fleet: Fleet,
    cascades: CascadeModel,
    sim_rng: StdRng,
    cascade_rng: StdRng,
    spare_rng: StdRng,
    jobs: JobTable,
    swap_pending: Vec<bool>,
    /// Scratch for the weighted job pick, reused across soft events.
    weight_scratch: Vec<f64>,
    out: SimOutput,
    /// Test hook (`run --inject-divergence SECS`): burn one extra
    /// `sim_rng` draw at the first event at/after this time. Never
    /// serialized — a resumed run does not repeat the burn, which is
    /// exactly the artificial divergence `ckpt bisect` must localize.
    divergence_probe: Option<SimTime>,
}

/// Everything the event loop mutates, captured at a sim-time boundary.
/// Together with the originating [`SimConfig`] this is sufficient to
/// resume the run with byte-identical output; the `titan-ckpt/3` doc in
/// `titan-runner` wraps it with a chained FNV digest.
///
/// The deterministic *setup* products (workload schedule, fault drafts,
/// susceptibility, thermal model) are deliberately not captured — they
/// are pure functions of the config and are regenerated on restore,
/// which keeps checkpoints small and makes a config/checkpoint mismatch
/// detectable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Remaining `(time, class, seq)` heap entries, ascending. Keys are
    /// unique (seq is a global sequence number), so heap pop order is a
    /// pure function of this set.
    heap: Vec<(SimTime, u8, u64)>,
    /// Payload slots appended by the event loop after setup.
    payload_tail: Vec<Ev>,
    /// Setup payload count — must match the regenerated setup exactly.
    initial_payload_len: u64,
    fleet: FleetSnapshot,
    jobs: JobTableSnapshot,
    sim_rng: [u64; 4],
    cascade_rng: [u64; 4],
    spare_rng: [u64; 4],
    swap_pending: Vec<bool>,
    /// The output so far; its console lines are in emission order.
    pub out: SimOutput,
}

/// Checks a snapshot's heap against the run it would resume: every
/// entry names a payload (`seq` below `payloads`), lies at or after the
/// pause time `t` (the loop had run every earlier event), and names a
/// `seq` no other entry names. The event loop skips an entry with no
/// payload, so without this check an inconsistent checkpoint would
/// resume to a silently different run instead of failing.
fn check_heap(heap: &[(SimTime, u8, u64)], t: SimTime, payloads: usize) -> Result<(), String> {
    let mut seen = vec![false; payloads];
    for (i, &(at, class, seq)) in heap.iter().enumerate() {
        let entry = || format!("checkpoint heap entry {i} (t {at}, class {class}, seq {seq})");
        let slot = usize::try_from(seq).ok().and_then(|s| seen.get_mut(s));
        let Some(slot) = slot else {
            return Err(format!("{} names no payload: the run holds {payloads}", entry()));
        };
        if at < t {
            return Err(format!("{} lies before the checkpoint time {t}", entry()));
        }
        if std::mem::replace(slot, true) {
            return Err(format!("{} repeats the seq of an earlier entry", entry()));
        }
    }
    Ok(())
}

impl EngineState {
    /// Builds the initial engine state for `cfg`: generates the
    /// workload, drafts every fault stream, and seeds the runtime RNGs.
    /// This is the deterministic prefix shared by fresh runs and
    /// restores alike.
    pub fn new(cfg: &SimConfig, obs: &mut Obs) -> EngineState {
        let streams = RngStreams::new(cfg.seed);
        let window = cfg.window;

        // --- Generate the workload and fault drafts -------------------
        obs.emit(ObsEvent::Phase("engine:workload"));
        let schedule = draw(streams.stream(StreamTag::Workload), obs, |rng| {
            WorkloadSchedule::generate(&cfg.schedule, rng)
        });
        let mut queue = Queue::with_capacity(schedule.jobs.len() * 2);
        // Job lifecycle events. Class 0 = starts (before same-time faults),
        // class 2 = ends (after same-time faults).
        for (i, j) in schedule.jobs.iter().enumerate() {
            // lint: allow(N1, job index: the window's schedule holds far fewer than 2^32 jobs)
            let i = i as u32;
            queue.push(j.start, 0, Ev::JobStart(i));
            queue.push(j.end, 2, Ev::JobEnd(i));
        }
        obs.emit(ObsEvent::DraftStream {
            pushed: queue.payloads.len(),
            counts: &Vec::new,
        });

        obs.emit(ObsEvent::Phase("engine:fault_drafts"));
        if cfg.enable_dbe {
            let drafts = draw(streams.stream(StreamTag::Dbe), obs, |rng| {
                DbeProcess::default().sample(rng)
            });
            push_drafts(drafts, window, &mut queue, obs, |d, trace| Ev::Dbe {
                structure: d.structure,
                page: d.page,
                persisted: d.inforom_persisted,
                trace,
            });
        }
        if cfg.enable_otb {
            let drafts = draw(streams.stream(StreamTag::OffTheBus), obs, |rng| {
                OtbProcess::default().sample(rng)
            });
            push_drafts(drafts, window, &mut queue, obs, |_, trace| Ev::Otb { trace });
        }
        if cfg.enable_sbe {
            let drafts = draw(streams.stream(StreamTag::Sbe), obs, |rng| {
                SbeProcess::default().sample(rng)
            });
            push_drafts(drafts, window, &mut queue, obs, |d, trace| Ev::Sbe {
                structure: d.structure,
                hot_page: d.page.map(|p| p.0),
                trace,
            });
        }
        if cfg.enable_software {
            let incidents = draw(streams.stream(StreamTag::SoftwareXid), obs, |rng| {
                SoftwareXidModel::default().sample(rng)
            });
            push_drafts(incidents, window, &mut queue, obs, |i, trace| Ev::Soft {
                kind: i.kind,
                job_wide: i.job_wide,
                trace,
            });
        }
        let initial_payload_len = queue.payloads.len();

        // --- Runtime state ---------------------------------------------
        let fleet = draw(streams.stream(StreamTag::Susceptibility), obs, |rng| {
            Fleet::new(cfg.spare_cards, rng)
        });
        let cascades = if cfg.enable_cascades {
            CascadeModel::default()
        } else {
            CascadeModel::disabled()
        };
        let sim_rng = streams.stream(StreamTag::Simulator);
        let cascade_rng = streams.stream(StreamTag::Cascade);
        let spare_rng = streams.stream(StreamTag::HotSpare);

        let jobs = JobTable::new(schedule.jobs.len());
        let swap_pending: Vec<bool> = vec![false; fleet.n_cards()];

        let mut out = SimOutput {
            schedule_dropped: schedule.dropped,
            ..SimOutput::default()
        };
        out.truth.sbe_by_card = vec![0; fleet.n_cards()];
        out.truth.sbe_by_slot = vec![0; titan_topology::COMPUTE_NODES];
        out.truth.sbe_by_structure = vec![0; MemoryStructure::ECC_COUNTED.len()];
        // Most payload events emit at most one console line; job-wide
        // soft events add a line per job node on top.
        out.console.reserve(queue.payloads.len());
        out.jobs.reserve(schedule.jobs.len());
        out.job_sbe.reserve(schedule.jobs.len());

        EngineState {
            cfg: cfg.clone(),
            schedule,
            queue,
            initial_payload_len,
            fleet,
            cascades,
            sim_rng,
            cascade_rng,
            spare_rng,
            jobs,
            swap_pending,
            weight_scratch: Vec::new(),
            out,
            divergence_probe: None,
        }
    }

    /// Captures the full mutable loop state. The caller must have
    /// advanced the loop to a boundary via [`EngineState::run_until`]
    /// and records it; [`EngineState::restore`] takes it back.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut heap: Vec<(SimTime, u8, u64)> = self.queue.heap.iter().map(|r| r.0).collect();
        heap.sort_unstable();
        EngineSnapshot {
            heap,
            payload_tail: self
                .queue
                .payloads
                .get(self.initial_payload_len..)
                .unwrap_or(&[])
                .to_vec(),
            // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
            initial_payload_len: self.initial_payload_len as u64,
            fleet: self.fleet.snapshot(),
            jobs: self.jobs.snapshot(&self.schedule, &self.fleet),
            sim_rng: self.sim_rng.state(),
            cascade_rng: self.cascade_rng.state(),
            spare_rng: self.spare_rng.state(),
            swap_pending: self.swap_pending.clone(),
            out: self.out.clone(),
        }
    }

    /// Rebuilds a run paused at sim time `t` from `snap`: re-runs the
    /// deterministic setup for `cfg`, then overlays the captured loop
    /// state. Fails if the regenerated setup does not line up with the
    /// snapshot — the cheap tell that `cfg` is not the config the
    /// checkpoint came from — or if a heap entry could not have been
    /// left by a run paused at `t`.
    pub fn restore(
        cfg: &SimConfig,
        snap: &EngineSnapshot,
        t: SimTime,
        obs: &mut Obs,
    ) -> Result<EngineState, String> {
        let mut st = EngineState::new(cfg, obs);
        // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
        if st.queue.payloads.len() as u64 != snap.initial_payload_len {
            return Err(format!(
                "checkpoint does not match this config: setup generated {} events, \
                 checkpoint recorded {}",
                st.queue.payloads.len(),
                snap.initial_payload_len
            ));
        }
        st.queue.payloads.extend(snap.payload_tail.iter().copied());
        check_heap(&snap.heap, t, st.queue.payloads.len())?;
        st.queue.heap = snap.heap.iter().copied().map(Reverse).collect();
        st.fleet.restore(&snap.fleet).map_err(|e| format!("checkpoint engine.fleet: {e}"))?;
        st.jobs = JobTable::from_snapshot(&snap.jobs, &st.schedule, &st.fleet)
            .map_err(|e| format!("checkpoint engine.jobs: {e}"))?;
        st.sim_rng = StdRng::from_state(snap.sim_rng);
        st.cascade_rng = StdRng::from_state(snap.cascade_rng);
        st.spare_rng = StdRng::from_state(snap.spare_rng);
        st.swap_pending = snap.swap_pending.clone();
        let (truth, want) = (&snap.out.truth, &st.out.truth);
        for (name, len, machine) in [
            ("sbe_by_card", truth.sbe_by_card.len(), want.sbe_by_card.len()),
            ("sbe_by_slot", truth.sbe_by_slot.len(), want.sbe_by_slot.len()),
            ("sbe_by_structure", truth.sbe_by_structure.len(), want.sbe_by_structure.len()),
        ] {
            if len != machine {
                return Err(format!(
                    "checkpoint engine.out: truth.{name} holds {len} entries, want {machine}"
                ));
            }
        }
        st.out = snap.out.clone();
        Ok(st)
    }

    /// Arms the divergence test hook: the first event dequeued at or
    /// after `at` burns one extra `sim_rng` draw, silently corrupting
    /// every draw after it. Deliberately absent from [`EngineSnapshot`].
    pub fn set_divergence_probe(&mut self, at: Option<SimTime>) {
        self.divergence_probe = at;
    }

    /// Executes every queued event strictly before `t_stop` (pass
    /// `SimTime::MAX` to drain the heap). Calling this repeatedly with
    /// increasing boundaries pops the exact same event sequence as one
    /// uninterrupted drain — the slicing only decides *when* control
    /// returns, never *what* runs.
    pub fn run_until(&mut self, t_stop: SimTime, obs: &mut Obs) {
        obs.emit(ObsEvent::LoopStart {
            spares: self.fleet.n_spares(),
        });
        let EngineState {
            cfg,
            schedule,
            queue,
            fleet,
            cascades,
            sim_rng,
            cascade_rng,
            spare_rng,
            jobs,
            swap_pending,
            weight_scratch,
            out,
            divergence_probe,
            ..
        } = self;
        let window = cfg.window;
        // Each pop reports the payloads pushed since the previous one:
        // the event still open when they were pushed pays for them.
        let mut reported = queue.payloads.len();

        // --- Event loop --------------------------------------------------
        while let Some(&Reverse((t, _class, seq))) = queue.heap.peek() {
            if t >= t_stop {
                break;
            }
            let _popped = queue.heap.pop();
            // Horizon: everything at/after the window is dropped. Jobs
            // still running are closed at `window` after the loop;
            // nothing else may land in the log.
            let ev = if t < window {
                // lint: allow(N1, seq is minted from payloads.len(), lossless on 64-bit)
                queue.payloads.get(seq as usize).copied()
            } else {
                None
            };
            // One report per pop, before anything is dispatched: every
            // cost from here to the next pop is the popped event's,
            // identically in straight and checkpoint-resumed runs.
            obs.emit(ObsEvent::Dequeue {
                t,
                kind: ev.as_ref().map_or(CostKind::Horizon, cost_kind),
                rng_draws: sim_rng.draws() + cascade_rng.draws() + spare_rng.draws(),
                pushed: queue.payloads.len() - reported,
                depth: queue.heap.len() + 1,
            });
            reported = queue.payloads.len();
            if let Some(p) = *divergence_probe {
                if t >= p {
                    // One stolen draw shifts every subsequent sim_rng
                    // sample — an artificial nondeterminism for the
                    // `ckpt bisect` acceptance test.
                    let _burn: u64 = sim_rng.gen();
                    *divergence_probe = None;
                }
            }
            let Some(ev) = ev else {
                continue;
            };
            match ev {
                Ev::JobStart(j) => {
                    if let Some(job) = schedule.jobs.get(j as usize) {
                        jobs.start(j, job, fleet, obs);
                    }
                }
                Ev::JobEnd(j) => jobs.end(j, t, schedule, fleet, out, obs),
                Ev::Dbe {
                    structure,
                    page,
                    persisted,
                    trace,
                } => {
                    let slot = fleet.pick_dbe_slot(sim_rng);
                    let node = fleet.node_of_slot(slot);
                    let card = fleet.card_at_slot(slot);
                    let apid = jobs.apid_at(schedule, node);

                    // Page-retirement state may only change once the
                    // Jan'14 driver exists (satellite bugfix: the gate
                    // is on the state itself, not just the record).
                    let retirement_active = t >= calibration::retirement_xid_introduced();
                    let decision = fleet
                        .card_mut(card)
                        .apply_dbe(structure, page, persisted, retirement_active);
                    let line = ConsoleEvent {
                        time: t,
                        node,
                        kind: GpuErrorKind::DoubleBitError,
                        structure: Some(structure),
                        page: page.map(|p| p.0),
                        apid,
                    };
                    let ev_id = log_fault(out, obs, trace, Some(card), &|| format!("dbe {structure:?}"), line);
                    out.truth.dbe.push(DbeTruth {
                        time: t,
                        node,
                        card,
                        structure,
                        persisted,
                        crashed_apid: apid,
                    });

                    // Crash the job and reboot the node; the repair is
                    // instantaneous in sim time.
                    if let Some(j) = jobs.job_at(node) {
                        jobs.end(j, t, schedule, fleet, out, obs);
                    }
                    fleet.card_mut(card).inforom.driver_reload(persisted);

                    if let RetireDecision::Retired(cause) = decision {
                        schedule_retirement(t, window, card, cause, ev_id, queue, cascade_rng, out, obs);
                    }

                    // Cascade children (XID 45 and friends).
                    let kind = GpuErrorKind::DoubleBitError;
                    spawn_cascade(kind, t, &[node], apid, ev_id, cascades, cascade_rng, queue, obs);

                    // Hot-spare policy. The schedule-time checks are a
                    // cheap gate; the authoritative checks re-run when
                    // the swap fires (see Ev::Swap).
                    if cfg.enable_hot_spare_policy
                        && fleet.card(card).lifetime_dbe >= calibration::CARD_PULL_DBE_THRESHOLD
                        && !swap_pending.get(card as usize).copied().unwrap_or(true)
                        && fleet.n_spares() > 0
                    {
                        if let Some(p) = swap_pending.get_mut(card as usize) {
                            *p = true;
                        }
                        // Next maintenance window: 24 h later.
                        let swap = Ev::Swap {
                            slot,
                            card,
                            trace: ev_id,
                        };
                        queue.push(t + 24 * 3600, 1, swap);
                    }
                }
                Ev::Otb { trace } => {
                    let Some(slot) = fleet.pick_otb_slot(sim_rng) else {
                        continue;
                    };
                    let node = fleet.node_of_slot(slot);
                    let card = fleet.card_at_slot(slot);
                    let apid = jobs.apid_at(schedule, node);
                    fleet.mark_otb_done(card);
                    let line = ConsoleEvent {
                        time: t,
                        node,
                        kind: GpuErrorKind::OffTheBus,
                        structure: None,
                        page: None,
                        apid,
                    };
                    log_fault(out, obs, trace, Some(card), &|| "otb".to_string(), line);
                    out.truth.otb.push(OtbTruth {
                        time: t,
                        node,
                        card,
                    });
                    if let Some(j) = jobs.job_at(node) {
                        jobs.end(j, t, schedule, fleet, out, obs);
                    }
                    // Node reboots after repair; volatile counters clear.
                    fleet.card_mut(card).inforom.driver_reload(false);
                }
                Ev::Sbe {
                    structure,
                    hot_page,
                    trace,
                } => {
                    let Some(card) = fleet.pick_sbe_card(sim_rng) else {
                        continue;
                    };
                    let Some(slot) = fleet.slot_of_card(card) else {
                        continue; // card sits in the spare pool right now
                    };
                    let node = fleet.node_of_slot(slot);
                    // Activity thinning: busy GPUs accumulate SBEs faster
                    // (monotone but sublinear — Observation 12).
                    let accept_p = match jobs
                        .job_at(node)
                        .and_then(|j| schedule.jobs.get(j as usize))
                    {
                        Some(job) => job
                            .spec
                            .gpu_util
                            .powf(calibration::SBE_ACTIVITY_EXPONENT),
                        None => 0.25,
                    };
                    let thinned = sim_rng.gen::<f64>() >= accept_p;
                    let ev_id = obs.emit(ObsEvent::Sbe {
                        accepted: !thinned,
                        parent: trace,
                        t,
                        card: u64::from(card),
                        node: u64::from(node.0),
                        detail: &|| format!("sbe {structure:?}"),
                    });
                    if thinned {
                        out.truth.sbe_rejected += 1;
                        continue;
                    }
                    let page = hot_page.map(PageAddress);
                    let retirement_active = t >= calibration::retirement_xid_introduced();
                    let decision = fleet
                        .card_mut(card)
                        .apply_sbe(structure, page, retirement_active);
                    if let Some(c) = out.truth.sbe_by_card.get_mut(card as usize) {
                        *c += 1;
                    }
                    if let Some(c) = out.truth.sbe_by_slot.get_mut(slot as usize) {
                        *c += 1;
                    }
                    if let Some(i) = MemoryStructure::ECC_COUNTED
                        .iter()
                        .position(|&m| m == structure)
                    {
                        if let Some(c) = out.truth.sbe_by_structure.get_mut(i) {
                            *c += 1;
                        }
                    }
                    if let RetireDecision::Retired(cause) = decision {
                        schedule_retirement(t, window, card, cause, ev_id, queue, cascade_rng, out, obs);
                    }
                }
                Ev::Soft {
                    kind,
                    job_wide,
                    trace,
                } => {
                    // A job-wide incident strikes every node of a running
                    // job (debug runs 8x as likely); a driver-level one
                    // strikes one node, busy nodes preferred.
                    let single: [NodeId; 1];
                    let (nodes, job): (&[NodeId], Option<u32>) = if job_wide {
                        let Some(&j) =
                            weighted_job_pick(&jobs.active, schedule, sim_rng, weight_scratch)
                        else {
                            out.truth.software_skipped += 1;
                            obs.emit(ObsEvent::SoftNoTarget);
                            continue;
                        };
                        let Some(job) = schedule.jobs.get(j as usize) else {
                            continue;
                        };
                        (&job.nodes, Some(j))
                    } else {
                        let node = match pick_any_job_node(&jobs.active, schedule, sim_rng) {
                            Some(n) => n,
                            None => {
                                // Idle machine: any compute node.
                                let slot = sim_rng
                                    // lint: allow(N1, COMPUTE_NODES is the constant 18,688)
                                    .gen_range(0..titan_topology::COMPUTE_NODES as u32);
                                fleet.node_of_slot(slot)
                            }
                        };
                        single = [node];
                        (&single, jobs.job_at(node))
                    };
                    let Some(&first) = nodes.first() else {
                        continue;
                    };
                    let apid = job
                        .and_then(|j| schedule.jobs.get(j as usize))
                        .map(|job| job.spec.apid);
                    // "errors appear on all the nodes allocated to the
                    // job within five seconds" — clamped to the study
                    // horizon like every other console record.
                    let first_line = out.console.len();
                    for (k, n) in nodes.iter().enumerate() {
                        let skew = if k == 0 {
                            0
                        } else {
                            sim_rng.gen_range(0..=calibration::APP_XID_NODE_SPREAD_SEC)
                        };
                        out.console.push(ConsoleEvent {
                            time: (t + skew).min(window - 1),
                            node: *n,
                            kind,
                            structure: None,
                            page: None,
                            apid,
                        });
                    }
                    let ev_id = obs.emit(ObsEvent::Fault {
                        parent: trace,
                        t,
                        card: None,
                        node: (!job_wide).then(|| u64::from(first.0)),
                        apid,
                        detail: &|| {
                            let scope = if job_wide { " job_wide" } else { "" };
                            format!("soft {kind:?}{scope}")
                        },
                        lines: out.console.get(first_line..).unwrap_or_default(),
                    });
                    // Cascade consequences land on the struck nodes.
                    spawn_cascade(kind, t, nodes, apid, ev_id, cascades, cascade_rng, queue, obs);
                    if kind.crashes_application() {
                        if let Some(j) = job {
                            jobs.end(j, t, schedule, fleet, out, obs);
                        }
                    }
                }
                Ev::Child {
                    node,
                    kind,
                    apid,
                    trace,
                } => {
                    let line = ConsoleEvent {
                        time: t,
                        node,
                        kind,
                        structure: None,
                        page: None,
                        apid,
                    };
                    log_fault(out, obs, trace, None, &|| format!("cascade {kind:?}"), line);
                }
                Ev::RetireRecord { card, trace } => {
                    // The card may have moved to the spare pool meanwhile.
                    let Some(slot) = fleet.slot_of_card(card) else {
                        continue;
                    };
                    let node = fleet.node_of_slot(slot);
                    let line = ConsoleEvent {
                        time: t,
                        node,
                        kind: GpuErrorKind::EccPageRetirement,
                        structure: Some(MemoryStructure::DeviceMemory),
                        page: None,
                        apid: jobs.apid_at(schedule, node),
                    };
                    log_fault(out, obs, trace, Some(card), &|| "retire_record".to_string(), line);
                }
                Ev::Swap { slot, card, trace } => {
                    // The schedule is 24 h stale by now: re-verify before
                    // pulling anything, and clear the pending flag either
                    // way so the card can be re-scheduled later (e.g. when
                    // no spare was available at fire time).
                    if let Some(p) = swap_pending.get_mut(card as usize) {
                        *p = false;
                    }
                    let pulled = if swap_fire_check(fleet, slot, card) {
                        fleet.swap_out(slot)
                    } else {
                        None
                    };
                    obs.emit(ObsEvent::Swap {
                        parent: trace,
                        t,
                        card,
                        fired: pulled.is_some(),
                        spares: fleet.n_spares(),
                    });
                    let Some((old_card, new_card)) = pulled else {
                        continue;
                    };
                    // Hot-spare stress testing: burn the pulled card
                    // in under accelerated load. Its latent DBE
                    // proneness (lemons were usually what crossed the
                    // pull threshold) decides whether errors
                    // reproduce and the card goes back to the vendor.
                    let outcome = crate::hotspare::stress_test(
                        &crate::hotspare::StressTestConfig::default(),
                        fleet.susceptibility.dbe_weight(old_card as usize),
                        spare_rng,
                    );
                    if outcome.returned_to_vendor {
                        fleet.card_mut(old_card).return_to_vendor();
                    }
                    out.truth.swaps.push(SwapTruth {
                        time: t,
                        slot,
                        old_card,
                        new_card,
                        returned_to_vendor: outcome.returned_to_vendor,
                    });
                }
            }
        }
        // Snapshots read the change lists: leave no change unabsorbed.
        jobs.absorb(fleet);
        obs.emit(ObsEvent::SliceEnd {
            rng_draws: sim_rng.draws() + cascade_rng.draws() + spare_rng.draws(),
            pushed: queue.payloads.len() - reported,
        });
    }

    /// Closes out the run: ends horizon-straddling jobs, derives the
    /// aprun log, takes the final fleet snapshots, and returns the
    /// completed [`SimOutput`]. Must only be called once the heap has
    /// been drained with `run_until(SimTime::MAX, ..)`.
    pub fn finalize(mut self, obs: &mut Obs) -> SimOutput {
        let window = self.cfg.window;

        // End any jobs still running at the horizon.
        let still_active: Vec<u32> = self.jobs.active.clone();
        obs.emit(ObsEvent::Finalize {
            window,
            jobs_closed: still_active.len(),
            final_snapshots: titan_topology::COMPUTE_NODES,
            console: &self.out.console,
            payload_slots: self.queue.payloads.len(),
        });
        for j in still_active {
            self.jobs
                .end(j, window, &self.schedule, &mut self.fleet, &mut self.out, obs);
        }
        let mut out = self.out;

        // Aprun structure for every completed job (the ALPS log). Uses a
        // dedicated substream so the main workload stream is untouched;
        // the substream is re-derived from the seed, so a resumed run
        // reproduces it without carrying any extra RNG state.
        let streams = RngStreams::new(self.cfg.seed);
        let is_debug: std::collections::BTreeMap<u64, bool> = self
            .schedule
            .jobs
            .iter()
            .map(|j| (j.spec.apid, j.spec.is_debug))
            .collect();
        draw(streams.substream(StreamTag::Workload, 1), obs, |rng| {
            for rec in &out.jobs {
                out.apruns.extend(titan_workload::apruns::subdivide_span(
                    rec.apid,
                    rec.start,
                    rec.end,
                    is_debug.get(&rec.apid).copied().unwrap_or(false),
                    8,
                    rng,
                ));
            }
        });

        // Final fleet snapshots (per production slot).
        // lint: allow(N1, COMPUTE_NODES is the constant 18,688)
        out.final_snapshots = (0..titan_topology::COMPUTE_NODES as u32)
            .map(|slot| {
                let node = self.fleet.node_of_slot(slot);
                GpuSnapshot::take(node, self.fleet.card(self.fleet.card_at_slot(slot)), window)
            })
            .collect();

        out.console.sort_by_key(|e| e.time);
        out.jobs.sort_by_key(|j| j.start);
        out
    }
}

/// The fleet simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator; the config must validate.
    pub fn new(config: SimConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Simulator { config })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the full simulation.
    pub fn run(&self) -> SimOutput {
        self.run_with(&mut Obs::disabled())
    }

    /// Runs the full simulation, recording telemetry into `obs`.
    ///
    /// The sink never influences the run: every record call is a pure
    /// observation of state the engine computes anyway, so
    /// `run_with(&mut Obs::new(true))` and `run()` produce identical
    /// [`SimOutput`]s (pinned by the telemetry determinism tests).
    pub fn run_with(&self, obs: &mut Obs) -> SimOutput {
        let mut st = EngineState::new(&self.config, obs);
        st.run_until(SimTime::MAX, obs);
        st.finalize(obs)
    }
}

/// Reported per-structure SBE vector for the card on `node`.
fn reported_sbe_vector(fleet: &Fleet, node: NodeId) -> [u64; 5] {
    node_to_gpu_index(node).map_or([0; 5], |slot| fleet.reported_sbe(slot))
}

/// Fire-time validation for a scheduled hot-spare swap. The swap was
/// scheduled a maintenance window (24 h) earlier against the card that
/// crossed the pull threshold; by fire time the slot may have been
/// serviced already (pulling whoever occupies it now would pull an
/// innocent replacement), and the spare pool may have drained. Pull only
/// if the *offending card* still occupies the slot, is still over the
/// threshold, and a spare is available now.
fn swap_fire_check(fleet: &Fleet, slot: u32, card: u32) -> bool {
    fleet.slot_of_card(card) == Some(slot)
        && fleet.card(card).lifetime_dbe >= calibration::CARD_PULL_DBE_THRESHOLD
        && fleet.n_spares() > 0
}

/// Picks an active job for an application XID: debug runs weighted 20:1
/// (graphics engine exceptions overwhelmingly come from code under
/// development, per the paper's "debug and test runs" reading).
/// `weights` is caller-provided scratch, reused across calls.
fn weighted_job_pick<'a>(
    active: &'a [u32],
    schedule: &WorkloadSchedule,
    rng: &mut StdRng,
    weights: &mut Vec<f64>,
) -> Option<&'a u32> {
    if active.is_empty() {
        return None;
    }
    weights.clear();
    weights.extend(active.iter().map(|&j| {
        match schedule.jobs.get(j as usize) {
            Some(job) if job.spec.is_debug => 20.0,
            _ => 1.0,
        }
    }));
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return active.get(i);
        }
    }
    active.last()
}

/// A uniformly random node of a uniformly random active job.
fn pick_any_job_node(
    active: &[u32],
    schedule: &WorkloadSchedule,
    rng: &mut StdRng,
) -> Option<NodeId> {
    if active.is_empty() {
        return None;
    }
    let j = active.get(rng.gen_range(0..active.len())).copied()?;
    let nodes = &schedule.jobs.get(j as usize)?.nodes;
    if nodes.is_empty() {
        return None;
    }
    nodes.get(rng.gen_range(0..nodes.len())).copied()
}

/// Logs a fault's single console line and reports the fault; returns
/// its flight-recorder id. The record takes its time, node and apid
/// from the line.
fn log_fault(
    out: &mut SimOutput,
    obs: &mut Obs,
    parent: u64,
    card: Option<u32>,
    detail: &dyn Fn() -> String,
    line: ConsoleEvent,
) -> u64 {
    out.console.push(line);
    obs.emit(ObsEvent::Fault {
        parent,
        t: line.time,
        card: card.map(u64::from),
        node: Some(u64::from(line.node.0)),
        apid: line.apid,
        detail,
        lines: &[line],
    })
}

/// Schedules the cascade children of a `kind` event at `t`. A child
/// lands on the first of `targets` when it is same-node or there is
/// one target, otherwise on a target drawn from the cascade stream —
/// so disabling cascades leaves every other stream untouched (clean
/// ablations). `parent` is the flight-recorder id of the event.
#[allow(clippy::too_many_arguments)]
fn spawn_cascade(
    kind: GpuErrorKind,
    t: SimTime,
    targets: &[NodeId],
    apid: Option<u64>,
    parent: u64,
    cascades: &CascadeModel,
    rng: &mut StdRng,
    queue: &mut Queue,
    obs: &mut Obs,
) {
    let children = cascades.spawn(kind, rng);
    obs.emit(ObsEvent::Cascade {
        children: children.len(),
    });
    let Some(&first) = targets.first() else {
        return;
    };
    for child in children {
        let node = if child.same_node || targets.len() == 1 {
            first
        } else {
            targets
                .get(rng.gen_range(0..targets.len()))
                .copied()
                .unwrap_or(first)
        };
        let ev = Ev::Child {
            node,
            kind: child.kind,
            apid,
            trace: parent,
        };
        queue.push(t + child.delay, 1, ev);
    }
}

/// Runs `f` on a setup RNG stream and charges its draws to the open
/// ledger phase: setup streams never reach a loop scope switch.
fn draw<T>(mut rng: StdRng, obs: &mut Obs, f: impl FnOnce(&mut StdRng) -> T) -> T {
    let value = f(&mut rng);
    obs.emit(ObsEvent::Draws(rng.draws()));
    value
}

/// Pushes one fault stream's in-window drafts as class-1 payloads,
/// each under its own flight-recorder root, then reports the stream.
fn push_drafts<D: DraftTelemetry>(
    drafts: Vec<D>,
    window: SimTime,
    queue: &mut Queue,
    obs: &mut Obs,
    ev: impl Fn(&D, u64) -> Ev,
) {
    queue.payloads.reserve(drafts.len());
    queue.heap.reserve(drafts.len());
    let before = queue.payloads.len();
    for d in drafts.iter().filter(|d| d.time() < window) {
        let trace = obs.emit(ObsEvent::FaultDraft {
            t: d.time(),
            detail: &|| d.payload(),
        });
        queue.push(d.time(), 1, ev(d, trace));
    }
    obs.emit(ObsEvent::DraftStream {
        pushed: queue.payloads.len() - before,
        counts: &|| D::counts(drafts.iter().filter(|d| d.time() < window)),
    });
}

/// Ledger scope for a dispatched payload. Horizon drops are classed
/// separately at the call site; every live payload maps 1:1 onto a
/// [`CostKind`].
fn cost_kind(ev: &Ev) -> CostKind {
    match ev {
        Ev::JobStart(_) => CostKind::JobStart,
        Ev::JobEnd(_) => CostKind::JobEnd,
        Ev::Dbe { .. } => CostKind::Dbe,
        Ev::Otb { .. } => CostKind::Otb,
        Ev::Sbe { .. } => CostKind::Sbe,
        Ev::Soft { .. } => CostKind::Soft,
        Ev::Child { .. } => CostKind::Child,
        Ev::RetireRecord { .. } => CostKind::RetireRecord,
        Ev::Swap { .. } => CostKind::Swap,
    }
}

/// Schedules the XID 63 console record for a retirement, honouring the
/// prompt / delayed / missing split of Fig. 8. A record whose delay
/// carries it past the study horizon can never appear in the console
/// log, so truth records it as unemitted (satellite bugfix: truth and
/// console must agree at the horizon). `parent` is the flight-recorder
/// id of the engine event that triggered the retirement.
#[allow(clippy::too_many_arguments)]
fn schedule_retirement(
    t: SimTime,
    window: SimTime,
    card: u32,
    cause: RetirementCause,
    parent: u64,
    queue: &mut Queue,
    rng: &mut StdRng,
    out: &mut SimOutput,
    obs: &mut Obs,
) {
    let (emitted, delay) = match cause {
        RetirementCause::DoubleBitError => {
            let roll: f64 = rng.gen();
            if roll < calibration::RETIRE_MISSING_PROB {
                (false, 0)
            } else if roll < calibration::RETIRE_MISSING_PROB + calibration::RETIRE_DELAYED_PROB {
                // Delayed past the prompt path: 10 min – 6 h.
                (true, rng.gen_range(600..21_600))
            } else {
                // Prompt: exponential with the calibrated mean, capped
                // inside the 10-minute bucket. The mean is a positive
                // constant, so the fallback branch never runs.
                let d = titan_stats::Exponential::new(
                    1.0 / calibration::RETIRE_AFTER_DBE_MEAN_DELAY_SEC,
                )
                .map(|e| e.sample(rng))
                .unwrap_or(calibration::RETIRE_AFTER_DBE_MEAN_DELAY_SEC)
                .min(590.0) as u64; // lint: allow(N1, clamped to ≤ 590 before the cast)
                (true, d.max(1))
            }
        }
        // The two-SBE path always records (it is the driver's own
        // bookkeeping, no crash race).
        RetirementCause::MultipleSingleBitErrors => (true, rng.gen_range(1..120)),
    };
    let emitted = emitted && t + delay < window;
    let rid = obs.emit(ObsEvent::Retirement {
        parent,
        t,
        card: u64::from(card),
        detail: &|| format!("retire cause={cause:?} emitted={emitted}"),
    });
    out.truth.retirements.push(RetireTruth {
        time: t,
        card,
        cause,
        emitted,
    });
    if emitted {
        // The XID 63 line the SEC will see lands `delay` seconds after
        // the triggering fault.
        queue.push(t + delay, 1, Ev::RetireRecord { card, trace: rid });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn quick_run(days: u64, seed: u64) -> SimOutput {
        Simulator::new(SimConfig::quick(days, seed))
            .expect("valid config")
            .run()
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick_run(14, 7);
        let b = quick_run(14, 7);
        assert_eq!(a.console, b.console);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.truth.sbe_by_card, b.truth.sbe_by_card);
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick_run(14, 1);
        let b = quick_run(14, 2);
        assert_ne!(a.console, b.console);
    }

    #[test]
    fn console_sorted_and_strictly_inside_window() {
        let out = quick_run(20, 3);
        assert!(out.console.windows(2).all(|w| w[0].time <= w[1].time));
        // The horizon rule is strict: job-wide skew is clamped and heap
        // events at/after the window are dropped, so nothing may land at
        // or past it.
        assert!(out.console.iter().all(|e| e.time < 20 * 86_400));
    }

    #[test]
    fn sbes_never_in_console_log() {
        let out = quick_run(30, 5);
        assert!(out
            .console
            .iter()
            .all(|e| e.kind != GpuErrorKind::SingleBitError));
        // But SBEs did happen.
        let total: u64 = out.truth.sbe_by_card.iter().sum();
        assert!(total > 100, "sbe total {total}");
    }

    #[test]
    fn sbe_visible_through_snapshots() {
        let out = quick_run(30, 5);
        let snap_total: u64 = out.final_snapshots.iter().map(|s| s.total_sbe()).sum();
        assert!(snap_total > 0);
        // Snapshot totals can undercount truth (crash-lost pending) but
        // never exceed it.
        let truth_total: u64 = out.truth.sbe_by_card.iter().sum();
        assert!(snap_total <= truth_total, "{snap_total} vs {truth_total}");
    }

    #[test]
    fn dbe_crashes_running_job() {
        let out = quick_run(60, 11);
        // At least one DBE struck a busy node; its job record must end at
        // the DBE time.
        let crashed: Vec<_> = out
            .truth
            .dbe
            .iter()
            .filter_map(|d| d.crashed_apid.map(|a| (a, d.time)))
            .collect();
        assert!(!crashed.is_empty(), "no DBE hit a running job in 60 days");
        for (apid, t) in crashed {
            let job = out.jobs.iter().find(|j| j.apid == apid).expect("job record");
            assert_eq!(job.end, t, "job must end at the DBE");
        }
    }

    #[test]
    fn app_xids_replicate_across_job_nodes() {
        let out = quick_run(30, 13);
        let x13: Vec<_> = out.console.iter().filter(|e| e.kind == GpuErrorKind::GraphicsEngineException).collect();
        assert!(!x13.is_empty());
        // Group by apid: each incident must cover > 1 node for multi-node
        // jobs and span ≤ 5 s.
        let mut by_apid: std::collections::HashMap<u64, Vec<&ConsoleEvent>> = Default::default();
        for e in &x13 {
            if let Some(a) = e.apid {
                by_apid.entry(a).or_default().push(e);
            }
        }
        let mut multi = 0;
        for (apid, evs) in &by_apid {
            let job = out.jobs.iter().find(|j| j.apid == *apid);
            if let Some(job) = job {
                let nodes: std::collections::HashSet<NodeId> =
                    evs.iter().map(|e| e.node).collect();
                if job.nodes.len() > 1 {
                    assert!(nodes.len() > 1, "apid {apid} reported on one node only");
                    multi += 1;
                }
                let lo = evs.iter().map(|e| e.time).min().unwrap();
                let hi = evs.iter().map(|e| e.time).max().unwrap();
                assert!(hi - lo <= calibration::APP_XID_NODE_SPREAD_SEC);
            }
        }
        assert!(multi > 0, "no multi-node XID 13 incident observed");
    }

    #[test]
    fn no_retirement_before_jan14_driver() {
        // Full-window features need the real window; run 8 months.
        let out = quick_run(240, 17);
        let cut = calibration::retirement_xid_introduced();
        for e in out.console.iter().filter(|e| e.kind == GpuErrorKind::EccPageRetirement) {
            assert!(e.time >= cut, "retirement record at {} < {cut}", e.time);
        }
        for r in &out.truth.retirements {
            assert!(r.time >= cut);
        }
    }

    /// Regression (pre-Jan'14 state): before the driver feature exists,
    /// not only must no retirement *record* appear — the cards' page
    /// tables themselves must stay empty. Previously `apply_dbe` /
    /// `apply_sbe` mutated retirement state unconditionally and only the
    /// console record was gated, so snapshots of a pre-Jan'14 window
    /// showed retired pages months before the feature shipped.
    #[test]
    fn pre_jan14_window_has_zero_retired_pages_in_snapshots() {
        let days = 200;
        assert!(days * 86_400 < calibration::retirement_xid_introduced());
        let out = quick_run(days, 17);
        // DBEs on device memory did happen — the retirement trigger was
        // exercised, not just absent.
        assert!(out
            .truth
            .dbe
            .iter()
            .any(|d| d.structure == MemoryStructure::DeviceMemory));
        assert!(out.truth.retirements.is_empty());
        for s in &out.final_snapshots {
            assert_eq!(
                s.retired_pages,
                (0, 0),
                "node {:?} retired pages before the Jan'14 driver",
                s.node
            );
        }
    }

    /// Regression (horizon truth/console agreement): every retirement
    /// truth record marked `emitted` must have exactly one XID 63 line
    /// in the console log. Previously a record whose delay landed past
    /// the window was dropped silently while truth still claimed it.
    /// (Hot-spare policy off so no card leaves production, the one other
    /// legitimate way a scheduled record can vanish.)
    #[test]
    fn emitted_retirements_all_have_console_records() {
        let mut cfg = SimConfig::quick(300, 41);
        cfg.enable_hot_spare_policy = false;
        let out = Simulator::new(cfg).unwrap().run();
        assert!(!out.truth.retirements.is_empty(), "no retirements in 300 days");
        let emitted = out.truth.retirements.iter().filter(|r| r.emitted).count();
        let records = out.console.iter().filter(|e| e.kind == GpuErrorKind::EccPageRetirement).count();
        assert_eq!(
            emitted, records,
            "truth claims {emitted} emitted records, console has {records}"
        );
    }

    /// Regression (horizon rule in schedule_retirement): a retirement
    /// right at the edge of the window can never emit — its record
    /// would land at/after the horizon.
    #[test]
    fn retirement_at_window_edge_is_marked_unemitted() {
        let mut queue = Queue::with_capacity(0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = SimOutput::default();
        let window = 86_400;
        // The two-SBE path always wants to record, with delay ≥ 1 — at
        // t = window - 1 the record must be suppressed and truth must
        // say so.
        schedule_retirement(
            window - 1,
            window,
            7,
            RetirementCause::MultipleSingleBitErrors,
            0,
            &mut queue,
            &mut rng,
            &mut out,
            &mut Obs::disabled(),
        );
        assert_eq!(out.truth.retirements.len(), 1);
        assert!(!out.truth.retirements[0].emitted);
        assert!(queue.heap.is_empty(), "no console record may be scheduled");
        // Far from the horizon the same path emits.
        schedule_retirement(
            1000,
            window,
            7,
            RetirementCause::MultipleSingleBitErrors,
            0,
            &mut queue,
            &mut rng,
            &mut out,
            &mut Obs::disabled(),
        );
        assert!(out.truth.retirements[1].emitted);
        assert_eq!(queue.heap.len(), 1);
    }

    /// Regression (hot-spare swap mis-targeting): a swap scheduled for
    /// card A in slot S must not fire if the slot was serviced in the
    /// meantime — the card now in S is an innocent replacement.
    #[test]
    fn swap_fire_check_rejects_stale_schedules() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut fleet = Fleet::new(4, &mut rng);
        let slot = 10;
        let offender = fleet.card_at_slot(slot);
        // Offender crosses the pull threshold.
        for _ in 0..calibration::CARD_PULL_DBE_THRESHOLD {
            fleet
                .card_mut(offender)
                .apply_dbe(MemoryStructure::DeviceMemory, None, true, true);
        }
        assert!(
            swap_fire_check(&fleet, slot, offender),
            "live schedule must pass"
        );

        // Slot serviced before the maintenance window fires: the
        // offender leaves, a spare moves in.
        let (old, replacement) = fleet.swap_out(slot).unwrap();
        assert_eq!(old, offender);
        // The stale schedule must now be rejected: the offender is gone
        // and the replacement must not be pulled in its stead.
        assert!(
            !swap_fire_check(&fleet, slot, offender),
            "stale schedule pulled an innocent card"
        );
        assert_eq!(fleet.card_at_slot(slot), replacement);
        assert_eq!(fleet.card(replacement).lifetime_dbe, 0);
    }

    /// Fire-time spare-pool check: a swap scheduled while spares existed
    /// must not fire after the pool drained.
    #[test]
    fn swap_fire_check_requires_spares_at_fire_time() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut fleet = Fleet::new(1, &mut rng);
        let slot = 3;
        let offender = fleet.card_at_slot(slot);
        for _ in 0..calibration::CARD_PULL_DBE_THRESHOLD {
            fleet
                .card_mut(offender)
                .apply_dbe(MemoryStructure::DeviceMemory, None, true, true);
        }
        assert!(swap_fire_check(&fleet, slot, offender));
        // Another slot consumes the last spare first.
        fleet.swap_out(77).unwrap();
        assert_eq!(fleet.n_spares(), 0);
        assert!(
            !swap_fire_check(&fleet, slot, offender),
            "swap fired with an empty spare pool"
        );
    }

    /// Engine-level invariant: every executed swap pulled a card that
    /// had crossed the DBE pull threshold by the swap time (no innocent
    /// replacement is ever pulled).
    #[test]
    fn every_swap_pulls_a_threshold_offender() {
        let mut cfg = SimConfig::quick(120, 23);
        cfg.enable_hot_spare_policy = true;
        let out = Simulator::new(cfg).unwrap().run();
        for s in &out.truth.swaps {
            let dbe_before_swap = out
                .truth
                .dbe
                .iter()
                .filter(|d| d.card == s.old_card && d.time <= s.time)
                .count() as u32;
            assert!(
                dbe_before_swap >= calibration::CARD_PULL_DBE_THRESHOLD,
                "swap at t={} pulled card {} with only {} DBEs",
                s.time,
                s.old_card,
                dbe_before_swap
            );
        }
    }

    #[test]
    fn hot_spare_policy_pulls_repeat_offenders() {
        // Crank DBEs by running long enough; with MTBF 160 h a 120-day
        // window yields ~18 DBEs — repeat offenders are unlikely, so
        // check the mechanism directly instead through config toggle.
        let mut cfg = SimConfig::quick(120, 23);
        cfg.enable_hot_spare_policy = true;
        let out = Simulator::new(cfg).unwrap().run();
        for s in &out.truth.swaps {
            // Every swap was justified by the threshold.
            assert!(s.old_card != s.new_card);
        }
        // Swaps only happen when some card hit 2 DBEs; consistency check:
        let mut dbe_per_card: std::collections::HashMap<u32, u32> = Default::default();
        for d in &out.truth.dbe {
            *dbe_per_card.entry(d.card).or_default() += 1;
        }
        let repeat_cards = dbe_per_card.values().filter(|&&c| c >= 2).count();
        assert!(out.truth.swaps.len() <= repeat_cards.max(1));
    }

    #[test]
    fn toggles_suppress_their_streams() {
        let mut cfg = SimConfig::quick(30, 29);
        cfg.enable_dbe = false;
        cfg.enable_otb = false;
        cfg.enable_software = false;
        let out = Simulator::new(cfg).unwrap().run();
        assert!(out.truth.dbe.is_empty());
        assert!(out.truth.otb.is_empty());
        assert!(out
            .console
            .iter()
            .all(|e| e.kind == GpuErrorKind::EccPageRetirement));
        // SBEs still flow.
        assert!(out.truth.sbe_by_card.iter().sum::<u64>() > 0);
    }

    #[test]
    fn job_records_cover_started_jobs() {
        let out = quick_run(20, 31);
        assert!(!out.jobs.is_empty());
        // apids unique.
        let mut apids: Vec<u64> = out.jobs.iter().map(|j| j.apid).collect();
        apids.sort_unstable();
        let n = apids.len();
        apids.dedup();
        assert_eq!(apids.len(), n);
        // Every job record has a matching SBE delta.
        assert_eq!(out.jobs.len(), out.job_sbe.len());
    }

    /// The flight recorder is a pure observer: running with the trace
    /// stream on produces a byte-identical [`SimOutput`], and the
    /// stream's console-id alignment recovers the exact post-sort
    /// console order.
    #[test]
    fn tracing_never_perturbs_the_run() {
        let cfg = SimConfig::quick(20, 19);
        let plain = Simulator::new(cfg.clone()).unwrap().run();
        let mut obs = Obs::disabled();
        obs.enable_trace();
        let traced = Simulator::new(cfg).unwrap().run_with(&mut obs);
        assert_eq!(plain.console, traced.console);
        assert_eq!(plain.jobs, traced.jobs);
        assert_eq!(plain.truth.sbe_by_card, traced.truth.sbe_by_card);
        assert!(!obs.stream.records().is_empty(), "stream recorded nothing");
        // Alignment: console-line record i describes console line i.
        let ids = obs.stream.console_ids_in_log_order();
        assert_eq!(ids.len(), traced.console.len());
        let by_id: std::collections::HashMap<u64, &titan_obs::TraceRecord> =
            obs.stream.records().iter().map(|r| (r.id, r)).collect();
        for (i, line) in traced.console.iter().enumerate() {
            let rec = by_id[&ids[i]];
            assert_eq!(rec.ts, line.time, "console record {i} time mismatch");
            assert_eq!(rec.node, Some(u64::from(line.node.0)));
            assert_eq!(rec.apid, line.apid);
        }
    }

    /// Every retirement in the trace walks back to an injected fault
    /// draft (engine-side provenance; the SEC/nvsmi legs are stitched at
    /// collect time and verified in the runner tests).
    #[test]
    fn engine_trace_chains_verify() {
        // Retirements only exist after the Jan'14 driver (~7 months in),
        // so use a window long enough to produce terminal records.
        let mut obs = Obs::disabled();
        obs.enable_trace();
        let out = Simulator::new(SimConfig::quick(240, 17))
            .unwrap()
            .run_with(&mut obs);
        let text = obs.stream.render_jsonl(17, 240);
        let (h, r) = titan_obs::parse_trace(&text).expect("parse");
        let rep = titan_obs::verify_trace(&h, &r);
        assert!(rep.ok(), "{:?}", rep.errors);
        assert!(rep.chains_walked > 0, "no terminal records in 240 days");
        // draft -> engine event -> retirement is depth 3 minimum.
        assert!(rep.max_depth >= 3, "max depth {}", rep.max_depth);
        assert!(!out.truth.retirements.is_empty());
    }

    #[test]
    fn otb_never_repeats_on_same_card() {
        let out = quick_run(120, 37);
        let mut seen = std::collections::HashSet::new();
        for o in &out.truth.otb {
            assert!(seen.insert(o.card), "card {} had two OTBs", o.card);
        }
        assert!(!out.truth.otb.is_empty(), "no OTB in 120 epidemic days");
    }

    /// Checkpoint contract, engine level: pausing at a boundary,
    /// snapshotting, restoring into a fresh state, and finishing must
    /// equal the uninterrupted run exactly (the binary-level byte
    /// identity tests build on this).
    #[test]
    fn snapshot_resume_is_identical() {
        let cfg = SimConfig::quick(30, 7);
        let full = Simulator::new(cfg.clone()).expect("valid config").run();

        let t = 10 * 86_400;
        let mut st = EngineState::new(&cfg, &mut Obs::disabled());
        st.run_until(t, &mut Obs::disabled());
        let snap = st.snapshot();

        let mut resumed =
            EngineState::restore(&cfg, &snap, t, &mut Obs::disabled()).expect("restore");
        resumed.run_until(SimTime::MAX, &mut Obs::disabled());
        let out = resumed.finalize(&mut Obs::disabled());
        assert_eq!(full, out);
    }

    /// Snapshots chain: a snapshot taken later in a resumed run equals
    /// the snapshot the uninterrupted run takes at the same boundary —
    /// this is what lets `ckpt bisect` compare per-interval digests from
    /// two independent runs.
    #[test]
    fn snapshot_after_resume_matches_run_through() {
        let cfg = SimConfig::quick(30, 11);
        let t1 = 8 * 86_400;
        let t2 = 16 * 86_400;

        let mut a = EngineState::new(&cfg, &mut Obs::disabled());
        a.run_until(t1, &mut Obs::disabled());
        let snap1 = a.snapshot();
        a.run_until(t2, &mut Obs::disabled());
        let direct = a.snapshot();

        let mut b = EngineState::restore(&cfg, &snap1, t1, &mut Obs::disabled()).expect("restore");
        b.run_until(t2, &mut Obs::disabled());
        let resumed = b.snapshot();
        assert_eq!(direct, resumed);
    }

    fn job_on(apid: u64, start: SimTime, end: SimTime, nodes: &[NodeId]) -> ScheduledJob {
        ScheduledJob {
            spec: titan_workload::JobSpec {
                apid,
                user: 0,
                nodes: nodes.len() as u32,
                submit: start,
                wall: end - start,
                mem_max_bytes: 0,
                gpu_util: 1.0,
                is_debug: false,
            },
            start,
            end,
            nodes: nodes.to_vec(),
        }
    }

    fn land_sbe(fleet: &mut Fleet, node: NodeId) {
        let card = fleet.card_at_slot(node_to_gpu_index(node).unwrap());
        fleet
            .card_mut(card)
            .apply_sbe(MemoryStructure::DeviceMemory, None, false);
    }

    /// Job starts run before faults, which run before job ends, so a
    /// job handed a node at second T shares it with the job releasing
    /// it at T. An SBE there at T counts for both jobs, as the dense
    /// prologue/epilogue diff counts it, and `per_node_sbe` lists the
    /// nodes in allocation order, not in order of change.
    #[test]
    fn handoff_second_sbe_counts_for_both_holders() {
        let t = 1_000;
        let (n, m) = (gpu_index_to_node(5), gpu_index_to_node(9));
        let schedule = WorkloadSchedule {
            jobs: vec![job_on(1, 0, t, &[n]), job_on(2, t, 2 * t, &[m, n])],
            dropped: 0,
        };
        let mut fleet = Fleet::new(0, &mut StdRng::seed_from_u64(1));
        let mut jobs = JobTable::new(2);
        let mut out = SimOutput::default();
        let obs = &mut Obs::disabled();

        jobs.start(0, &schedule.jobs[0], &mut fleet, obs);
        jobs.start(1, &schedule.jobs[1], &mut fleet, obs);
        land_sbe(&mut fleet, n);
        jobs.end(0, t, &schedule, &mut fleet, &mut out, obs);
        land_sbe(&mut fleet, m);
        jobs.end(1, 2 * t, &schedule, &mut fleet, &mut out, obs);

        let per_node: Vec<_> = out.job_sbe.iter().map(|d| d.per_node_sbe.clone()).collect();
        assert_eq!(per_node, vec![vec![(n, 1)], vec![(m, 1), (n, 1)]]);
        let device = MemoryStructure::ECC_COUNTED
            .iter()
            .position(|&s| s == MemoryStructure::DeviceMemory)
            .unwrap();
        assert_eq!(out.job_sbe[0].per_structure_sbe[device], 1);
        assert_eq!(out.job_sbe[1].per_structure_sbe[device], 2);
        assert_eq!(jobs.oracle.checked, 2);
    }

    /// A job that crashes at the handoff second leaves the node idle in
    /// `node_job`, but the job releasing it at that second still holds
    /// it until its own end: a change after the crash is still its.
    #[test]
    fn change_after_the_new_holder_crashes_counts_for_the_old_one() {
        let t = 1_000;
        let n = gpu_index_to_node(5);
        let schedule = WorkloadSchedule {
            jobs: vec![job_on(1, 0, t, &[n]), job_on(2, t, 2 * t, &[n])],
            dropped: 0,
        };
        let mut fleet = Fleet::new(0, &mut StdRng::seed_from_u64(1));
        let mut jobs = JobTable::new(2);
        let mut out = SimOutput::default();
        let obs = &mut Obs::disabled();

        jobs.start(0, &schedule.jobs[0], &mut fleet, obs);
        jobs.start(1, &schedule.jobs[1], &mut fleet, obs);
        jobs.end(1, t, &schedule, &mut fleet, &mut out, obs);
        assert_eq!(jobs.job_at(n), None);
        land_sbe(&mut fleet, n);
        jobs.end(0, t, &schedule, &mut fleet, &mut out, obs);

        let per_node: Vec<_> = out.job_sbe.iter().map(|d| d.per_node_sbe.clone()).collect();
        assert_eq!(per_node, vec![vec![], vec![(n, 1)]]);
        assert!(jobs.shared.is_empty());
        assert_eq!(jobs.oracle.checked, 2);
    }

    /// Every job's delta from the noted changes equals the dense
    /// prologue/epilogue diff (`JobTable::end` checks each against the
    /// oracle), over seeds and windows that crash jobs with DBEs and
    /// off-the-bus failures, reboot nodes, swap cards under the
    /// hot-spare policy, and close jobs at the horizon.
    #[test]
    fn sparse_deltas_match_the_dense_diff_across_seeds() {
        let (mut nonzero, mut multi_node, mut swaps) = (0, 0, 0);
        for (seed, days) in [(3, 40), (11, 75), (29, 60)] {
            let cfg = SimConfig::quick(days, seed);
            assert!(cfg.enable_hot_spare_policy);
            let obs = &mut Obs::disabled();
            let mut st = EngineState::new(&cfg, obs);
            // Every card starts at the pull threshold, so each DBE
            // schedules a hot-spare swap a day later.
            for card in 0..st.fleet.n_cards() as u32 {
                st.fleet.card_mut(card).lifetime_dbe = calibration::CARD_PULL_DBE_THRESHOLD;
            }
            st.run_until(SimTime::MAX, obs);
            let checked = st.jobs.oracle.checked;
            let open = st.jobs.active.len();
            let out = st.finalize(obs);

            assert_eq!(
                checked + open,
                out.job_sbe.len(),
                "seed {seed}: unchecked deltas"
            );
            assert!(open > 0, "seed {seed}: no job closed at the horizon");
            assert!(!out.truth.dbe.is_empty() && !out.truth.otb.is_empty());
            swaps += out.truth.swaps.len();
            nonzero += out.job_sbe.iter().filter(|d| d.total_sbe() > 0).count();
            multi_node += out.job_sbe.iter().filter(|d| d.per_node_sbe.len() > 1).count();
        }
        assert!(swaps > 0, "no hot-spare swap fired");
        assert!(nonzero > 0 && multi_node > 0, "{nonzero} nonzero, {multi_node} multi-node");
    }

    /// A checkpoint taken while a running job holds a noted change
    /// writes the dense prologue; restoring rebuilds the change lists,
    /// so snapshot → restore → snapshot gives the same bytes and the
    /// resumed run ends exactly as the straight one.
    #[test]
    fn checkpoint_with_noted_changes_round_trips() {
        let cfg = SimConfig::quick(30, 7);
        let straight = Simulator::new(cfg.clone()).expect("valid config").run();

        let obs = &mut Obs::disabled();
        let mut st = EngineState::new(&cfg, obs);
        let holds_change = |st: &EngineState| {
            st.jobs.active.iter().any(|&j| {
                st.jobs.state[j as usize]
                    .pre_sbe
                    .as_ref()
                    .is_some_and(|changed| !changed.is_empty())
            })
        };
        let t = (1..30u64)
            .map(|h| h * 3_600)
            .find(|&t| {
                st.run_until(t, obs);
                holds_change(&st)
            })
            .expect("no boundary with a noted change in the first 30 hours");

        let snap = st.snapshot();
        let bytes = serde_json::to_string(&snap).unwrap();
        let mut resumed = EngineState::restore(&cfg, &snap, t, obs).expect("restore");
        assert!(holds_change(&resumed));
        assert_eq!(serde_json::to_string(&resumed.snapshot()).unwrap(), bytes);
        resumed.run_until(SimTime::MAX, obs);
        assert_eq!(resumed.finalize(obs), straight);
    }

    /// Restore must refuse a snapshot taken under a different config:
    /// the regenerated setup would not line up with the captured tail.
    #[test]
    fn restore_rejects_mismatched_config() {
        let cfg = SimConfig::quick(10, 7);
        let mut st = EngineState::new(&cfg, &mut Obs::disabled());
        st.run_until(86_400, &mut Obs::disabled());
        let snap = st.snapshot();

        let other = SimConfig::quick(40, 7);
        let err = EngineState::restore(&other, &snap, 86_400, &mut Obs::disabled());
        assert!(err.is_err(), "restore accepted a mismatched config");
    }

    /// Restore refuses a heap no paused run could hold, naming the
    /// entry: a seq with no payload, an entry before the pause, and a
    /// seq named twice.
    #[test]
    fn restore_rejects_an_inconsistent_heap() {
        let cfg = SimConfig::quick(10, 7);
        let t = 86_400;
        let mut st = EngineState::new(&cfg, &mut Obs::disabled());
        st.run_until(t, &mut Obs::disabled());
        let snap = st.snapshot();
        assert!(EngineState::restore(&cfg, &snap, t, &mut Obs::disabled()).is_ok());
        let payloads = snap.initial_payload_len + snap.payload_tail.len() as u64;
        let (first, last) = (snap.heap[0], snap.heap.len() - 1);
        let (end_t, end_class, _) = snap.heap[last];
        // What the error names, the entry replaced, and its replacement.
        let cases = [
            ("names no payload", 0, (first.0, first.1, payloads)),
            ("names no payload", 0, (first.0, first.1, u64::MAX)),
            ("lies before the checkpoint time", 0, (t - 1, first.1, first.2)),
            ("repeats the seq", last, (end_t, end_class, first.2)),
        ];
        for (want, i, entry) in cases {
            let mut bad = snap.clone();
            bad.heap[i] = entry;
            let err = EngineState::restore(&cfg, &bad, t, &mut Obs::disabled())
                .err()
                .unwrap_or_else(|| panic!("restore accepted a heap that {want}"));
            assert!(err.contains("checkpoint heap entry") && err.contains(want), "{err}");
        }
    }

    /// The divergence probe visibly corrupts the run (it steals one RNG
    /// draw), and a resumed run does not repeat the burn — the injected
    /// nondeterminism `ckpt bisect` exists to localize.
    #[test]
    fn divergence_probe_changes_the_output() {
        let cfg = SimConfig::quick(30, 13);
        let base = Simulator::new(cfg.clone()).expect("valid config").run();

        let mut st = EngineState::new(&cfg, &mut Obs::disabled());
        st.set_divergence_probe(Some(5 * 86_400));
        st.run_until(SimTime::MAX, &mut Obs::disabled());
        let diverged = st.finalize(&mut Obs::disabled());
        assert_ne!(base.console, diverged.console);
    }

    /// Every `faults.*` name a drafted stream reports is a counter the
    /// metrics catalog registers when the `Obs` is built, so the fold
    /// only looks names up and a restore needs no set-up replay to
    /// register them.
    #[test]
    fn draft_counter_names_are_in_the_catalog() {
        use std::iter::empty;
        use titan_faults::hardware::{DbeDraft, OtbDraft, SbeDraft};
        use titan_faults::software::SoftwareIncident;
        let obs = Obs::disabled();
        let catalog: BTreeSet<&str> =
            obs.reg.counters().filter(|&(s, _, _)| s == "faults").map(|(_, n, _)| n).collect();
        let names = [
            DbeDraft::counts(empty()),
            OtbDraft::counts(empty()),
            SbeDraft::counts(empty()),
            SoftwareIncident::counts(empty()),
        ]
        .concat();
        assert_eq!(names.len(), 15);
        for (name, _) in names {
            assert!(catalog.contains(name.as_str()), "faults.{name} is not in the catalog");
        }
    }
}
