//! The Tensor Access Tracker's measured-execution profile.
//!
//! During *measured execution* (the first full training iteration, run in
//! passive mode) Capuchin records every tensor access with its GPU-timeline
//! timestamp, the producing op's duration, the live-memory level, and each
//! tensor's lineage (paper §4.2, §5.2). Passive-mode stall time is
//! subtracted to recover the *ideal* timestamps — the times accesses would
//! occur with infinite memory — which all policy arithmetic uses.

use std::collections::HashMap;

use capuchin_executor::{AccessEvent, Engine};
use capuchin_graph::OpId;
use capuchin_sim::{Duration, Time};
use capuchin_tensor::{AccessKind, TensorKey};
use serde::{Deserialize, Serialize};

/// Fraction of the observed peak that defines the peak-memory window.
const PEAK_THRESHOLD: f64 = 0.80;

/// One access in the measured sequence, with stall-corrected timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredAccess {
    /// Which tensor.
    pub key: TensorKey,
    /// Access counter value (1 = produce).
    pub count: u32,
    /// Read or produce.
    pub kind: AccessKind,
    /// Op performing the access.
    pub op: OpId,
    /// Ideal access time (kernel start for reads, kernel end for
    /// produces), with accumulated passive-mode stall subtracted.
    pub time: Time,
    /// Ideal kernel end time.
    pub end: Time,
    /// Device bytes in use when the access was issued.
    pub mem_in_use: u64,
}

/// Per-tensor facts snapshotted from the registry before the measured
/// iteration's state is swept.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorInfo {
    /// Tensor size in bytes.
    pub size: u64,
    /// Lineage: inputs of the producing op.
    pub inputs: Vec<TensorKey>,
    /// Whether lineage replay can regenerate it.
    pub recomputable: bool,
    /// Whether it is a persistent weight.
    pub persistent: bool,
    /// Producing op's (ideal) kernel duration, for recompute costing.
    pub op_duration: Duration,
    /// Ideal time of the tensor's last access in the iteration.
    pub last_access: Time,
    /// Human-readable name.
    pub name: String,
}

/// The complete measured profile of one iteration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MeasuredProfile {
    /// The access sequence in issue order.
    pub seq: Vec<MeasuredAccess>,
    /// Per-tensor access indices into `seq`.
    pub accesses_of: HashMap<TensorKey, Vec<usize>>,
    /// Per-tensor facts.
    pub info: HashMap<TensorKey, TensorInfo>,
    /// Total bytes the passive mode had to evict — the memory saving the
    /// plan must achieve (paper §4.5).
    pub required_saving: u64,
    /// Peak live memory observed.
    pub peak_mem: u64,
    /// Peak live memory an infinitely large device would have held.
    pub ideal_peak: u64,
    /// Time window during which memory was above the peak threshold.
    pub peak_window: (Time, Time),
}

impl MeasuredProfile {
    /// Records one access during measured execution.
    pub fn record(&mut self, engine: &Engine<'_>, ev: &AccessEvent) {
        let stall = engine.stall_total();
        let idx = self.seq.len();
        self.seq.push(MeasuredAccess {
            key: ev.key,
            count: ev.count,
            kind: ev.kind,
            op: ev.op,
            time: ev.start.saturating_sub(stall),
            end: ev.end.saturating_sub(stall),
            mem_in_use: engine.device().in_use(),
        });
        self.accesses_of.entry(ev.key).or_default().push(idx);
    }

    /// Finalizes the profile at the end of the measured iteration:
    /// snapshots tensor facts from the registry and computes the peak
    /// window.
    pub fn finalize(&mut self, engine: &Engine<'_>) {
        // Tensor facts, including producing-op durations recovered from
        // the produce accesses (output end − input start of the same op).
        let mut produce_dur: HashMap<TensorKey, Duration> = HashMap::new();
        let mut op_start: HashMap<OpId, Time> = HashMap::new();
        for a in &self.seq {
            match a.kind {
                AccessKind::Read => {
                    let e = op_start.entry(a.op).or_insert(a.time);
                    *e = (*e).min(a.time);
                }
                AccessKind::Produce => {
                    let start = op_start.get(&a.op).copied().unwrap_or(a.time);
                    produce_dur.insert(a.key, a.end.saturating_since(start));
                }
            }
        }
        for t in engine.registry().iter() {
            let key = t.key();
            let last_access = self
                .accesses_of
                .get(&key)
                .and_then(|v| v.last())
                .map(|&i| self.seq[i].time)
                .unwrap_or(Time::ZERO);
            self.info.insert(
                key,
                TensorInfo {
                    size: t.size_bytes(),
                    inputs: t.meta.inputs.clone(),
                    recomputable: t.meta.recomputable,
                    persistent: t.meta.persistent,
                    op_duration: produce_dur.get(&key).copied().unwrap_or(Duration::ZERO),
                    last_access,
                    name: t.meta.name.clone(),
                },
            );
        }

        // Required saving: the ideal live-memory peak (what an infinite
        // device would hold, from first to last access of every tensor)
        // versus the real capacity. Passive-eviction byte counts
        // overestimate badly at deep oversubscription because the same
        // tensor can be paged in and out repeatedly.
        let mut events: Vec<(Time, i64)> = Vec::new();
        let mut baseline: i64 = 0;
        for (key, info) in &self.info {
            if info.persistent {
                baseline += info.size as i64;
                continue;
            }
            let Some(ids) = self.accesses_of.get(key) else {
                continue;
            };
            let first = self.seq[*ids.first().expect("non-empty")].time;
            let last = self.seq[*ids.last().expect("non-empty")].end;
            events.push((first, info.size as i64));
            events.push((last, -(info.size as i64)));
        }
        events.sort();
        let mut live = baseline;
        let mut ideal_peak = baseline;
        for (_, delta) in events {
            live += delta;
            ideal_peak = ideal_peak.max(live);
        }
        self.ideal_peak = ideal_peak.max(0) as u64;
        self.required_saving = self
            .ideal_peak
            .saturating_sub(engine.spec().memory_bytes)
            .max(if engine.iter_stats().passive_evict_bytes > 0 {
                // Passive mode fired, so *some* saving is definitely needed
                // even if the sweep says otherwise (workspace, alignment,
                // fragmentation slop).
                engine.spec().memory_bytes / 64
            } else {
                0
            });
        self.peak_mem = self.seq.iter().map(|a| a.mem_in_use).max().unwrap_or(0);
        let threshold = (self.peak_mem as f64 * PEAK_THRESHOLD) as u64;
        let mut w0 = None;
        let mut w1 = Time::ZERO;
        for a in &self.seq {
            if a.mem_in_use >= threshold {
                w0.get_or_insert(a.time);
                w1 = w1.max(a.time);
            }
        }
        self.peak_window = (w0.unwrap_or(Time::ZERO), w1);
    }

    /// The ideal time of access `(key, count)`, if it was measured.
    pub fn time_of(&self, key: TensorKey, count: u32) -> Option<Time> {
        self.accesses_of
            .get(&key)?
            .iter()
            .map(|&i| &self.seq[i])
            .find(|a| a.count == count)
            .map(|a| a.time)
    }

    /// Whether the interval `(t1, t2)` overlaps the peak-memory window.
    pub fn overlaps_peak(&self, t1: Time, t2: Time) -> bool {
        let (w0, w1) = self.peak_window;
        t1 < w1 && t2 > w0
    }

    /// Resets the profile for re-measurement.
    pub fn clear(&mut self) {
        *self = MeasuredProfile::default();
    }
}
