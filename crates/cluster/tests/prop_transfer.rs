//! Per-tensor transfer-replay invariants for the unified transfer layer:
//!
//! 1. **Unconstrained fabric is free** — with infinite bandwidth and zero
//!    overhead, no replayed transfer ever waits, no job is charged any
//!    `comm_delay`, and the per-job stats are byte-identical to an
//!    interconnect-off run: the per-tensor path adds observability, not
//!    cost.
//! 2. **Trace ⇄ link reconciliation** — the old iteration-granularity
//!    accounting charged each iteration's `swap_bytes × k` lump to the
//!    link; the per-tensor replay must reproduce those totals
//!    byte-for-byte: for every fabric lane, the sum of traced record
//!    bytes equals [`LinkStats::bytes`] and the record count equals
//!    [`LinkStats::transfers`].
//! 3. **No over-charging** — on a constrained fabric, per-job `comm_delay`
//!    decomposes exactly into its records' `charge` fields, and the total
//!    charged delay per link never exceeds the wall-clock time the link
//!    was actually busy (queueing charges are deduplicated across waiters
//!    sharing one busy period).

use std::collections::HashMap;

use capuchin_cluster::{Cluster, ClusterConfig, ClusterTransfer, JobPolicy, JobSpec};
use capuchin_models::ModelKind;
use capuchin_sim::{Duration, InterconnectSpec, LinkStats};
use proptest::prelude::*;

/// Heavy jobs on the default 16 GB P100 so Capuchin plans actually swap
/// and the replay timeline is non-trivial.
const MENU: &[(ModelKind, usize)] = &[(ModelKind::Vgg16, 320), (ModelKind::ResNet50, 256)];

fn jobs_from(picks: Vec<(usize, u64, u64, usize)>) -> Vec<JobSpec> {
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (menu, iters, slot, gang))| {
            let (model, batch) = MENU[menu % MENU.len()];
            JobSpec {
                name: format!("job{i:02}"),
                model,
                batch,
                gpus: gang,
                policy: JobPolicy::Capuchin,
                iters: 2 + iters,
                priority: 0,
                arrival_time: slot as f64 * 0.1,
                elastic: false,
                ..JobSpec::default()
            }
        })
        .collect()
}

fn cfg(gpus: usize, ic: Option<InterconnectSpec>) -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(gpus)
        .interconnect(ic)
        .build()
        .expect("valid config")
}

/// Sums traced bytes / counts / charges per lane name.
fn per_link(trace: &[ClusterTransfer]) -> HashMap<&str, (u64, u64, Duration)> {
    let mut by: HashMap<&str, (u64, u64, Duration)> = HashMap::new();
    for t in trace {
        let e = by.entry(&*t.link).or_default();
        e.0 += t.bytes;
        e.1 += 1;
        e.2 += t.charge;
    }
    by
}

fn reconcile(trace: &[ClusterTransfer], links: &[LinkStats]) {
    let by = per_link(trace);
    for l in links {
        let (bytes, count, _) = by.get(l.link.as_str()).copied().unwrap_or_default();
        prop_assert_eq!(
            bytes,
            l.bytes,
            "link {}: traced bytes disagree with lane accounting",
            &l.link
        );
        prop_assert_eq!(count, l.transfers, "link {}: record count drifted", &l.link);
    }
    // Every traced record must name a real lane.
    for t in trace {
        prop_assert!(
            links.iter().any(|l| *l.link == *t.link),
            "record {} names unknown link {}",
            &t.label,
            &t.link
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// (1) + (2) on an unconstrained fabric: zero waits, zero charges,
    /// per-job stats byte-identical to the fabric-free run, and the trace
    /// reconciles with the lane totals.
    #[test]
    fn unconstrained_replay_is_free_and_reconciles(
        picks in prop::collection::vec((0usize..2, 0u64..3, 0u64..4, 1usize..3), 1..4),
        gpus in 2usize..4,
    ) {
        let jobs = jobs_from(picks);
        let off = Cluster::new(cfg(gpus, None)).run(&jobs);
        let (free, trace) = Cluster::new(cfg(gpus, Some(InterconnectSpec::unconstrained())))
            .run_traced(&jobs);

        // Per-job stats byte-identical to the old accounting's off run.
        let off_jobs = serde_json::to_string(&off.jobs).expect("serialize");
        let free_jobs = serde_json::to_string(&free.jobs).expect("serialize");
        prop_assert_eq!(off_jobs, free_jobs);
        prop_assert_eq!(off.makespan, free.makespan);

        for t in &trace {
            prop_assert_eq!(t.wait, Duration::ZERO, "{} waited on infinite bandwidth", &t.label);
            prop_assert_eq!(t.charge, Duration::ZERO, "{} charged on infinite bandwidth", &t.label);
            prop_assert!(t.start >= t.want && t.end >= t.start, "{}: time ran backwards", &t.label);
        }
        for j in &free.jobs {
            prop_assert_eq!(j.comm_delay, Duration::ZERO, "{}", &j.name);
        }
        reconcile(&trace, &free.links);
    }

    /// (2) + (3) on a constrained shared-PCIe fabric: the trace still
    /// reconciles byte-for-byte, per-job `comm_delay` decomposes exactly
    /// into per-record charges, and no link is charged for more than its
    /// wall-clock occupancy.
    #[test]
    fn constrained_charges_decompose_and_never_exceed_occupancy(
        picks in prop::collection::vec((0usize..2, 0u64..3, 0u64..4, 1usize..3), 1..4),
        gpus in 2usize..4,
    ) {
        let jobs = jobs_from(picks);
        let (stats, trace) = Cluster::new(cfg(gpus, Some(InterconnectSpec::pcie_shared())))
            .run_traced(&jobs);

        reconcile(&trace, &stats.links);

        // Per-job decomposition: comm_delay == Σ charge of its records.
        for j in &stats.jobs {
            let charged: Duration = trace
                .iter()
                .filter(|t| *t.job == *j.name)
                .map(|t| t.charge)
                .sum();
            prop_assert_eq!(
                charged,
                j.comm_delay,
                "{}: comm_delay does not decompose into per-tensor charges",
                &j.name
            );
        }

        // Per-link: total charged delay never exceeds wall-clock busy time.
        let by = per_link(&trace);
        for l in &stats.links {
            let (_, _, charged) = by.get(l.link.as_str()).copied().unwrap_or_default();
            prop_assert!(
                charged <= l.busy,
                "link {}: charged {:?} exceeds occupancy {:?}",
                &l.link, charged, l.busy
            );
        }

        // Records are well-formed on a constrained lane too.
        for t in &trace {
            prop_assert!(t.start >= t.want && t.end >= t.start, "{}", &t.label);
            prop_assert!(t.charge <= t.wait, "{}: charged more than it waited", &t.label);
        }
    }
}
