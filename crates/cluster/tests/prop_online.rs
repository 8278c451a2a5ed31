//! Online-core invariants: the incremental API ([`Cluster::submit`] /
//! [`Cluster::step`] / [`Cluster::advance_to`] / [`Cluster::status`] /
//! [`Cluster::drain`]) is observation, not perturbation.
//!
//! 1. **Batch equivalence** — any interleaving of submissions, partial
//!    advances, single steps and status probes that honours arrival
//!    order (a job is submitted before the clock passes its arrival)
//!    produces final stats **byte-identical** to `Cluster::run` on the
//!    same spec sequence. The online core *is* the batch loop, sliced.
//! 2. **Status coherence** — every mid-run snapshot is internally
//!    consistent (progress never exceeds the target, terminal states
//!    agree with final outcomes).
//! 3. **Cancel semantics** — cancelling a never-admitted queued job
//!    refunds nothing (it held nothing) and records `Cancelled`,
//!    distinct from `Rejected` and `Aborted`; cancelling a running job
//!    releases its reservation immediately, so a queued successor is
//!    placed in the same settle pass.

use capuchin_cluster::{
    AdmissionMode, CancelError, Cluster, ClusterConfig, JobOutcome, JobPolicy, JobSpec, JobState,
    StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::{DeviceSpec, Duration, Time};
use proptest::prelude::*;

/// Small-footprint menu so admission measuring runs stay fast; paired
/// with 1–2 GiB devices it still exercises queueing and rejection.
const MENU: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet50, 16),
    (ModelKind::DenseNet121, 16),
    (ModelKind::ResNet50, 32),
];

fn jobs_from(picks: &[(usize, u64, u64, u8)]) -> Vec<JobSpec> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &(menu, iters, slot, _))| {
            let (model, batch) = MENU[menu % MENU.len()];
            JobSpec {
                name: format!("job{i:02}"),
                model,
                batch,
                gpus: 1,
                policy: JobPolicy::TfOri,
                iters: 1 + iters,
                priority: 0,
                arrival_time: slot as f64 * 0.05,
                elastic: false,
                ..JobSpec::default()
            }
        })
        .collect()
}

fn cfg(gpus: usize, capacity: u64, capuchin: bool) -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(gpus)
        .spec(DeviceSpec::p100_pcie3().with_memory(capacity))
        .admission(if capuchin {
            AdmissionMode::Capuchin
        } else {
            AdmissionMode::TfOri
        })
        .strategy(StrategyKind::FifoFirstFit)
        .build()
        .expect("valid config")
}

/// The arrival instant [`Cluster::submit`] derives from a spec.
fn arrival_of(spec: &JobSpec) -> Time {
    Time::ZERO + Duration::from_secs_f64(spec.arrival_time.max(0.0))
}

/// A status probe that must never perturb the run, and must always be
/// internally coherent.
fn probe(cluster: &Cluster, id: usize, submitted: usize) {
    if id >= submitted {
        assert!(cluster.status(id).is_none(), "status invented job {id}");
        return;
    }
    let st = cluster.status(id).expect("submitted job has a status");
    assert_eq!(st.id, id as u64);
    assert!(st.samples_done <= st.samples_total, "{st:?}");
    if st.state == JobState::Running {
        assert!(!st.gpus.is_empty(), "a running job holds devices: {st:?}");
    }
    if st.gpus.is_empty() {
        assert_eq!(st.reserved_bytes, 0, "a placeless job reserves nothing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (1) + (2): an arbitrary interleaving of submit / advance_to /
    /// step / status drains to stats byte-identical to the batch run.
    #[test]
    fn online_interleaving_matches_batch_run(
        picks in prop::collection::vec(
            // (menu, iters, arrival slot, pre-submit advance percent)
            (0usize..3, 0u64..3, 0u64..8, 0u8..100),
            1..5,
        ),
        bursts in prop::collection::vec((0usize..24, 0usize..6), 0..6),
        gpus in 1usize..3,
        capacity_gib_halves in 2u64..5, // 1.0, 1.5, 2.0 GiB
        capuchin_admission in prop_oneof![Just(true), Just(false)],
    ) {
        let specs = jobs_from(&picks);
        let capacity = capacity_gib_halves << 29;
        let expected = Cluster::new(cfg(gpus, capacity, capuchin_admission))
            .run(&specs)
            .to_json();

        let mut cluster = Cluster::new(cfg(gpus, capacity, capuchin_admission));
        for (i, spec) in specs.iter().enumerate() {
            // Advance part of the way towards the earliest unsubmitted
            // arrival — strictly before it, so no arrival is clamped and
            // no same-instant event is processed out of batch order.
            let min_ns = specs[i..]
                .iter()
                .map(|s| arrival_of(s).as_nanos())
                .min()
                .unwrap();
            let pct = u64::from(picks[i].3);
            if min_ns > 0 && pct > 0 {
                cluster.advance_to(Time::from_nanos(min_ns * pct / 100));
            }
            prop_assert_eq!(cluster.submit(spec), i, "ids are the submission order");
            probe(&cluster, i / 2, i + 1);
        }
        for &(steps, probe_id) in &bursts {
            for _ in 0..steps {
                if !cluster.step() {
                    break;
                }
            }
            probe(&cluster, probe_id, specs.len());
        }
        cluster.drain();
        prop_assert!(!cluster.has_work(), "drain left live events behind");
        prop_assert!(!cluster.step(), "an idle cluster has nothing to step");

        let stats = cluster.stats();
        prop_assert_eq!(stats.to_json(), expected);

        // (2) Terminal statuses agree with the final outcomes.
        for (i, j) in stats.jobs.iter().enumerate() {
            let st = cluster.status(i).expect("status after drain");
            let want = match j.outcome {
                JobOutcome::Completed => JobState::Completed,
                JobOutcome::Rejected => JobState::Rejected,
                JobOutcome::Cancelled => JobState::Cancelled,
                JobOutcome::Aborted => JobState::Aborted,
                JobOutcome::Starved => JobState::Queued,
                JobOutcome::Preempted => JobState::Preempted,
            };
            prop_assert_eq!(st.state, want, "job {} outcome {:?}", i, j.outcome);
            prop_assert!(st.state.is_terminal() || j.outcome == JobOutcome::Starved);
        }
    }
}

/// Two VGG16@48 jobs cannot co-reside on a 6 GiB device (each needs
/// more than half), so the second queues behind the first — the shape
/// both cancel tests below build on.
fn contended() -> (ClusterConfig, JobSpec, JobSpec) {
    let job = |name: &str, iters: u64| JobSpec {
        name: name.to_owned(),
        model: ModelKind::Vgg16,
        batch: 48,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters,
        priority: 0,
        arrival_time: 0.0,
        elastic: false,
        ..JobSpec::default()
    };
    let cfg = ClusterConfig::builder()
        .gpus(1)
        .spec(DeviceSpec::p100_pcie3().with_memory(6 << 30))
        .admission(AdmissionMode::TfOri)
        .strategy(StrategyKind::FifoFirstFit)
        .preemption(false)
        .build()
        .expect("valid config");
    (cfg, job("front", 40), job("waiter", 4))
}

/// (3) Cancelling a queued job that was never admitted refunds nothing
/// and records `Cancelled` — not `Rejected`, not `Aborted`.
#[test]
fn cancel_mid_queue_refunds_nothing() {
    let (cfg, front, waiter) = contended();
    let mut cluster = Cluster::new(cfg);
    let a = cluster.submit(&front);
    let b = cluster.submit(&waiter);

    // Process both arrivals: `front` becomes resident, `waiter` queues.
    cluster.advance_to(Time::ZERO + Duration::from_millis(1));
    assert_eq!(cluster.status(a).unwrap().state, JobState::Running);
    let queued = cluster.status(b).unwrap();
    assert_eq!(queued.state, JobState::Queued);
    assert_eq!(queued.reserved_bytes, 0, "a queued job reserves nothing");
    let front_reserved = cluster.status(a).unwrap().reserved_bytes;
    assert!(front_reserved > 0);

    cluster.cancel(b).expect("cancel a queued job");
    assert_eq!(cluster.status(b).unwrap().state, JobState::Cancelled);
    // Nothing was refunded because nothing was held: the resident job's
    // reservation is exactly what it was.
    assert_eq!(cluster.status(a).unwrap().reserved_bytes, front_reserved);

    // Cancel is not idempotent-silent: the job is terminal now.
    assert_eq!(cluster.cancel(b), Err(CancelError::Terminal(b)));
    assert_eq!(cluster.cancel(99), Err(CancelError::UnknownJob(99)));

    cluster.drain();
    let stats = cluster.stats();
    assert_eq!(stats.jobs[a].outcome, JobOutcome::Completed);
    assert_eq!(stats.jobs[b].outcome, JobOutcome::Cancelled);
    assert_ne!(stats.jobs[b].outcome, JobOutcome::Rejected);
    assert_eq!(stats.jobs[b].samples_preserved, 0);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);
}

/// (3) Cancelling a running job releases its reservation in the same
/// settle pass: the queued successor is admitted immediately, not at
/// the next event.
#[test]
fn cancel_while_running_releases_the_gpu() {
    let (cfg, front, waiter) = contended();
    let mut cluster = Cluster::new(cfg);
    let a = cluster.submit(&front);
    let b = cluster.submit(&waiter);

    // Let `front` run a few iterations so the cancel is genuinely
    // mid-flight, with partial progress on the books.
    cluster.advance_to(Time::ZERO + Duration::from_millis(1));
    while cluster.status(a).unwrap().iters_done < 2 && cluster.step() {}
    let running = cluster.status(a).unwrap();
    assert_eq!(running.state, JobState::Running);
    assert!(running.iters_done >= 2);
    assert_eq!(cluster.status(b).unwrap().state, JobState::Queued);

    cluster.cancel(a).expect("cancel a running job");
    assert_eq!(cluster.status(a).unwrap().state, JobState::Cancelled);
    assert_eq!(cluster.status(a).unwrap().reserved_bytes, 0);
    // The settle pass inside cancel placed the waiter on the freed GPU.
    assert_eq!(cluster.status(b).unwrap().state, JobState::Running);

    cluster.drain();
    let stats = cluster.stats();
    assert_eq!(stats.jobs[a].outcome, JobOutcome::Cancelled);
    assert_ne!(stats.jobs[a].outcome, JobOutcome::Aborted);
    assert_eq!(stats.jobs[b].outcome, JobOutcome::Completed);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);
}
