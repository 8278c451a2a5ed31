//! Seeded job streams, one per workload. The same seed always gives the
//! same specs; the library only ever sees the generated specs.
//!
//! Every stream has a fixed size and draws from a fixed shape menu, so a
//! different seed changes the order, arrivals, priorities and menu picks
//! but not the amount of work — which keeps host-time figures comparable
//! across seeds.

use capuchin_cluster::{synthetic_mixed_jobs, JobPolicy, JobSpec};
use capuchin_models::ModelKind;

/// splitmix64: a small deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per stream so workloads sharing a
    /// seed do not share draws.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential sample with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
        -u.ln() * mean
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// GPUs in the `fleet` cluster.
pub const FLEET_GPUS: usize = 16;
/// Independent fleets per `fleet` pass.
const FLEET_WAVES: usize = 4;
/// Jobs per fleet wave.
const FLEET_WAVE_JOBS: usize = 400;
/// Simulated seconds between the starts of two waves: far longer than a
/// wave takes to drain, so each wave meets an idle cluster.
const FLEET_WAVE_GAP_S: f64 = 5_000.0;
/// Every this many `fleet` jobs, one is converted to inference.
const FLEET_INFERENCE_EVERY: usize = 40;

/// `fleet`: waves of singles, gangs and elastic jobs from
/// [`synthetic_mixed_jobs`], with a small slice turned into inference
/// jobs (single-GPU, rigid, a short seeded request stream each).
///
/// A pass runs several independent waves back to back instead of one
/// longer stream. The step-time tail depends on the queue lengths one
/// arrival sequence happens to build, so a pass needs several sequences
/// for its p99 to hold across seeds; waves get them while the live
/// working set stays that of one wave.
pub fn fleet(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 1);
    let mut specs = Vec::with_capacity(FLEET_WAVES * FLEET_WAVE_JOBS);
    for wave in 0..FLEET_WAVES {
        let mut jobs = synthetic_mixed_jobs(FLEET_WAVE_JOBS, FLEET_GPUS, rng.next_u64(), 0.08);
        let offset = rng.below(FLEET_INFERENCE_EVERY);
        for (i, spec) in jobs.iter_mut().enumerate() {
            spec.name = format!("w{wave}-{}", spec.name);
            spec.arrival_time += wave as f64 * FLEET_WAVE_GAP_S;
            if i % FLEET_INFERENCE_EVERY == offset {
                *spec = JobSpec {
                    gpus: 1,
                    elastic: false,
                    batch: 32,
                    iters: 1,
                    name: format!("{}-inf", spec.name),
                    ..spec.clone()
                }
                .into_inference(20.0, 250.0, 8 + rng.below(9) as u64, 64 << 20, 4);
            }
        }
        specs.extend(jobs);
    }
    specs
}

/// GPUs in the `swap` cluster.
pub const SWAP_GPUS: usize = 16;
/// Jobs per `swap` pass.
pub const SWAP_JOBS: usize = 800;

/// Shapes whose ideal peak exceeds a 16 GiB P100 (19.1, 19.3, 16.9 and
/// 22.6 GiB measured) but which Capuchin admission can shrink onto one.
const SWAP_MENU: &[(ModelKind, usize)] = &[
    (ModelKind::Vgg16, 320),
    (ModelKind::ResNet50, 256),
    (ModelKind::InceptionV3, 192),
    (ModelKind::DenseNet121, 192),
];

/// `swap`: every job oversubscribes the device and trains under Capuchin.
pub fn swap(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 2);
    let mut clock = 0.0;
    (0..SWAP_JOBS)
        .map(|i| {
            clock += rng.exp(0.05);
            let (model, batch) = SWAP_MENU[rng.below(SWAP_MENU.len())];
            JobSpec {
                name: format!("swap{i:05}"),
                model,
                batch,
                gpus: 1,
                policy: JobPolicy::Capuchin,
                iters: 4 + rng.below(5) as u64,
                priority: rng.below(3) as u32,
                arrival_time: clock,
                ..JobSpec::default()
            }
        })
        .collect()
}

/// GPUs in the `admit` cluster.
pub const ADMIT_GPUS: usize = 16;
/// Independent streams per `admit` pass.
const ADMIT_WAVES: usize = 4;
/// Jobs per `admit` wave.
const ADMIT_WAVE_JOBS: usize = 1_000;
/// Simulated seconds between the starts of two waves. A wave's arrivals
/// span ~50 s and its jobs finish within seconds of arriving, so each
/// wave meets an idle cluster.
const ADMIT_WAVE_GAP_S: f64 = 1_000.0;
/// The paper's model zoo.
const ZOO: &[ModelKind] = &[
    ModelKind::ResNet50,
    ModelKind::DenseNet121,
    ModelKind::InceptionV3,
    ModelKind::Vgg16,
];
/// Policies whose admission is measured (Capuchin, DELTA) or heuristic (DTR).
const ADMIT_POLICIES: &[JobPolicy] = &[JobPolicy::Capuchin, JobPolicy::Delta, JobPolicy::Dtr];
/// The predictor's fit points: each family's first jobs arrive here.
const FIT_BATCHES: &[usize] = &[16, 32, 48];
/// Later jobs land on and between the fit points.
const TAIL_BATCHES: &[usize] = &[16, 24, 32, 40, 48];

fn admit_job(
    i: usize,
    model: ModelKind,
    policy: JobPolicy,
    batch: usize,
    rng: &mut Rng,
    arrival_time: f64,
) -> JobSpec {
    JobSpec {
        name: format!("adm{i:05}"),
        model,
        batch,
        gpus: 1,
        policy,
        iters: 2,
        priority: rng.below(3) as u32,
        arrival_time,
        ..JobSpec::default()
    }
}

/// `admit` set-up: every `(model, policy)` family of the zoo at the
/// fit-point batches, in seeded order — the cold admissions (graph
/// build, measuring run, validation bisection) that warm the caches and
/// give the predictor three samples per family.
pub fn admit_families(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 3);
    let mut families: Vec<(ModelKind, JobPolicy, usize)> = ZOO
        .iter()
        .flat_map(|&m| {
            ADMIT_POLICIES
                .iter()
                .flat_map(move |&p| FIT_BATCHES.iter().map(move |&b| (m, p, b)))
        })
        .collect();
    rng.shuffle(&mut families);
    let mut clock = 0.0;
    families
        .into_iter()
        .enumerate()
        .map(|(i, (model, policy, batch))| {
            clock += rng.exp(0.5);
            admit_job(i, model, policy, batch, &mut rng, clock)
        })
        .collect()
}

/// `admit` passes: returning families on and between the fit points,
/// which warm keys admit from the predictor (DTR from its heuristic).
///
/// Like `fleet`, a pass runs several independent waves. The cost of one
/// `advance_to` depends on how many jobs are in flight, so the p50 of a
/// single arrival sequence moves with the seed; waves average over
/// several sequences.
pub fn admit(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 5);
    let mut specs = Vec::with_capacity(ADMIT_WAVES * ADMIT_WAVE_JOBS);
    for wave in 0..ADMIT_WAVES {
        let mut clock = wave as f64 * ADMIT_WAVE_GAP_S;
        for _ in 0..ADMIT_WAVE_JOBS {
            clock += rng.exp(0.05);
            let model = ZOO[rng.below(ZOO.len())];
            let policy = ADMIT_POLICIES[rng.below(ADMIT_POLICIES.len())];
            let batch = TAIL_BATCHES[rng.below(TAIL_BATCHES.len())];
            specs.push(admit_job(
                specs.len(),
                model,
                policy,
                batch,
                &mut rng,
                clock,
            ));
        }
    }
    specs
}

/// GPUs behind the `serve` daemon.
pub const SERVE_GPUS: usize = 4;
/// Jobs submitted per `serve` session.
pub const SERVE_JOBS: usize = 24;

/// `serve`: small training jobs plus one inference job, cheap to admit
/// so the daemon's scheduler does little next to the wire.
pub fn serve(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 4);
    let models = [ModelKind::Vgg16, ModelKind::ResNet50];
    let inference_at = rng.below(SERVE_JOBS);
    let mut clock = 0.0;
    (0..SERVE_JOBS)
        .map(|i| {
            clock += rng.exp(0.05);
            let spec = JobSpec {
                name: format!("wire{i:02}"),
                model: models[rng.below(models.len())],
                batch: [16, 32][rng.below(2)],
                gpus: 1,
                policy: JobPolicy::TfOri,
                iters: 2 + rng.below(3) as u64,
                priority: rng.below(3) as u32,
                arrival_time: clock,
                ..JobSpec::default()
            };
            if i == inference_at {
                JobSpec {
                    batch: 8,
                    iters: 1,
                    ..spec
                }
                .into_inference(40.0, 400.0, 12, 64 << 20, 4)
            } else {
                spec
            }
        })
        .collect()
}
