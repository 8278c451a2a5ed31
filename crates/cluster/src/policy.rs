//! The policy registry: one descriptor per [`JobPolicy`], dispatched by
//! everything that used to `match` on the enum.
//!
//! Admission, validation, job-file parsing, the CLI and the serve daemon
//! all need per-policy facts — what the canonical spelling is, whether a
//! validation run must be measured before admitting, which policy a
//! *shrunk* grant actually executes under, and how to instantiate the
//! executor-level [`MemoryPolicy`]. Before the registry each of those
//! sites kept its own `match JobPolicy` arm; adding a policy meant
//! finding all of them. Now a policy is added by appending one
//! [`PolicyDescriptor`] to [`REGISTRY`] — the spellings, admission
//! class and constructors follow from the table.

use capuchin::Capuchin;
use capuchin_baselines::DtrPolicy;
use capuchin_executor::{MemoryPolicy, TfOri};

use crate::job::JobPolicy;

/// How expensive it is to decide whether a job fits at a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Admission runs a real measured iteration (and, for shrunk grants,
    /// a validated engine run at the granted budget) before placement.
    /// Mid-run OOM is impossible for admitted jobs; admission is slow.
    Measured,
    /// Admission estimates from the cached footprint measurement alone —
    /// no validation replay, no engine run at the granted budget. Cheap
    /// to admit; checkpoint-preemption is the backstop if the estimate
    /// was optimistic.
    Heuristic,
}

impl CostClass {
    /// Stats/docs name.
    pub fn name(self) -> &'static str {
        match self {
            CostClass::Measured => "measured",
            CostClass::Heuristic => "heuristic",
        }
    }
}

/// Everything the rest of the system needs to know about one policy.
pub struct PolicyDescriptor {
    /// The enum variant this row describes.
    pub policy: JobPolicy,
    /// Canonical CLI/stats/job-file name.
    pub name: &'static str,
    /// Wire spelling in serialized job files (the Rust variant name,
    /// kept for workload files written before the registry existed).
    pub wire: &'static str,
    /// Accepted `FromStr` spellings, canonical first.
    pub accepted: &'static [&'static str],
    /// Whether admission must run a measured validation.
    pub cost_class: CostClass,
    /// The policy a *shrunk* admission actually executes under: running
    /// below the ideal peak needs a plan, so plan-less policies delegate.
    pub shrunk_runs_as: JobPolicy,
    /// The policy used to probe forward-only (inference) footprints:
    /// unmanaged execution exposes the true peak.
    pub probe: JobPolicy,
    /// Whether the footprint predictor ([`crate::predict`]) may stand in
    /// for this policy's admission when its key is warm and
    /// [`crate::ClusterConfig::predictive`] is on. Only meaningful for
    /// [`CostClass::Measured`] rows — heuristic admission is already
    /// validation-free, so there is nothing for a prediction to save.
    pub predictable: bool,
    builder: fn() -> Box<dyn MemoryPolicy>,
}

impl PolicyDescriptor {
    /// Instantiates the executor-level policy; every policy configures
    /// itself from the engine it runs in.
    pub fn build(&self) -> Box<dyn MemoryPolicy> {
        (self.builder)()
    }
}

impl std::fmt::Debug for PolicyDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyDescriptor")
            .field("policy", &self.policy)
            .field("name", &self.name)
            .field("wire", &self.wire)
            .field("accepted", &self.accepted)
            .field("cost_class", &self.cost_class)
            .field("shrunk_runs_as", &self.shrunk_runs_as)
            .field("probe", &self.probe)
            .finish_non_exhaustive()
    }
}

/// One row per [`JobPolicy`] variant, canonical-name order.
pub const REGISTRY: &[PolicyDescriptor] = &[
    PolicyDescriptor {
        policy: JobPolicy::TfOri,
        name: "tf-ori",
        wire: "TfOri",
        accepted: &["tf-ori"],
        cost_class: CostClass::Measured,
        shrunk_runs_as: JobPolicy::Capuchin,
        probe: JobPolicy::TfOri,
        predictable: true,
        builder: || Box::new(TfOri::new()),
    },
    PolicyDescriptor {
        policy: JobPolicy::Capuchin,
        name: "capuchin",
        wire: "Capuchin",
        accepted: &["capuchin"],
        cost_class: CostClass::Measured,
        shrunk_runs_as: JobPolicy::Capuchin,
        probe: JobPolicy::TfOri,
        predictable: true,
        builder: || Box::new(Capuchin::new()),
    },
    PolicyDescriptor {
        policy: JobPolicy::Dtr,
        name: "dtr",
        wire: "Dtr",
        accepted: &["dtr"],
        cost_class: CostClass::Heuristic,
        shrunk_runs_as: JobPolicy::Dtr,
        probe: JobPolicy::TfOri,
        predictable: false,
        builder: || Box::new(DtrPolicy::new()),
    },
    PolicyDescriptor {
        policy: JobPolicy::Delta,
        name: "delta",
        wire: "Delta",
        accepted: &["delta"],
        cost_class: CostClass::Measured,
        shrunk_runs_as: JobPolicy::Delta,
        probe: JobPolicy::TfOri,
        predictable: true,
        builder: || Box::new(Capuchin::delta()),
    },
];

/// Total accepted-spelling count across the registry, for the derived
/// [`JobPolicy::ACCEPTED`] array.
const fn accepted_count() -> usize {
    let mut n = 0;
    let mut i = 0;
    while i < REGISTRY.len() {
        n += REGISTRY[i].accepted.len();
        i += 1;
    }
    n
}

/// All accepted spellings, registry order — the single source for
/// `JobPolicy::ACCEPTED` and parse-error suggestions.
pub(crate) const ACCEPTED_SPELLINGS: [&str; accepted_count()] = {
    let mut out = [""; accepted_count()];
    let mut k = 0;
    let mut i = 0;
    while i < REGISTRY.len() {
        let mut j = 0;
        while j < REGISTRY[i].accepted.len() {
            out[k] = REGISTRY[i].accepted[j];
            k += 1;
            j += 1;
        }
        i += 1;
    }
    out
};

impl JobPolicy {
    /// The registry row for this policy.
    pub fn descriptor(self) -> &'static PolicyDescriptor {
        REGISTRY
            .iter()
            .find(|d| d.policy == self)
            .expect("every JobPolicy variant has a registry row")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_row_and_names_are_unique() {
        let all = [
            JobPolicy::TfOri,
            JobPolicy::Capuchin,
            JobPolicy::Dtr,
            JobPolicy::Delta,
        ];
        assert_eq!(REGISTRY.len(), all.len());
        for p in all {
            let d = p.descriptor();
            assert_eq!(d.policy, p);
            assert_eq!(d.accepted[0], d.name, "canonical spelling leads");
        }
        let mut names: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate canonical name");
        let mut spellings = ACCEPTED_SPELLINGS.to_vec();
        spellings.sort_unstable();
        spellings.dedup();
        assert_eq!(
            spellings.len(),
            ACCEPTED_SPELLINGS.len(),
            "duplicate accepted spelling"
        );
    }

    #[test]
    fn descriptor_snapshot_flag_matches_executor_policy() {
        for d in REGISTRY {
            let built = d.build();
            assert_eq!(built.name(), d.name, "built policy reports its name");
        }
    }

    #[test]
    fn predictable_rows_are_exactly_the_measured_class() {
        // Prediction replaces *measured* admission cost; a heuristic row
        // claiming predictability would silently change its provenance
        // without saving anything, and a non-predictable measured row
        // would never warm its key.
        for d in REGISTRY {
            assert_eq!(
                d.predictable,
                d.cost_class == CostClass::Measured,
                "registry row {} predictable/cost_class mismatch",
                d.name
            );
        }
    }

    #[test]
    fn shrunk_delegation_targets_plan_capable_policies() {
        for d in REGISTRY {
            let target = d.shrunk_runs_as.descriptor();
            assert_ne!(
                target.policy,
                JobPolicy::TfOri,
                "shrunk {} must not run unmanaged",
                d.name
            );
        }
    }
}
