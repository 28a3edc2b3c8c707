//! Service job descriptors: everything a tenant submits to the batch
//! server, as plain data.
//!
//! A [`JobSpec`] names one full-flow verification run — a design
//! ([`DesignSpec`]), an optional fault-injection campaign
//! ([`FaultPlanSpec`]), a platform variant ([`PlatformSpec`]) and a
//! [`SupervisionPolicy`] — reusing the flow/supervise types rather than
//! inventing a parallel vocabulary. Specs are deterministic values: two
//! equal specs describe bit-identical runs, which is what lets the
//! `serve` crate promise order- and worker-count-independent batch
//! reports, and what makes [`JobSpec::fingerprint`] a sound identity for
//! cross-batch comparisons.

use crate::partition::ArchConfig;
use crate::supervise::SupervisionPolicy;
use crate::workload::Workload;
use cache::{Fingerprint, FingerprintBuilder};
use media::DatasetConfig;
use sim::FaultPlan;

/// The design axis of a job: the synthetic recognition workload the flow
/// simulates and verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignSpec {
    /// Synthetic dataset parameters (identities, poses, frame geometry,
    /// noise amplitude).
    pub dataset: DatasetConfig,
    /// Number of probe frames presented to the camera.
    pub probes: usize,
}

impl DesignSpec {
    /// The default test-scale design — exactly [`Workload::small`].
    pub fn small() -> Self {
        DesignSpec {
            dataset: DatasetConfig {
                identities: 4,
                poses: 2,
                width: 64,
                height: 64,
                noise_amp: 6,
            },
            probes: 2,
        }
    }

    /// Materializes the workload this design describes.
    pub fn workload(&self) -> Workload {
        Workload::new(self.dataset, self.probes)
    }
}

impl Default for DesignSpec {
    fn default() -> Self {
        DesignSpec::small()
    }
}

/// The fault axis of a job: a seeded, reproducible level-3 fault
/// campaign.
///
/// Jobs always run their fault plans under the *default*
/// [`crate::timed::RecoveryPolicy`] (bounded retry, degrade-to-software),
/// and the spec deliberately exposes only the fault kinds that policy
/// always absorbs — bitstream corruption, load timeouts and slave stalls
/// all end in retry or software fallback, so injected faults change a
/// job's timing, never its function or its verdicts (the PR-1
/// invariant). Bus data errors, which can exhaust retries and surface a
/// typed platform error, stay out of the service surface on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlanSpec {
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
    /// Bitstream-corruption rate, in ppm of context downloads.
    pub bitstream_corruption_ppm: u32,
    /// Load-timeout rate, in ppm of context downloads.
    pub load_timeout_ppm: u32,
    /// Slave-stall rate, in ppm of bus transfers (timing-only fault).
    pub slave_stall_ppm: u32,
    /// Ticks a stalled slave responds late.
    pub stall_ticks: u64,
}

impl FaultPlanSpec {
    /// A moderate campaign under `seed`: 20% corrupted downloads, 10%
    /// load timeouts, 5% slave stalls of 8 ticks.
    pub fn seeded(seed: u64) -> Self {
        FaultPlanSpec {
            seed,
            bitstream_corruption_ppm: 200_000,
            load_timeout_ppm: 100_000,
            slave_stall_ppm: 50_000,
            stall_ticks: 8,
        }
    }

    /// Materializes the seeded fault plan.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed)
            .with_bitstream_corruption(self.bitstream_corruption_ppm)
            .with_load_timeouts(self.load_timeout_ppm)
            .with_slave_stalls(self.slave_stall_ppm, self.stall_ticks)
    }
}

/// The platform axis of a job: the level-3 architecture knobs a tenant
/// may vary (relative fabric speeds and reconfiguration costs). Bus and
/// CPU models stay at the workspace defaults — they are the paper's
/// fixed substrate, not a per-job choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformSpec {
    /// HW speedup of an FPGA kernel call over the SW implementation.
    pub hw_speedup: u64,
    /// Slowdown of reconfigurable fabric vs hard-wired logic.
    pub fpga_slowdown: u64,
    /// Bitstream words per downloaded function.
    pub bitstream_words_per_function: u32,
    /// Ticks to switch the active context after a download.
    pub fpga_switch_cycles: u64,
}

impl Default for PlatformSpec {
    fn default() -> Self {
        let arch = ArchConfig::default();
        PlatformSpec {
            hw_speedup: arch.hw_speedup,
            fpga_slowdown: arch.fpga_slowdown,
            bitstream_words_per_function: arch.bitstream_words_per_function,
            fpga_switch_cycles: arch.fpga_switch_cycles,
        }
    }
}

impl PlatformSpec {
    /// Materializes the [`ArchConfig`] this spec describes (defaults for
    /// everything the spec does not expose).
    pub fn arch(&self) -> ArchConfig {
        ArchConfig {
            hw_speedup: self.hw_speedup,
            fpga_slowdown: self.fpga_slowdown,
            bitstream_words_per_function: self.bitstream_words_per_function,
            fpga_switch_cycles: self.fpga_switch_cycles,
            ..ArchConfig::default()
        }
    }
}

/// One complete service job: design × faults × platform × supervision.
///
/// `JobSpec::default()` is the canonical single-tenant job — running it
/// through the service is bit-identical to calling
/// [`crate::flow::run_full_flow_supervised`] on [`Workload::small`] with
/// the default policy (pinned by `tests/service_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobSpec {
    /// The design to push through the flow.
    pub design: DesignSpec,
    /// Optional level-3 fault campaign.
    pub faults: Option<FaultPlanSpec>,
    /// Level-3 platform variant.
    pub platform: PlatformSpec,
    /// Supervision policy for the verification obligations.
    pub policy: SupervisionPolicy,
}

impl JobSpec {
    /// Scheduling cost charged against the tenant's deficit-round-robin
    /// deficit: one unit per probe frame (the axis that scales the
    /// simulation work), never less than 1.
    pub fn cost(&self) -> u64 {
        (self.design.probes as u64).max(1)
    }

    /// Content-addressed identity of the spec (dual-FNV, the obligation
    /// cache's fingerprint construction): equal specs — and only equal
    /// specs, up to hash collision — share a fingerprint, so batch
    /// harnesses can match jobs across submission orders and services.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut b = FingerprintBuilder::new("job")
            .param(self.design.dataset.identities as u64)
            .param(self.design.dataset.poses as u64)
            .param(self.design.dataset.width as u64)
            .param(self.design.dataset.height as u64)
            .param(self.design.dataset.noise_amp as u64)
            .param(self.design.probes as u64);
        b = match self.faults {
            None => b.param(0),
            Some(f) => b
                .param(1)
                .param(f.seed)
                .param(u64::from(f.bitstream_corruption_ppm))
                .param(u64::from(f.load_timeout_ppm))
                .param(u64::from(f.slave_stall_ppm))
                .param(f.stall_ticks),
        };
        b = b
            .param(self.platform.hw_speedup)
            .param(self.platform.fpga_slowdown)
            .param(u64::from(self.platform.bitstream_words_per_function))
            .param(self.platform.fpga_switch_cycles);
        // Presence and cap are separate params: folding them into one
        // (`cap + 1`, 0 for uncapped) overflows on `Some(u64::MAX)`.
        let effort = self.policy.effort;
        for cap in [effort.sat_conflicts, effort.sat_decisions, effort.bdd_nodes] {
            b = match cap {
                None => b.param(0),
                Some(v) => b.param(1).param(v),
            };
        }
        b = b
            .param(u64::from(self.policy.retry_panicked))
            .param(u64::from(self.policy.sim_vectors))
            .param(u64::from(self.policy.sim_cycles));
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_design_is_the_small_workload() {
        let w = DesignSpec::default().workload();
        let small = Workload::small();
        assert_eq!(w.probes.len(), small.probes.len());
        assert_eq!(w.gallery_len(), small.gallery_len());
    }

    #[test]
    fn default_platform_is_the_default_arch() {
        assert_eq!(PlatformSpec::default().arch(), ArchConfig::default());
    }

    #[test]
    fn fault_spec_materializes_a_live_plan() {
        let plan = FaultPlanSpec::seeded(7).plan();
        assert!(!plan.is_inert());
        assert_eq!(plan.seed(), 7);
    }

    #[test]
    fn fingerprints_separate_every_axis() {
        let base = JobSpec::default();
        let mut variants = vec![base];
        let mut design = base;
        design.design.probes = 3;
        variants.push(design);
        let mut faults = base;
        faults.faults = Some(FaultPlanSpec::seeded(7));
        variants.push(faults);
        let mut faults2 = faults;
        faults2.faults = Some(FaultPlanSpec::seeded(8));
        variants.push(faults2);
        let mut platform = base;
        platform.platform.hw_speedup = 8;
        variants.push(platform);
        let mut policy = base;
        policy.policy.effort = exec::Effort::bounded(100);
        variants.push(policy);
        // An unbounded axis is distinct from a zero-capped one.
        let mut zero_cap = base;
        zero_cap.policy.effort.sat_conflicts = Some(0);
        variants.push(zero_cap);
        // The largest caps stay distinct from uncapped axes (a `cap + 1`
        // encoding overflows here, or wraps to the uncapped code).
        let mut max_bounded = base;
        max_bounded.policy.effort = exec::Effort::bounded(u64::MAX);
        variants.push(max_bounded);
        let mut max_conflicts = base;
        max_conflicts.policy.effort.sat_conflicts = Some(u64::MAX);
        variants.push(max_conflicts);
        let fps: Vec<_> = variants.iter().map(JobSpec::fingerprint).collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "specs {i} and {j} collide");
            }
        }
        // Equal specs share a fingerprint.
        assert_eq!(base.fingerprint(), JobSpec::default().fingerprint());
    }
}
