//! The flow profiler: aggregates a [`Journal`] into an "explain this
//! run" report.
//!
//! The profiler answers the questions the ROADMAP's batch-server item
//! needs answered per job: *which obligations cost the most, which
//! engines hit their caches, how much of the effort budget was burned,
//! what degraded, and how fast did obligations complete*. Like the
//! journal it reads, the output is split into a **deterministic**
//! report (event set, ordering key, effort totals — bit-identical
//! across worker counts) and a **timing** report (wall-clock latency
//! percentiles, throughput, worker attribution — honest but
//! run-dependent).

use crate::journal::{EffortSpent, EventKind, Journal, Provenance, TimingKind};
use crate::metrics::{Histogram, HistogramSummary};
use crate::report::{Report, Section};
use std::collections::BTreeMap;

/// Default number of costliest obligations listed in the profile.
pub const DEFAULT_TOP_K: usize = 8;

/// Per-engine aggregation over finished obligations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Obligations finished under this engine tag.
    pub obligations: u64,
    /// Summed effort.
    pub effort: EffortSpent,
}

impl EngineStats {
    /// Cache hit ratio in percent (0.0 when the engine never probed).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.effort.cache_hits + self.effort.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.effort.cache_hits as f64 * 100.0 / total as f64
        }
    }
}

/// Per-axis budget utilization, aggregated from `budget_spend` events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AxisStats {
    /// Per-call cap configured for the axis (largest seen).
    pub cap: u64,
    /// Total effort spent on the axis across obligations.
    pub spent: u64,
    /// Largest single-obligation spend.
    pub max_spent: u64,
    /// Obligations whose spend reached or exceeded the cap.
    pub at_cap: u64,
}

impl AxisStats {
    /// High-water utilization in percent: worst single obligation's
    /// spend against the per-call cap.
    pub fn high_water_pct(&self) -> f64 {
        if self.cap == 0 {
            0.0
        } else {
            self.max_spent as f64 * 100.0 / self.cap as f64
        }
    }
}

/// One degradation timeline entry, in deterministic event order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEntry {
    /// Obligation name.
    pub obligation: String,
    /// Final status label.
    pub status: String,
    /// One line of evidence.
    pub detail: String,
}

/// Aggregated view of one journal.
#[derive(Debug, Clone, Default)]
pub struct FlowProfile {
    /// Finished obligations with full provenance, in event order.
    pub obligations: Vec<Provenance>,
    /// Outcome label → count.
    pub outcomes: BTreeMap<String, u64>,
    /// Engine tag → aggregated stats.
    pub engines: BTreeMap<String, EngineStats>,
    /// Budget axis → utilization stats.
    pub budget: BTreeMap<&'static str, AxisStats>,
    /// Degradations in deterministic event order.
    pub degradations: Vec<DegradationEntry>,
    /// Total effort across all finished obligations.
    pub total_effort: EffortSpent,
    /// Deterministic-lane events retained / dropped.
    pub events: (usize, u64),
    /// Per-obligation wall latency in microseconds (timing lane; empty
    /// when the journal ran without wall capture).
    pub latency_us: Histogram,
    /// Summed run-section wall time in microseconds (timing lane).
    pub run_wall_us: u64,
    /// Batch label → (jobs, workers, peak queue depth) (timing lane).
    pub batches: BTreeMap<String, (u64, u64, u64)>,
    /// (batch, worker) → jobs executed (timing lane).
    pub worker_jobs: BTreeMap<(String, u64), u64>,
}

impl FlowProfile {
    /// Aggregates a journal snapshot.
    pub fn from_journal(journal: &Journal) -> Self {
        let mut p = FlowProfile {
            events: (journal.len().0, journal.dropped().0),
            ..FlowProfile::default()
        };
        for event in journal.events() {
            match event.kind {
                EventKind::ObligationFinished(prov) => {
                    *p.outcomes.entry(prov.outcome.clone()).or_insert(0) += 1;
                    let e = p.engines.entry(prov.engine.clone()).or_default();
                    e.obligations += 1;
                    e.effort.add(&prov.effort);
                    p.total_effort.add(&prov.effort);
                    p.obligations.push(prov);
                }
                EventKind::BudgetSpend {
                    axis, spent, cap, ..
                } => {
                    let a = p.budget.entry(axis).or_default();
                    a.cap = a.cap.max(cap);
                    a.spent += spent;
                    a.max_spent = a.max_spent.max(spent);
                    if spent >= cap {
                        a.at_cap += 1;
                    }
                }
                EventKind::Degradation {
                    obligation,
                    status,
                    detail,
                } => {
                    p.degradations.push(DegradationEntry {
                        obligation,
                        status,
                        detail,
                    });
                }
                _ => {}
            }
        }
        for event in journal.timing_events() {
            match event.kind {
                TimingKind::ObligationWall { wall_us, .. } => p.latency_us.record(wall_us),
                TimingKind::RunWall { wall_us, .. } => p.run_wall_us += wall_us,
                TimingKind::QueueDepth {
                    batch,
                    jobs,
                    workers,
                    peak_depth,
                } => {
                    p.batches.insert(batch, (jobs, workers, peak_depth));
                }
                TimingKind::WorkerJob { batch, worker, .. } => {
                    *p.worker_jobs.entry((batch, worker)).or_insert(0) += 1;
                }
                // Service-lane job latency is aggregated by the `serve`
                // crate's batch statistics, not the per-flow profile.
                TimingKind::JobWall { .. } => {}
            }
        }
        p
    }

    /// The `k` costliest obligations by effort score, ties broken by
    /// name — a fully deterministic ranking.
    pub fn top_obligations(&self, k: usize) -> Vec<&Provenance> {
        let mut ranked: Vec<&Provenance> = self.obligations.iter().collect();
        ranked.sort_by(|a, b| {
            b.effort
                .score()
                .cmp(&a.effort.score())
                .then_with(|| a.obligation.cmp(&b.obligation))
        });
        ranked.truncate(k);
        ranked
    }

    /// Latency summary over per-obligation wall times (all zero when the
    /// journal ran deterministically, without wall capture).
    pub fn latency_summary(&self) -> HistogramSummary {
        self.latency_us.summary()
    }

    /// Sustained obligations per second: finished obligations over the
    /// summed run-section wall time. 0.0 without timing data.
    pub fn obligations_per_sec(&self) -> f64 {
        if self.run_wall_us == 0 || self.obligations.is_empty() {
            0.0
        } else {
            self.obligations.len() as f64 * 1_000_000.0 / self.run_wall_us as f64
        }
    }

    /// The deterministic half of the profile: identical across worker
    /// counts for a fixed workload (this is the bit-identity surface the
    /// observability tests pin).
    pub fn deterministic_report(&self) -> Report {
        let mut report = Report::new("Flow profile (deterministic)");

        let mut totals = Section::new("Obligations")
            .entry("finished", self.obligations.len() as u64)
            .entry("journal_events", self.events.0 as u64)
            .entry("journal_dropped", self.events.1);
        for (outcome, count) in &self.outcomes {
            totals.push(&format!("outcome.{outcome}"), *count);
        }
        totals.push("effort.sat_conflicts", self.total_effort.sat_conflicts);
        totals.push("effort.sat_decisions", self.total_effort.sat_decisions);
        totals.push(
            "effort.sat_propagations",
            self.total_effort.sat_propagations,
        );
        totals.push("effort.bdd_nodes", self.total_effort.bdd_nodes);
        totals.push("effort.cache_hits", self.total_effort.cache_hits);
        totals.push("effort.cache_misses", self.total_effort.cache_misses);
        report = report.section(totals);

        let mut top = Section::new("Costliest obligations");
        for (rank, p) in self.top_obligations(DEFAULT_TOP_K).iter().enumerate() {
            top.push(
                &format!("{}. {}", rank + 1, p.obligation),
                format!(
                    "[{}] {} · score {} · {}",
                    p.engine,
                    p.outcome,
                    p.effort.score(),
                    p.effort.to_line()
                ),
            );
        }
        if top.entries.is_empty() {
            top.push("(none)", "no obligations finished");
        }
        report = report.section(top);

        let mut engines = Section::new("Engines");
        for (engine, stats) in &self.engines {
            engines.push(
                engine,
                format!(
                    "obligations {} · score {} · cache {}/{} ({:.1}% hit)",
                    stats.obligations,
                    stats.effort.score(),
                    stats.effort.cache_hits,
                    stats.effort.cache_hits + stats.effort.cache_misses,
                    stats.cache_hit_ratio()
                ),
            );
        }
        if engines.entries.is_empty() {
            engines.push("(none)", "no engine activity recorded");
        }
        report = report.section(engines);

        if !self.budget.is_empty() {
            let mut budget = Section::new("Budget utilization");
            for (axis, stats) in &self.budget {
                budget.push(
                    axis,
                    format!(
                        "cap {} · max spent {} ({:.1}% high-water) · total {} · at-cap {}",
                        stats.cap,
                        stats.max_spent,
                        stats.high_water_pct(),
                        stats.spent,
                        stats.at_cap
                    ),
                );
            }
            report = report.section(budget);
        }

        let mut timeline = Section::new("Degradation timeline");
        for (i, d) in self.degradations.iter().enumerate() {
            timeline.push(
                &format!("{}. {}", i + 1, d.obligation),
                format!("{} — {}", d.status, d.detail),
            );
        }
        if timeline.entries.is_empty() {
            timeline.push("(none)", "every obligation conclusive");
        }
        report.section(timeline)
    }

    /// The timing half of the profile: wall-clock and scheduling facts,
    /// expected to differ run to run.
    pub fn timing_report(&self) -> Report {
        let mut report = Report::new("Flow profile (timing)");

        let latency = self.latency_summary();
        report = report.section(
            Section::new("Throughput")
                .entry("run_wall_us", self.run_wall_us)
                .entry("obligations_per_sec", self.obligations_per_sec())
                .entry("obligation_latency_us_p50", latency.p50)
                .entry("obligation_latency_us_p95", latency.p95)
                .entry("obligation_latency_us_p99", latency.p99)
                .entry("obligation_latency_us_max", latency.max)
                .entry("obligation_latency_samples", latency.count),
        );

        let mut workers = Section::new("Worker attribution");
        for (batch, (jobs, pool, peak)) in &self.batches {
            workers.push(
                batch,
                format!("jobs {jobs} · workers {pool} · peak queue depth {peak}"),
            );
        }
        for ((batch, worker), jobs) in &self.worker_jobs {
            workers.push(&format!("{batch}.worker{worker}"), *jobs);
        }
        if workers.entries.is_empty() {
            workers.push("(none)", "no scheduling events recorded");
        }
        report.section(workers)
    }

    /// Both halves as one report (deterministic sections first).
    pub fn report(&self) -> Report {
        let mut combined = Report::new("Flow profile");
        combined
            .sections
            .extend(self.deterministic_report().sections);
        combined.sections.extend(self.timing_report().sections);
        combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;

    fn prov(name: &str, engine: &str, conflicts: u64, hits: u64, misses: u64) -> EventKind {
        EventKind::ObligationFinished(Provenance {
            obligation: name.to_owned(),
            engine: engine.to_owned(),
            fingerprint: 1,
            effort: EffortSpent {
                sat_conflicts: conflicts,
                cache_hits: hits,
                cache_misses: misses,
                ..EffortSpent::default()
            },
            outcome: "proved".to_owned(),
            retried: false,
        })
    }

    fn sample_journal() -> Journal {
        let j = Journal::new();
        j.emit(prov("cheap", "bmc", 2, 1, 0));
        j.emit(prov("costly", "level4.miter", 50, 0, 2));
        j.emit(EventKind::BudgetSpend {
            obligation: "costly".into(),
            axis: "sat_conflicts",
            spent: 50,
            cap: 100,
        });
        j.emit(EventKind::Degradation {
            obligation: "costly".into(),
            status: "unknown".into(),
            detail: "budget exhausted".into(),
        });
        j.emit_timing(TimingKind::ObligationWall {
            obligation: "cheap".into(),
            wall_us: 10,
        });
        j.emit_timing(TimingKind::ObligationWall {
            obligation: "costly".into(),
            wall_us: 90,
        });
        j.emit_timing(TimingKind::RunWall {
            label: "flow".into(),
            wall_us: 200,
        });
        j.emit_timing(TimingKind::QueueDepth {
            batch: "level4.miters".into(),
            jobs: 2,
            workers: 2,
            peak_depth: 2,
        });
        j.emit_timing(TimingKind::WorkerJob {
            batch: "level4.miters".into(),
            job: "cheap".into(),
            worker: 0,
        });
        j
    }

    #[test]
    fn aggregates_obligations_engines_budget_and_timeline() {
        let p = FlowProfile::from_journal(&sample_journal());
        assert_eq!(p.obligations.len(), 2);
        assert_eq!(p.outcomes.get("proved"), Some(&2));
        assert_eq!(p.total_effort.sat_conflicts, 52);
        assert_eq!(p.engines["bmc"].obligations, 1);
        assert_eq!(p.engines["level4.miter"].effort.cache_misses, 2);
        assert_eq!(p.engines["bmc"].cache_hit_ratio(), 100.0);
        assert_eq!(p.engines["level4.miter"].cache_hit_ratio(), 0.0);
        let axis = &p.budget["sat_conflicts"];
        assert_eq!(
            (axis.cap, axis.spent, axis.max_spent, axis.at_cap),
            (100, 50, 50, 0)
        );
        assert_eq!(axis.high_water_pct(), 50.0);
        assert_eq!(p.degradations.len(), 1);
        assert_eq!(p.degradations[0].obligation, "costly");
    }

    #[test]
    fn ranking_is_effort_then_name() {
        let j = Journal::new();
        j.emit(prov("b", "bmc", 10, 0, 0));
        j.emit(prov("a", "bmc", 10, 0, 0));
        j.emit(prov("z", "bmc", 99, 0, 0));
        let p = FlowProfile::from_journal(&j);
        let top: Vec<&str> = p
            .top_obligations(2)
            .iter()
            .map(|p| p.obligation.as_str())
            .collect();
        assert_eq!(top, vec!["z", "a"]);
    }

    #[test]
    fn timing_side_computes_throughput_and_latency() {
        let p = FlowProfile::from_journal(&sample_journal());
        // 2 obligations over 200 us = 10000 obligations/sec.
        assert_eq!(p.obligations_per_sec(), 10_000.0);
        let l = p.latency_summary();
        assert_eq!(l.count, 2);
        // The linear-rank p50 over two samples rounds half-up to the second.
        assert_eq!((l.min, l.p50, l.p99, l.max), (10, 90, 90, 90));
        assert_eq!(p.batches["level4.miters"], (2, 2, 2));
        assert_eq!(p.worker_jobs[&("level4.miters".to_owned(), 0)], 1);
    }

    #[test]
    fn reports_split_deterministic_from_timing() {
        let p = FlowProfile::from_journal(&sample_journal());
        let det = p.deterministic_report().to_text();
        assert!(det.contains("Costliest obligations"));
        assert!(det.contains("1. costly"));
        assert!(det.contains("Budget utilization"));
        assert!(det.contains("Degradation timeline"));
        assert!(!det.contains("wall"));
        let timing = p.timing_report().to_text();
        assert!(timing.contains("obligations_per_sec"));
        assert!(timing.contains("obligation_latency_us_p99"));
        assert!(timing.contains("level4.miters"));
        let combined = p.report();
        assert_eq!(
            combined.sections.len(),
            p.deterministic_report().sections.len() + p.timing_report().sections.len()
        );
    }

    #[test]
    fn empty_journal_profiles_to_placeholders() {
        let p = FlowProfile::from_journal(&Journal::new());
        assert_eq!(p.obligations_per_sec(), 0.0);
        let det = p.deterministic_report().to_text();
        assert!(det.contains("no obligations finished"));
        assert!(det.contains("every obligation conclusive"));
        let timing = p.timing_report().to_text();
        assert!(timing.contains("no scheduling events recorded"));
    }
}
