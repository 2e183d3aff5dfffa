//! The caching ablation: naive vs batched collection per mechanism.
//!
//! Every mechanism publishes data on a fixed cadence (560 ms EMON
//! generations, ~60 ms NVML register refreshes, 1 ms RAPL ticks, 50 ms SMC
//! windows, 25 ms OCC sensor buffers), yet a naive deployment charges
//! every co-resident agent the
//! full access-path cost for data that can only be the same generation.
//! This table measures what the [`moneq::CollectionPlan`] recovers: each
//! mechanism is run twice over the same virtual window — once with every
//! agent collecting for itself, once with all agents of a sharing domain
//! behind one [`moneq::SharedReadCache`] — and the charged collection
//! costs are compared. The headline row is the paper's own machine: 32
//! agents per BG/Q node card all reading one EMON sensor set, where
//! batched collection cuts the charged cost ~32×.
//!
//! The ablation also *verifies* the plan's safety property on every row:
//! the output files of the naive and the cached run must be byte-identical
//! (every rank still reads for itself and sensors are deterministic
//! functions of grid time, so the plan changes cost, never data).

use crate::registry::{mechanisms, Mechanism};
use moneq::{CacheStats, ClusterResult, ClusterRun, CollectionPlan, EnvBackend};
use simkit::{SimDuration, SimTime};

/// One mechanism's naive-vs-cached showing.
#[derive(Clone, Debug)]
pub struct CachingRow {
    /// Mechanism name (the backend's `name()`).
    pub mechanism: String,
    /// Agents sharing one sensor (the sharing-domain size: 32 for the
    /// BG/Q node card, 16 ranks per node elsewhere).
    pub domain: usize,
    /// Polls each agent fired over the window.
    pub polls: u64,
    /// Total charged collection time across all agents, naive plan.
    pub naive_collection: SimDuration,
    /// Total charged collection time across all agents, batched plan.
    pub cached_collection: SimDuration,
    /// The shared cache's exact hit/miss/bypass ledger.
    pub cache: CacheStats,
    /// Were the two runs' output files byte-identical? (They must be;
    /// rendered in the table and asserted by the tests.)
    pub outputs_identical: bool,
}

impl CachingRow {
    /// Charged-cost reduction factor, naive over cached.
    pub fn speedup(&self) -> f64 {
        self.naive_collection.as_nanos() as f64 / self.cached_collection.as_nanos().max(1) as f64
    }
}

/// The caching ablation: one row per mechanism.
#[derive(Clone, Debug)]
pub struct CachingTable {
    /// One row per mechanism, in the paper's §II order.
    pub rows: Vec<CachingRow>,
}

/// The virtual span every cluster profiles.
const HORIZON: SimTime = SimTime::from_secs(60);

/// Drive one mechanism's cluster, naive or planned, and gather it.
fn run_cluster<B>(agents: usize, plan: Option<CollectionPlan>, make: B) -> ClusterResult
where
    B: FnMut(usize) -> Box<dyn EnvBackend>,
{
    let mut run = ClusterRun::launch(agents, None, make, |r| format!("agent{r}"), SimTime::ZERO);
    if let Some(p) = plan {
        run = run.with_collection_plan(p);
    }
    run.run_until(HORIZON);
    run.finalize(HORIZON)
}

/// Run one mechanism both ways and fold the comparison into a row.
fn compare(m: &Mechanism) -> CachingRow {
    let domain = m.domain;
    let naive = run_cluster(domain, None, &mut *m.factory());
    let cached = run_cluster(
        domain,
        Some(CollectionPlan::shared(domain)),
        &mut *m.factory(),
    );
    let total = |r: &ClusterResult| {
        r.overheads
            .iter()
            .fold(SimDuration::ZERO, |acc, o| acc + o.collection)
    };
    CachingRow {
        mechanism: m.name.to_owned(),
        domain,
        polls: naive.overheads[0].polls,
        naive_collection: total(&naive),
        cached_collection: total(&cached),
        cache: cached.cache,
        outputs_identical: naive.files == cached.files,
    }
}

/// Run the caching ablation. Deterministic in `seed`; every run is clean
/// (faults interact with the cache too, but that path is exercised by the
/// property tests — this table isolates the cost question).
pub fn caching(seed: u64) -> CachingTable {
    CachingTable {
        rows: mechanisms(seed, HORIZON).iter().map(compare).collect(),
    }
}

impl CachingTable {
    /// Render as a plain-text table: charged collection cost per plan,
    /// the reduction factor, the cache ledger, and the byte-identity
    /// verdict.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Caching ablation: naive vs batched collection (charged cost, whole domain)\n\n",
        );
        out.push_str(&format!(
            "{:<14}{:>7}{:>7}{:>13}{:>13}{:>9}{:>8}{:>8}{:>11}\n",
            "mechanism",
            "agents",
            "polls",
            "naive",
            "cached",
            "factor",
            "hits",
            "misses",
            "identical"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14}{:>7}{:>7}{:>13}{:>13}{:>8.1}x{:>8}{:>8}{:>11}\n",
                r.mechanism,
                r.domain,
                r.polls,
                r.naive_collection.to_string(),
                r.cached_collection.to_string(),
                r.speedup(),
                r.cache.hits,
                r.cache.misses,
                if r.outputs_identical { "YES" } else { "NO" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_card_emon_collection_drops_by_the_domain_factor() {
        let t = caching(2015);
        let emon = &t.rows[0];
        assert_eq!(emon.mechanism, "bgq-emon");
        assert_eq!(emon.domain, 32);
        assert!(
            emon.speedup() >= 10.0,
            "32-agent node card only {}x",
            emon.speedup()
        );
        // Clean run, all agents on the same grid: the reduction is exactly
        // the domain size (one leader fetch per generation).
        assert!((emon.speedup() - 32.0).abs() < 1e-9, "{}", emon.speedup());
    }

    #[test]
    fn outputs_identical_and_ledgers_reconcile_for_every_mechanism() {
        let t = caching(2015);
        assert_eq!(t.rows.len(), crate::registry::NAMES.len());
        for r in &t.rows {
            assert!(r.outputs_identical, "{} outputs diverged", r.mechanism);
            assert!(r.speedup() >= 10.0, "{} only {}x", r.mechanism, r.speedup());
            // Every poll is exactly one cache lookup; clean runs never
            // bypass.
            assert_eq!(
                r.cache.lookups(),
                r.polls * r.domain as u64,
                "{}",
                r.mechanism
            );
            assert_eq!(r.cache.bypasses, 0, "{}", r.mechanism);
            assert_eq!(r.cache.misses, r.polls, "{} one leader fetch", r.mechanism);
        }
    }

    #[test]
    fn table_renders_and_is_deterministic() {
        let a = caching(7);
        let b = caching(7);
        assert_eq!(a.render(), b.render());
        for name in crate::registry::NAMES {
            assert!(a.render().contains(name), "missing {name}");
        }
    }
}
