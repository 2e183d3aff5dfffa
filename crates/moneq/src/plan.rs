//! The batched collection planner: sharing domains and the shared read
//! cache behind them.
//!
//! On a real machine several agent ranks sit behind one sensor: on BG/Q a
//! node card hosts 32 nodes but EMON publishes *one* set of domain
//! readings for the whole card; on Stampede every rank on a node shares
//! the socket's RAPL counters and the card's SMC. A naive deployment has
//! all co-resident agents pay the full access-path cost (1.10 ms per EMON
//! query, ~1.3 ms per NVML PCIe round-trip) for data that can only be the
//! same generation — the 32× waste the real MonEQ sidesteps with
//! per-node-card collection.
//!
//! A [`CollectionPlan`] declares how many consecutive ranks share one
//! sensor. Within a sharing domain, leader election is implicit and
//! deterministic: the first rank to consult the domain's
//! [`SharedReadCache`] for a given generation is charged for the real
//! query; everyone after it is charged nothing for that generation. Every
//! rank still reads for itself: because every mechanism model is a
//! deterministic function of grid time, a follower's own read is bit-equal
//! to the leader's, so outputs are byte-identical whether the plan is on
//! or off — the plan changes the *charged cost*, never the data.
//!
//! Faults never hide behind the cache: a leader whose read fails
//! publishes a failure marker, and every follower then bypasses the cache
//! and pays for its own live read — a fault is never papered over by a
//! sibling's success, and a disabled leader simply stops publishing, so
//! the next rank in the domain takes over.

use simkit::wire::LinkSpec;
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Where the mechanism's access path terminates: the paper's in-band vs.
/// out-of-band axis as a deployment knob.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Deployment {
    /// In-band: the agent crosses the access path with a direct
    /// in-process call (the pre-wire behaviour, and the default).
    #[default]
    Local,
    /// Out-of-band: every poll is a framed request/response exchange over
    /// a simulated link with this personality. Each rank's link weather is
    /// independent (the cluster salts the link's noise streams by rank).
    Remote(LinkSpec),
}

/// How agent ranks map onto shared sensors.
///
/// `domain_size` consecutive ranks form one sharing domain (ranks 0..n-1,
/// n..2n-1, …). The caller must make the domains match the hardware: every
/// rank in a domain has to be attached to the *same* device (the same node
/// card, socket, or card), because a generation one rank paid for is free
/// to every other rank of the domain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CollectionPlan {
    domain_size: usize,
    deployment: Deployment,
}

impl CollectionPlan {
    /// Every rank collects for itself — the naive deployment, and the
    /// default. No cache is consulted at all, so runs are bit-identical
    /// to builds that predate the planner.
    pub fn per_agent() -> Self {
        CollectionPlan {
            domain_size: 1,
            deployment: Deployment::Local,
        }
    }

    /// `domain_size` consecutive ranks share one sensor.
    ///
    /// Panics if `domain_size` is zero.
    pub fn shared(domain_size: usize) -> Self {
        assert!(domain_size >= 1, "a sharing domain needs at least one rank");
        CollectionPlan {
            domain_size,
            deployment: Deployment::Local,
        }
    }

    /// The BG/Q sharing domain: 32 nodes per node card, one EMON sensor
    /// set for all of them (§II-A).
    pub fn node_card() -> Self {
        Self::shared(32)
    }

    /// Deploy every mechanism in this plan behind `deployment` — e.g.
    /// `Deployment::Remote(LinkSpec::mgmt())` serves all polls over a
    /// management-network link. Composes with sharing: a remote leader's
    /// fetch cost is still paid once per domain.
    pub fn deployed(mut self, deployment: Deployment) -> Self {
        self.deployment = deployment;
        self
    }

    /// Where this plan's mechanisms are served from.
    pub fn deployment(&self) -> Deployment {
        self.deployment
    }

    /// Ranks per sharing domain.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// Does this plan actually share anything?
    pub fn is_shared(&self) -> bool {
        self.domain_size > 1
    }

    /// The sharing-domain index rank `rank` belongs to.
    pub fn domain_of(&self, rank: usize) -> usize {
        rank / self.domain_size
    }

    /// Number of sharing domains covering `agents` ranks (the last domain
    /// may be ragged).
    pub fn domains(&self, agents: usize) -> usize {
        agents.div_ceil(self.domain_size)
    }
}

impl Default for CollectionPlan {
    fn default() -> Self {
        Self::per_agent()
    }
}

/// What a [`SharedReadCache::consult`] found for one generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedLookup {
    /// A leader already fetched this generation; the access-path cost is
    /// not charged again (the caller still reads for itself).
    Hit,
    /// The leader's read failed: bypass the cache and perform your own
    /// live read at full cost.
    Failed,
    /// Nobody fetched this generation yet — you are the leader: read at
    /// full cost and [`publish`](SharedReadCache::publish) the outcome.
    Miss,
}

/// Exact shared-cache decision counters, mergeable like every other
/// ledger in the workspace (sums of exact counts are exact).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served by a stored generation (the access-path cost was
    /// not paid again).
    pub hits: u64,
    /// Lookups for a generation nobody had fetched yet; the caller
    /// performed the live read and published its outcome.
    pub misses: u64,
    /// Lookups that found a *failure marker*: the generation's first
    /// reader faulted, so the caller bypassed the cache and paid for its
    /// own live read rather than inherit a failure or serve stale data.
    pub bypasses: u64,
}

impl CacheStats {
    /// Total lookups decided (every lookup lands in exactly one bucket).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.bypasses
    }

    /// Fold another ledger into this one.
    pub(crate) fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypasses += other.bypasses;
    }

    /// The counters as `(kind, count)` pairs, for folding into telemetry.
    pub(crate) fn kinds(&self) -> [(&'static str, u64); 3] {
        [
            ("hit", self.hits),
            ("miss", self.misses),
            ("bypass", self.bypasses),
        ]
    }

    /// Tally one consult's decision.
    pub(crate) fn count(&mut self, found: &SharedLookup) {
        match found {
            SharedLookup::Hit => self.hits += 1,
            SharedLookup::Failed => self.bypasses += 1,
            SharedLookup::Miss => self.misses += 1,
        }
    }
}

/// One sharing domain's cache, behind a mutex so a domain's ranks can
/// share it across cluster worker threads.
///
/// Per mechanism it keys leader outcomes by *generation index* on the
/// mechanism's update grid (anchored at [`SimTime::ZERO`], like every
/// mechanism model in this workspace), so every instant inside one
/// generation finds the same entry.
///
/// The lock is uncontended by construction — [`crate::ClusterRun`] aligns
/// its dispatch chunks on domain boundaries, so all ranks of a domain are
/// driven by one worker — and lock poisoning is recovered explicitly
/// (`PoisonError::into_inner`), per the crate's no-unwrap discipline.
#[derive(Debug, Default)]
pub struct SharedReadCache {
    inner: Mutex<Generations>,
}

#[derive(Debug, Default)]
struct Generations {
    /// Per mechanism name: the update grid its first call fixed, and
    /// generation index → whether the leader's read succeeded.
    mechanisms: BTreeMap<&'static str, (SimDuration, BTreeMap<u64, bool>)>,
    stats: CacheStats,
}

impl Generations {
    /// Mechanism `name`'s stored generations and the index `t` falls in.
    fn locate(
        &mut self,
        name: &'static str,
        cadence: SimDuration,
        t: SimTime,
    ) -> (&mut BTreeMap<u64, bool>, u64) {
        let (grid, reads) = self
            .mechanisms
            .entry(name)
            .or_insert_with(|| (cadence, BTreeMap::new()));
        (reads, t.grid_index(SimTime::ZERO, *grid))
    }
}

impl SharedReadCache {
    /// An empty cache.
    pub fn new() -> Self {
        SharedReadCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, Generations> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up mechanism `name`'s generation at `t`, tallying the
    /// decision. The first call for a name fixes its update grid to
    /// `cadence`.
    ///
    /// # Panics
    ///
    /// If the grid is zero: a zero cadence has no generations
    /// ([`SimTime::grid_index`] panics).
    pub fn consult(&self, name: &'static str, cadence: SimDuration, t: SimTime) -> SharedLookup {
        let mut cache = self.lock();
        let (reads, generation) = cache.locate(name, cadence, t);
        let found = match reads.get(&generation) {
            Some(true) => SharedLookup::Hit,
            Some(false) => SharedLookup::Failed,
            None => SharedLookup::Miss,
        };
        cache.stats.count(&found);
        found
    }

    /// Publish a leader's outcome for `t`'s generation: `ok` is whether
    /// its read succeeded. A `false` is the failure marker, so followers
    /// bypass the cache and are charged for their own reads. First writer
    /// wins, so a republish can never flip a stored outcome.
    pub fn publish(&self, name: &'static str, cadence: SimDuration, t: SimTime, ok: bool) {
        let mut cache = self.lock();
        let (reads, generation) = cache.locate(name, cadence, t);
        reads.entry(generation).or_insert(ok);
    }

    /// Drop generations every rank has been driven past (called by the
    /// cluster at window boundaries so Mira-scale sweeps don't accumulate
    /// a whole run's generations). The generation `t` falls in stays.
    pub fn prune_before(&self, t: SimTime) {
        for (grid, reads) in self.lock().mechanisms.values_mut() {
            *reads = reads.split_off(&t.grid_index(SimTime::ZERO, *grid));
        }
    }

    /// The exact hit/miss/bypass ledger, over every mechanism.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CADENCE: SimDuration = SimDuration::from_millis(560);

    #[test]
    fn plan_maps_ranks_onto_domains() {
        let plan = CollectionPlan::node_card();
        assert_eq!(plan.domain_size(), 32);
        assert!(plan.is_shared());
        assert_eq!(plan.domain_of(0), 0);
        assert_eq!(plan.domain_of(31), 0);
        assert_eq!(plan.domain_of(32), 1);
        assert_eq!(plan.domains(1_536 * 32), 1_536, "Mira's node cards");
        assert_eq!(plan.domains(33), 2, "ragged tail gets its own domain");
        let naive = CollectionPlan::default();
        assert!(!naive.is_shared());
        assert_eq!(naive.domain_of(7), 7);
    }

    #[test]
    fn leader_publishes_followers_hit() {
        let cache = SharedReadCache::new();
        let t = SimTime::from_millis(600);
        assert_eq!(cache.consult("bgq-emon", CADENCE, t), SharedLookup::Miss);
        cache.publish("bgq-emon", CADENCE, t, true);
        // Any instant in the same 560 ms generation hits.
        let later = SimTime::from_millis(1_100);
        assert_eq!(cache.consult("bgq-emon", CADENCE, later), SharedLookup::Hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.bypasses), (1, 1, 0));
        // First write wins: a failure marker published later for the same
        // generation does not replace the stored success.
        let again = SimTime::from_millis(700);
        cache.publish("bgq-emon", CADENCE, again, true);
        cache.publish("bgq-emon", CADENCE, again, false);
        assert_eq!(cache.consult("bgq-emon", CADENCE, later), SharedLookup::Hit);
    }

    #[test]
    fn failed_leader_forces_bypass_and_next_generation_recovers() {
        let cache = SharedReadCache::new();
        let t = SimTime::from_millis(600);
        assert_eq!(cache.consult("bgq-emon", CADENCE, t), SharedLookup::Miss);
        cache.publish("bgq-emon", CADENCE, t, false);
        // First write wins: a success published later for the same
        // generation does not clear the failure marker.
        cache.publish("bgq-emon", CADENCE, SimTime::from_millis(650), true);
        assert_eq!(
            cache.consult("bgq-emon", CADENCE, SimTime::from_millis(700)),
            SharedLookup::Failed
        );
        // The next generation is a fresh election.
        assert_eq!(
            cache.consult("bgq-emon", CADENCE, SimTime::from_millis(1_200)),
            SharedLookup::Miss
        );
        assert_eq!(cache.stats().bypasses, 1);
    }

    #[test]
    fn mechanisms_are_cached_independently() {
        let cache = SharedReadCache::new();
        let t = SimTime::from_millis(100);
        cache.publish("mic-micras", SimDuration::from_millis(50), t, true);
        // A different mechanism at the same instant is still a miss.
        assert_eq!(
            cache.consult("rapl-msr", SimDuration::from_millis(1), t),
            SharedLookup::Miss
        );
        assert_eq!(
            cache.consult("mic-micras", SimDuration::from_millis(50), t),
            SharedLookup::Hit
        );
    }

    #[test]
    fn single_rank_domains_share_nothing() {
        let plan = CollectionPlan::shared(1);
        assert!(
            !plan.is_shared(),
            "a 1-rank domain has nobody to share with"
        );
        assert_eq!(plan.domain_size(), 1);
        assert_eq!(plan.domain_of(0), 0);
        assert_eq!(plan.domain_of(9), 9);
        assert_eq!(plan.domains(9), 9);
        assert_eq!(plan.domains(0), 0, "no ranks, no domains");
        assert_eq!(CollectionPlan::shared(4).domains(0), 0);
        assert_eq!(plan, CollectionPlan::per_agent());
    }

    #[test]
    fn prune_at_exact_generation_boundary_keeps_the_boundary() {
        let cache = SharedReadCache::new();
        for k in 0..4u64 {
            cache.publish("bgq-emon", CADENCE, SimTime::from_millis(k * 560), true);
        }
        // 1120 ms is exactly where generation 2 begins: 0 and 1 go, 2 stays.
        cache.prune_before(SimTime::from_millis(1_120));
        assert_eq!(
            cache.consult("bgq-emon", CADENCE, SimTime::from_millis(1_119)),
            SharedLookup::Miss
        );
        assert_eq!(
            cache.consult("bgq-emon", CADENCE, SimTime::from_millis(1_120)),
            SharedLookup::Hit
        );
    }

    #[test]
    fn prune_drops_finished_generations() {
        let cache = SharedReadCache::new();
        for k in 0..8u64 {
            cache.publish(
                "bgq-emon",
                CADENCE,
                SimTime::from_millis(k * 560 + 10),
                true,
            );
        }
        cache.prune_before(SimTime::from_millis(4 * 560));
        // Generations 0-3 are gone (misses again), 4+ still hit.
        assert_eq!(
            cache.consult("bgq-emon", CADENCE, SimTime::from_millis(560)),
            SharedLookup::Miss
        );
        assert_eq!(
            cache.consult("bgq-emon", CADENCE, SimTime::from_millis(4 * 560 + 10)),
            SharedLookup::Hit
        );
    }
}
