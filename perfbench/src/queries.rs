//! The dashboard client's query stream.
//!
//! A copy of the draw `envmon_serve::clients` makes for each request
//! (that generator is private to the crate): range, domain-aggregate,
//! top-k and freshness at 4:2:1:1, with random windows over the served
//! horizon and a random series or domain. It draws a fixed number of
//! values per query, so the stream depends only on the seed and the view.

use envmon_serve::{Published, Query};
use simkit::{DetRng, SimTime};

/// The four query kinds, in the order the per-layer metrics list them.
pub const KINDS: [&str; 4] = ["range", "domain_aggregate", "top_k", "freshness"];

/// Index of `q`'s kind in [`KINDS`].
pub fn kind(q: &Query) -> usize {
    match q {
        Query::Range { .. } => 0,
        Query::DomainAggregate { .. } => 1,
        Query::TopK { .. } => 2,
        Query::Freshness => 3,
    }
}

/// `n` queries against `view`, deterministic in `seed`.
pub fn stream(seed: u64, view: &Published, n: usize) -> Vec<Query> {
    let mut rng = DetRng::new(seed).child("dashboard-client");
    (0..n).map(|_| draw(&mut rng, view)).collect()
}

fn draw(rng: &mut DetRng, view: &Published) -> Query {
    let kind = rng.below(8);
    let horizon = view.at.as_secs_f64();
    let a = rng.uniform(0.0, horizon.max(1.0));
    let b = rng.uniform(0.0, horizon.max(1.0));
    let (from, to) = if a <= b { (a, b) } else { (b, a) };
    let from = SimTime::from_secs_f64(from);
    let to = SimTime::from_secs_f64(to);
    let pick = rng.next_u64();
    let k = 1 + rng.below(8) as usize;
    let n = view.store.len() as u64;
    if n == 0 {
        return Query::Freshness;
    }
    let meta = &view.meta[(pick % n) as usize];
    let tiers = view
        .store
        .ids()
        .next()
        .map_or(0, |id| view.store.get(id).tier_count());
    let tier = if tiers == 0 {
        0
    } else {
        (pick / n) as usize % tiers
    };
    match kind {
        0..=3 => Query::Range {
            series: format!("{}/{}/{}", meta.agent, meta.device, meta.domain),
            from,
            to,
        },
        4 | 5 => Query::DomainAggregate {
            domain: meta.domain.clone(),
            tier,
            from,
            to,
        },
        6 => Query::TopK { k, tier, from, to },
        _ => Query::Freshness,
    }
}
