//! Property tests on the memory hierarchy's timing contract.

use proptest::prelude::*;
use rand::Rng;
use reno_mem::{Cache, CacheConfig, HierarchyConfig, MemHierarchy, ServedBy};

proptest! {
    /// An access never completes before its minimum hit latency, and the
    /// returned level is consistent with the latency charged.
    #[test]
    fn latency_lower_bounds(addrs in prop::collection::vec(0u64..(1 << 24), 1..200)) {
        let cfg = HierarchyConfig::default();
        let mut m = MemHierarchy::new(cfg);
        for (now, a) in (0u64..).zip(addrs) {
            let (done, by) = m.access_data(a, now, false);
            prop_assert!(done >= now + cfg.l1d.hit_latency);
            match by {
                ServedBy::L1 => prop_assert_eq!(done, now + cfg.l1d.hit_latency),
                ServedBy::L2 => prop_assert_eq!(done, now + cfg.l1d.hit_latency + cfg.l2.hit_latency),
                ServedBy::Mem => prop_assert!(
                    done >= now + cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.mem_latency
                ),
            }
        }
    }

    /// Re-accessing the same address immediately after completion always
    /// hits in the L1.
    #[test]
    fn temporal_locality_always_hits(addr in 0u64..(1 << 30)) {
        let mut m = MemHierarchy::new(HierarchyConfig::default());
        let (done, _) = m.access_data(addr, 0, false);
        let (_, by) = m.access_data(addr, done + 1, false);
        prop_assert_eq!(by, ServedBy::L1);
    }

    /// The cache directory never reports more hits than accesses and its
    /// contents honour associativity (a just-filled line is present).
    #[test]
    fn cache_fill_visibility(addrs in prop::collection::vec(0u64..(1 << 16), 1..300)) {
        let mut c = Cache::new(CacheConfig { size_bytes: 1 << 12, assoc: 2, line_bytes: 32, hit_latency: 1 });
        for a in addrs {
            c.probe_and_fill(a, false);
            prop_assert!(c.contains(a), "just-filled line must be resident");
        }
        prop_assert!(c.stats().hits <= c.stats().accesses);
    }
}

/// A randomized working-set experiment: a footprint that fits in the D$
/// must converge to a near-perfect hit rate, and one that thrashes the L2
/// must go to memory.
#[test]
fn working_set_behaviour() {
    let mut m = MemHierarchy::new(HierarchyConfig::default());
    let mut rng = rand::rngs::mock::StepRng::new(0, 0x9e37_79b9_7f4a_7c15);
    // Warm a 16KB working set (fits the 32KB D$).
    let mut now = 0;
    for _ in 0..4096 {
        let a = (rng.gen::<u64>() % (16 << 10)) & !7;
        let (done, _) = m.access_data(a, now, false);
        now = done;
    }
    let (_, d1, _) = m.cache_stats();
    let before = d1;
    for _ in 0..4096 {
        let a = (rng.gen::<u64>() % (16 << 10)) & !7;
        let (done, _) = m.access_data(a, now, false);
        now = done;
    }
    let (_, d1, _) = m.cache_stats();
    let warm_hits = d1.hits - before.hits;
    let warm_accesses = d1.accesses - before.accesses;
    assert!(
        warm_hits as f64 / warm_accesses as f64 > 0.95,
        "resident working set should hit: {warm_hits}/{warm_accesses}"
    );
}
