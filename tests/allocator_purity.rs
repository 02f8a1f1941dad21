//! Allocators are pure: a placement is a function of the allocator's seed
//! and the call's inputs. `fresh_instance_placements_are_pinned` digests
//! what a fresh instance of every seeded allocator answers per graph, so a
//! change to how an allocator seeds its RNG that moves one label fails
//! here. `call_order_never_moves_a_throughput` runs one instance of each
//! configuration over the dataset and then over it reversed: a graph's
//! throughput must not depend on which graphs came before it.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::baselines::{AllOnOne, GdpLite, GraphEncDec, Hierarchical, RandomPlacement, RoundRobin};
use spg::eval::evaluate_allocator;
use spg::gen::{generate_dataset, DatasetSpec, Setting};
use spg::graph::serialize::Dataset;
use spg::model::pipeline::CoarsenOnlyAllocator;
use spg::model::{
    CoarsenAllocator, CoarsenConfig, CoarsenModel, CoarsenOracleAllocator, MetisCoarsePlacer,
};
use spg::partition::{MetisAllocator, MetisOracle};
use spg::Allocator;

/// FNV-1a-64 over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    fn u32(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn labels(&mut self, part: &[u32]) {
        self.u32(part.len() as u32);
        for &p in part {
            self.u32(p);
        }
    }
}

fn dataset() -> Dataset {
    generate_dataset(&DatasetSpec::scaled_down(Setting::Medium), 8, 3)
}

fn model(seed: u64) -> CoarsenModel {
    CoarsenModel::new(
        CoarsenConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(seed),
    )
}

/// Every allocator configuration whose answer may read an RNG, built
/// fresh from fixed seeds.
fn seeded(devices: usize) -> Vec<Box<dyn Allocator>> {
    let cfg = CoarsenConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let encdec_placer = GraphEncDec::new(&cfg, devices, &mut rng);
    vec![
        Box::new(MetisAllocator::new(1)),
        Box::new(MetisOracle::new(2)),
        Box::new(CoarsenAllocator::new(model(3), MetisCoarsePlacer::new(3)).with_best_of(4)),
        Box::new(CoarsenAllocator::new(model(4), encdec_placer)),
        Box::new(CoarsenOracleAllocator::new(model(5), 5)),
        Box::new(GraphEncDec::new(&cfg, devices, &mut rng)),
        Box::new(GdpLite::new(&cfg, devices, &mut rng)),
        Box::new(Hierarchical::new(&cfg, 8, devices, &mut rng)),
        Box::new(RandomPlacement::new(6)),
    ]
}

#[test]
fn fresh_instance_placements_are_pinned() {
    let ds = dataset();
    let mut h = Fnv::new();
    for g in &ds.graphs {
        for alloc in seeded(ds.cluster.devices) {
            h.labels(alloc.allocate(g, &ds.cluster, ds.source_rate).as_slice());
        }
    }
    assert_eq!(
        h.0, 0x8bab1dfe494ca197,
        "fresh-instance placement bits moved: {:#018x}",
        h.0
    );
}

#[test]
fn call_order_never_moves_a_throughput() {
    let ds = dataset();
    let mut reversed = ds.clone();
    reversed.graphs.reverse();
    let mut allocators = seeded(ds.cluster.devices);
    allocators.push(Box::new(CoarsenAllocator::new(
        model(7),
        MetisCoarsePlacer::new(7),
    )));
    allocators.push(Box::new(CoarsenOnlyAllocator { model: model(8) }));
    allocators.push(Box::new(RoundRobin));
    allocators.push(Box::new(AllOnOne));
    assert_eq!(allocators.len(), 13);
    let mut moved = Vec::new();
    for (i, alloc) in allocators.iter().enumerate() {
        let forward = evaluate_allocator(alloc.as_ref(), &ds).throughputs;
        let mut backward = evaluate_allocator(alloc.as_ref(), &reversed).throughputs;
        backward.reverse();
        let changed = forward
            .iter()
            .zip(&backward)
            .filter(|(f, b)| f.to_bits() != b.to_bits())
            .count();
        if changed > 0 {
            moved.push(format!(
                "#{i} {} ({changed}/{})",
                alloc.name(),
                forward.len()
            ));
        }
    }
    assert!(moved.is_empty(), "call order moved throughputs: {moved:?}");
}
