//! Placement cache: bounded LRU keyed by a request content fingerprint.
//!
//! The serving path is a pure function of `(graph, devices,
//! source_rate)` — greedy decoding ignores the RNG and the Metis placer
//! seeds itself from the coarse graph's content — so a repeat request
//! can be answered from cache with the *bitwise identical* placement a
//! fresh inference would produce.

use spg_graph::{GraphDelta, StreamGraph};
use std::collections::{BTreeMap, HashMap};

/// FNV-1a content fingerprint of an allocation request: graph shape,
/// operator costs, edge endpoints, channel parameters, and the effective
/// device count and source rate. Same idiom as the coarse-graph
/// fingerprint seeding the Metis placer.
pub fn request_fingerprint(graph: &StreamGraph, devices: usize, source_rate: f64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(graph.num_nodes() as u64);
    mix(graph.num_edges() as u64);
    for op in graph.ops() {
        mix(op.ipt.to_bits());
    }
    for (&(a, b), ch) in graph.edge_list().iter().zip(graph.channels()) {
        mix(((a as u64) << 32) | b as u64);
        mix(ch.payload.to_bits());
        mix(ch.selectivity.to_bits());
    }
    mix(devices as u64);
    mix(source_rate.to_bits());
    h
}

/// Fingerprint of an incremental re-allocation request: the prior
/// request's fingerprint extended with the prior placement and the full
/// delta content. Reallocs therefore never collide with plain allocs
/// (the tag below separates the key spaces), and two reallocs share a
/// cache entry only when prior, placement, and delta all agree.
pub fn realloc_fingerprint(
    graph: &StreamGraph,
    prior_placement: &[u32],
    delta: &GraphDelta,
    devices: usize,
    source_rate: f64,
) -> u64 {
    let mut h = request_fingerprint(graph, devices, source_rate);
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(u64::from_be_bytes(*b"REALLOC\0"));
    mix(prior_placement.len() as u64);
    for &d in prior_placement {
        mix(d as u64);
    }
    mix(delta.remove_nodes.len() as u64);
    for &v in &delta.remove_nodes {
        mix(v as u64);
    }
    mix(delta.add_nodes.len() as u64);
    for op in &delta.add_nodes {
        mix(op.ipt.to_bits());
    }
    mix(delta.remove_edges.len() as u64);
    for &(a, b) in &delta.remove_edges {
        mix(((a as u64) << 32) | b as u64);
    }
    mix(delta.add_edges.len() as u64);
    for (&(a, b), ch) in delta.add_edges.iter().zip(&delta.add_channels) {
        mix(((a as u64) << 32) | b as u64);
        mix(ch.payload.to_bits());
        mix(ch.selectivity.to_bits());
    }
    mix(delta.set_ipt.len() as u64);
    for &(v, ipt) in &delta.set_ipt {
        mix(v as u64);
        mix(ipt.to_bits());
    }
    mix(delta.set_channel_edges.len() as u64);
    for (&(a, b), ch) in delta.set_channel_edges.iter().zip(&delta.set_channels) {
        mix(((a as u64) << 32) | b as u64);
        mix(ch.payload.to_bits());
        mix(ch.selectivity.to_bits());
    }
    mix(delta.devices.map_or(0, |d| d as u64 + 1));
    mix(delta.source_rate.map_or(0, f64::to_bits));
    h
}

/// Bounded least-recently-used cache with hit/miss accounting.
///
/// Recency is a strictly increasing stamp per access; the map from
/// stamp to key (a `BTreeMap`) makes eviction of the oldest entry
/// `O(log n)` without any vendored dependency.
#[derive(Debug)]
pub struct LruCache<V> {
    map: HashMap<u64, (u64, V)>,
    recency: BTreeMap<u64, u64>,
    stamp: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<V> LruCache<V> {
    /// Empty cache holding at most `capacity` entries (0 disables
    /// caching: every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            stamp: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        match self.map.get_mut(&key) {
            Some((stamp, _)) => {
                self.hits += 1;
                self.recency.remove(stamp);
                self.stamp += 1;
                *stamp = self.stamp;
                self.recency.insert(self.stamp, key);
                self.map.get(&key).map(|(_, v)| v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `key`, evicting the least-recently-used entry if full.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some((stamp, _)) = self.map.remove(&key) {
            self.recency.remove(&stamp);
        } else if self.map.len() >= self.capacity {
            if let Some((&oldest, &victim)) = self.recency.iter().next() {
                self.recency.remove(&oldest);
                self.map.remove(&victim);
            }
        }
        self.stamp += 1;
        self.recency.insert(self.stamp, key);
        self.map.insert(key, (self.stamp, value));
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required fresh work.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_graph::{Channel, Operator, StreamGraphBuilder};

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(1), Some(&10)); // refresh 1: now 2 is oldest
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(&10));
        assert_eq!(c.get(3), Some(&30));
        assert_eq!(c.len(), 2);
        assert_eq!((c.hits(), c.misses()), (3, 1));
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1), Some(&11));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: LruCache<u32> = LruCache::new(0);
        c.insert(1, 10);
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
    }

    #[test]
    fn fingerprint_separates_content_and_context() {
        let g1 = {
            let mut b = StreamGraphBuilder::new();
            let a = b.add_node(Operator::new(100.0));
            let c = b.add_node(Operator::new(200.0));
            b.add_edge(a, c, Channel::new(8.0)).unwrap();
            b.finish().unwrap()
        };
        let g2 = {
            let mut b = StreamGraphBuilder::new();
            let a = b.add_node(Operator::new(100.0));
            let c = b.add_node(Operator::new(201.0));
            b.add_edge(a, c, Channel::new(8.0)).unwrap();
            b.finish().unwrap()
        };
        let f = request_fingerprint(&g1, 4, 1e4);
        assert_eq!(f, request_fingerprint(&g1, 4, 1e4), "deterministic");
        assert_ne!(f, request_fingerprint(&g2, 4, 1e4), "content-sensitive");
        assert_ne!(f, request_fingerprint(&g1, 5, 1e4), "device-sensitive");
        assert_ne!(f, request_fingerprint(&g1, 4, 2e4), "rate-sensitive");
    }

    #[test]
    fn realloc_fingerprint_separates_placement_and_delta() {
        let g = {
            let mut b = StreamGraphBuilder::new();
            let a = b.add_node(Operator::new(100.0));
            let c = b.add_node(Operator::new(200.0));
            b.add_edge(a, c, Channel::new(8.0)).unwrap();
            b.finish().unwrap()
        };
        let empty = GraphDelta::default();
        let f = realloc_fingerprint(&g, &[0, 1], &empty, 4, 1e4);
        assert_eq!(f, realloc_fingerprint(&g, &[0, 1], &empty, 4, 1e4));
        assert_ne!(
            f,
            request_fingerprint(&g, 4, 1e4),
            "reallocs never collide with plain allocs"
        );
        assert_ne!(
            f,
            realloc_fingerprint(&g, &[1, 1], &empty, 4, 1e4),
            "placement-sensitive"
        );
        let ramp = GraphDelta {
            source_rate: Some(2e4),
            ..GraphDelta::default()
        };
        assert_ne!(
            f,
            realloc_fingerprint(&g, &[0, 1], &ramp, 4, 1e4),
            "delta-sensitive"
        );
    }

    #[test]
    fn request_fingerprint_bytes_are_pinned() {
        // Pinned bytes: the cache key algorithm is part of the serve
        // protocol's determinism contract, so a change that silently
        // re-keys (and cold-starts) every deployed cache must fail here.
        let g = {
            let mut b = StreamGraphBuilder::new();
            let a = b.add_node(Operator::new(100.0));
            let c = b.add_node(Operator::new(200.0));
            b.add_edge(a, c, Channel::new(8.0)).unwrap();
            b.finish().unwrap()
        };
        let f = request_fingerprint(&g, 4, 1e4);
        assert_eq!(f, 0x3722c916c01aa983, "f32 key bytes changed");
    }
}
