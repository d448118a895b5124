//! Independent reference partition: the brute-force read graph.
//!
//! Shares no code with the pipeline's KmerGen, sort or CC layers: the
//! scalar k-mer enumerator, a k-mer → first-read map and a sequential
//! union-find.

use metaprep_cc::DisjointSet;
use metaprep_io::ReadStore;
use metaprep_kmer::{for_each_canonical_kmer_scalar, Kmer};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hash for packed k-mer keys. The keys come from the
/// benchmark's own synthetic reads, so collision resistance is not needed
/// and the default SipHash would dominate set-up time.
#[derive(Default)]
struct KmerHasher(u64);

impl Hasher for KmerHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
}

/// Component label per fragment: fragments that share a canonical k-mer
/// are connected.
pub fn read_graph_labels<K: Kmer>(reads: &ReadStore, k: usize) -> Vec<u32> {
    let mut first: HashMap<K::Repr, u32, BuildHasherDefault<KmerHasher>> = HashMap::default();
    let mut ds = DisjointSet::new(reads.num_fragments() as usize);
    for (seq, frag) in reads.iter() {
        for_each_canonical_kmer_scalar::<K>(seq, k, |v, _| match first.entry(v) {
            Entry::Occupied(e) => {
                ds.union(*e.get(), frag);
            }
            Entry::Vacant(e) => {
                e.insert(frag);
            }
        });
    }
    ds.into_component_array()
}

/// Relabel a partition so each component is numbered by the order of its
/// first fragment; two labelings describe the same partition exactly when
/// their canonical forms are equal. `None` if a label is not a fragment
/// index.
pub fn canonical(labels: &[u32]) -> Option<Vec<u32>> {
    let mut id = vec![u32::MAX; labels.len()];
    let mut next = 0u32;
    labels
        .iter()
        .map(|&l| {
            let slot = id.get_mut(l as usize)?;
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
            Some(*slot)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_ignores_label_values() {
        assert_eq!(canonical(&[2, 2, 0, 3]), canonical(&[1, 1, 3, 0]));
        assert_ne!(canonical(&[0, 0, 2, 3]), canonical(&[0, 1, 1, 3]));
        assert_eq!(canonical(&[0, 9]), None);
    }
}
