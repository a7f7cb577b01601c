//! Compressed Sparse Row adjacency.
//!
//! The bipartite word→keyphrase graph of each leaf category is stored in CSR
//! (paper Sec. III-D): row `r` (a word, leaf-local) has its neighbor labels
//! in `targets[offsets[r] .. offsets[r+1]]`. Space is `|X| + |E|` 32-bit
//! words; neighbor traversal is a contiguous slice scan — the property the
//! paper's `O(|T| · d_avg)` inference bound rests on.

use crate::storage::U32Store;

/// Immutable CSR adjacency from `u32` rows to `u32` targets.
///
/// Construction sorts and de-duplicates the edge list as the paper
/// describes ("constructed as tuples, sorted and then de-duplicated"). The
/// two arrays are [`U32Store`]s: owned when built in-process, borrowed
/// zero-copy from the load buffer when deserialized from a `GEXM`
/// snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: U32Store,
    targets: U32Store,
}

impl Csr {
    /// Builds a CSR over `num_rows` rows from an edge list: edges are
    /// bucketed by row (one counting pass, no comparison sort over the
    /// pairs), then each row's targets are sorted and de-duplicated. The
    /// builders emit edges label by label, so every row's bucket arrives
    /// already ascending and the per-row sort is a linear check.
    ///
    /// # Panics
    /// Panics if an edge references `row >= num_rows` (construction-time
    /// programming error, not a data error).
    pub fn from_edges(num_rows: u32, edges: Vec<(u32, u32)>) -> Self {
        let rows = num_rows as usize;
        let mut offsets = vec![0u32; rows + 1];
        for &(row, _) in &edges {
            assert!(
                row < num_rows,
                "edge row {row} out of bounds ({num_rows} rows)"
            );
            offsets[row as usize + 1] += 1;
        }
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(row, target) in &edges {
            let at = &mut cursor[row as usize];
            targets[*at as usize] = target;
            *at += 1;
        }
        // Sort each bucket, then close the gaps its duplicates leave.
        let (mut start, mut kept) = (0usize, 0usize);
        for row in 0..rows {
            let end = offsets[row + 1] as usize;
            targets[start..end].sort_unstable();
            offsets[row] = kept as u32;
            let first = kept;
            for i in start..end {
                if kept == first || targets[kept - 1] != targets[i] {
                    targets[kept] = targets[i];
                    kept += 1;
                }
            }
            start = end;
        }
        offsets[rows] = kept as u32;
        targets.truncate(kept);
        Self {
            offsets: offsets.into(),
            targets: targets.into(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of (deduplicated) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbors of `row` as a sorted slice. Empty slice for out-of-range
    /// rows (callers look rows up through a word index first, so this is a
    /// defensive default rather than a hot-path branch).
    #[inline]
    pub fn neighbors(&self, row: u32) -> &[u32] {
        let r = row as usize;
        if r + 1 >= self.offsets.len() {
            return &[];
        }
        &self.targets[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Degree of `row`.
    #[inline]
    pub fn degree(&self, row: u32) -> u32 {
        let r = row as usize;
        if r + 1 >= self.offsets.len() {
            return 0;
        }
        self.offsets[r + 1] - self.offsets[r]
    }

    /// Average degree `|E| / |X|` (the paper's `d_avg`).
    pub fn avg_degree(&self) -> f64 {
        if self.num_rows() == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / f64::from(self.num_rows())
    }

    /// Iterates all `(row, target)` edges in row order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_rows()).flat_map(move |r| self.neighbors(r).iter().map(move |&t| (r, t)))
    }

    /// Heap bytes used (paper Fig. 6b accounting).
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.len() + self.targets.len()) * std::mem::size_of::<u32>()
    }

    /// Raw parts for serialization.
    pub(crate) fn as_parts(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.targets)
    }

    /// Rebuilds from raw (store-typed) parts, validating CSR invariants
    /// (monotone offsets, first 0 / last == |targets|). Used by
    /// deserialization, hence `Result`; the zero-copy path hands in
    /// borrowed views and validation reads but never copies.
    pub(crate) fn from_stores(offsets: U32Store, targets: U32Store) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("csr: empty offsets".into());
        }
        if offsets[0] != 0 {
            return Err("csr: offsets[0] != 0".into());
        }
        if *offsets.last().unwrap() as usize != targets.len() {
            return Err("csr: last offset != #targets".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("csr: offsets not monotone".into());
        }
        Ok(Self { offsets, targets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 3 rows; duplicate + unsorted edges on purpose.
        Csr::from_edges(3, vec![(2, 1), (0, 5), (0, 3), (0, 5), (2, 0)])
    }

    #[test]
    fn builds_sorted_deduped() {
        let csr = sample();
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.neighbors(0), &[3, 5]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[0, 1]);
    }

    #[test]
    fn degrees_and_avg() {
        let csr = sample();
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 0);
        assert_eq!(csr.degree(2), 2);
        assert!((csr.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_row_is_empty() {
        let csr = sample();
        assert_eq!(csr.neighbors(99), &[] as &[u32]);
        assert_eq!(csr.degree(99), 0);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(0, vec![]);
        assert_eq!(csr.num_rows(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.avg_degree(), 0.0);
        assert_eq!(csr.edges().count(), 0);
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let csr = sample();
        let edges: Vec<(u32, u32)> = csr.edges().collect();
        assert_eq!(edges, vec![(0, 3), (0, 5), (2, 0), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let _ = Csr::from_edges(1, vec![(1, 0)]);
    }

    #[test]
    fn from_parts_validation() {
        let parts = |o: Vec<u32>, t: Vec<u32>| Csr::from_stores(o.into(), t.into());
        assert!(parts(vec![], vec![]).is_err());
        assert!(parts(vec![1, 2], vec![0, 0]).is_err()); // first != 0
        assert!(parts(vec![0, 3], vec![7]).is_err()); // last != len
        assert!(parts(vec![0, 2, 1], vec![9]).is_err()); // not monotone
        let ok = parts(vec![0, 1, 2], vec![4, 9]).unwrap();
        assert_eq!(ok.neighbors(1), &[9]);
    }

    #[test]
    fn heap_bytes_is_linear() {
        let csr = sample();
        assert_eq!(csr.heap_bytes(), (4 + 4) * 4);
    }
}
