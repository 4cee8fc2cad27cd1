//! Initial layout selection: logical → physical qubit assignment.
//!
//! Level-3 transpilation uses a **dense layout**: among connected physical
//! subgraphs of the right size, pick the one with the most internal edges
//! (ties broken by total calibration-agnostic degree), which minimizes the
//! routing SWAPs — the paper's stated reason for using `optimization_level=3`.

use crate::topology::CouplingMap;

/// A bijective map from logical qubits to physical qubits.
///
/// # Example
///
/// ```
/// use qufi_transpile::{CouplingMap, Layout};
///
/// let cm = CouplingMap::ibm_h7();
/// let layout = Layout::dense(&cm, 3);
/// // A 3-qubit dense layout on the H topology centers on qubit 1 or 5.
/// let physs: Vec<usize> = (0..3).map(|l| layout.physical(l)).collect();
/// assert!(physs.contains(&1) || physs.contains(&5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// `phys[l]` = physical qubit hosting logical qubit `l`.
    phys: Vec<usize>,
    /// `logical[p]` = logical qubit hosted on physical `p`, if any.
    logical: Vec<Option<usize>>,
}

impl Layout {
    /// Builds a layout from an explicit logical→physical vector.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not injective or exceeds `num_physical`.
    pub fn from_mapping(phys: Vec<usize>, num_physical: usize) -> Self {
        let mut logical = vec![None; num_physical];
        for (l, &p) in phys.iter().enumerate() {
            assert!(p < num_physical, "physical qubit {p} out of range");
            assert!(logical[p].is_none(), "physical qubit {p} assigned twice");
            logical[p] = Some(l);
        }
        Layout { phys, logical }
    }

    /// The identity layout: logical `i` on physical `i`.
    pub fn trivial(num_logical: usize, num_physical: usize) -> Self {
        assert!(num_logical <= num_physical, "not enough physical qubits");
        Layout::from_mapping((0..num_logical).collect(), num_physical)
    }

    /// Dense layout: the connected subgraph of `size` physical qubits with
    /// the most internal couplings, grown greedily from every seed qubit.
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer than `size` qubits or no connected
    /// subgraph of that size exists.
    pub fn dense(cm: &CouplingMap, size: usize) -> Self {
        assert!(size <= cm.num_qubits(), "not enough physical qubits");
        if size == 0 {
            return Layout::from_mapping(vec![], cm.num_qubits());
        }
        let mut best: Option<(usize, Vec<usize>)> = None; // (internal edges, members)
        for seed in 0..cm.num_qubits() {
            if let Some(members) = grow_subgraph(cm, seed, size) {
                let score = internal_edges(cm, &members);
                let better = match &best {
                    None => true,
                    Some((s, _)) => score > *s,
                };
                if better {
                    best = Some((score, members));
                }
            }
        }
        let (_, members) = best.expect("no connected subgraph of requested size");
        // Assign logical qubits to members ordered by descending internal
        // degree so the busiest logical qubits (usually low indices) sit on
        // well-connected physical qubits.
        let mut ordered = members.clone();
        ordered.sort_by_key(|&p| {
            let deg = cm
                .neighbors(p)
                .iter()
                .filter(|&&x| members.contains(&x))
                .count();
            (std::cmp::Reverse(deg), p)
        });
        Layout::from_mapping(ordered, cm.num_qubits())
    }

    /// Number of logical qubits.
    #[inline]
    pub fn num_logical(&self) -> usize {
        self.phys.len()
    }

    /// Physical qubit hosting logical `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is unmapped.
    #[inline]
    pub fn physical(&self, l: usize) -> usize {
        self.phys[l]
    }

    /// Logical qubit on physical `p`, if any.
    #[inline]
    pub fn logical_on(&self, p: usize) -> Option<usize> {
        self.logical.get(p).copied().flatten()
    }

    /// Exchanges the contents of two *physical* qubits (the routing update
    /// after inserting a SWAP).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_physical(&mut self, a: usize, b: usize) {
        let la = self.logical[a];
        let lb = self.logical[b];
        self.logical[a] = lb;
        self.logical[b] = la;
        if let Some(l) = la {
            self.phys[l] = b;
        }
        if let Some(l) = lb {
            self.phys[l] = a;
        }
    }
}

/// Greedily grows a connected set of `size` qubits from `seed`, preferring
/// candidates with the most edges into the current set.
fn grow_subgraph(cm: &CouplingMap, seed: usize, size: usize) -> Option<Vec<usize>> {
    let mut members = vec![seed];
    while members.len() < size {
        let mut best: Option<(usize, usize)> = None; // (edges into set, candidate)
        for &m in &members {
            for &cand in cm.neighbors(m) {
                if members.contains(&cand) {
                    continue;
                }
                let score = cm
                    .neighbors(cand)
                    .iter()
                    .filter(|&&x| members.contains(&x))
                    .count();
                let better = match best {
                    None => true,
                    Some((s, c)) => score > s || (score == s && cand < c),
                };
                if better {
                    best = Some((score, cand));
                }
            }
        }
        members.push(best?.1);
    }
    members.sort_unstable();
    Some(members)
}

fn internal_edges(cm: &CouplingMap, members: &[usize]) -> usize {
    cm.edges()
        .iter()
        .filter(|&&(a, b)| members.contains(&a) && members.contains(&b))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_layout_is_identity() {
        let l = Layout::trivial(3, 5);
        for i in 0..3 {
            assert_eq!(l.physical(i), i);
            assert_eq!(l.logical_on(i), Some(i));
        }
        assert_eq!(l.logical_on(4), None);
    }

    #[test]
    fn dense_layout_prefers_hub_on_h7() {
        let cm = CouplingMap::ibm_h7();
        // 3 qubits: the best subgraphs are {0,1,2}/{0,1,3}/{1,2,3} (2 edges)
        // or around qubit 5. The hub (degree-3 qubit 1 or 5) must be in it,
        // and logical 0 should sit on the hub (highest internal degree).
        let l = Layout::dense(&cm, 3);
        let hub = l.physical(0);
        assert!(hub == 1 || hub == 5, "logical 0 on {hub}");
    }

    #[test]
    fn dense_layout_is_connected() {
        for size in 2..=7 {
            let cm = CouplingMap::ibm_h7();
            let l = Layout::dense(&cm, size);
            let members: Vec<usize> = (0..size).map(|q| l.physical(q)).collect();
            // Every member reaches member 0 within the subgraph via BFS on
            // the full graph restricted to members.
            let mut seen = vec![members[0]];
            let mut frontier = vec![members[0]];
            while let Some(u) = frontier.pop() {
                for &v in cm.neighbors(u) {
                    if members.contains(&v) && !seen.contains(&v) {
                        seen.push(v);
                        frontier.push(v);
                    }
                }
            }
            assert_eq!(seen.len(), size, "size {size} subgraph disconnected");
        }
    }

    #[test]
    fn dense_beats_trivial_on_edge_count() {
        // On the H topology a trivial 4-qubit layout {0,1,2,3} has 3 internal
        // edges; dense should find at least as many.
        let cm = CouplingMap::ibm_h7();
        let dense = Layout::dense(&cm, 4);
        let members: Vec<usize> = (0..4).map(|q| dense.physical(q)).collect();
        assert!(internal_edges(&cm, &members) >= 3);
    }

    #[test]
    fn swap_physical_updates_both_views() {
        let mut l = Layout::trivial(2, 3);
        l.swap_physical(1, 2);
        assert_eq!(l.physical(1), 2);
        assert_eq!(l.logical_on(2), Some(1));
        assert_eq!(l.logical_on(1), None);
        // Swapping two empty qubits is a no-op.
        let mut l2 = Layout::trivial(1, 3);
        l2.swap_physical(1, 2);
        assert_eq!(l2.physical(0), 0);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn non_injective_mapping_rejected() {
        let _ = Layout::from_mapping(vec![0, 0], 2);
    }
}
