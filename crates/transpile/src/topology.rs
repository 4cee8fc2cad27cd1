//! Device coupling maps.
//!
//! A coupling map is the undirected graph of physical qubit pairs that can
//! host a two-qubit gate. The paper's machines (Casablanca, Jakarta) share
//! the 7-qubit "H" topology drawn in its Fig. 1; generators for lines,
//! rings, grids and fully-connected graphs support the scaling studies and
//! tests.

use crate::error::TranspileError;

/// An undirected coupling graph over physical qubits.
///
/// # Example
///
/// ```
/// use qufi_transpile::CouplingMap;
///
/// let cm = CouplingMap::ibm_h7();
/// assert_eq!(cm.num_qubits(), 7);
/// assert!(cm.are_coupled(1, 3));
/// assert!(!cm.are_coupled(0, 6));
/// assert_eq!(cm.distance(0, 6), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingMap {
    n: usize,
    /// Sorted unique undirected edges `(min, max)`.
    edges: Vec<(usize, usize)>,
    /// Adjacency lists.
    adj: Vec<Vec<usize>>,
}

impl CouplingMap {
    /// Builds a map over `n` qubits from an edge list (direction and
    /// duplicates are normalized away).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut norm: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(a, b)| {
                assert!(a != b, "self-loop edge ({a},{b})");
                assert!(a < n && b < n, "edge ({a},{b}) out of range for {n} qubits");
                (a.min(b), a.max(b))
            })
            .collect();
        norm.sort_unstable();
        norm.dedup();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &norm {
            adj[a].push(b);
            adj[b].push(a);
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        CouplingMap {
            n,
            edges: norm,
            adj,
        }
    }

    /// The 7-qubit "H" topology of IBM Falcon devices (Casablanca, Jakarta):
    ///
    /// ```text
    /// 0 - 1 - 2
    ///     |
    ///     3
    ///     |
    /// 4 - 5 - 6
    /// ```
    pub fn ibm_h7() -> Self {
        CouplingMap::from_edges(7, &[(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)])
    }

    /// The 5-qubit "T" topology (Lima, Belem, Quito).
    pub fn ibm_t5() -> Self {
        CouplingMap::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)])
    }

    /// A linear chain of `n` qubits.
    pub fn line(n: usize) -> Self {
        let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        CouplingMap::from_edges(n, &edges)
    }

    /// A ring of `n ≥ 3` qubits.
    ///
    /// # Panics
    ///
    /// Panics for `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring needs at least 3 qubits");
        let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        CouplingMap::from_edges(n, &edges)
    }

    /// A `rows × cols` grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        let id = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        CouplingMap::from_edges(rows * cols, &edges)
    }

    /// Number of physical qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The normalized undirected edge list.
    #[inline]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbours of physical qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adj[q]
    }

    /// `true` when `a` and `b` share an edge.
    pub fn are_coupled(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&b).is_ok()
    }

    /// BFS hop distance between two qubits; `usize::MAX` if unreachable.
    pub fn distance(&self, from: usize, to: usize) -> usize {
        if from == to {
            return 0;
        }
        let mut dist = vec![usize::MAX; self.n];
        dist[from] = 0;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    if v == to {
                        return dist[v];
                    }
                    queue.push_back(v);
                }
            }
        }
        usize::MAX
    }

    /// A shortest path from `from` to `to` (inclusive of both endpoints),
    /// or `None` when unreachable.
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev = vec![usize::MAX; self.n];
        let mut seen = vec![false; self.n];
        seen[from] = true;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = u;
                    if v == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while prev[cur] != usize::MAX {
                            cur = prev[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// `true` when every qubit can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        seen[0] = true;
        let mut queue = std::collections::VecDeque::from([0usize]);
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == self.n
    }

    /// Validates the map can host a `width`-qubit circuit.
    ///
    /// # Errors
    ///
    /// [`TranspileError::CircuitTooWide`] or
    /// [`TranspileError::DisconnectedTopology`].
    pub fn check_capacity(&self, width: usize) -> Result<(), TranspileError> {
        if width > self.n {
            return Err(TranspileError::CircuitTooWide {
                needed: width,
                available: self.n,
            });
        }
        if width > 1 && !self.is_connected() {
            return Err(TranspileError::DisconnectedTopology);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h7_structure() {
        let cm = CouplingMap::ibm_h7();
        assert_eq!(cm.edges().len(), 6);
        assert_eq!(cm.neighbors(1), &[0, 2, 3]);
        assert_eq!(cm.neighbors(5), &[3, 4, 6]);
        assert!(cm.is_connected());
    }

    #[test]
    fn distances_on_h7() {
        let cm = CouplingMap::ibm_h7();
        assert_eq!(cm.distance(0, 0), 0);
        assert_eq!(cm.distance(0, 2), 2);
        assert_eq!(cm.distance(2, 4), 4);
        assert_eq!(cm.distance(4, 6), 2);
    }

    #[test]
    fn shortest_path_endpoints_and_adjacency() {
        let cm = CouplingMap::ibm_h7();
        let p = cm.shortest_path(0, 6).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&6));
        assert_eq!(p.len(), 5); // distance 4 -> 5 nodes
        for w in p.windows(2) {
            assert!(cm.are_coupled(w[0], w[1]));
        }
    }

    #[test]
    fn duplicate_and_reversed_edges_normalized() {
        let cm = CouplingMap::from_edges(3, &[(1, 0), (0, 1), (2, 1)]);
        assert_eq!(cm.edges(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn generators_shapes() {
        assert_eq!(CouplingMap::line(5).edges().len(), 4);
        assert_eq!(CouplingMap::ring(5).edges().len(), 5);
        assert_eq!(CouplingMap::grid(2, 3).edges().len(), 7);
        assert!(CouplingMap::grid(3, 3).is_connected());
    }

    #[test]
    fn ring_wraparound_distance() {
        let cm = CouplingMap::ring(6);
        assert_eq!(cm.distance(0, 5), 1);
        assert_eq!(cm.distance(0, 3), 3);
    }

    #[test]
    fn disconnected_detection() {
        let cm = CouplingMap::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!cm.is_connected());
        assert_eq!(cm.distance(0, 3), usize::MAX);
        assert!(cm.shortest_path(0, 3).is_none());
        assert!(matches!(
            cm.check_capacity(3),
            Err(TranspileError::DisconnectedTopology)
        ));
    }

    #[test]
    fn capacity_check() {
        let cm = CouplingMap::line(3);
        assert!(cm.check_capacity(3).is_ok());
        assert!(matches!(
            cm.check_capacity(4),
            Err(TranspileError::CircuitTooWide { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = CouplingMap::from_edges(2, &[(1, 1)]);
    }
}
