//! Intra-socket mesh with static shortest-path routing.
//!
//! Table II: "2×4 Mesh, SSSP routing, 1 cycle per hop". On a 2D mesh
//! every static shortest-path route between two routers traverses
//! exactly their Manhattan distance in links, so the timed path needs
//! only that hop count: it is tabulated once at construction, and a
//! route's latency is one table load.

/// A `width × height` 2D mesh of routers, nodes numbered row-major,
/// at 1 cycle per hop.
///
/// # Example
///
/// ```
/// use dve_noc::mesh::Mesh;
///
/// let m = Mesh::new(4, 2);
/// assert_eq!(m.nodes(), 8);
/// assert_eq!(m.hops(0, 3), 3);
/// assert_eq!(m.latency_cycles(0, 7), 4); // (0,0) -> (3,1)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    nodes: usize,
    /// `hops[src * nodes + dst]`: Manhattan distance in links.
    hops: Vec<u32>,
}

impl Mesh {
    /// Builds a mesh and tabulates its route lengths.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Mesh {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        let nodes = width * height;
        let hops = (0..nodes)
            .flat_map(|src| {
                (0..nodes).map(move |dst| {
                    let dx = (src % width).abs_diff(dst % width);
                    let dy = (src / width).abs_diff(dst / width);
                    (dx + dy) as u32
                })
            })
            .collect();
        Mesh { nodes, hops }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Hop count of the shortest route from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn hops(&self, src: usize, dst: usize) -> u32 {
        assert!(src < self.nodes && dst < self.nodes, "node out of range");
        self.hops[src * self.nodes + dst]
    }

    /// Route latency in cycles (1 cycle per hop).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn latency_cycles(&self, src: usize, dst: usize) -> u64 {
        u64::from(self.hops(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_match_manhattan_distance() {
        for w in 1..=6usize {
            for h in 1..=6usize {
                let m = Mesh::new(w, h);
                assert_eq!(m.nodes(), w * h);
                for s in 0..w * h {
                    for d in 0..w * h {
                        let (sx, sy) = (s % w, s / w);
                        let (dx, dy) = (d % w, d / w);
                        let manhattan = (sx as i32 - dx as i32).unsigned_abs()
                            + (sy as i32 - dy as i32).unsigned_abs();
                        assert_eq!(m.hops(s, d), manhattan, "{w}x{h}: {s}->{d}");
                        assert_eq!(m.latency_cycles(s, d), u64::from(manhattan));
                    }
                }
            }
        }
    }

    #[test]
    fn single_node_mesh() {
        let m = Mesh::new(1, 1);
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.latency_cycles(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node() {
        Mesh::new(2, 2).hops(0, 9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        Mesh::new(0, 2);
    }
}
