//! A uniform-grid spatial index over circle centres.
//!
//! Used for O(1) neighbour queries by the overlap prior (which circles can
//! a moved circle interact with?) and by the merge move (which pairs are
//! close enough to merge?).

use pmcmc_imaging::Circle;

/// Spatial hash grid mapping cells to circle indices.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<u32>>,
}

impl SpatialGrid {
    /// Creates a grid over a `width × height` image with the given cell
    /// size (typically `2 · r_max` so overlap partners are always within
    /// one cell ring).
    #[must_use]
    pub fn new(width: u32, height: u32, cell: f64) -> Self {
        let cell = cell.max(1.0);
        let cols = (f64::from(width) / cell).ceil().max(1.0) as usize;
        let rows = (f64::from(height) / cell).ceil().max(1.0) as usize;
        Self {
            cell,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
        }
    }

    fn col_of(&self, x: f64) -> usize {
        ((x / self.cell) as isize).clamp(0, self.cols as isize - 1) as usize
    }

    fn row_of(&self, y: f64) -> usize {
        ((y / self.cell) as isize).clamp(0, self.rows as isize - 1) as usize
    }

    fn cell_of(&self, x: f64, y: f64) -> usize {
        self.row_of(y) * self.cols + self.col_of(x)
    }

    /// Inserts circle `id` at its centre cell.
    pub fn insert(&mut self, id: usize, c: &Circle) {
        let cell = self.cell_of(c.x, c.y);
        self.cells[cell].push(id as u32);
    }

    /// Removes circle `id` (must have been inserted with the same centre).
    ///
    /// # Panics
    /// Panics if the id is not present in the expected cell.
    pub fn remove(&mut self, id: usize, c: &Circle) {
        let cell = self.cell_of(c.x, c.y);
        let v = &mut self.cells[cell];
        let pos = v
            .iter()
            .position(|&e| e as usize == id)
            .expect("circle not present in its cell");
        v.swap_remove(pos);
    }

    /// Re-registers a circle after `id` moved from `old` to `new`.
    pub fn relocate(&mut self, id: usize, old: &Circle, new: &Circle) {
        let a = self.cell_of(old.x, old.y);
        let b = self.cell_of(new.x, new.y);
        if a != b {
            let pos = self.cells[a]
                .iter()
                .position(|&e| e as usize == id)
                .expect("circle not present in its cell");
            self.cells[a].swap_remove(pos);
            self.cells[b].push(id as u32);
        }
    }

    /// Renames an id in place (after a `swap_remove` in the owning vector).
    pub fn rename(&mut self, old_id: usize, new_id: usize, c: &Circle) {
        let cell = self.cell_of(c.x, c.y);
        let v = &mut self.cells[cell];
        let pos = v
            .iter()
            .position(|&e| e as usize == old_id)
            .expect("circle not present in its cell");
        v[pos] = new_id as u32;
    }

    /// Calls `f(id)` for every circle in the cells that the box
    /// `[x − reach, x + reach] × [y − reach, y + reach]` touches, in
    /// row-major cell order: on each axis the cells
    /// `clamp(trunc((x − reach)/cell)) ..= clamp(trunc((x + reach)/cell))`,
    /// at most 3 × 3 for a reach up to one cell width. That is the cell
    /// mapping of [`SpatialGrid::insert`] applied to the box's corners;
    /// it is monotone in the coordinate, so every centre within Euclidean
    /// distance `reach` of `(x, y)` is visited. A visited centre may lie
    /// farther (up to a cell beyond the box), so callers filter precisely.
    pub fn for_neighbors(&self, x: f64, y: f64, reach: f64, mut f: impl FnMut(usize)) {
        let (gx0, gx1) = (self.col_of(x - reach), self.col_of(x + reach));
        let (gy0, gy1) = (self.row_of(y - reach), self.row_of(y + reach));
        for gy in gy0..=gy1 {
            for gx in gx0..=gx1 {
                for &id in &self.cells[gy * self.cols + gx] {
                    f(id as usize);
                }
            }
        }
    }

    /// Number of indexed circles (for integrity checks).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SpatialGrid {
        /// The previous neighbour walk, kept as the oracle of
        /// [`SpatialGrid::for_neighbors`]: a fixed ±(`ceil(reach/cell)` + 1)
        /// ring of cells around the centre's cell.
        fn for_neighbors_ring(&self, x: f64, y: f64, reach: f64, mut f: impl FnMut(usize)) {
            let span = (reach / self.cell).ceil() as isize + 1;
            let cx = self.col_of(x) as isize;
            let cy = self.row_of(y) as isize;
            for gy in (cy - span).max(0)..=(cy + span).min(self.rows as isize - 1) {
                for gx in (cx - span).max(0)..=(cx + span).min(self.cols as isize - 1) {
                    for &id in &self.cells[gy as usize * self.cols + gx as usize] {
                        f(id as usize);
                    }
                }
            }
        }
    }

    fn collect_neighbors(g: &SpatialGrid, x: f64, y: f64, reach: f64) -> Vec<usize> {
        let mut v = Vec::new();
        g.for_neighbors(x, y, reach, |id| v.push(id));
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_query_remove() {
        let mut g = SpatialGrid::new(100, 100, 10.0);
        let c0 = Circle::new(15.0, 15.0, 5.0);
        let c1 = Circle::new(85.0, 85.0, 5.0);
        g.insert(0, &c0);
        g.insert(1, &c1);
        assert_eq!(g.len(), 2);
        let near = collect_neighbors(&g, 16.0, 14.0, 5.0);
        assert!(near.contains(&0));
        assert!(!near.contains(&1));
        g.remove(0, &c0);
        assert_eq!(g.len(), 1);
        assert!(collect_neighbors(&g, 16.0, 14.0, 5.0).is_empty());
    }

    #[test]
    fn neighbors_conservative_superset() {
        let mut g = SpatialGrid::new(200, 200, 16.0);
        let mut circles = Vec::new();
        let mut seed = 1u64;
        for i in 0..100usize {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((seed >> 16) % 200) as f64;
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((seed >> 16) % 200) as f64;
            let c = Circle::new(x, y, 5.0);
            g.insert(i, &c);
            circles.push(c);
        }
        let (qx, qy, reach) = (100.0, 100.0, 30.0);
        let found: std::collections::HashSet<usize> =
            collect_neighbors(&g, qx, qy, reach).into_iter().collect();
        for (i, c) in circles.iter().enumerate() {
            let d = ((c.x - qx).powi(2) + (c.y - qy).powi(2)).sqrt();
            if d <= reach {
                assert!(found.contains(&i), "missed neighbour {i} at distance {d}");
            }
        }
    }

    /// The window is the ring walk minus ids no caller can use, in the
    /// ring walk's order. Circles are in support (`r ≤ r_max`) and the
    /// queries use the callers' reaches: `r + r_max` for lens areas and a
    /// merge distance for close pairs. Every id the window skips must give
    /// a lens area of exactly `+0.0` or fail the distance test.
    #[test]
    fn window_drops_only_out_of_reach_ids_of_the_ring_walk() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..40 {
            let (w, h) = (64 + (next() * 400.0) as u32, 64 + (next() * 400.0) as u32);
            let r_max = 6.0 + next() * 10.0;
            let merge_dist = r_max * (0.5 + next());
            let mut g = SpatialGrid::new(w, h, 2.0 * r_max);
            let circles: Vec<Circle> = (0..200)
                .map(|_| {
                    let (x, y) = (next() * f64::from(w), next() * f64::from(h));
                    Circle::new(x, y, r_max * (0.3 + 0.7 * next()))
                })
                .collect();
            for (i, c) in circles.iter().enumerate() {
                g.insert(i, c);
            }
            for q in 0..300 {
                // Queries inside the image and a little past its edges.
                let (x, y) = (next() * 1.2 - 0.1, next() * 1.2 - 0.1);
                let c = Circle::new(
                    x * f64::from(w),
                    y * f64::from(h),
                    r_max * (0.3 + 0.7 * next()),
                );
                let lens_unused = |id: usize| c.intersection_area(&circles[id]).to_bits() == 0;
                let pair_unused = |id: usize| c.centre_distance(&circles[id]) >= merge_dist;
                for (reach, unused) in [
                    (c.r + r_max, &lens_unused as &dyn Fn(usize) -> bool),
                    (merge_dist, &pair_unused),
                ] {
                    let (mut ring, mut window) = (Vec::new(), Vec::new());
                    g.for_neighbors_ring(c.x, c.y, reach, |id| ring.push(id));
                    g.for_neighbors(c.x, c.y, reach, |id| window.push(id));
                    let mut rest = ring.iter();
                    for id in &window {
                        assert!(
                            rest.any(|r| r == id),
                            "trial {trial} query {q}: window is not an ordered subset"
                        );
                    }
                    for &id in ring.iter().filter(|id| !window.contains(id)) {
                        assert!(unused(id), "trial {trial} query {q}: dropped id {id}");
                    }
                }
            }
        }
    }

    #[test]
    fn relocate_moves_between_cells() {
        let mut g = SpatialGrid::new(100, 100, 10.0);
        let old = Circle::new(5.0, 5.0, 3.0);
        let new = Circle::new(95.0, 95.0, 3.0);
        g.insert(0, &old);
        g.relocate(0, &old, &new);
        assert!(collect_neighbors(&g, 95.0, 95.0, 3.0).contains(&0));
        assert!(collect_neighbors(&g, 5.0, 5.0, 3.0).is_empty());
    }

    #[test]
    fn relocate_within_cell_is_noop() {
        let mut g = SpatialGrid::new(100, 100, 10.0);
        let old = Circle::new(5.0, 5.0, 3.0);
        let new = Circle::new(6.0, 6.0, 3.0);
        g.insert(0, &old);
        g.relocate(0, &old, &new);
        assert_eq!(g.len(), 1);
        assert!(collect_neighbors(&g, 6.0, 6.0, 2.0).contains(&0));
    }

    #[test]
    fn rename_keeps_position() {
        let mut g = SpatialGrid::new(50, 50, 10.0);
        let c = Circle::new(25.0, 25.0, 4.0);
        g.insert(7, &c);
        g.rename(7, 3, &c);
        assert_eq!(collect_neighbors(&g, 25.0, 25.0, 2.0), vec![3]);
    }

    #[test]
    fn centres_outside_bounds_are_clamped() {
        let mut g = SpatialGrid::new(50, 50, 10.0);
        let c = Circle::new(-3.0, 60.0, 4.0);
        g.insert(0, &c);
        // Query near the clamp target finds it.
        assert!(collect_neighbors(&g, 0.0, 49.0, 15.0).contains(&0));
        g.remove(0, &c);
        assert!(g.is_empty());
    }
}
