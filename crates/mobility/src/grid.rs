//! 2D cell grid: AP placement and position → AP mapping.
//!
//! APs sit at the centres of square cells in a `cols × rows` grid. A mobile
//! host's attachment point is the AP of the cell it stands in — the
//! standard idealised-coverage model. The 4-connected neighbour query
//! picks a walker's next cell in ping-pong handoff traces.

/// A position on the plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pos {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Pos {
    /// Euclidean distance to `other`.
    pub fn dist(self, other: Pos) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Index of an AP cell within a [`CellGrid`] (row-major).
pub type ApIndex = usize;

/// A rectangular grid of square cells, one AP per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellGrid {
    cols: usize,
    rows: usize,
    cell_size: f64,
}

impl CellGrid {
    /// Create a grid of `cols × rows` cells with the given edge length (m).
    pub fn new(cols: usize, rows: usize, cell_size: f64) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have cells");
        assert!(cell_size > 0.0, "cells must have positive size");
        CellGrid {
            cols,
            rows,
            cell_size,
        }
    }

    /// Number of cells (= APs).
    pub fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the grid has no cells (never, by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grid width in metres.
    pub fn width(&self) -> f64 {
        self.cols as f64 * self.cell_size
    }

    /// Grid height in metres.
    pub fn height(&self) -> f64 {
        self.rows as f64 * self.cell_size
    }

    /// Cell containing `pos` (positions outside are clamped to the border).
    pub fn ap_at(&self, pos: Pos) -> ApIndex {
        let cx = ((pos.x / self.cell_size) as isize).clamp(0, self.cols as isize - 1) as usize;
        let cy = ((pos.y / self.cell_size) as isize).clamp(0, self.rows as isize - 1) as usize;
        cy * self.cols + cx
    }

    /// Centre of a cell.
    pub fn centre(&self, ap: ApIndex) -> Pos {
        let cx = ap % self.cols;
        let cy = ap / self.cols;
        Pos {
            x: (cx as f64 + 0.5) * self.cell_size,
            y: (cy as f64 + 0.5) * self.cell_size,
        }
    }

    /// 4-connected neighbours of a cell (N/S/E/W), in index order.
    pub fn neighbours4(&self, ap: ApIndex) -> Vec<ApIndex> {
        let cx = (ap % self.cols) as isize;
        let cy = (ap / self.cols) as isize;
        let mut out = Vec::with_capacity(4);
        for (dx, dy) in [(0isize, -1isize), (-1, 0), (1, 0), (0, 1)] {
            let nx = cx + dx;
            let ny = cy + dy;
            if nx >= 0 && ny >= 0 && (nx as usize) < self.cols && (ny as usize) < self.rows {
                out.push(ny as usize * self.cols + nx as usize);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_round_trip() {
        let g = CellGrid::new(4, 3, 100.0);
        assert_eq!(g.len(), 12);
        for ap in 0..g.len() {
            assert_eq!(g.ap_at(g.centre(ap)), ap);
        }
    }

    #[test]
    fn out_of_bounds_clamped() {
        let g = CellGrid::new(2, 2, 50.0);
        assert_eq!(g.ap_at(Pos { x: -10.0, y: -10.0 }), 0);
        assert_eq!(
            g.ap_at(Pos {
                x: 1000.0,
                y: 1000.0
            }),
            3
        );
    }

    #[test]
    fn neighbours4_topology() {
        let g = CellGrid::new(3, 3, 10.0);
        // Centre cell 4 has all four neighbours.
        assert_eq!(g.neighbours4(4), vec![1, 3, 5, 7]);
        // Corner cell 0 has two.
        assert_eq!(g.neighbours4(0), vec![1, 3]);
        // Edge cell 1 has three.
        assert_eq!(g.neighbours4(1), vec![0, 2, 4]);
    }

    #[test]
    fn cell_boundaries() {
        let g = CellGrid::new(2, 1, 100.0);
        assert_eq!(g.ap_at(Pos { x: 99.9, y: 50.0 }), 0);
        assert_eq!(g.ap_at(Pos { x: 100.1, y: 50.0 }), 1);
    }

    #[test]
    fn distances() {
        let a = Pos { x: 0.0, y: 0.0 };
        let b = Pos { x: 3.0, y: 4.0 };
        assert!((a.dist(b) - 5.0).abs() < 1e-12);
    }
}
