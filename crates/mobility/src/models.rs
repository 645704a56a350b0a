//! Mobility models: random waypoint and scripted trajectories.
//!
//! Random waypoint is driven by a deterministic [`SimRng`] stream, so a
//! trajectory is a pure function of `(model parameters, seed)`; it stands
//! in for the movement traces the paper's setting implies but never had
//! (DESIGN.md §2). A scripted path draws nothing: a test fixture.

use simnet::SimRng;

use crate::grid::Pos;

/// A mobility model advancing a position through time.
pub trait Mobility {
    /// Current position.
    fn position(&self) -> Pos;
    /// Advance by `dt` seconds.
    fn step(&mut self, dt: f64, rng: &mut SimRng);
}

/// Random waypoint: pick a uniform destination, travel at a uniform speed,
/// pause, repeat. The classic model for pedestrian/vehicular simulation.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    pos: Pos,
    target: Pos,
    speed: f64,
    pause_left: f64,
    width: f64,
    height: f64,
    speed_range: (f64, f64),
    pause: f64,
}

impl RandomWaypoint {
    /// Create a walker inside `width × height` metres with speeds drawn
    /// uniformly from `speed_range` (m/s) and a fixed pause (s) at each
    /// waypoint. Starts at a uniform random position.
    pub fn new(
        width: f64,
        height: f64,
        speed_range: (f64, f64),
        pause: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(width > 0.0 && height > 0.0);
        assert!(speed_range.0 > 0.0 && speed_range.1 >= speed_range.0);
        let pos = Pos {
            x: rng.range_f64(0.0, width),
            y: rng.range_f64(0.0, height),
        };
        let mut w = RandomWaypoint {
            pos,
            target: pos,
            speed: speed_range.0,
            pause_left: 0.0,
            width,
            height,
            speed_range,
            pause,
        };
        w.pick_target(rng);
        w
    }

    fn pick_target(&mut self, rng: &mut SimRng) {
        self.target = Pos {
            x: rng.range_f64(0.0, self.width),
            y: rng.range_f64(0.0, self.height),
        };
        self.speed = if self.speed_range.1 > self.speed_range.0 {
            rng.range_f64(self.speed_range.0, self.speed_range.1)
        } else {
            self.speed_range.0
        };
    }
}

impl Mobility for RandomWaypoint {
    fn position(&self) -> Pos {
        self.pos
    }

    fn step(&mut self, mut dt: f64, rng: &mut SimRng) {
        while dt > 0.0 {
            if self.pause_left > 0.0 {
                let wait = self.pause_left.min(dt);
                self.pause_left -= wait;
                dt -= wait;
                continue;
            }
            let dist = self.pos.dist(self.target);
            if dist < 1e-9 {
                self.pause_left = self.pause;
                self.pick_target(rng);
                if self.pause == 0.0 && self.pause_left == 0.0 && dt < 1e-9 {
                    break;
                }
                continue;
            }
            let travel = (self.speed * dt).min(dist);
            let frac = travel / dist;
            self.pos = Pos {
                x: self.pos.x + (self.target.x - self.pos.x) * frac,
                y: self.pos.y + (self.target.y - self.pos.y) * frac,
            };
            dt -= travel / self.speed;
            if travel >= dist - 1e-9 {
                self.pause_left = self.pause;
                self.pick_target(rng);
            }
        }
    }
}

/// A scripted trajectory: linear interpolation between `(time, position)`
/// keyframes. Useful for reproducible unit tests and demos.
#[derive(Debug, Clone)]
pub struct Scripted {
    keyframes: Vec<(f64, Pos)>,
    now: f64,
}

impl Scripted {
    /// Create from keyframes sorted by time (asserted).
    pub fn new(keyframes: Vec<(f64, Pos)>) -> Self {
        assert!(!keyframes.is_empty(), "need at least one keyframe");
        assert!(
            keyframes.windows(2).all(|w| w[0].0 <= w[1].0),
            "keyframes must be time-sorted"
        );
        Scripted {
            keyframes,
            now: 0.0,
        }
    }

    fn at(&self, t: f64) -> Pos {
        let kfs = &self.keyframes;
        if t <= kfs[0].0 {
            return kfs[0].1;
        }
        for w in kfs.windows(2) {
            let (t0, p0) = w[0];
            let (t1, p1) = w[1];
            if t <= t1 {
                if t1 - t0 < 1e-12 {
                    return p1;
                }
                let f = (t - t0) / (t1 - t0);
                return Pos {
                    x: p0.x + (p1.x - p0.x) * f,
                    y: p0.y + (p1.y - p0.y) * f,
                };
            }
        }
        kfs.last()
            .expect("Scripted paths carry at least one keyframe")
            .1
    }
}

impl Mobility for Scripted {
    fn position(&self) -> Pos {
        self.at(self.now)
    }

    fn step(&mut self, dt: f64, _rng: &mut SimRng) {
        self.now += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed(42)
    }

    #[test]
    fn waypoint_stays_in_bounds() {
        let mut r = rng();
        let mut m = RandomWaypoint::new(100.0, 50.0, (1.0, 5.0), 0.5, &mut r);
        for _ in 0..1000 {
            m.step(0.7, &mut r);
            let p = m.position();
            assert!((0.0..=100.0).contains(&p.x), "x={}", p.x);
            assert!((0.0..=50.0).contains(&p.y), "y={}", p.y);
        }
    }

    #[test]
    fn waypoint_actually_moves() {
        let mut r = rng();
        let mut m = RandomWaypoint::new(1000.0, 1000.0, (10.0, 10.0), 0.0, &mut r);
        let start = m.position();
        m.step(5.0, &mut r);
        let moved = start.dist(m.position());
        assert!(moved > 1.0, "moved {moved}");
        // Speed cap respected: ≤ 10 m/s × 5 s.
        assert!(moved <= 50.0 + 1e-6, "moved {moved}");
    }

    #[test]
    fn waypoint_is_deterministic() {
        let mut r1 = rng();
        let mut r2 = rng();
        let mut a = RandomWaypoint::new(100.0, 100.0, (1.0, 3.0), 0.2, &mut r1);
        let mut b = RandomWaypoint::new(100.0, 100.0, (1.0, 3.0), 0.2, &mut r2);
        for _ in 0..100 {
            a.step(0.3, &mut r1);
            b.step(0.3, &mut r2);
            assert_eq!(a.position(), b.position());
        }
    }

    #[test]
    fn scripted_interpolates() {
        let mut m = Scripted::new(vec![
            (0.0, Pos { x: 0.0, y: 0.0 }),
            (10.0, Pos { x: 100.0, y: 0.0 }),
        ]);
        let mut r = rng();
        m.step(5.0, &mut r);
        let p = m.position();
        assert!((p.x - 50.0).abs() < 1e-9);
        m.step(100.0, &mut r);
        assert!((m.position().x - 100.0).abs() < 1e-9, "holds last keyframe");
    }
}
