//! Output checks, computed apart from the program: the benchmark's own
//! direct sum, exact conservation, drift tolerances, and bit-for-bit
//! equality between paths the program promises agree.  No check compares
//! against recorded output.

use nbody::Body;
use pgas::RankStats;

/// SplitMix64: the benchmark's own seeded stream (the bodies the checks
/// sample), so its choices depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `k` distinct indices out of `0..n`, sorted, chosen by `seed`.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut rng = SplitMix::new(seed);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.below(n - i);
        pool.swap(i, j);
    }
    let mut picked = pool[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// The mean relative acceleration error this benchmark accepts for an
/// opening angle θ.  Monopole Barnes-Hut errors grow roughly as θ²; at the
/// paper's θ = 1 a mean error of a few per cent is expected, and 0.08 is
/// the bound the repository's own physics tests state for θ = 1.
pub fn accel_bound(theta: f64) -> f64 {
    0.08 * (theta * theta).max(0.25)
}

/// Largest accepted change of total momentum over a run, as a share of the
/// total scalar momentum `Σ m|v|`.  Tree forces are not pairwise symmetric,
/// so momentum drifts by the force error times the step count; the King
/// workload measures 5e-4 to 7e-4 (seeds 1–4).
pub const MOMENTUM_TOL: f64 = 5e-3;

/// Largest accepted relative change of total energy over a run, beyond
/// the sampling error of its estimate (see [`drift`]).  The King workload's
/// 16 symplectic-Euler steps drift 4e-4 to 7e-4 (exact, seeds 1–4).
pub const ENERGY_TOL: f64 = 5e-3;

/// Standard errors of sampling noise the energy check allows on top of
/// [`ENERGY_TOL`].
pub const ENERGY_SIGMAS: f64 = 4.0;

/// Positions, masses of a body set in structure-of-arrays form for the
/// reference sum.
struct Sources {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    m: Vec<f64>,
}

impl Sources {
    /// Positions `pos − vel·rewind` of every body.
    fn new(bodies: &[Body], rewind: f64) -> Sources {
        Sources {
            x: bodies.iter().map(|b| b.pos.x - b.vel.x * rewind).collect(),
            y: bodies.iter().map(|b| b.pos.y - b.vel.y * rewind).collect(),
            z: bodies.iter().map(|b| b.pos.z - b.vel.z * rewind).collect(),
            m: bodies.iter().map(|b| b.mass).collect(),
        }
    }

    /// Softened acceleration and potential at source `i` from all others
    /// (G = 1).
    fn at(&self, i: usize, eps: f64) -> ([f64; 3], f64) {
        let (px, py, pz) = (self.x[i], self.y[i], self.z[i]);
        let eps2 = eps * eps;
        let (mut ax, mut ay, mut az, mut phi) = (0.0, 0.0, 0.0, 0.0);
        for j in 0..self.m.len() {
            if j == i {
                continue;
            }
            let (dx, dy, dz) = (self.x[j] - px, self.y[j] - py, self.z[j] - pz);
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let inv_r = 1.0 / r2.sqrt();
            let s = self.m[j] * inv_r * inv_r * inv_r;
            ax += dx * s;
            ay += dy * s;
            az += dz * s;
            phi -= self.m[j] * inv_r;
        }
        ([ax, ay, az], phi)
    }
}

/// Mean relative error of the bodies' `acc` against the direct sum at the
/// positions the forces were computed at.  The advance phase moves every
/// body by `vel·dt` after its force evaluation, so those positions are
/// `pos − vel·dt` (as the repository's physics tests rewind them).
pub fn accel_error(bodies: &[Body], dt: f64, eps: f64, sample: &[usize]) -> f64 {
    let sources = Sources::new(bodies, dt);
    let mut sum = 0.0;
    for &i in sample {
        let (a, _) = sources.at(i, eps);
        let got = bodies[i].acc;
        let (ex, ey, ez) = (got.x - a[0], got.y - a[1], got.z - a[2]);
        let norm = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
        sum += (ex * ex + ey * ey + ez * ez).sqrt() / norm;
    }
    sum / sample.len().max(1) as f64
}

/// Checks a measured acceleration error against [`accel_bound`].
pub fn check_accel(err: f64, theta: f64) -> Result<(), String> {
    let bound = accel_bound(theta);
    if err.is_finite() && err < bound {
        Ok(())
    } else {
        Err(format!(
            "mean relative acceleration error {err:.4e} is not below {bound} (θ = {theta})"
        ))
    }
}

/// Body count, id set and every body's mass are conserved exactly (the
/// final bodies are in id order, as every backend returns them).
pub fn conservation(initial: &[Body], fin: &[Body]) -> Result<(), String> {
    if fin.len() != initial.len() {
        return Err(format!("{} bodies in, {} out", initial.len(), fin.len()));
    }
    for (i, (a, b)) in initial.iter().zip(fin).enumerate() {
        if b.id as usize != i {
            return Err(format!("slot {i} holds body id {}", b.id));
        }
        if a.mass.to_bits() != b.mass.to_bits() {
            return Err(format!("body {i} mass changed from {} to {}", a.mass, b.mass));
        }
    }
    Ok(())
}

/// Change of total momentum and total energy over a run.
#[derive(Debug, Clone, Copy)]
pub struct Drift {
    /// `|ΔP| / Σ m|v|` of the initial state.
    pub momentum: f64,
    /// `|ΔE| / |E|` of the initial state.
    pub energy: f64,
    /// Standard error of `energy` from sampling the potential (0 when every
    /// body is sampled).
    pub energy_se: f64,
}

/// Measures [`Drift`] between two states.  Kinetic energy is summed
/// exactly.  The change of potential energy is estimated from the change of
/// the direct-sum potential of the same `sample` bodies in both states,
/// scaled to the whole set, with its standard error (finite-population
/// corrected, so a full sample is exact).
pub fn drift(initial: &[Body], fin: &[Body], eps: f64, sample: &[usize]) -> Drift {
    let momentum = |bodies: &[Body]| {
        bodies.iter().fold([0.0f64; 3], |p, b| {
            [p[0] + b.mass * b.vel.x, p[1] + b.mass * b.vel.y, p[2] + b.mass * b.vel.z]
        })
    };
    let scale: f64 = initial.iter().map(|b| b.mass * b.vel.norm()).sum();
    let (p0, p1) = (momentum(initial), momentum(fin));
    let dp = ((p1[0] - p0[0]).powi(2) + (p1[1] - p0[1]).powi(2) + (p1[2] - p0[2]).powi(2)).sqrt();

    let kinetic =
        |bodies: &[Body]| bodies.iter().map(|b| 0.5 * b.mass * b.vel.norm_sq()).sum::<f64>();
    let (s0, s1) = (Sources::new(initial, 0.0), Sources::new(fin, 0.0));
    let (n, k) = (initial.len() as f64, sample.len().max(1) as f64);
    let mut w0 = 0.0;
    let deltas: Vec<f64> = sample
        .iter()
        .map(|&i| {
            let (phi0, phi1) = (s0.at(i, eps).1, s1.at(i, eps).1);
            w0 += initial[i].mass * phi0;
            initial[i].mass * (phi1 - phi0)
        })
        .collect();
    // W = ½ Σ m φ, estimated as n/k times the sample sum.
    let scale_w = 0.5 * n / k;
    let dw = scale_w * deltas.iter().sum::<f64>();
    let mean = deltas.iter().sum::<f64>() / k;
    let var = deltas.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (k - 1.0).max(1.0);
    let dw_se = scale_w * (k * var * (1.0 - k / n).max(0.0)).sqrt();
    let e0 = kinetic(initial) + scale_w * w0;
    let de = kinetic(fin) - kinetic(initial) + dw;
    Drift {
        momentum: dp / scale.max(f64::MIN_POSITIVE),
        energy: (de / e0).abs(),
        energy_se: (dw_se / e0).abs(),
    }
}

/// Checks a [`Drift`] against [`MOMENTUM_TOL`], and against [`ENERGY_TOL`]
/// plus [`ENERGY_SIGMAS`] standard errors of the energy estimate.
pub fn check_drift(d: &Drift) -> Result<(), String> {
    if !(d.momentum.is_finite() && d.momentum < MOMENTUM_TOL) {
        return Err(format!("momentum drift {:.3e} is not below {MOMENTUM_TOL}", d.momentum));
    }
    let bound = ENERGY_TOL + ENERGY_SIGMAS * d.energy_se;
    if !(d.energy.is_finite() && d.energy < bound) {
        return Err(format!("energy drift {:.3e} is not below {bound:.3e}", d.energy));
    }
    Ok(())
}

/// Bit-for-bit equality of two body sets, field by field.
pub fn bits_equal(a: &[Body], b: &[Body]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} bodies vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let fields = |b: &Body| {
            [
                b.mass, b.phi, b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z, b.acc.x,
                b.acc.y, b.acc.z,
            ]
            .map(f64::to_bits)
        };
        if x.id != y.id || x.cost != y.cost || fields(x) != fields(y) {
            return Err(format!("body id {} differs in at least one bit", x.id));
        }
    }
    Ok(())
}

/// The integer cost counters of a run, by name.
fn counters(s: &RankStats) -> [(&'static str, u64); 11] {
    [
        ("remote_gets", s.remote_gets),
        ("remote_puts", s.remote_puts),
        ("local_accesses", s.local_accesses),
        ("messages", s.messages),
        ("bytes_in", s.bytes_in),
        ("bytes_out", s.bytes_out),
        ("lock_acquires", s.lock_acquires),
        ("vlist_requests", s.vlist_requests),
        ("interactions", s.interactions),
        ("tree_ops", s.tree_ops),
        ("macs", s.macs),
    ]
}

/// Exact equality of every integer cost counter of two runs.
pub fn counters_equal(a: &RankStats, b: &RankStats) -> Result<(), String> {
    let diffs: Vec<String> = counters(a)
        .iter()
        .zip(counters(b))
        .filter(|(x, y)| x.1 != y.1)
        .map(|(x, y)| format!("{} {} vs {}", x.0, x.1, y.1))
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_distinct_sorted_and_seeded() {
        let s = sample_indices(1000, 50, 7);
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s, sample_indices(1000, 50, 7));
        assert_ne!(s, sample_indices(1000, 50, 8));
        assert_eq!(sample_indices(5, 50, 1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn the_reference_sum_matches_a_two_body_system() {
        let bodies = vec![
            Body::at_rest(0, nbody::Vec3::new(-1.0, 0.0, 0.0), 2.0),
            Body::at_rest(1, nbody::Vec3::new(1.0, 0.0, 0.0), 2.0),
        ];
        let (a, phi) = Sources::new(&bodies, 0.0).at(0, 0.0);
        // G m / d² = 2 / 4 towards the other body; φ = −G m / d = −1.
        assert!((a[0] - 0.5).abs() < 1e-15 && a[1] == 0.0 && a[2] == 0.0);
        assert!((phi + 1.0).abs() < 1e-15);
    }
}
