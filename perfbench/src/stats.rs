//! Order statistics, the memory probe and the run context.

use std::time::Instant;

use outerspace_json::Json;

/// Nearest-rank percentile (`q` in 0..=1) of `xs`; 0 for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank) of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Times `f` once, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds a fixed, repository-independent integer loop takes: a probe of
/// the host's current speed, recorded beside every result so runs on
/// different or busy hosts can be told apart.
pub fn machine_probe_s() -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                let mut x: u64 = 0x2545_f491_4f6c_dd1d;
                let mut acc: u64 = 0;
                for _ in 0..4_000_000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    acc = acc.wrapping_add(x);
                }
                std::hint::black_box(acc)
            })
            .1
        })
        .collect();
    median(&runs)
}

/// Seconds one [`Reference`] round takes on a quiet host (a 2-vCPU Intel
/// Xeon KVM guest), rounded down: the speed every scaled host time is
/// quoted at.
pub const REFERENCE_ROUND_S: f64 = 0.003;

/// A fixed, repository-independent load: xorshift-addressed reads and
/// writes over a 1 MB table, integer work and scattered cache traffic like
/// the simulator's. The rounds over an 8 MB table spread half as much
/// again, and three times as much on two threads at once.
struct ProbeTable(Vec<u64>);

impl ProbeTable {
    const SLOTS: usize = 1 << 17;

    fn new() -> Self {
        Self((0..Self::SLOTS as u64).collect())
    }

    fn round(&mut self) {
        let mask = Self::SLOTS - 1;
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut acc: u64 = 0;
        for _ in 0..1_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            acc = acc.wrapping_add(self.0[i]);
            self.0[i.wrapping_mul(7) & mask] = acc;
        }
        std::hint::black_box(acc);
    }
}

/// The host's current speed, probed around timed work.
///
/// The shared host's speed drifts, in bursts and in phases that outlast a
/// run. Timing a fixed load right before and right after a stretch of
/// work samples the same drift the work saw; [`Scaled`] divides it out.
/// The load runs on one thread, also around work on several: a round on
/// two threads at once spread more between runs than the work it was to
/// scale.
pub struct Reference {
    table: ProbeTable,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Rounds timed on each side of the work; their median is kept, so a
    /// round that the work's own aftermath or a stray interrupt slowed
    /// does not count.
    const ROUNDS: usize = 3;

    /// Allocates and touches the load's table.
    pub fn new() -> Self {
        Self {
            table: ProbeTable::new(),
        }
    }

    /// Wall seconds of one round of the load.
    fn round(&mut self) -> f64 {
        timed(|| self.table.round()).1
    }

    fn probe(&mut self) -> f64 {
        let rounds: Vec<f64> = (0..Self::ROUNDS).map(|_| self.round()).collect();
        median(&rounds)
    }

    /// Runs `f` between two probes; returns its value, its wall seconds
    /// and the mean of the two probes' median round seconds.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.probe();
        let (v, wall) = timed(f);
        let after = self.probe();
        (v, wall, (before + after) / 2.0)
    }
}

/// Host measurements scaled to the reference host's speed.
#[derive(Debug, Default, Clone)]
pub struct Scaled {
    raw: Vec<f64>,
    rounds: Vec<f64>,
}

impl Scaled {
    /// Adds a measurement and the [`Reference`] round time taken around it.
    pub fn push(&mut self, x: f64, round_s: f64) {
        self.raw.push(x);
        self.rounds.push(round_s);
    }

    /// The measurements' mean at the reference speed: their sum over the
    /// sum of their rounds, times [`REFERENCE_ROUND_S`]. A ratio of sums,
    /// so a slow stretch weighs on both sides alike.
    pub fn mean(&self) -> f64 {
        self.raw.iter().sum::<f64>() / self.raw.len().max(1) as f64 * self.to_reference()
    }

    /// The factor that takes a host time measured over these rounds to
    /// the reference speed: [`REFERENCE_ROUND_S`] over their mean round.
    pub fn to_reference(&self) -> f64 {
        let rounds: f64 = self.rounds.iter().sum();
        if rounds > 0.0 {
            REFERENCE_ROUND_S * self.rounds.len() as f64 / rounds
        } else {
            0.0
        }
    }

    /// The measurements as taken.
    pub fn raw(&self) -> &[f64] {
        &self.raw
    }

    /// The round times taken around them.
    pub fn rounds(&self) -> &[f64] {
        &self.rounds
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True before the first measurement.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

/// The run context recorded with every result.
pub fn context(workload: &str, seed: u64, seconds: f64, trace: bool, threads: usize) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.to_string())),
        ("seed".into(), Json::UInt(seed)),
        ("seconds".into(), Json::Float(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("available_parallelism".into(), Json::UInt(threads as u64)),
        (
            "git_rev".into(),
            Json::Str(outerspace_bench::runner::git_rev()),
        ),
        ("machine_probe_s".into(), Json::Float(machine_probe_s())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.9), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn scaled_mean_divides_out_the_reference() {
        let mut s = Scaled::default();
        s.push(0.010, REFERENCE_ROUND_S);
        s.push(0.040, 2.0 * REFERENCE_ROUND_S);
        // 0.05 s of work over rounds summing to 3 reference rounds.
        assert!((s.mean() - 0.05 / 3.0).abs() < 1e-15);
        assert_eq!(Scaled::default().mean(), 0.0);
        assert_eq!(s.len(), 2);
    }
}
