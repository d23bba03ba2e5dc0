//! The host's speed, sampled beside every timed window.
//!
//! This host drifts between states a factor of two apart, in phases of
//! a second or so (windows of one run read 5.5–12.4 M steps/s), and a
//! ten-second run catches a different mix of phases each time: medians
//! of raw wall time spread 19–35 % between identical runs. A fixed
//! reference kernel run between the windows slows down with the
//! simulator — it is made of the same stuff, dependent random reads and
//! writes over a working set that lives in the shared last-level cache —
//! so dividing each window by the reference readings on either side of
//! it leaves 4–8 %. (A compute-only loop, or an arena that spills to
//! DRAM, tracks the simulator less than half as well.)
//!
//! A normalised time is "what this would have taken with the host at
//! its nominal speed"; [`NOMINAL_OPS_PER_S`] only fixes the scale, so
//! normalised numbers stay close to raw ones on a quiet host.

use std::time::{Duration, Instant};

/// Reference speed that counts as 1.0: about what this host's quiet
/// state reads. Changing it rescales every normalised number.
pub const NOMINAL_OPS_PER_S: f64 = 180e6;
/// 2 MiB of `u64`: past the private caches, inside the shared one.
const ARENA_WORDS: usize = 1 << 18;
/// Dependent read-modify-writes per sample (about 3 ms).
const SAMPLE_OPS: u32 = 500_000;
/// A reading older than this no longer describes the host.
const STALE: Duration = Duration::from_millis(5);

pub struct Host {
    arena: Vec<u64>,
    last: f64,
    last_at: Instant,
    /// Every reading taken, for the report.
    pub readings: Vec<f64>,
}

impl Host {
    pub fn new() -> Host {
        let mut h = Host {
            arena: vec![1; ARENA_WORDS],
            last: 1.0,
            last_at: Instant::now(),
            readings: Vec::new(),
        };
        h.sample(); // touch the arena
        h.readings.clear();
        h
    }

    /// Runs the reference kernel once; returns the host's speed as a
    /// multiple of nominal.
    pub fn sample(&mut self) -> f64 {
        let mask = ARENA_WORDS - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        let t0 = Instant::now();
        for _ in 0..SAMPLE_OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            acc = acc.wrapping_add(self.arena[i]);
            self.arena[i] = acc ^ x;
        }
        std::hint::black_box(acc);
        let speed = f64::from(SAMPLE_OPS) / t0.elapsed().as_secs_f64() / NOMINAL_OPS_PER_S;
        self.last = speed;
        self.last_at = Instant::now();
        self.readings.push(speed);
        speed
    }

    /// Times `f` between two readings. Returns its wall time and that
    /// time normalised to nominal host speed, in seconds.
    pub fn timed(&mut self, f: impl FnOnce()) -> (Duration, f64) {
        if self.last_at.elapsed() > STALE {
            self.sample();
        }
        let before = self.last;
        let t0 = Instant::now();
        f();
        let wall = t0.elapsed();
        let after = self.sample();
        (wall, wall.as_secs_f64() * (before + after) / 2.0)
    }
}

/// Readings taken by a thread of its own, for work that cannot be
/// bracketed because it runs for seconds on all CPUs (a campaign
/// pass): one reading every [`Sampler::EVERY`], about 3 % of one CPU,
/// the same on every run. The mean of the readings normalises the
/// pass.
pub struct Sampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

impl Sampler {
    const EVERY: Duration = Duration::from_millis(100);

    pub fn start() -> Sampler {
        use std::sync::atomic::Ordering::Relaxed;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut host = Host::new();
            // The flag publishes nothing but itself.
            while !flag.load(Relaxed) {
                host.sample();
                std::thread::sleep(Sampler::EVERY);
            }
            host.readings
        });
        Sampler { stop, thread }
    }

    /// Stops the thread; returns the mean reading.
    pub fn stop(self) -> f64 {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let readings = self.thread.join().expect("the sampler does not panic");
        readings.iter().sum::<f64>() / readings.len().max(1) as f64
    }
}
