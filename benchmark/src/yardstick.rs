//! How fast the host's memory is right now, so that wall time can be
//! stated at one fixed host speed.
//!
//! The benchmark runs on a small VM of a shared machine. Its neighbours'
//! memory traffic slows every workload by 10–35 % for tens of seconds to
//! minutes at a time (arithmetic is unaffected), a whole run sits inside
//! one such stretch, and nothing computed from the run's own timings
//! tells a slow host from a slow program. So between slices of the
//! measured region the benchmark times a fixed piece of memory work of
//! its own — summing a 4 MiB window of a 64 MiB buffer, window after
//! window, so that each is long evicted when its turn comes again — and
//! each slice's wall time is rescaled by how far the samples around it
//! are from [`REFERENCE_NS`]. README, *Host speed*, has the measurements
//! behind the two constants.

/// The buffer, in 8-byte words. Resident from before set-up to the end
/// of the process; `peak_rss_mb` leaves it out.
const WORDS: usize = 8 << 20;
const WINDOW_WORDS: usize = 512 << 10;
pub const MIB: f64 = (WORDS * 8) as f64 / (1024.0 * 1024.0);

/// A usual sample on the reference host. Wall times are stated at this
/// host speed.
pub const REFERENCE_NS: f64 = 470_000.0;

/// All four workloads slow down more than the yardstick does when the
/// host does: over runs of one seed, log wall time against log mean
/// sample has a slope of 1.3–1.6, whichever the workload.
const EXPONENT: f64 = 1.4;

/// Slices on either side of a slice whose samples are averaged with its
/// own: one sample is 0.45 ms of a 10–100 ms slice.
const HALF_WINDOW: usize = 5;

pub struct Yardstick {
    buf: Vec<u64>,
    next: usize,
}

impl Yardstick {
    pub fn new() -> Self {
        // Non-zero, so every page is the process's own and not the
        // kernel's shared zero page.
        Yardstick {
            buf: vec![1; WORDS],
            next: 0,
        }
    }

    /// Time one window, in ns.
    pub fn sample(&mut self) -> u64 {
        let at = self.next;
        self.next = (at + WINDOW_WORDS) % WORDS;
        let t = std::time::Instant::now();
        let sum = self.buf[at..at + WINDOW_WORDS]
            .iter()
            .fold(0u64, |a, &w| a.wrapping_add(w));
        std::hint::black_box(sum);
        t.elapsed().as_nanos() as u64
    }

    /// Mean of `n` samples, in ns.
    pub fn mean_of(&mut self, n: usize) -> f64 {
        (0..n).map(|_| self.sample()).sum::<u64>() as f64 / n.max(1) as f64
    }
}

/// `wall`, taken while yardstick samples averaged `mean_sample_ns`,
/// restated at the reference host speed.
pub fn rescale(wall: f64, mean_sample_ns: f64) -> f64 {
    wall * (REFERENCE_NS / mean_sample_ns.max(1.0)).powf(EXPONENT)
}

/// Total wall ns of `slices` (`(events, wall ns)` each) at the reference
/// host speed: slice `i` is [`rescale`]d by the mean of `samples[i - HALF_WINDOW ..= i + HALF_WINDOW]`
/// (`samples[i]` was taken right after slice `i`).
pub fn at_reference_speed(slices: &[(u64, u64)], samples: &[u64]) -> f64 {
    slices
        .iter()
        .enumerate()
        .map(|(i, &(_, wall_ns))| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(samples.len());
            let around = &samples[lo.min(hi)..hi];
            if around.is_empty() {
                return wall_ns as f64;
            }
            let mean = around.iter().sum::<u64>() as f64 / around.len() as f64;
            rescale(wall_ns as f64, mean)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_follows_the_samples() {
        let slices = vec![(10, 1_000u64); 20];
        let at_ref = vec![REFERENCE_NS as u64; 20];
        let slow = vec![2 * REFERENCE_NS as u64; 20];
        assert!((at_reference_speed(&slices, &at_ref) - 20_000.0).abs() < 1e-6);
        let halved = 20_000.0 / 2f64.powf(EXPONENT);
        assert!((at_reference_speed(&slices, &slow) - halved).abs() < 1e-6);
        // No samples: wall time as measured.
        assert!((at_reference_speed(&slices, &[]) - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn a_slow_stretch_is_charged_only_to_the_slices_near_it() {
        let slices = vec![(10, 1_000u64); 40];
        let mut samples = vec![REFERENCE_NS as u64; 40];
        for s in &mut samples[30..] {
            *s *= 2;
        }
        // Slices 0..25 see only reference samples, 35.. only slow ones.
        let saved_per_slow_slice = 1_000.0 * (1.0 - 0.5f64.powf(EXPONENT));
        let saved = 40_000.0 - at_reference_speed(&slices, &samples);
        assert!(
            saved > 5.0 * saved_per_slow_slice && saved < 15.0 * saved_per_slow_slice,
            "{saved}"
        );
    }

    #[test]
    fn sampling_walks_the_whole_buffer() {
        let mut y = Yardstick::new();
        for _ in 0..(WORDS / WINDOW_WORDS) + 1 {
            assert!(y.sample() > 0);
        }
        assert_eq!(y.next, WINDOW_WORDS);
    }
}
