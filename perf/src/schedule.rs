//! The open-loop arrival schedule: a pure function of the seed.
//!
//! The program under test sees only the requests this module generates;
//! the seed never reaches it.

/// SplitMix64: tiny, seedable, and good enough to draw gaps,
/// destinations and amounts from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64(); // decorrelate neighbouring seeds
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; the modulo bias is below 2⁻⁴⁰ for every
    /// bound used here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One scheduled transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When the transfer is due, in nanoseconds after the schedule's
    /// origin. Latency is timed from here, not from the actual write.
    pub due_ns: u64,
    pub dest: u32,
    pub amount: u32,
}

/// Largest amount a generated transfer moves.
pub const MAX_AMOUNT: u32 = 4;

/// Poisson arrivals at `rate_per_s` for `duration_ns`, paying uniformly
/// random accounts other than `own_account` (the payer).
pub fn open_loop(
    seed: u64,
    stream: u64,
    rate_per_s: f64,
    duration_ns: u64,
    accounts: u32,
    own_account: u32,
) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0 && accounts >= 2);
    let mut rng = Rng::new(seed, stream);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut arrivals = Vec::with_capacity((duration_ns as f64 / mean_gap_ns * 1.05) as usize + 16);
    let mut at = 0.0f64;
    loop {
        at += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if at >= duration_ns as f64 {
            return arrivals;
        }
        arrivals.push(draw(&mut rng, at as u64, accounts, own_account));
    }
}

/// Dense arrivals: `burst` transfers due at the same instant, bursts
/// spaced uniformly between half and one and a half times the period
/// that gives `rate_per_s` on average. A burst as large as the
/// replica's batch fills it by size, whatever the machine's speed.
pub fn bursts(
    seed: u64,
    stream: u64,
    rate_per_s: f64,
    burst: usize,
    duration_ns: u64,
    accounts: u32,
    own_account: u32,
) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0 && burst > 0 && accounts >= 2);
    let mut rng = Rng::new(seed, stream);
    let period_ns = burst as f64 * 1e9 / rate_per_s;
    let mut arrivals = Vec::new();
    // The first burst lands anywhere in the first period, so the two
    // generators do not fire in step.
    let mut at = rng.next_f64() * period_ns;
    while at < duration_ns as f64 {
        for _ in 0..burst {
            arrivals.push(draw(&mut rng, at as u64, accounts, own_account));
        }
        at += (0.5 + rng.next_f64()) * period_ns;
    }
    arrivals
}

/// `count` transfers with the same destination and amount law, all due
/// at once — the closed-loop diagnostic submits them as slots free up.
pub fn closed_loop(
    seed: u64,
    stream: u64,
    count: usize,
    accounts: u32,
    own_account: u32,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, stream);
    (0..count)
        .map(|_| draw(&mut rng, 0, accounts, own_account))
        .collect()
}

fn draw(rng: &mut Rng, due_ns: u64, accounts: u32, own_account: u32) -> Arrival {
    let mut dest = rng.below(u64::from(accounts)) as u32;
    if dest == own_account {
        dest = (dest + 1) % accounts;
    }
    Arrival {
        due_ns,
        dest,
        amount: 1 + rng.below(u64::from(MAX_AMOUNT)) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECOND: u64 = 1_000_000_000;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = open_loop(7, 0, 500.0, 10 * SECOND, 100_000, 0);
        let b = open_loop(7, 0, 500.0, 10 * SECOND, 100_000, 0);
        assert_eq!(a, b);
        assert_ne!(a, open_loop(8, 0, 500.0, 10 * SECOND, 100_000, 0));
        // The two generator threads of one run draw different streams.
        assert_ne!(a, open_loop(7, 1, 500.0, 10 * SECOND, 100_000, 0));
    }

    #[test]
    fn mean_rate_is_within_one_percent_of_nominal() {
        for (seed, rate) in [(1, 500.0), (2, 4_000.0), (3, 12_000.0)] {
            let arrivals = open_loop(seed, 0, rate, 60 * SECOND, 100_000, 1);
            let measured = arrivals.len() as f64 / 60.0;
            assert!(
                (measured / rate - 1.0).abs() < 0.01,
                "seed {seed}: {measured} vs nominal {rate}"
            );
        }
    }

    #[test]
    fn bursts_keep_the_rate_and_come_in_full_batches() {
        let a = bursts(7, 0, 2_000.0, 128, 60 * SECOND, 100_000, 0);
        assert_eq!(a, bursts(7, 0, 2_000.0, 128, 60 * SECOND, 100_000, 0));
        assert_ne!(a, bursts(8, 0, 2_000.0, 128, 60 * SECOND, 100_000, 0));
        assert!((a.len() as f64 / 60.0 / 2_000.0 - 1.0).abs() < 0.03);
        assert_eq!(a.len() % 128, 0);
        for burst in a.chunks(128) {
            assert!(burst
                .iter()
                .all(|t| t.due_ns == burst[0].due_ns && t.dest != 0));
        }
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn arrivals_are_ordered_in_range_and_never_pay_the_payer() {
        let arrivals = open_loop(3, 1, 2_000.0, 5 * SECOND, 16, 5);
        assert!(arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(arrivals.last().unwrap().due_ns < 5 * SECOND);
        for a in &arrivals {
            assert!(a.dest < 16 && a.dest != 5);
            assert!((1..=MAX_AMOUNT).contains(&a.amount));
        }
        let closed = closed_loop(3, 1, 1_000, 16, 5);
        assert_eq!(closed.len(), 1_000);
        assert!(closed.iter().all(|a| a.due_ns == 0 && a.dest != 5));
    }
}
