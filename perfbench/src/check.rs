//! Correctness gate, work fingerprint and environment guard.
//!
//! The timed loop keeps only a [`Digest`] per request: its result count
//! and an order-independent checksum of its `(rect_id, query_id)` pairs.
//! After the window the same digests are recomputed with an independent
//! reference and compared with [`gate`].

use std::sync::atomic::{AtomicU64, Ordering};

use librts::QueryHandler;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Result count plus wrapping sum of hashed pairs. Addition commutes,
/// so the digest is independent of the order results arrive in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Number of result pairs.
    pub count: u64,
    /// Wrapping sum of [`pair_hash`] over the pairs.
    pub sum: u64,
}

/// Hash of one `(rect_id, query_id)` result pair.
#[inline]
pub fn pair_hash(rect_id: u32, query_id: u32) -> u64 {
    splitmix64(((rect_id as u64) << 32) | query_id as u64)
}

impl Digest {
    /// Adds one result pair.
    pub fn add(&mut self, rect_id: u32, query_id: u32) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(pair_hash(rect_id, query_id));
    }

    /// The digest of both result sets together.
    pub fn merge(self, other: Digest) -> Digest {
        Digest {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
        }
    }
}

const SLOTS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct Slot {
    count: AtomicU64,
    sum: AtomicU64,
}

/// Query handler that folds results into a [`Digest`]. One cache-line
/// slot per executor participant keeps the shader callbacks from
/// contending on a shared counter.
#[derive(Default)]
pub struct DigestHandler {
    slots: [Slot; SLOTS],
}

impl DigestHandler {
    /// The digest of everything handled so far.
    pub fn digest(&self) -> Digest {
        self.slots.iter().fold(Digest::default(), |d, s| {
            d.merge(Digest {
                count: s.count.load(Ordering::Relaxed),
                sum: s.sum.load(Ordering::Relaxed),
            })
        })
    }
}

impl QueryHandler for DigestHandler {
    #[inline]
    fn handle(&self, rect_id: u32, query_id: u32) {
        let slot = &self.slots[exec::worker_index().map_or(0, |w| w + 1) % SLOTS];
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum
            .fetch_add(pair_hash(rect_id, query_id), Ordering::Relaxed);
    }
}

/// FNV-1a over the bits of the generated inputs and requests.
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl InputHash {
    /// Mixes in one 64-bit word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Mixes in a slice of coordinates.
    pub fn floats(&mut self, xs: impl IntoIterator<Item = f32>) {
        for x in xs {
            self.word(x.to_bits() as u64);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Compares recorded digests with reference digests, request by
/// request. `None` in `recorded` is a request that returned an error;
/// it is counted as failed, not checked. Returns how many requests were
/// checked, or a description of the first mismatch.
pub fn gate(recorded: &[(usize, Option<Digest>)], reference: &[Digest]) -> Result<usize, String> {
    assert_eq!(
        recorded.len(),
        reference.len(),
        "one reference per checked request"
    );
    let mut checked = 0;
    for (&(req, got), want) in recorded.iter().zip(reference) {
        let Some(got) = got else { continue };
        if got != *want {
            return Err(format!(
                "request {req}: got {} results (checksum {:016x}), reference has {} (checksum {:016x})",
                got.count, got.sum, want.count, want.sum
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Test hook: flips the checksum of the first recorded result, so a
/// working gate must reject the run.
pub fn corrupt_first(recorded: &mut [(usize, Option<Digest>)]) {
    if let Some((_, Some(d))) = recorded.iter_mut().find(|r| r.1.is_some()) {
        d.sum ^= 1;
    }
}

/// Environment variables that change what the program does. The
/// benchmark measures the default program, so it refuses to run under
/// any of them. (`LIBRTS_THREADS` is harmless: every client runs under an
/// explicit `exec::with_threads` override.)
pub const FORBIDDEN_ENV: [&str; 4] = [
    "LIBRTS_FAULTS",
    "LIBRTS_KERNEL",
    "LIBRTS_TRACE_CAPACITY",
    "LIBRTS_SLOW_QUERY_MS",
];

/// Refuses to run when a forbidden variable is set.
pub fn env_guard() -> Result<(), String> {
    match FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(v) => Err(format!(
            "{v} is set; the benchmark measures the default program only"
        )),
        None => Ok(()),
    }
}

/// Counters that must not move: a fault fired, or admission control
/// left Normal serving mode.
fn is_guarded(name: &str) -> bool {
    name.starts_with("chaos.")
        || name == "admission.shed_reads"
        || name == "admission.rejected_writes"
}

/// Fails when a guarded counter moved between `before` and `after`, or
/// the process is not in Normal serving mode.
pub fn mode_guard(before: &obs::Snapshot, after: &obs::Snapshot) -> Result<(), String> {
    let delta = after.delta_since(before);
    for m in delta.entries() {
        if let obs::snapshot::Value::Counter(v) = m.value {
            if v > 0 && is_guarded(&m.name) {
                return Err(format!(
                    "{} moved by {v}: the run left the default program",
                    m.name
                ));
            }
        }
    }
    let mode = obs::health::serving_mode();
    if mode != obs::health::ServingMode::Normal {
        return Err(format!("serving mode is {mode:?}, not Normal"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_independent() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        for (r, q) in [(1, 2), (3, 4), (5, 6)] {
            a.add(r, q);
        }
        for (r, q) in [(5, 6), (1, 2), (3, 4)] {
            b.add(r, q);
        }
        assert_eq!(a, b);
        b.add(1, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn mode_guard_fails_when_a_fault_counter_moves() {
        let before = obs::snapshot();
        assert!(mode_guard(&before, &obs::snapshot()).is_ok());
        obs::counter("chaos.perfbench_guard_test").inc();
        let err = mode_guard(&before, &obs::snapshot()).unwrap_err();
        assert!(err.contains("chaos.perfbench_guard_test"), "{err}");
    }

    #[test]
    fn gate_skips_failed_requests_and_reports_mismatches() {
        let mut d = Digest::default();
        d.add(7, 0);
        let reference = [d, d];
        assert_eq!(gate(&[(0, Some(d)), (1, None)], &reference), Ok(1));
        let mut bad = d;
        bad.sum ^= 1;
        assert!(gate(&[(0, Some(d)), (1, Some(bad))], &reference).is_err());
    }
}
