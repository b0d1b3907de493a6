//! `enode-sanitize`: machine checks for the unsafe parallel surface.
//!
//! [`crate::parallel`]'s disjoint helpers hand raw pointers to worker
//! threads on the promise that every lane writes non-overlapping strides.
//! This module turns that promise — previously enforced only by `SAFETY`
//! comments and asserts — into two machine checks:
//!
//! 1. **Shadow-memory write tracking** (behind the `sanitize` cargo
//!    feature): every parallel region registers a shadow [`Region`] for
//!    each buffer it splits, and every lane *claims* the byte range it is
//!    about to write. The tracker fails fast — naming the kernel, the
//!    buffer, and both offending lane indices — on any overlapping claim,
//!    double-claim, or out-of-region claim, and verifies on region exit
//!    that the claims tiled the whole buffer (catching short, off-by-one
//!    strides that leave a gap). Per-thread scratch checkouts
//!    ([`crate::parallel::with_scratch_f32`]) register their address
//!    ranges the same way, so an arena bug that ever handed two live
//!    checkouts aliasing memory is caught at the checkout. With the
//!    feature disabled every entry point is an inlined no-op, so default
//!    builds pay nothing.
//!
//! 2. **Schedule-permutation determinism audit** ([`audit`], always
//!    compiled): re-executes a kernel under the matrix of pool widths
//!    (1/2/4/7), permuted lane orders
//!    ([`crate::parallel::with_schedule`]), and adversarial grain sizes
//!    ([`crate::parallel::with_grain_override`]), asserting the
//!    bit-identical determinism contract of DESIGN.md §8. A reduction
//!    that combines partials in lane-completion order instead of item
//!    order produces different bits under a permuted schedule and is
//!    reported with the exact failing configuration.
//!
//! Kernels label their parallel regions with [`kernel_scope`] so shadow
//! reports say `conv2d::backward_params`, not just a buffer name.
//!
//! The static complement of these runtime checks — stride divisibility,
//! grain degeneracy, scratch sizing, and reduction-order lints over the
//! splits derived from each kernel's registered access summary
//! ([`crate::access`]) — lives in `enode_analysis::parallelcheck` (codes
//! `E040`–`E042`, `W040`–`W044`).

use std::ops::Range;

// ---------------------------------------------------------------------------
// Kernel labels
// ---------------------------------------------------------------------------

#[cfg(feature = "sanitize")]
thread_local! {
    static KERNEL: std::cell::Cell<&'static str> = const { std::cell::Cell::new("<unlabeled>") };
}

/// RAII guard restoring the previous kernel label on drop.
pub struct KernelScope {
    #[cfg(feature = "sanitize")]
    prev: &'static str,
}

/// Names the kernel for every shadow region entered while the returned
/// guard is live (e.g. `"conv2d::forward"`). A no-op without the
/// `sanitize` feature.
#[inline]
pub fn kernel_scope(label: &'static str) -> KernelScope {
    #[cfg(feature = "sanitize")]
    {
        KernelScope {
            prev: KERNEL.replace(label),
        }
    }
    #[cfg(not(feature = "sanitize"))]
    {
        let _ = label;
        KernelScope {}
    }
}

#[cfg(feature = "sanitize")]
impl Drop for KernelScope {
    fn drop(&mut self) {
        KERNEL.set(self.prev);
    }
}

/// The kernel label currently in scope on this thread.
#[cfg(feature = "sanitize")]
pub fn current_kernel() -> &'static str {
    KERNEL.get()
}

// ---------------------------------------------------------------------------
// Shadow memory (real implementation)
// ---------------------------------------------------------------------------

#[cfg(feature = "sanitize")]
mod shadow {
    use super::Range;
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Locks ignoring poisoning: the sanitizer reports by panicking while
    /// holding this lock, and later regions must still be able to
    /// register/deregister.
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    struct RegionState {
        kernel: &'static str,
        buffer: &'static str,
        len: usize,
        claims: Vec<(usize, Range<usize>)>,
    }

    #[derive(Default)]
    struct ShadowState {
        next_id: u64,
        regions: HashMap<u64, RegionState>,
        scratch: Vec<(u64, usize, usize)>,
    }

    fn state() -> &'static Mutex<ShadowState> {
        static STATE: OnceLock<Mutex<ShadowState>> = OnceLock::new();
        STATE.get_or_init(|| Mutex::new(ShadowState::default()))
    }

    /// A live shadow region over one buffer of one parallel region.
    /// Deregisters on drop; on a non-panicking exit it additionally
    /// verifies that the recorded claims tiled `0..len` exactly.
    pub struct Region {
        id: u64,
    }

    /// Registers a shadow region of `len` units (bytes for buffers, items
    /// for index spaces) under the current [`super::kernel_scope`] label.
    pub fn region_enter(buffer: &'static str, len: usize) -> Region {
        let mut s = lock(state());
        s.next_id += 1;
        let id = s.next_id;
        s.regions.insert(
            id,
            RegionState {
                kernel: super::current_kernel(),
                buffer,
                len,
                claims: Vec::new(),
            },
        );
        Region { id }
    }

    /// Records lane `lane`'s intent to write `span` of the region.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-region span, a double-claim of an identical
    /// span, or any overlap with another lane's claim — naming the
    /// kernel, the buffer, and both lane indices.
    pub fn claim(region: &Region, lane: usize, span: Range<usize>) {
        if span.is_empty() {
            return;
        }
        let mut s = lock(state());
        let r = s
            .regions
            .get_mut(&region.id)
            .expect("sanitize: claim on a closed shadow region");
        assert!(
            span.end <= r.len,
            "sanitize: out-of-region write in kernel `{}` (buffer `{}`): \
             lane {} claimed {}..{} but the region is {} units long",
            r.kernel,
            r.buffer,
            lane,
            span.start,
            span.end,
            r.len
        );
        for (other_lane, other) in &r.claims {
            if span.start < other.end && other.start < span.end {
                if *other == span {
                    panic!(
                        "sanitize: double-claim in kernel `{}` (buffer `{}`): \
                         lane {} re-claimed {}..{} already claimed by lane {}",
                        r.kernel, r.buffer, lane, span.start, span.end, other_lane
                    );
                }
                panic!(
                    "sanitize: overlapping write in kernel `{}` (buffer `{}`): \
                     lane {} claimed {}..{}, which overlaps lane {}'s claim {}..{}",
                    r.kernel,
                    r.buffer,
                    lane,
                    span.start,
                    span.end,
                    other_lane,
                    other.start,
                    other.end
                );
            }
        }
        r.claims.push((lane, span));
    }

    impl Drop for Region {
        fn drop(&mut self) {
            let removed = lock(state()).regions.remove(&self.id);
            // During unwinding only deregister — the shadow map must not
            // leak claims past a panicking lane, and a second panic here
            // would abort the process.
            if std::thread::panicking() {
                return;
            }
            let Some(r) = removed else { return };
            let mut claims = r.claims;
            claims.sort_by_key(|(_, s)| s.start);
            let mut cursor = 0usize;
            for (lane, span) in &claims {
                assert!(
                    span.start == cursor,
                    "sanitize: coverage gap in kernel `{}` (buffer `{}`): \
                     units {}..{} were never claimed (next claim is lane {}'s {}..{})",
                    r.kernel,
                    r.buffer,
                    cursor,
                    span.start,
                    lane,
                    span.start,
                    span.end
                );
                cursor = span.end;
            }
            assert!(
                cursor == r.len,
                "sanitize: coverage gap in kernel `{}` (buffer `{}`): \
                 trailing units {}..{} were never claimed",
                r.kernel,
                r.buffer,
                cursor,
                r.len
            );
        }
    }

    /// A live scratch-arena checkout registration. Deregisters on drop,
    /// including during unwinding.
    pub struct ScratchGuard {
        id: u64,
    }

    /// Registers a scratch checkout spanning `addr..addr + len_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the range aliases any other live checkout (the arena
    /// contract is that every live checkout is a distinct buffer).
    pub fn scratch_guard(addr: usize, len_bytes: usize) -> ScratchGuard {
        let mut s = lock(state());
        s.next_id += 1;
        let id = s.next_id;
        let end = addr + len_bytes;
        for &(_, start, other_end) in &s.scratch {
            assert!(
                !(addr < other_end && start < end),
                "sanitize: scratch arenas alias in kernel `{}`: \
                 checkout {addr:#x}..{end:#x} overlaps live checkout {start:#x}..{other_end:#x}",
                super::current_kernel()
            );
        }
        s.scratch.push((id, addr, end));
        ScratchGuard { id }
    }

    impl Drop for ScratchGuard {
        fn drop(&mut self) {
            let mut s = lock(state());
            s.scratch.retain(|&(id, _, _)| id != self.id);
        }
    }

    /// Number of live shadow regions (0 outside any parallel region; used
    /// by the panic-safety tests to prove claims are not leaked).
    pub fn active_regions() -> usize {
        lock(state()).regions.len()
    }

    /// Number of live scratch checkouts.
    pub fn active_scratch() -> usize {
        lock(state()).scratch.len()
    }
}

#[cfg(feature = "sanitize")]
pub use shadow::{
    active_regions, active_scratch, claim, region_enter, scratch_guard, Region, ScratchGuard,
};

// ---------------------------------------------------------------------------
// Shadow memory (disabled: inlined no-ops)
// ---------------------------------------------------------------------------

/// Disabled shadow region — a zero-sized no-op.
#[cfg(not(feature = "sanitize"))]
pub struct Region {}

/// Disabled scratch registration — a zero-sized no-op.
#[cfg(not(feature = "sanitize"))]
pub struct ScratchGuard {}

#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn region_enter(_buffer: &'static str, _len: usize) -> Region {
    Region {}
}

#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn claim(_region: &Region, _lane: usize, _span: Range<usize>) {}

#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn scratch_guard(_addr: usize, _len_bytes: usize) -> ScratchGuard {
    ScratchGuard {}
}

#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn active_regions() -> usize {
    0
}

#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn active_scratch() -> usize {
    0
}

// ---------------------------------------------------------------------------
// Schedule-permutation determinism audit
// ---------------------------------------------------------------------------

/// The determinism-audit harness: replays a kernel across pool widths,
/// permuted lane schedules, and adversarial grain overrides, and compares
/// raw `f32` bit patterns against the serial baseline.
pub mod audit {
    use crate::parallel::{self, Schedule};
    use std::fmt;

    /// Pool widths every audited kernel runs under: serial, the even
    /// widths the determinism suites always used, and a prime width so
    /// chunk boundaries land mid-structure in every decomposition.
    pub const AUDIT_THREADS: [usize; 4] = [1, 2, 4, 7];

    /// One cell of the audit matrix.
    #[derive(Clone, Copy, Debug)]
    pub struct AuditCase {
        /// Pool width for the run.
        pub threads: usize,
        /// `Some` replays every broadcast serially in the permuted lane
        /// order; `None` executes on the live pool.
        pub schedule: Option<Schedule>,
        /// `Some` overrides every kernel's grain (1 forces maximal
        /// splitting; `usize::MAX` forces a single serial chunk).
        pub grain: Option<usize>,
    }

    impl fmt::Display for AuditCase {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "threads={}", self.threads)?;
            match self.schedule {
                Some(s) => write!(f, " schedule={s:?}")?,
                None => write!(f, " schedule=live")?,
            }
            match self.grain {
                Some(usize::MAX) => write!(f, " grain=serial"),
                Some(g) => write!(f, " grain={g}"),
                None => write!(f, " grain=kernel"),
            }
        }
    }

    /// The standard audit matrix (see DESIGN.md §9): every pool width on
    /// the live schedule, reversed and rotated replays, and the two
    /// adversarial grains.
    pub fn standard_cases() -> Vec<AuditCase> {
        let mut cases = Vec::new();
        for &t in &AUDIT_THREADS {
            cases.push(AuditCase {
                threads: t,
                schedule: None,
                grain: None,
            });
        }
        for &t in &[2usize, 4, 7] {
            cases.push(AuditCase {
                threads: t,
                schedule: Some(Schedule::Reverse),
                grain: None,
            });
        }
        cases.push(AuditCase {
            threads: 4,
            schedule: Some(Schedule::Rotate(1)),
            grain: None,
        });
        cases.push(AuditCase {
            threads: 7,
            schedule: Some(Schedule::Rotate(3)),
            grain: None,
        });
        for &t in &[2usize, 7] {
            cases.push(AuditCase {
                threads: t,
                schedule: None,
                grain: Some(1),
            });
        }
        cases.push(AuditCase {
            threads: 4,
            schedule: Some(Schedule::Reverse),
            grain: Some(1),
        });
        cases.push(AuditCase {
            threads: 4,
            schedule: None,
            grain: Some(usize::MAX),
        });
        cases
    }

    /// Runs `f` once under the case's pool width, schedule, and grain.
    pub fn run_case<R>(case: AuditCase, f: impl FnOnce() -> R) -> R {
        parallel::with_threads(case.threads, move || {
            let body = move || match case.grain {
                Some(g) => parallel::with_grain_override(g, f),
                None => f(),
            };
            match case.schedule {
                Some(s) => parallel::with_schedule(s, body),
                None => body(),
            }
        })
    }

    /// Replays `f` (which returns the kernel's raw output buffers) across
    /// [`standard_cases`] and compares every buffer bit-for-bit against
    /// the 1-thread baseline.
    ///
    /// # Errors
    ///
    /// Returns the failing case, buffer, and first differing element when
    /// any run is not bit-identical to the baseline.
    pub fn check_determinism<F>(label: &str, f: F) -> Result<(), String>
    where
        F: Fn() -> Vec<Vec<f32>>,
    {
        let bits = |bufs: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            bufs.into_iter()
                .map(|b| b.into_iter().map(f32::to_bits).collect())
                .collect()
        };
        let baseline = bits(parallel::with_threads(1, &f));
        for case in standard_cases() {
            let got = bits(run_case(case, &f));
            if got == baseline {
                continue;
            }
            if got.len() != baseline.len() {
                return Err(format!(
                    "determinism audit failed for `{label}` under {case}: \
                     {} output buffers vs {} in the serial baseline",
                    got.len(),
                    baseline.len()
                ));
            }
            for (bi, (g, b)) in got.iter().zip(&baseline).enumerate() {
                if g == b {
                    continue;
                }
                let at = g
                    .iter()
                    .zip(b)
                    .position(|(x, y)| x != y)
                    .unwrap_or(g.len().min(b.len()));
                return Err(format!(
                    "determinism audit failed for `{label}` under {case}: \
                     buffer {bi} first differs at element {at} \
                     ({:?} vs serial {:?})",
                    g.get(at).copied().map(f32::from_bits),
                    b.get(at).copied().map(f32::from_bits),
                ));
            }
            unreachable!("buffers compared unequal but no element differs");
        }
        Ok(())
    }

    /// [`check_determinism`], panicking with the report on failure.
    ///
    /// # Panics
    ///
    /// Panics when any audit case deviates from the serial baseline.
    pub fn assert_deterministic<F>(label: &str, f: F)
    where
        F: Fn() -> Vec<Vec<f32>>,
    {
        if let Err(e) = check_determinism(label, f) {
            panic!("{e}");
        }
    }
}
