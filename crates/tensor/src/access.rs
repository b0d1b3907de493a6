//! Affine access summaries: the symbolic interface between the parallel
//! kernels and the static prover in `enode-analysis`.
//!
//! Every `parallel_for_disjoint*` call site in this crate registers a
//! [`KernelAccessSummary`] (constructed by a `*_access` function placed
//! beside the kernel) describing, **per item**, which elements of each
//! named region the kernel reads and writes, as a strided interval
//! expression: item `t` of an access `(offset, stride_per_item,
//! elem_stride, count)` touches
//!
//! ```text
//! { offset + t·stride_per_item + j·elem_stride : 0 ≤ j < count }
//! ```
//!
//! The parallel layer always assigns each lane a *contiguous* item range
//! (the balanced [`item_chunk`] decomposition, for every pool width,
//! grain, and schedule), so per-lane read/write sets are unions of
//! per-item sets over disjoint item ranges. That reduction is what lets
//! the prover in `enode-analysis::affine` discharge disjointness and
//! coverage obligations once, symbolically, for the *entire* (thread
//! count × grain × lane index) envelope instead of one executed schedule
//! at a time — the static counterpart of the runtime shadow-memory
//! sanitizer.
//!
//! Scratch checkouts are summarized too ([`ScratchDecl`]): the prover
//! verifies they never alias live outputs.

/// Whether an access reads or writes its region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// The kernel only loads from the region during the parallel phase.
    Read,
    /// The kernel stores to the region (lane-exclusive by contract).
    Write,
}

/// One per-item strided access to a named region.
///
/// Item `t` touches `{ offset + t·stride_per_item + j·elem_stride :
/// 0 ≤ j < count }` (element indices into the region). A broadcast
/// access shared by every item uses `stride_per_item == 0`.
#[derive(Clone, Copy, Debug)]
pub struct StridedAccess {
    /// Name of the [`RegionDecl`] this access touches.
    pub region: &'static str,
    /// Read or write.
    pub kind: AccessKind,
    /// Element index of item 0's first element.
    pub offset: usize,
    /// Elements between consecutive items' first elements.
    pub stride_per_item: usize,
    /// Elements between consecutive touched elements within one item.
    pub elem_stride: usize,
    /// Elements touched per item.
    pub count: usize,
}

impl StridedAccess {
    /// The common dense decomposition: item `t` owns the contiguous
    /// stride `[t·stride, (t+1)·stride)`.
    pub fn contiguous(region: &'static str, kind: AccessKind, stride: usize) -> Self {
        StridedAccess {
            region,
            kind,
            offset: 0,
            stride_per_item: stride,
            elem_stride: 1,
            count: stride,
        }
    }

    /// A read of the same `count` elements by every item (shared
    /// read-only input, e.g. resident weights).
    pub fn broadcast_read(region: &'static str, count: usize) -> Self {
        StridedAccess {
            region,
            kind: AccessKind::Read,
            offset: 0,
            stride_per_item: 0,
            elem_stride: 1,
            count,
        }
    }
}

/// A named buffer the kernel touches during its parallel phase.
#[derive(Clone, Copy, Debug)]
pub struct RegionDecl {
    /// Region name, unique within the summary.
    pub name: &'static str,
    /// Element count.
    pub elems: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
    /// `true` for buffers that outlive the kernel (outputs); `false`
    /// for read-only inputs and per-call partial buffers.
    pub live_output: bool,
    /// Elements deliberately left unwritten (e.g. padding). A nonzero
    /// declaration downgrades an exact-coverage failure to the
    /// intentional-slack warning, and must match the uncovered count.
    pub slack_elems: usize,
}

impl RegionDecl {
    /// A live output region expected to be covered exactly.
    pub fn output(name: &'static str, elems: usize) -> Self {
        RegionDecl {
            name,
            elems,
            elem_bytes: 4,
            live_output: true,
            slack_elems: 0,
        }
    }

    /// A read-only input region (no coverage obligation).
    pub fn input(name: &'static str, elems: usize) -> Self {
        RegionDecl {
            name,
            elems,
            elem_bytes: 4,
            live_output: false,
            slack_elems: 0,
        }
    }

    /// A per-call partial buffer: written by the split, reduced serially
    /// after the join, not live past the kernel. Coverage obligations
    /// still apply (a gap would leave stale partials in the fold).
    pub fn partials(name: &'static str, elems: usize) -> Self {
        RegionDecl {
            name,
            elems,
            elem_bytes: 4,
            live_output: false,
            slack_elems: 0,
        }
    }
}

/// Where a scratch checkout's backing memory comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScratchSource {
    /// `with_scratch_f32`: a thread-local arena, disjoint from every
    /// kernel region by construction.
    ThreadLocalArena,
    /// Scratch carved out of a declared region at an element offset —
    /// legal only if the carved range never intersects lane writes.
    SubsliceOf {
        /// The region the scratch is carved from.
        region: &'static str,
        /// Element offset of the carved range within that region.
        offset_elems: usize,
    },
}

/// One scratch arena the kernel checks out for its parallel phase.
#[derive(Clone, Copy, Debug)]
pub struct ScratchDecl {
    /// Scratch name (for diagnostics).
    pub name: &'static str,
    /// f32 element count per checkout.
    pub elems: usize,
    /// Backing memory.
    pub source: ScratchSource,
}

impl ScratchDecl {
    /// A `with_scratch_f32` checkout.
    pub fn arena(name: &'static str, elems: usize) -> Self {
        ScratchDecl {
            name,
            elems,
            source: ScratchSource::ThreadLocalArena,
        }
    }
}

/// The affine access summary of one registered kernel split: the shape
/// of its item decomposition plus every per-item region access.
#[derive(Clone, Debug)]
pub struct KernelAccessSummary {
    /// Kernel label, the subject of every diagnostic raised on this
    /// kernel (e.g. `"conv2d.forward (batch split)"`).
    pub kernel: &'static str,
    /// Number of independent items the kernel splits.
    pub items: usize,
    /// Grain passed to the parallel layer (minimum items per chunk).
    pub grain: usize,
    /// Approximate scalar operations per item (drives the roofline).
    pub flops_per_item: usize,
    /// Every region the parallel phase touches.
    pub regions: Vec<RegionDecl>,
    /// Every per-item access.
    pub accesses: Vec<StridedAccess>,
    /// Every scratch checkout.
    pub scratch: Vec<ScratchDecl>,
}

impl KernelAccessSummary {
    /// A coarse one-slot-per-item fan-out (batched solves, bench jobs):
    /// each item writes its own `elem_bytes`-sized result slot.
    pub fn coarse_fanout(
        kernel: &'static str,
        items: usize,
        flops_per_item: usize,
        elem_bytes: usize,
    ) -> Self {
        KernelAccessSummary {
            kernel,
            items,
            grain: 1,
            flops_per_item,
            regions: vec![RegionDecl {
                name: "data",
                elems: items,
                elem_bytes,
                live_output: true,
                slack_elems: 0,
            }],
            accesses: vec![StridedAccess {
                region: "data",
                kind: AccessKind::Write,
                offset: 0,
                stride_per_item: 1,
                elem_stride: 1,
                count: 1,
            }],
            scratch: Vec::new(),
        }
    }

    /// The region declaration named `name`, if any.
    pub fn region(&self, name: &str) -> Option<&RegionDecl> {
        self.regions.iter().find(|r| r.name == name)
    }
}

/// The balanced contiguous item range lane `lane` of `ways` receives
/// over `items` items — the exact decomposition every
/// `parallel_for_disjoint*` broadcast uses (earlier lanes absorb the
/// remainder). Exposed so the prover's brute-force soundness checks can
/// materialize real lane sets without running a kernel.
pub fn item_chunk(items: usize, ways: usize, lane: usize) -> (usize, usize) {
    assert!(ways >= 1 && lane < ways, "lane {lane} of {ways} ways");
    let base = items / ways;
    let rem = items % ways;
    let start = lane * base + lane.min(rem);
    let len = base + usize::from(lane < rem);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel;

    #[test]
    fn item_chunks_partition_for_every_way_count() {
        for items in 0..40usize {
            for ways in 1..12usize {
                let mut next = 0;
                for lane in 0..ways {
                    let (lo, hi) = item_chunk(items, ways, lane);
                    assert_eq!(lo, next, "items={items} ways={ways} lane={lane}");
                    assert!(hi >= lo);
                    // Balanced: lane sizes differ by at most one.
                    assert!(hi - lo <= items / ways + 1);
                    next = hi;
                }
                assert_eq!(next, items, "chunks must cover [0, items)");
            }
        }
    }

    #[test]
    fn item_chunk_matches_the_live_parallel_decomposition() {
        // Drive a real disjoint split and record which item range each
        // chunk received; it must be exactly `item_chunk`'s answer.
        for &threads in &[1usize, 2, 4, 7] {
            parallel::with_threads(threads, || {
                let items = 11usize;
                let mut buf = vec![0.0f32; items];
                let observed = std::sync::Mutex::new(Vec::new());
                parallel::parallel_for_disjoint(&mut buf, items, 1, |range, _| {
                    observed.lock().unwrap().push((range.start, range.end));
                });
                let mut got = observed.into_inner().unwrap();
                got.sort_unstable();
                let ways = got.len();
                let want: Vec<_> = (0..ways).map(|l| item_chunk(items, ways, l)).collect();
                assert_eq!(got, want, "threads={threads}");
            });
        }
    }

    #[test]
    fn coarse_fanout_is_one_slot_per_item() {
        let s = KernelAccessSummary::coarse_fanout("k", 5, 1 << 20, 64);
        assert_eq!(s.items, 5);
        assert_eq!(s.regions[0].elems, 5);
        assert_eq!(s.accesses[0].count, 1);
        assert_eq!(s.accesses[0].stride_per_item, 1);
        assert!(s.region("data").is_some());
        assert!(s.region("nope").is_none());
    }
}
