//! Parallel kernel-split lints (`E040`–`E042`, `W040`–`W044`).
//!
//! The static complement of the runtime sanitizer in
//! `enode_tensor::sanitize`: every parallelized kernel's registered
//! access summary yields a [`KernelSplit`] describing its decomposition —
//! item count, grain, per-item work, the buffers it strides, scratch
//! provisioning, and how cross-item reductions combine — and this pass
//! checks the metadata against the invariants the runtime enforces with
//! asserts and shadow memory:
//!
//! * `E040` — every split buffer must be a whole number of strides per
//!   item, or `parallel_for_disjoint*` rejects it at runtime.
//! * `E041` — the scratch arena must hold at least what the
//!   decomposition writes through it.
//! * `E042` — a cross-item reduction must combine partials in item
//!   order; anything else breaks the bit-identical determinism contract
//!   (DESIGN.md §8) and is exactly the mutation the schedule audit
//!   detects dynamically.
//! * `W040` — a split that degenerates to one chunk on a live pool
//!   despite substantial work (generalizes `W034`, which only sees
//!   batch-1 runs).
//! * `W041` — per-lane partial buffers that dwarf the reduced output.
//! * `W042` — per-lane spans below one cache line in every split buffer
//!   (lanes ping-pong ownership of shared lines).
//! * `W043` — scratch arenas provisioned far beyond the demand.
//! * `W044` — a split the planner deliberately keeps serial because its
//!   total work is below the dispatch floor.
//!
//! The splits are derived from the affine access summaries registered
//! beside each kernel ([`split_of`]), and the chunk-count and grain math
//! is the live planner's own (`enode_tensor::parallel::{chunks_for,
//! grain_for}`), so the lints model what the pool will actually do.

use crate::diag::{Code, Diagnostic, Diagnostics};
use enode_tensor::access::{AccessKind, KernelAccessSummary, RegionDecl, ScratchSource};
use enode_tensor::parallel::{chunks_for, MIN_CHUNK_FLOPS, SERIAL_FLOOR_FLOPS};

/// Cache-line size assumed by the false-sharing lint.
const CACHE_LINE: usize = 64;

/// One output buffer a kernel splits into per-item strides.
#[derive(Clone, Copy, Debug)]
pub struct SplitBuffer {
    /// Buffer name as the kernel's shadow region registers it.
    pub name: &'static str,
    /// Element count.
    pub len: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
}

/// How a kernel combines cross-item partial results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombineOrder {
    /// Partials are folded in item order — the serial fold, bit-identical
    /// for any schedule.
    SerialItemOrder,
    /// Partials are folded in lane-completion order — schedule-dependent
    /// bits. Never shipped; modeled so the lint has teeth.
    Unordered,
}

/// A cross-item reduction the kernel performs after its parallel region.
#[derive(Clone, Copy, Debug)]
pub struct Reduction {
    /// Fold order of the per-item partials.
    pub order: CombineOrder,
    /// Total bytes of per-item partial buffers.
    pub partial_bytes: usize,
    /// Bytes of the reduced output.
    pub output_bytes: usize,
}

/// Decomposition metadata for one registered parallel kernel.
#[derive(Clone, Debug)]
pub struct KernelSplit {
    /// Kernel label, e.g. `"conv2d.forward (batch split)"`.
    pub kernel: &'static str,
    /// Number of independent items the kernel splits.
    pub items: usize,
    /// Grain passed to the parallel layer (minimum items per chunk).
    pub grain: usize,
    /// Approximate scalar operations per item (drives `W040`'s
    /// substantial-work threshold).
    pub flops_per_item: usize,
    /// The buffers the kernel strides across lanes.
    pub buffers: Vec<SplitBuffer>,
    /// Per-checkout scratch-arena f32 counts `(provided, required)`, when
    /// the kernel uses `with_scratch_f32`.
    pub scratch_f32: Option<(usize, usize)>,
    /// The cross-item reduction, when the kernel performs one.
    pub reduction: Option<Reduction>,
}

/// Lints one kernel split against a pool of `pool` lanes.
pub fn lint_kernel_split(split: &KernelSplit, pool: usize) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let items = split.items;

    for b in &split.buffers {
        if items > 0 && !b.len.is_multiple_of(items) {
            ds.push(
                Diagnostic::new(
                    Code::E040ParStrideIndivisible,
                    split.kernel,
                    format!(
                        "buffer `{}` (len {}) is not a whole number of strides for {} items",
                        b.name, b.len, items
                    ),
                )
                .with_note("items", items)
                .with_note("len", b.len),
            );
        }
    }

    if let Some((provided, required)) = split.scratch_f32 {
        if provided < required {
            ds.push(
                Diagnostic::new(
                    Code::E041ParScratchUndersized,
                    split.kernel,
                    format!(
                        "scratch arena holds {provided} f32 but the decomposition \
                         writes {required}"
                    ),
                )
                .with_note("provided_f32", provided)
                .with_note("required_f32", required),
            );
        } else if provided > 4 * required.max(1) && (provided - required) * 4 > 64 * 1024 {
            ds.push(
                Diagnostic::new(
                    Code::W043ParScratchOverprovision,
                    split.kernel,
                    format!(
                        "scratch arena holds {provided} f32 but the decomposition \
                         only writes {required}"
                    ),
                )
                .with_note("provided_f32", provided)
                .with_note("required_f32", required),
            );
        }
    }

    if let Some(r) = &split.reduction {
        if r.order == CombineOrder::Unordered {
            ds.push(Diagnostic::new(
                Code::E042ParUnorderedReduction,
                split.kernel,
                "partials combine in lane-completion order; the determinism \
                 contract requires the serial item-order fold"
                    .to_string(),
            ));
        }
        if r.partial_bytes > 8 * r.output_bytes.max(1) && r.partial_bytes > 64 * 1024 {
            ds.push(
                Diagnostic::new(
                    Code::W041ParPartialBlowup,
                    split.kernel,
                    format!(
                        "{} bytes of per-item partials reduce to {} bytes of output",
                        r.partial_bytes, r.output_bytes
                    ),
                )
                .with_note("partial_bytes", r.partial_bytes)
                .with_note("output_bytes", r.output_bytes),
            );
        }
    }

    let chunks = chunks_for(pool, items, split.grain);
    let total_work = items.saturating_mul(split.flops_per_item);
    // A grain of usize::MAX with total work under the serial floor is the
    // split planner deliberately staying serial (grain_for_sized): note it
    // as W044 so the decision is visible, and suppress W040 — the "single
    // chunk despite substantial work" warning would misread a deliberate
    // floor as a planning bug.
    let floor_serial = split.grain == usize::MAX && total_work < SERIAL_FLOOR_FLOPS;
    if pool > 1 && items > 1 && chunks == 1 {
        if floor_serial {
            ds.push(
                Diagnostic::new(
                    Code::W044ParSerialFloorEngaged,
                    split.kernel,
                    format!(
                        "{items} items × ~{} flops is below the {SERIAL_FLOOR_FLOPS}-flop \
                         dispatch floor; the planner runs this kernel serial on the \
                         {pool}-lane pool",
                        split.flops_per_item
                    ),
                )
                .with_note("items", items)
                .with_note("flops_per_item", split.flops_per_item)
                .with_note("pool", pool),
            );
        } else if total_work >= 2 * MIN_CHUNK_FLOPS {
            ds.push(
                Diagnostic::new(
                    Code::W040ParDegenerateSplit,
                    split.kernel,
                    format!(
                        "{} items at grain {} plan a single chunk on a {pool}-lane pool \
                         despite ~{} flops of work",
                        items,
                        split.grain,
                        items * split.flops_per_item
                    ),
                )
                .with_note("items", items)
                .with_note("grain", split.grain)
                .with_note("pool", pool),
            );
        }
    }

    // False sharing: only meaningful when the split actually produces
    // multiple chunks, and only when EVERY buffer gives each lane less
    // than a cache line (a kernel whose main output strides are wide is
    // fine even if a small side buffer, e.g. a bias row, is narrow).
    if chunks > 1 && !split.buffers.is_empty() {
        let max_span = split
            .buffers
            .iter()
            .map(|b| (b.len / items.max(1)) * (items / chunks).max(1) * b.elem_bytes)
            .max()
            .unwrap_or(0);
        if max_span < CACHE_LINE {
            ds.push(
                Diagnostic::new(
                    Code::W042ParFalseSharing,
                    split.kernel,
                    format!(
                        "widest per-lane span is {max_span} bytes — below one \
                         {CACHE_LINE}-byte cache line in every split buffer"
                    ),
                )
                .with_note("max_span_bytes", max_span)
                .with_note("chunks", chunks),
            );
        }
    }

    ds
}

/// The lint's view of one registered kernel: the decomposition facts of
/// its [`KernelAccessSummary`], the only per-kernel registration.
///
/// * `buffers` — every region the split writes;
/// * `scratch_f32` — the summed thread-local arena checkouts, as both
///   provided and required (the arena hands out exactly what is asked);
/// * `reduction` — a written per-call partials region (written but not
///   live past the kernel), folded serially in item order into one
///   item's worth of output after the join.
pub fn split_of(s: &KernelAccessSummary) -> KernelSplit {
    let written: Vec<&RegionDecl> = s
        .regions
        .iter()
        .filter(|r| {
            s.accesses
                .iter()
                .any(|a| a.region == r.name && a.kind == AccessKind::Write)
        })
        .collect();
    let arena: usize = s
        .scratch
        .iter()
        .filter(|sc| sc.source == ScratchSource::ThreadLocalArena)
        .map(|sc| sc.elems)
        .sum();
    let reduction = written.iter().find(|r| !r.live_output).map(|r| {
        let partial_bytes = r.elems * r.elem_bytes;
        Reduction {
            order: CombineOrder::SerialItemOrder,
            partial_bytes,
            output_bytes: partial_bytes / s.items.max(1),
        }
    });
    KernelSplit {
        kernel: s.kernel,
        items: s.items,
        grain: s.grain,
        flops_per_item: s.flops_per_item,
        buffers: written
            .iter()
            .map(|r| SplitBuffer {
                name: r.name,
                len: r.elems,
                elem_bytes: r.elem_bytes,
            })
            .collect(),
        scratch_f32: (arena > 0).then_some((arena, arena)),
        reduction,
    }
}

/// Lints every registered kernel's split, derived from
/// [`crate::affine::registered_summaries`]. `pool` is the modeled pool
/// width (pass a fixed nominal width — e.g. 4 — for host-independent
/// results).
pub fn lint_registered_splits(pool: usize) -> Diagnostics {
    let mut ds = Diagnostics::new();
    for s in crate::affine::registered_summaries() {
        ds.extend(lint_kernel_split(&split_of(&s), pool));
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy baseline split the negative tests mutate.
    fn good() -> KernelSplit {
        KernelSplit {
            kernel: "test.kernel",
            items: 8,
            grain: 1,
            flops_per_item: 64 * 1024,
            buffers: vec![SplitBuffer {
                name: "data",
                len: 8 * 256,
                elem_bytes: 4,
            }],
            scratch_f32: Some((1024, 1024)),
            reduction: Some(Reduction {
                order: CombineOrder::SerialItemOrder,
                partial_bytes: 8 * 1024,
                output_bytes: 1024,
            }),
        }
    }

    #[test]
    fn healthy_split_is_clean() {
        let ds = lint_kernel_split(&good(), 4);
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn indivisible_stride_fires_e040() {
        let mut s = good();
        s.buffers[0].len = 8 * 256 + 3;
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::E040ParStrideIndivisible),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn undersized_scratch_fires_e041() {
        let mut s = good();
        s.scratch_f32 = Some((512, 1024));
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::E041ParScratchUndersized),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn unordered_reduction_fires_e042() {
        let mut s = good();
        s.reduction = Some(Reduction {
            order: CombineOrder::Unordered,
            partial_bytes: 8 * 1024,
            output_bytes: 1024,
        });
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::E042ParUnorderedReduction),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn degenerate_split_fires_w040_only_with_substantial_work() {
        let mut s = good();
        s.grain = usize::MAX; // plans a single chunk whatever the pool
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W040ParDegenerateSplit), "{}", ds.render());
        // The same degenerate plan with negligible work stays quiet.
        s.flops_per_item = 16;
        let ds = lint_kernel_split(&s, 4);
        assert!(
            !ds.has_code(Code::W040ParDegenerateSplit),
            "{}",
            ds.render()
        );
        // And a serial pool never warns.
        s.flops_per_item = 64 * 1024;
        let ds = lint_kernel_split(&s, 1);
        assert!(
            !ds.has_code(Code::W040ParDegenerateSplit),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn partial_blowup_fires_w041() {
        let mut s = good();
        s.reduction = Some(Reduction {
            order: CombineOrder::SerialItemOrder,
            partial_bytes: 1024 * 1024,
            output_bytes: 256,
        });
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W041ParPartialBlowup), "{}", ds.render());
    }

    #[test]
    fn narrow_lanes_fire_w042_only_when_every_buffer_is_narrow() {
        let mut s = good();
        s.buffers = vec![SplitBuffer {
            name: "data",
            len: 8,
            elem_bytes: 4,
        }];
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W042ParFalseSharing), "{}", ds.render());
        // A second, wide buffer absorbs the traffic: quiet.
        s.buffers.push(SplitBuffer {
            name: "wide",
            len: 8 * 256,
            elem_bytes: 4,
        });
        let ds = lint_kernel_split(&s, 4);
        assert!(!ds.has_code(Code::W042ParFalseSharing), "{}", ds.render());
    }

    #[test]
    fn scratch_overprovision_fires_w043() {
        let mut s = good();
        s.scratch_f32 = Some((1024 * 1024, 1024));
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::W043ParScratchOverprovision),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn shipped_registry_is_clean_on_a_nominal_pool() {
        // By-design advisories only: W044 serial-floor notes on the two
        // kernels whose registered shapes fall below the dispatch floor
        // (only when the modeled pool could have split them), plus W042
        // on the 9-row gemm_bias audit shape once 8 lanes cut it to one
        // 15-float (60-byte) row per lane.
        let floored = [
            (Code::W044ParSerialFloorEngaged, "dense.forward"),
            (Code::W044ParSerialFloorEngaged, "groupnorm.forward"),
        ];
        for pool in [1usize, 2, 4, 8] {
            let ds = lint_registered_splits(pool);
            let got: Vec<(Code, &str)> = ds
                .items()
                .iter()
                .map(|d| (d.code, d.subject.as_str()))
                .collect();
            let mut want = match pool {
                1 => vec![],
                _ => floored.to_vec(),
            };
            if pool == 8 {
                want.push((Code::W042ParFalseSharing, "gemm_bias (row split)"));
            }
            assert_eq!(got, want, "pool {pool}:\n{}", ds.render());
        }
    }

    #[test]
    fn derived_reductions_fold_one_item_of_partials() {
        let reduction = |kernel: &str| {
            let s = crate::affine::registered_summaries()
                .into_iter()
                .find(|s| s.kernel == kernel)
                .unwrap();
            let r = split_of(&s).reduction.expect("partials region");
            (r.order, r.partial_bytes, r.output_bytes)
        };
        assert_eq!(
            reduction("conv2d.backward_params (batch split)"),
            (CombineOrder::SerialItemOrder, 5920, 592)
        );
        assert_eq!(
            reduction("groupnorm.backward"),
            (CombineOrder::SerialItemOrder, 640, 64)
        );
    }

    #[test]
    fn floor_engaged_fires_w044_and_suppresses_w040() {
        let mut s = good();
        // 8 items × 8 192 flops = 65 536: enough for W040's substantial-work
        // bar but below the 320 000-flop serial floor.
        s.flops_per_item = 8 * 1024;
        s.grain = usize::MAX;
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::W044ParSerialFloorEngaged),
            "{}",
            ds.render()
        );
        assert!(
            !ds.has_code(Code::W040ParDegenerateSplit),
            "floor-engaged plans must not double-report as W040:\n{}",
            ds.render()
        );
        // Above the floor, the same usize::MAX grain is a genuine
        // degenerate split again.
        s.flops_per_item = 64 * 1024;
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W040ParDegenerateSplit), "{}", ds.render());
        assert!(!ds.has_code(Code::W044ParSerialFloorEngaged));
    }
}
