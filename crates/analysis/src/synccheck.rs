//! Static concurrency analysis over declared sync skeletons
//! (E100–E106 / W100–W103).
//!
//! The serving runtime and the tensor worker pool declare their
//! synchronization structure as [`SyncSkeleton`]s (see
//! `enode_serve::skeleton` and `enode_tensor::syncmodel`): every mutex,
//! every condvar with its guard lock and predicate discipline, every
//! atomic's ordering role, and the acquire/notify/join/sweep step
//! sequence of each code path. This module lowers those declarations
//! into bitmask facts and proves:
//!
//! * **E100 lock-order acyclicity** — the union of every path's nested
//!   acquisitions forms a graph over locks. Unlike the pipeline IR this
//!   graph can be cyclic (a cycle is the defect), so it gets a bitmask
//!   transitive closure: per lock, the set of locks that can be held when
//!   it is acquired. A lock in its own closure means two interleavings
//!   acquire the same pair in opposite orders: deadlock.
//! * **E101 lost wakeups** — every wait re-checks its predicate in a
//!   loop, and every predicate-falsifying `Write(cv)` has a `Notify(cv)`
//!   after it (a suffix OR over the path's steps); a waited condvar with
//!   no notifier anywhere and no timeout fallback is unwakeable.
//! * **E102 shutdown quiescence** — the same suffix OR collects the
//!   joins and queue sweeps from each shutdown path's entry on; every
//!   declared worker thread must be joined, every declared
//!   queue swept, and no join may run while holding a lock the joined
//!   thread's own paths acquire.
//! * **E103/W100 atomic protocol** — published-value atomics must write
//!   with `Release` or stronger; deliberately-relaxed quiescent counters
//!   are recorded (W100), the same "visible decision" contract as W044.
//! * **E106 wait-starves-notifier** — a wait that holds a foreign lock
//!   is a deadlock iff *every* reachable notifier of that condvar must
//!   acquire that lock first.
//!
//! [`lint_trace`] closes the loop (E104): the `synctrace` runtime
//! recorder produces a [`TraceReport`] of observed acquisition edges and
//! wait/notify pairings, and any observation outside the transitive
//! closure of the declarations means the model has drifted from the
//! code.

use crate::diag::{Code, Diagnostic, Diagnostics};
use enode_tensor::syncmodel::trace::TraceReport;
use enode_tensor::syncmodel::{AtomicRole, Memord, PathRole, Step, SyncSkeleton};
use std::collections::{BTreeMap, BTreeSet};

/// Global name table: every lock/condvar/thread/queue declared by any
/// skeleton, with stable indices (declaration order). Cross-skeleton
/// references are legal — the serve runtime's worker path touches the
/// ticket's lock — so resolution is global.
struct NameTable<'a> {
    locks: Vec<&'a str>,
    condvars: Vec<&'a str>,
    threads: Vec<&'a str>,
    queues: Vec<&'a str>,
    /// condvar id -> (guard lock id, recheck_loop, timeout_fallback)
    cv_info: BTreeMap<&'a str, (&'a str, bool, bool)>,
}

impl<'a> NameTable<'a> {
    fn build(skeletons: &'a [SyncSkeleton]) -> Self {
        let mut t = NameTable {
            locks: Vec::new(),
            condvars: Vec::new(),
            threads: Vec::new(),
            queues: Vec::new(),
            cv_info: BTreeMap::new(),
        };
        for sk in skeletons {
            for l in &sk.locks {
                t.locks.push(l.id);
            }
            for c in &sk.condvars {
                t.condvars.push(c.id);
                t.cv_info
                    .insert(c.id, (c.lock, c.recheck_loop, c.timeout_fallback));
            }
            for th in &sk.threads {
                t.threads.push(th);
            }
            for q in &sk.queues {
                t.queues.push(q);
            }
        }
        assert!(
            [&t.locks, &t.condvars, &t.threads, &t.queues]
                .iter()
                .all(|names| names.len() <= 64),
            "bitmask facts assume at most 64 locks/condvars/threads/queues"
        );
        t
    }

    fn lock_idx(&self, id: &str) -> Option<usize> {
        self.locks.iter().position(|l| *l == id)
    }

    fn cv_idx(&self, id: &str) -> Option<usize> {
        self.condvars.iter().position(|c| *c == id)
    }
}

/// E100's closure: `held[v]` is the set of locks (bitmask) that can
/// transitively be held when lock `v` is acquired, over the edges
/// `held -> acquired` (Warshall's algorithm, one row per lock).
fn held_closure(n_locks: usize, edges: &BTreeSet<(usize, usize)>) -> Vec<u64> {
    let mut held = vec![0u64; n_locks];
    for &(u, v) in edges {
        held[v] |= 1 << u;
    }
    for k in 0..n_locks {
        for v in 0..n_locks {
            if held[v] & (1 << k) != 0 {
                held[v] |= held[k];
            }
        }
    }
    held
}

/// Per step of one path: what happens at or after it — condvars
/// notified, threads joined, queues swept (bitmask each).
#[derive(Clone, Copy, Default)]
struct Obligations {
    notified: u64,
    joined: u64,
    swept: u64,
}

/// Suffix OR over one path's steps; `values[i]` reports what happens at
/// or after step `i`.
fn path_obligations(steps: &[Step], table: &NameTable) -> Vec<Obligations> {
    let mut values = vec![Obligations::default(); steps.len()];
    let mut after = Obligations::default();
    for (i, step) in steps.iter().enumerate().rev() {
        match *step {
            Step::Notify(cv) => {
                if let Some(c) = table.cv_idx(cv) {
                    after.notified |= 1 << c;
                }
            }
            Step::Join(th) => {
                if let Some(t) = table.threads.iter().position(|t| *t == th) {
                    after.joined |= 1 << t;
                }
            }
            Step::SweepQueue(q) => {
                if let Some(x) = table.queues.iter().position(|x| *x == q) {
                    after.swept |= 1 << x;
                }
            }
            _ => {}
        }
        values[i] = after;
    }
    values
}

// ---- structural walk (E105) + held-set facts --------------------------

/// Facts collected by simulating each path's held-lock stack.
#[derive(Default)]
struct PathFacts {
    /// Lock-order edges `held -> acquired` (by global lock index).
    edges: BTreeSet<(usize, usize)>,
    /// Locks acquired anywhere (global index).
    acquired: BTreeSet<usize>,
    /// Condvars waited anywhere (global index).
    waited: BTreeSet<usize>,
    /// Condvars notified anywhere (global index).
    notified: BTreeSet<usize>,
    /// `(path id, step index, cv index, foreign-held mask)` per wait.
    waits: Vec<(String, usize, usize, u64)>,
    /// `(path id, step index, cv index, pre-acquired mask)` per notify:
    /// the locks the path acquires at any step up to and including the
    /// notify (a waiter holding one of them blocks this notifier).
    notifies: Vec<(String, usize, usize, u64)>,
    /// `(path id, cv index)` for waits on a path that re-acquires inside
    /// a declared non-recheck wait — unused when all recheck.
    joins: Vec<(String, usize, String, u64)>,
}

/// Walks a path's steps with an explicit held stack; structural defects
/// are E105 (and poison the skeleton — no deeper analysis on malformed
/// declarations). Returns the facts for well-formed paths.
fn walk_paths(
    sk: &SyncSkeleton,
    table: &NameTable,
    ds: &mut Diagnostics,
    facts: &mut PathFacts,
) -> bool {
    let subject = format!("sync {}", sk.name);
    let mut well_formed = true;
    let malformed = |ds: &mut Diagnostics, path: &str, msg: String| {
        ds.push(
            Diagnostic::new(Code::E105SyncSkeletonMalformed, subject.clone(), msg)
                .with_note("path", path),
        );
    };
    for p in &sk.paths {
        let mut held: Vec<usize> = Vec::new();
        let mut pre_acquired = 0u64;
        let mut ok = true;
        for (si, st) in p.steps.iter().enumerate() {
            match *st {
                Step::Acquire(l) => {
                    let Some(li) = table.lock_idx(l) else {
                        malformed(ds, p.id, format!("acquires undeclared lock {l}"));
                        ok = false;
                        break;
                    };
                    if held.contains(&li) {
                        // Re-acquiring a held lock: a self-edge, reported
                        // through the E100 cycle pass.
                        facts.edges.insert((li, li));
                    }
                    for &h in &held {
                        facts.edges.insert((h, li));
                    }
                    held.push(li);
                    facts.acquired.insert(li);
                    pre_acquired |= 1 << li;
                }
                Step::Release(l) => {
                    let Some(li) = table.lock_idx(l) else {
                        malformed(ds, p.id, format!("releases undeclared lock {l}"));
                        ok = false;
                        break;
                    };
                    if let Some(pos) = held.iter().rposition(|&h| h == li) {
                        held.remove(pos);
                    } else {
                        malformed(ds, p.id, format!("releases {l} without holding it"));
                        ok = false;
                        break;
                    }
                }
                Step::Wait(cv) => {
                    let Some(ci) = table.cv_idx(cv) else {
                        malformed(ds, p.id, format!("waits on undeclared condvar {cv}"));
                        ok = false;
                        break;
                    };
                    let (guard, _, _) = table.cv_info[cv];
                    let gi = table.lock_idx(guard).expect("guard declared");
                    if !held.contains(&gi) {
                        malformed(
                            ds,
                            p.id,
                            format!("waits on {cv} without holding its guard {guard}"),
                        );
                        ok = false;
                        break;
                    }
                    facts.waited.insert(ci);
                    let mut foreign = 0u64;
                    for &h in &held {
                        if h != gi {
                            foreign |= 1 << h;
                        }
                    }
                    facts.waits.push((p.id.to_string(), si, ci, foreign));
                }
                Step::Notify(cv) => {
                    let Some(ci) = table.cv_idx(cv) else {
                        malformed(ds, p.id, format!("notifies undeclared condvar {cv}"));
                        ok = false;
                        break;
                    };
                    facts.notified.insert(ci);
                    facts
                        .notifies
                        .push((p.id.to_string(), si, ci, pre_acquired));
                }
                Step::Join(th) => {
                    if !table.threads.contains(&th) {
                        malformed(ds, p.id, format!("joins undeclared thread {th}"));
                        ok = false;
                        break;
                    }
                    let mut held_mask = 0u64;
                    for &h in &held {
                        held_mask |= 1 << h;
                    }
                    facts
                        .joins
                        .push((p.id.to_string(), si, th.to_string(), held_mask));
                }
                Step::SweepQueue(q) => {
                    if !table.queues.contains(&q) {
                        malformed(ds, p.id, format!("sweeps undeclared queue {q}"));
                        ok = false;
                        break;
                    }
                }
                Step::Write(cv) => {
                    if table.cv_idx(cv).is_none() {
                        malformed(
                            ds,
                            p.id,
                            format!("writes predicate of undeclared condvar {cv}"),
                        );
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok && !held.is_empty() {
            let names: Vec<&str> = held.iter().map(|&h| table.locks[h]).collect();
            malformed(
                ds,
                p.id,
                format!("ends with locks still held: {}", names.join(", ")),
            );
            ok = false;
        }
        well_formed &= ok;
    }
    well_formed
}

/// Lints a set of declared skeletons (injectable for tests and golden
/// sections). References resolve across the whole set, so pass every
/// skeleton that participates in the protocol together — this is what
/// [`lint_registered`] does for the shipped runtime.
pub fn lint_skeletons(skeletons: &[SyncSkeleton]) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let table = NameTable::build(skeletons);
    let mut facts = PathFacts::default();

    // E105 first: malformed declarations short-circuit the deeper passes
    // (their facts would be meaningless), mirroring the E093 provenance
    // gate in schedcheck.
    let mut all_well_formed = true;
    for sk in skeletons {
        all_well_formed &= walk_paths(sk, &table, &mut ds, &mut facts);
    }
    if !all_well_formed {
        ds.sort_and_dedup();
        return ds;
    }

    // --- E100: a lock in its own held-closure closes a cycle ---
    let held = held_closure(table.locks.len(), &facts.edges);
    let cyclic: Vec<usize> = (0..table.locks.len())
        .filter(|&v| held[v] & (1u64 << v) != 0)
        .collect();
    if !cyclic.is_empty() {
        let names: Vec<&str> = cyclic.iter().map(|&v| table.locks[v]).collect();
        ds.push(
            Diagnostic::new(
                Code::E100SyncLockOrderCycle,
                "sync lock-order",
                format!(
                    "acquisition-order graph admits a cycle through: {}",
                    names.join(", ")
                ),
            )
            .with_note("cyclic_locks", names.len())
            .with_note("order_edges", facts.edges.len()),
        );
    }

    // --- E101: lost wakeups (three obligations per condvar) ---
    for sk in skeletons {
        let subject = format!("sync {}", sk.name);
        for cv in &sk.condvars {
            let ci = table.cv_idx(cv.id).expect("declared");
            let waited = facts.waited.contains(&ci);
            if waited && !cv.recheck_loop {
                ds.push(
                    Diagnostic::new(
                        Code::E101SyncLostWakeup,
                        subject.clone(),
                        format!(
                            "wait on {} does not re-check its predicate in a loop \
                             (spurious wakeup or stale predicate races through)",
                            cv.id
                        ),
                    )
                    .with_note("condvar", cv.id)
                    .with_note("predicate", cv.predicate),
                );
            }
            if waited && !facts.notified.contains(&ci) && !cv.timeout_fallback {
                ds.push(
                    Diagnostic::new(
                        Code::E101SyncLostWakeup,
                        subject.clone(),
                        format!(
                            "{} is waited on but no declared path ever notifies it \
                             and no timeout bounds the sleep",
                            cv.id
                        ),
                    )
                    .with_note("condvar", cv.id),
                );
            }
        }
    }
    // Predicate-falsifying writes must have a notify later on the same
    // path (the suffix OR over each path's steps).
    for sk in skeletons {
        let subject = format!("sync {}", sk.name);
        for p in &sk.paths {
            let obligations = path_obligations(&p.steps, &table);
            for (si, st) in p.steps.iter().enumerate() {
                let Step::Write(cv) = *st else { continue };
                let ci = table.cv_idx(cv).expect("checked in walk");
                let (_, _, timeout) = table.cv_info[cv];
                // `obligations[si]` covers step si itself; a Write
                // generates nothing, so its bit set == notifies after it.
                if obligations[si].notified & (1 << ci) == 0 && !timeout {
                    ds.push(
                        Diagnostic::new(
                            Code::E101SyncLostWakeup,
                            subject.clone(),
                            format!(
                                "path {} falsifies the predicate of {} with no \
                                 notify reachable afterwards (a parked waiter \
                                 never observes the write)",
                                p.id, cv
                            ),
                        )
                        .with_note("path", p.id)
                        .with_note("step", si)
                        .with_note("condvar", cv),
                    );
                }
            }
        }
    }

    // --- E102: shutdown quiescence ---
    for sk in skeletons {
        if sk.threads.is_empty() && sk.queues.is_empty() {
            continue;
        }
        let subject = format!("sync {}", sk.name);
        let mut joined = 0u64;
        let mut swept = 0u64;
        let mut have_shutdown = false;
        for p in &sk.paths {
            if p.role != PathRole::Shutdown {
                continue;
            }
            have_shutdown = true;
            let obligations = path_obligations(&p.steps, &table);
            if let Some(entry) = obligations.first() {
                joined |= entry.joined;
                swept |= entry.swept;
            }
        }
        for (i, th) in table.threads.iter().enumerate() {
            if !sk.threads.iter().any(|t| t == th) {
                continue;
            }
            if joined & (1 << i) == 0 {
                let msg = if have_shutdown {
                    format!("shutdown never joins worker thread {th}")
                } else {
                    format!("declares worker thread {th} but no shutdown path at all")
                };
                ds.push(
                    Diagnostic::new(Code::E102SyncShutdownLeak, subject.clone(), msg)
                        .with_note("thread", th),
                );
            }
        }
        for (i, q) in table.queues.iter().enumerate() {
            if !sk.queues.iter().any(|x| x == q) {
                continue;
            }
            if swept & (1 << i) == 0 {
                let msg = if have_shutdown {
                    format!("shutdown never sweeps queue {q} (parked tickets leak)")
                } else {
                    format!("declares queue {q} but no shutdown path at all")
                };
                ds.push(
                    Diagnostic::new(Code::E102SyncShutdownLeak, subject.clone(), msg)
                        .with_note("queue", q),
                );
            }
        }
    }
    // Joining a thread while holding a lock its own paths acquire is a
    // self-deadlock: the joined thread may be blocked on that lock.
    let thread_locks = |th: &str| -> u64 {
        let mut mask = 0u64;
        for sk in skeletons {
            for p in &sk.paths {
                if p.runs_on != Some(th) {
                    continue;
                }
                for st in &p.steps {
                    if let Step::Acquire(l) = st {
                        if let Some(li) = table.lock_idx(l) {
                            mask |= 1 << li;
                        }
                    }
                }
            }
        }
        mask
    };
    for (path, _si, th, held_mask) in &facts.joins {
        let needed = thread_locks(th);
        let conflict = held_mask & needed;
        if conflict != 0 {
            let names: Vec<&str> = (0..table.locks.len())
                .filter(|&i| conflict & (1 << i) != 0)
                .map(|i| table.locks[i])
                .collect();
            ds.push(
                Diagnostic::new(
                    Code::E102SyncShutdownLeak,
                    "sync lock-order",
                    format!(
                        "path {path} joins {th} while holding {} — the worker \
                         may be blocked on that lock, deadlocking the join",
                        names.join(", ")
                    ),
                )
                .with_note("path", path)
                .with_note("thread", th),
            );
        }
    }

    // --- E103 / W100: atomic protocol ---
    for sk in skeletons {
        let subject = format!("sync {}", sk.name);
        let mut relaxed_counters: Vec<&str> = Vec::new();
        for a in &sk.atomics {
            match a.role {
                AtomicRole::PublishedValue => {
                    if matches!(a.write_order, Memord::Relaxed | Memord::Acquire) {
                        ds.push(
                            Diagnostic::new(
                                Code::E103SyncAtomicOrdering,
                                subject.clone(),
                                format!(
                                    "{} is read concurrently while written but its \
                                     writes are only {} (needs release or stronger)",
                                    a.id,
                                    a.write_order.as_str()
                                ),
                            )
                            .with_note("atomic", a.id)
                            .with_note("write_order", a.write_order.as_str()),
                        );
                    }
                }
                AtomicRole::QuiescentCounter => {
                    if a.write_order == Memord::Relaxed {
                        relaxed_counters.push(a.id);
                    }
                }
                AtomicRole::LockProtected => {}
            }
        }
        if !relaxed_counters.is_empty() {
            ds.push(
                Diagnostic::new(
                    Code::W100SyncRelaxedCounter,
                    subject.clone(),
                    format!(
                        "relaxed counters are exact only at quiescence \
                         (deliberate; see the ordering audit): {}",
                        relaxed_counters.join(", ")
                    ),
                )
                .with_note("counters", relaxed_counters.len()),
            );
        }
    }

    // --- E106: a wait starving every notifier of its condvar ---
    for (wpath, _wsi, ci, foreign) in &facts.waits {
        if *foreign == 0 {
            continue;
        }
        let notifier_sites: Vec<&(String, usize, usize, u64)> = facts
            .notifies
            .iter()
            .filter(|(npath, _, nci, _)| nci == ci && npath != wpath)
            .collect();
        if notifier_sites.is_empty() {
            continue; // no-notifier case is E101's
        }
        let all_blocked = notifier_sites
            .iter()
            .all(|(_, _, _, pre)| pre & foreign != 0);
        if all_blocked {
            let cv = table.condvars[*ci];
            let held: Vec<&str> = (0..table.locks.len())
                .filter(|&i| foreign & (1 << i) != 0)
                .map(|i| table.locks[i])
                .collect();
            ds.push(
                Diagnostic::new(
                    Code::E106SyncWaitHoldsNotifierLock,
                    "sync lock-order",
                    format!(
                        "path {wpath} waits on {cv} while holding {} — every \
                         declared notifier must acquire a held lock first, so \
                         the waiter starves its own wakers",
                        held.join(", ")
                    ),
                )
                .with_note("path", wpath.as_str())
                .with_note("condvar", cv),
            );
        }
    }

    // --- W101/W102/W103: hygiene ---
    for sk in skeletons {
        let subject = format!("sync {}", sk.name);
        for cv in &sk.condvars {
            let ci = table.cv_idx(cv.id).expect("declared");
            if !facts.waited.contains(&ci) {
                ds.push(
                    Diagnostic::new(
                        Code::W101SyncDeadCondvar,
                        subject.clone(),
                        format!("{} is declared but no path ever waits on it", cv.id),
                    )
                    .with_note("condvar", cv.id),
                );
            } else if cv.timeout_fallback {
                ds.push(
                    Diagnostic::new(
                        Code::W102SyncTimeoutWakeup,
                        subject.clone(),
                        format!(
                            "waits on {} are bounded by a timeout: a missed notify \
                             costs one timeout period, not liveness (deliberate \
                             for the wall-clock batch window)",
                            cv.id
                        ),
                    )
                    .with_note("condvar", cv.id)
                    .with_note("predicate", cv.predicate),
                );
            }
        }
        for l in &sk.locks {
            let li = table.lock_idx(l.id).expect("declared");
            if !facts.acquired.contains(&li) {
                ds.push(
                    Diagnostic::new(
                        Code::W103SyncDeadLock,
                        subject.clone(),
                        format!("{} is declared but no path ever acquires it", l.id),
                    )
                    .with_note("lock", l.id),
                );
            }
        }
    }

    ds.sort_and_dedup();
    ds
}

/// E104: cross-checks a runtime [`TraceReport`] against the declared
/// skeletons. The observed graph must be a subgraph of the declaration's
/// transitive closure; anything else means the declarations no longer
/// describe the code and every E10x verdict above them is unsound.
pub fn lint_trace(skeletons: &[SyncSkeleton], report: &TraceReport) -> Diagnostics {
    let mut ds = Diagnostics::new();
    for finding in report.undeclared(skeletons) {
        ds.push(
            Diagnostic::new(Code::E104SyncTraceDrift, "sync trace", finding)
                .with_note("observed_edges", report.edges.len()),
        );
    }
    ds.sort_and_dedup();
    ds
}

/// Lints the workspace's registered skeletons: the serve runtime's
/// server/ticket/clock/metrics protocols plus the tensor worker pool.
pub fn lint_registered() -> Diagnostics {
    lint_skeletons(&enode_serve::skeleton::registered_skeletons())
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_serve::skeleton::registered_skeletons;
    use enode_tensor::syncmodel::{pool_skeleton, CondvarDecl, LockDecl, PathDecl, SyncSkeleton};

    fn codes(ds: &Diagnostics) -> Vec<&'static str> {
        ds.items().iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn registered_skeletons_prove_clean() {
        let ds = lint_registered();
        assert_eq!(
            ds.error_count(),
            0,
            "shipped skeletons must prove clean:\n{}",
            ds.render()
        );
        // Exactly the two deliberate-decision records.
        assert_eq!(codes(&ds), ["W100", "W102"], "{}", ds.render());
    }

    #[test]
    fn inverted_lock_order_is_a_cycle() {
        // Doctor the pool: an extra path nests submit inside slot,
        // closing a cycle against broadcast's slot-inside-submit.
        let mut sk = pool_skeleton();
        sk.paths.push(PathDecl {
            id: "pool.rogue",
            role: PathRole::Normal,
            runs_on: None,
            steps: vec![
                Step::Acquire("pool.slot"),
                Step::Acquire("pool.submit"),
                Step::Release("pool.submit"),
                Step::Release("pool.slot"),
            ],
        });
        let ds = lint_skeletons(std::slice::from_ref(&sk));
        assert!(ds.has_code(Code::E100SyncLockOrderCycle), "{}", ds.render());
        assert!(!ds.has_code(Code::E101SyncLostWakeup));
        assert!(!ds.has_code(Code::E102SyncShutdownLeak));
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_self_cycle() {
        let mut sk = pool_skeleton();
        sk.paths.push(PathDecl {
            id: "pool.reentrant",
            role: PathRole::Normal,
            runs_on: None,
            steps: vec![
                Step::Acquire("pool.slot"),
                Step::Acquire("pool.slot"),
                Step::Release("pool.slot"),
                Step::Release("pool.slot"),
            ],
        });
        let ds = lint_skeletons(std::slice::from_ref(&sk));
        assert!(ds.has_code(Code::E100SyncLockOrderCycle), "{}", ds.render());
    }

    #[test]
    fn three_lock_cycle_is_one_e100_over_all_three() {
        // A→B, B→C, C→A: no two paths invert one pair, so only the
        // transitive closure sees the cycle.
        let nest = |id, outer, inner| PathDecl {
            id,
            role: PathRole::Normal,
            runs_on: None,
            steps: vec![
                Step::Acquire(outer),
                Step::Acquire(inner),
                Step::Release(inner),
                Step::Release(outer),
            ],
        };
        let lock = |id| LockDecl {
            id,
            protects: "ring state",
        };
        let sk = SyncSkeleton {
            name: "test.ring",
            locks: vec![lock("ring.a"), lock("ring.b"), lock("ring.c")],
            condvars: vec![],
            atomics: vec![],
            threads: vec![],
            queues: vec![],
            paths: vec![
                nest("ring.ab", "ring.a", "ring.b"),
                nest("ring.bc", "ring.b", "ring.c"),
                nest("ring.ca", "ring.c", "ring.a"),
            ],
        };
        let ds = lint_skeletons(&[sk]);
        assert_eq!(codes(&ds), ["E100"], "{}", ds.render());
        assert!(
            ds.items()[0]
                .message
                .ends_with("a cycle through: ring.a, ring.b, ring.c"),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn dropped_notify_is_a_lost_wakeup() {
        // Remove the worker's Notify(pool.done): broadcast's wait on
        // `pending == 0` can never be woken.
        let mut sk = pool_skeleton();
        let worker = sk
            .paths
            .iter_mut()
            .find(|p| p.id == "pool.worker_loop")
            .unwrap();
        worker.steps.retain(|s| *s != Step::Notify("pool.done"));
        let ds = lint_skeletons(std::slice::from_ref(&sk));
        assert!(ds.has_code(Code::E101SyncLostWakeup), "{}", ds.render());
        assert!(!ds.has_code(Code::E100SyncLockOrderCycle));
        assert!(!ds.has_code(Code::E102SyncShutdownLeak));
    }

    #[test]
    fn missing_recheck_loop_is_a_lost_wakeup() {
        let mut sk = pool_skeleton();
        sk.condvars
            .iter_mut()
            .find(|c| c.id == "pool.work")
            .unwrap()
            .recheck_loop = false;
        let ds = lint_skeletons(std::slice::from_ref(&sk));
        assert!(ds.has_code(Code::E101SyncLostWakeup), "{}", ds.render());
    }

    #[test]
    fn skipped_join_is_a_shutdown_leak() {
        let mut sk = pool_skeleton();
        let drop_path = sk.paths.iter_mut().find(|p| p.id == "pool.drop").unwrap();
        drop_path.steps.retain(|s| *s != Step::Join("pool.worker"));
        let ds = lint_skeletons(std::slice::from_ref(&sk));
        assert!(ds.has_code(Code::E102SyncShutdownLeak), "{}", ds.render());
        assert!(!ds.has_code(Code::E100SyncLockOrderCycle));
        assert!(!ds.has_code(Code::E101SyncLostWakeup));
    }

    #[test]
    fn join_under_a_lock_the_worker_needs_deadlocks() {
        let mut sk = pool_skeleton();
        let drop_path = sk.paths.iter_mut().find(|p| p.id == "pool.drop").unwrap();
        // Join while still holding pool.slot (which the worker acquires).
        drop_path.steps = vec![
            Step::Acquire("pool.slot"),
            Step::Write("pool.work"),
            Step::Notify("pool.work"),
            Step::Acquire("pool.handles"),
            Step::Join("pool.worker"),
            Step::Release("pool.handles"),
            Step::Release("pool.slot"),
        ];
        let ds = lint_skeletons(std::slice::from_ref(&sk));
        assert!(ds.has_code(Code::E102SyncShutdownLeak), "{}", ds.render());
    }

    #[test]
    fn published_atomic_with_relaxed_writes_is_an_error() {
        let mut regs = registered_skeletons();
        let clock = regs.iter_mut().find(|s| s.name == "serve.clock").unwrap();
        clock.atomics[0].write_order = Memord::Relaxed;
        let ds = lint_skeletons(&regs);
        assert!(ds.has_code(Code::E103SyncAtomicOrdering), "{}", ds.render());
    }

    #[test]
    fn wait_holding_every_notifiers_lock_starves() {
        // Doctor the pool: broadcast waits on done while holding submit,
        // and the (sole) notifier now also needs submit.
        let mut sk = pool_skeleton();
        let worker = sk
            .paths
            .iter_mut()
            .find(|p| p.id == "pool.worker_loop")
            .unwrap();
        worker.steps = vec![
            Step::Acquire("pool.submit"),
            Step::Acquire("pool.slot"),
            Step::Wait("pool.work"),
            Step::Write("pool.done"),
            Step::Notify("pool.done"),
            Step::Release("pool.slot"),
            Step::Release("pool.submit"),
        ];
        let ds = lint_skeletons(std::slice::from_ref(&sk));
        assert!(
            ds.has_code(Code::E106SyncWaitHoldsNotifierLock),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn shipped_pool_wait_under_submit_is_not_flagged() {
        // broadcast waits on pool.done holding pool.submit, but workers
        // never touch pool.submit — the refined E106 must stay quiet.
        let ds = lint_skeletons(&[pool_skeleton()]);
        assert!(
            !ds.has_code(Code::E106SyncWaitHoldsNotifierLock),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn malformed_skeleton_short_circuits() {
        let sk = SyncSkeleton {
            name: "test.broken",
            locks: vec![LockDecl {
                id: "broken.lock",
                protects: "nothing",
            }],
            condvars: vec![CondvarDecl {
                id: "broken.cv",
                lock: "broken.lock",
                predicate: "never",
                recheck_loop: false, // would be E101 if analysis ran
                timeout_fallback: false,
            }],
            atomics: vec![],
            threads: vec![],
            queues: vec![],
            paths: vec![PathDecl {
                id: "broken.path",
                role: PathRole::Normal,
                runs_on: None,
                steps: vec![
                    Step::Acquire("broken.lock"),
                    Step::Wait("broken.cv"),
                    // Missing Release: leaked guard.
                ],
            }],
        };
        let ds = lint_skeletons(&[sk]);
        assert!(
            ds.has_code(Code::E105SyncSkeletonMalformed),
            "{}",
            ds.render()
        );
        assert!(
            !ds.has_code(Code::E101SyncLostWakeup),
            "malformed skeletons must not reach the liveness passes"
        );
    }

    #[test]
    fn dead_condvar_and_dead_lock_warn() {
        let sk = SyncSkeleton {
            name: "test.dead",
            locks: vec![
                LockDecl {
                    id: "dead.lock",
                    protects: "unused state",
                },
                LockDecl {
                    id: "dead.guard",
                    protects: "cv guard",
                },
            ],
            condvars: vec![CondvarDecl {
                id: "dead.cv",
                lock: "dead.guard",
                predicate: "unused",
                recheck_loop: true,
                timeout_fallback: false,
            }],
            atomics: vec![],
            threads: vec![],
            queues: vec![],
            paths: vec![PathDecl {
                id: "dead.touch_guard",
                role: PathRole::Normal,
                runs_on: None,
                steps: vec![Step::Acquire("dead.guard"), Step::Release("dead.guard")],
            }],
        };
        let ds = lint_skeletons(&[sk]);
        assert!(ds.has_code(Code::W101SyncDeadCondvar), "{}", ds.render());
        assert!(ds.has_code(Code::W103SyncDeadLock), "{}", ds.render());
        assert_eq!(ds.error_count(), 0);
    }

    #[test]
    fn trace_subset_passes_and_drift_fires_e104() {
        let regs = registered_skeletons();
        let mut report = TraceReport::default();
        report.locks.insert("server.state".into());
        report.locks.insert("ticket.slot".into());
        report
            .edges
            .insert(("server.state".into(), "ticket.slot".into()));
        report.waits.insert("server.work_cv".into());
        report.notifies.insert("server.work_cv".into());
        assert!(lint_trace(&regs, &report).is_empty());

        // An inverted edge the declarations do not admit.
        report
            .edges
            .insert(("ticket.slot".into(), "server.state".into()));
        let ds = lint_trace(&regs, &report);
        assert!(ds.has_code(Code::E104SyncTraceDrift), "{}", ds.render());
        assert_eq!(ds.error_count(), 1);
    }
}
