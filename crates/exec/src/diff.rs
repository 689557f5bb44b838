//! Differential replay: structural alignment of a packed binary's retired
//! stream against the original binary's capture.
//!
//! Rewriting (`vp-core`) promises that the packed binary does *the same
//! architectural work* as the original — launch points, package links, and
//! exit blocks redirect control flow but never change what is computed.
//! This module checks that promise per run, rather than trusting it:
//!
//! 1. Both retired streams are decoded from their [`CapturedTrace`]s by
//!    one pull cursor each and folded, as they arrive, into canonical
//!    **visits**. A visit is a maximal run of retired events attributed to
//!    one original block; packed-side events are mapped back to original
//!    identities through an [`IdentityMap`] built from the rewriter's
//!    per-block provenance metadata. The mapping is resolved once per
//!    diff into a dense per-slot table (origin, keep/exit/stub, package,
//!    phase), so the per-event fold is one table load; the control kind
//!    and store bit come from the static flags the cursor already loaded.
//! 2. Events from exit blocks and launch stubs are *dropped* before
//!    alignment — they are expected, rewriter-introduced divergences
//!    (dummy consumers, migration glue between linked packages), not
//!    correctness signals.
//! 3. The two visit streams are compared in lockstep, one visit at a time;
//!    no visit sequence is ever materialized, so a diff holds O(context)
//!    state whatever the run length. Each visit carries its non-control
//!    instruction count, conditional-branch count, and an
//!    order-independent memory-address hash, so in-block rescheduling and
//!    layout re-encoding (fall-through `Goto`s, branch-plus-jump
//!    expansion, inverted branches) are tolerated while a wrong
//!    launch-point target, a mis-wired package link, or a corrupted block
//!    body changes the stream and is flagged. Unconditional control events
//!    never create visits: a `Goto` retires an event only when encoded as
//!    a jump, so an *empty* block is visible or invisible purely by where
//!    layout put its successor — such blocks are transparent to the
//!    alignment on both sides.
//!
//! The first mismatch is reported with forensic context: the last N
//! aligned visits (kept in a ring of [`DiffOptions::context`] entries),
//! the expected and actual visit, and the packed side's package/phase
//! attribution. Both streams are then drained, so visit totals and the
//! packed side's drop and migration counts always cover the whole run.
//! [`DiffMode::from_env`] reads the `VP_DIFF` knob (`off` / `report` /
//! `strict`); callers (the `vp-metrics` harness) decide whether a
//! divergence is fatal.
//!
//! The alignment assumes the optimizer preserved the rewriter's
//! block-level structure: in-block rescheduling and relayout are fine,
//! but passes that move instructions *between* blocks (cold sinking,
//! LICM) break the per-visit counts, and callers must skip the diff for
//! such configurations.

use crate::event::col;
use crate::trace_store::{CapturedTrace, TraceCursor};
use crate::StopReason;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use vp_isa::{CodeRef, FuncId};
use vp_trace::{Counter, Histogram};

/// Diff runs performed.
static DIFF_RUNS: Counter = Counter::new("diff.runs");
/// Visits that aligned across the two streams.
static DIFF_ALIGNED: Counter = Counter::new("diff.aligned_visits");
/// Packed-side events dropped because they came from exit blocks.
static DIFF_EXIT_EVENTS: Counter = Counter::new("diff.exit_events");
/// Packed-side events dropped because they came from launch stubs.
static DIFF_STUB_EVENTS: Counter = Counter::new("diff.stub_events");
/// Direct package-to-package control migrations observed.
static DIFF_MIGRATIONS: Counter = Counter::new("diff.migrations");
/// Runs that ended in an unexplained divergence.
static DIFF_DIVERGENCES: Counter = Counter::new("diff.divergences");
/// Retired events spent inside one package per contiguous stay.
static H_RESIDENCY: Histogram = Histogram::new("diff.package_residency");
/// Dropped (exit/stub) events bridging one package-to-package migration.
static H_MIGRATION_GAP: Histogram = Histogram::new("diff.migration_gap");
/// Aligned-visit run length per diff run (the full sequence when clean).
static H_ALIGN_RUN: Histogram = Histogram::new("diff.alignment_run");

/// How the harness reacts to packed-run divergences (`VP_DIFF`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffMode {
    /// Skip differential replay entirely.
    Off,
    /// Diff every packed run; record divergences in counters and report
    /// sections but keep going.
    Report,
    /// Diff every packed run; an unexplained divergence is fatal.
    Strict,
}

impl DiffMode {
    /// Parses one mode name (`off`, `report`, `strict`).
    pub fn parse(s: &str) -> Option<DiffMode> {
        match s {
            "off" => Some(DiffMode::Off),
            "report" => Some(DiffMode::Report),
            "strict" => Some(DiffMode::Strict),
            _ => None,
        }
    }

    /// Reads `VP_DIFF`; unset defaults to [`DiffMode::Report`].
    ///
    /// # Panics
    ///
    /// Panics on a set-but-unrecognized value — a typo silently disabling
    /// the correctness check would defeat its purpose.
    pub fn from_env() -> DiffMode {
        match std::env::var("VP_DIFF") {
            Ok(s) => DiffMode::parse(s.trim())
                .unwrap_or_else(|| panic!("VP_DIFF must be off|report|strict, got {s:?}")),
            Err(_) => DiffMode::Report,
        }
    }
}

/// Provenance of one packed-program block, as recorded by the rewriter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockIdentity {
    /// The original block this package block was copied from (for exit
    /// blocks: the original block the exit transfers to).
    pub origin: CodeRef,
    /// Index of the owning package.
    pub package: u32,
    /// Phase the owning package serves.
    pub phase: u32,
    /// Exit block (dummy consumers; events are expected divergences).
    pub is_exit: bool,
    /// Launch stub (events are expected divergences).
    pub is_stub: bool,
}

/// Maps packed-program locations back to original-program identities.
///
/// Only package functions need entries; locations without one are original
/// code and map to themselves. `vp-core` builds this from `PackOutput`
/// metadata (`PackOutput::identity_map`); the type lives here so the diff
/// engine stays free of a dependency on the packer.
#[derive(Debug, Clone, Default)]
pub struct IdentityMap {
    funcs: BTreeMap<FuncId, Vec<BlockIdentity>>,
}

impl IdentityMap {
    /// An empty map: every location is treated as original code.
    pub fn new() -> IdentityMap {
        IdentityMap::default()
    }

    /// Registers a package function's per-block identities, indexed by
    /// block id (parallel to the installed function's blocks).
    pub fn insert_package(&mut self, func: FuncId, blocks: Vec<BlockIdentity>) {
        self.funcs.insert(func, blocks);
    }

    /// The identity of `loc`, if it is a known package block.
    pub fn lookup(&self, loc: CodeRef) -> Option<&BlockIdentity> {
        self.funcs
            .get(&loc.func)
            .and_then(|blocks| blocks.get(loc.block.0 as usize))
    }

    /// Number of registered package functions.
    pub fn packages(&self) -> usize {
        self.funcs.len()
    }
}

/// One canonical visit: a maximal run of retired events attributed to one
/// original block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// Original-program block the events belong to.
    pub origin: CodeRef,
    /// Non-control retired events in the visit.
    pub plain: u64,
    /// Conditional branches retired in the visit.
    pub cond: u64,
    /// Order-independent hash of the visit's memory effective addresses.
    pub mem: u64,
    /// Package attribution of the packed side (`None` on the original side
    /// and for packed events in original code). Forensic only — alignment
    /// ignores it.
    pub package: Option<u32>,
    /// Phase attribution, parallel to `package`.
    pub phase: Option<u32>,
}

impl Visit {
    fn matches(&self, other: &Visit, check_mem: bool) -> bool {
        self.origin == other.origin
            && self.plain == other.plain
            && self.cond == other.cond
            && (!check_mem || self.mem == other.mem)
    }
}

impl fmt::Display for Visit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f{}b{}: {} insts, {} cond, mem {:#x}",
            self.origin.func.0, self.origin.block.0, self.plain, self.cond, self.mem
        )?;
        if let Some(p) = self.package {
            write!(f, " [package {p}")?;
            if let Some(ph) = self.phase {
                write!(f, ", phase {ph}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Options of one diff run.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Aligned visits to retain as context before the first divergence.
    pub context: usize,
    /// Compare per-visit memory-address hashes (requires that the
    /// optimizer only reordered instructions, never moved them across
    /// blocks).
    pub check_mem: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            context: 8,
            check_mem: true,
        }
    }
}

/// Forensic record of the first alignment mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the first mismatching visit.
    pub index: u64,
    /// The original stream's visit at that index (`None`: stream ended).
    pub expected: Option<Visit>,
    /// The packed stream's visit at that index (`None`: stream ended).
    pub actual: Option<Visit>,
    /// The last aligned visits before the mismatch, oldest first.
    pub context: Vec<Visit>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "first divergence at visit #{}", self.index)?;
        match &self.expected {
            Some(v) => writeln!(f, "  expected (original): {v}")?,
            None => writeln!(f, "  expected (original): <stream ended>")?,
        }
        match &self.actual {
            Some(v) => writeln!(f, "  actual   (packed):   {v}")?,
            None => writeln!(f, "  actual   (packed):   <stream ended>")?,
        }
        writeln!(f, "  last {} aligned visits:", self.context.len())?;
        for v in &self.context {
            writeln!(f, "    {v}")?;
        }
        Ok(())
    }
}

/// Overall verdict of one diff run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Both runs halted and every visit aligned.
    Clean,
    /// At least one run hit its instruction limit; tail mismatches are
    /// expected and nothing is claimed beyond the aligned prefix.
    Truncated,
    /// An unexplained divergence: the packed binary did different
    /// architectural work.
    Diverged,
    /// The diff was not applicable (e.g. block-moving optimizations were
    /// enabled) and was skipped.
    Skipped,
}

impl fmt::Display for DiffVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiffVerdict::Clean => "clean",
            DiffVerdict::Truncated => "truncated",
            DiffVerdict::Diverged => "diverged",
            DiffVerdict::Skipped => "skipped",
        })
    }
}

/// Result of structurally aligning a packed run against the original.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Overall verdict.
    pub verdict: DiffVerdict,
    /// Canonical visits in the original stream.
    pub orig_visits: u64,
    /// Canonical visits in the packed stream (exit/stub events dropped).
    pub packed_visits: u64,
    /// Length of the aligned prefix.
    pub aligned_visits: u64,
    /// Packed events dropped as exit-block noise.
    pub exit_events: u64,
    /// Packed events dropped as launch-stub noise.
    pub stub_events: u64,
    /// Direct package-to-package migrations in the packed stream.
    pub migrations: u64,
    /// First-divergence forensics, present unless fully aligned.
    pub divergence: Option<Divergence>,
}

impl DiffReport {
    /// A report for a configuration where the diff does not apply.
    pub fn skipped() -> DiffReport {
        DiffReport {
            verdict: DiffVerdict::Skipped,
            orig_visits: 0,
            packed_visits: 0,
            aligned_visits: 0,
            exit_events: 0,
            stub_events: 0,
            migrations: 0,
            divergence: None,
        }
    }

    /// Whether this run found no unexplained divergence.
    pub fn is_clean(&self) -> bool {
        self.verdict != DiffVerdict::Diverged
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verdict {}: {}/{} visits aligned ({} original), \
             {} exit + {} stub events dropped, {} migrations",
            self.verdict,
            self.aligned_visits,
            self.packed_visits,
            self.orig_visits,
            self.exit_events,
            self.stub_events,
            self.migrations
        )?;
        if let Some(d) = &self.divergence {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// What a slot's events contribute to the canonical visit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Kept: folded into visits of `SlotInfo::origin`.
    Keep,
    /// Exit-block glue: dropped and counted.
    Exit,
    /// Launch-stub glue: dropped and counted.
    Stub,
}

/// The identity of one static slot, resolved through the identity map once
/// per diff so the per-event path is a single dense-table load instead of
/// an identity-map probe. What kind of instruction the slot holds comes
/// from the parse cursor's static [`col`] flags, not from this table.
#[derive(Debug, Clone, Copy)]
struct SlotInfo {
    /// Original-program block the slot's events belong to.
    origin: CodeRef,
    /// Owning package (packed side, package blocks only).
    package: Option<u32>,
    /// Phase the owning package serves, parallel to `package`.
    phase: Option<u32>,
    role: Role,
}

impl SlotInfo {
    /// Resolves one slot location, mapping package locations back to
    /// original identities through `map` (`None`: the original side,
    /// where every location is its own identity).
    fn of(loc: CodeRef, map: Option<&IdentityMap>) -> SlotInfo {
        let (origin, package, phase, role) = match map.and_then(|m| m.lookup(loc)) {
            Some(id) if id.is_stub => (id.origin, None, None, Role::Stub),
            Some(id) if id.is_exit => (id.origin, None, None, Role::Exit),
            Some(id) => (id.origin, Some(id.package), Some(id.phase), Role::Keep),
            None => (loc, None, None, Role::Keep),
        };
        SlotInfo {
            origin,
            package,
            phase,
            role,
        }
    }
}

/// The incremental visit fold of one retired stream: package residency
/// and migration accounting plus the one open visit.
#[derive(Debug, Default)]
struct VisitFold {
    /// The visit being accumulated; it closes when a kept event of
    /// another origin arrives or the stream ends.
    open: Option<Visit>,
    /// Dropped events since the last kept event.
    dropped_run: u64,
    exit_events: u64,
    stub_events: u64,
    migrations: u64,
    cur_pkg: Option<u32>,
    cur_residency: u64,
}

impl VisitFold {
    /// Folds one event of slot `s` (static [`col`] flags `flags`, effective
    /// address `mem`, if any) and returns the visit it closed, if any.
    ///
    /// `MAPPED = false` compiles the fold for a stream resolved without an
    /// identity map (the original side): every slot is then kept and
    /// outside any package, so the drop and package machinery never fires
    /// and is left out.
    #[inline(always)]
    fn push<const MAPPED: bool>(
        &mut self,
        s: &SlotInfo,
        flags: u8,
        mem: Option<u64>,
    ) -> Option<Visit> {
        if MAPPED {
            match s.role {
                Role::Keep => {}
                Role::Exit => {
                    self.exit_events += 1;
                    self.dropped_run += 1;
                    return None;
                }
                Role::Stub => {
                    self.stub_events += 1;
                    self.dropped_run += 1;
                    return None;
                }
            }

            // Package residency and migration tracking (event granularity).
            if s.package != self.cur_pkg {
                self.end_residency();
                if s.package.is_some() && self.cur_pkg.is_some() {
                    // Direct package-to-package transfer: an inter-package
                    // link, bridged only by dropped exit-block glue.
                    self.migrations += 1;
                    H_MIGRATION_GAP.observe(self.dropped_run);
                }
                self.cur_pkg = s.package;
                if let Some(pkg) = s.package {
                    // Flight payload: (package id, events dropped in the
                    // gap since the last in-package event) — the
                    // package-switch timeline.
                    vp_trace::flight("diff.pkg_enter", u64::from(pkg), self.dropped_run);
                }
            }
            if s.package.is_some() {
                self.cur_residency += 1;
            }
            self.dropped_run = 0;
        }

        // An unconditional control transfer is a layout artifact, never
        // work. A `Goto` retires an event when encoded as a jump and
        // nothing when its target is the fall-through, so whether an
        // *empty* block appears in the stream at all depends on where
        // relayout put its successor. Visits are therefore built only from
        // architectural work — plain instructions and conditional
        // decisions. (`COND` implies `CTRL`.)
        if flags & (col::CTRL | col::COND) == col::CTRL {
            return None;
        }
        let plain = u64::from(flags & col::CTRL == 0);
        let cond = u64::from(flags & col::COND != 0);
        // Fold the memory address in order-independently: in-block
        // rescheduling reorders loads/stores without changing their
        // effective addresses.
        let mem = mem.map_or(0, |a| {
            a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(flags & col::STORE != 0)
        });
        match &mut self.open {
            // Merge into the open visit of the same origin. Merging is on
            // origin alone (not package): a packed stream that leaves a
            // package mid-block-run and re-enters the same original block
            // must collapse exactly like the original stream does.
            Some(v) if v.origin == s.origin => {
                v.plain += plain;
                v.cond += cond;
                v.mem = v.mem.wrapping_add(mem);
                None
            }
            open => open.replace(Visit {
                origin: s.origin,
                plain,
                cond,
                mem,
                package: s.package,
                phase: s.phase,
            }),
        }
    }

    /// Records the current package stay, if any, as finished.
    fn end_residency(&mut self) {
        if self.cur_pkg.is_some() && self.cur_residency > 0 {
            H_RESIDENCY.observe(self.cur_residency);
        }
        self.cur_residency = 0;
    }

    /// Ends the stream: closes the residency and hands back the last
    /// visit.
    fn finish(&mut self) -> Option<Visit> {
        self.end_residency();
        self.cur_pkg = None;
        self.open.take()
    }
}

/// One trace's canonical visits, pulled one at a time: the trace's
/// [`TraceCursor`] feeding a [`VisitFold`] through the per-slot table.
/// `MAPPED` is whether the slots were resolved through an identity map
/// ([`VisitFold::push`]).
struct VisitStream<'t, const MAPPED: bool> {
    cursor: TraceCursor<'t>,
    slots: Vec<SlotInfo>,
    fold: VisitFold,
    /// Visits yielded so far.
    visits: u64,
    done: bool,
}

impl<'t, const MAPPED: bool> VisitStream<'t, MAPPED> {
    fn new(trace: &'t CapturedTrace, map: Option<&IdentityMap>) -> VisitStream<'t, MAPPED> {
        debug_assert_eq!(MAPPED, map.is_some());
        VisitStream {
            cursor: trace.replay_cursor(),
            slots: trace
                .slot_templates()
                .map(|t| SlotInfo::of(t.loc, map))
                .collect(),
            fold: VisitFold::default(),
            visits: 0,
            done: false,
        }
    }

    /// Consumes the rest of the stream; returns the total visit count.
    fn drain(&mut self) -> u64 {
        while self.next().is_some() {}
        self.visits
    }
}

impl<const MAPPED: bool> Iterator for VisitStream<'_, MAPPED> {
    type Item = Visit;

    fn next(&mut self) -> Option<Visit> {
        if self.done {
            return None;
        }
        for rec in self.cursor.by_ref() {
            let mem = rec.has_mem().then_some(rec.mem);
            let slot = &self.slots[rec.slot];
            if let Some(v) = self.fold.push::<MAPPED>(slot, rec.slot_flags(), mem) {
                self.visits += 1;
                return Some(v);
            }
        }
        self.done = true;
        let last = self.fold.finish();
        self.visits += u64::from(last.is_some());
        last
    }
}

/// The last `cap` aligned visits: the forensic context of a divergence.
///
/// The buffer starts at `min(cap, 64)` and grows on demand, so a huge
/// [`DiffOptions::context`] costs memory only in proportion to the visits
/// actually retained.
struct ContextRing {
    buf: VecDeque<Visit>,
    cap: usize,
}

impl ContextRing {
    fn new(cap: usize) -> ContextRing {
        ContextRing {
            buf: VecDeque::with_capacity(cap.min(64)),
            cap,
        }
    }

    fn push(&mut self, v: Visit) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(v);
    }
}

/// Aligns the packed run's retired stream against the original capture.
///
/// Pulls both canonical visit streams in lockstep (mapping the packed side
/// through `map`, dropping exit/stub events) and compares them visit by
/// visit as they arrive; only the last `opts.context` aligned visits are
/// retained. After the first mismatch both streams are drained so the
/// visit totals and the packed side's drop/migration accounting still
/// cover the whole run. Counters (`diff.*`) and the
/// residency/migration/alignment histograms are recorded as side effects.
pub fn diff_traces(
    original: &CapturedTrace,
    packed: &CapturedTrace,
    map: &IdentityMap,
    opts: &DiffOptions,
) -> DiffReport {
    let _s = vp_trace::span("exec.diff");
    let mut orig = VisitStream::<false>::new(original, None);
    let mut pack = VisitStream::<true>::new(packed, Some(map));
    let mut ring = ContextRing::new(opts.context);
    let mut aligned = 0u64;
    // The first mismatch: the two visits at index `aligned`, either of
    // which may be `None` (that stream ended).
    let mismatch = loop {
        match (orig.next(), pack.next()) {
            (None, None) => break None,
            (Some(o), Some(p)) if o.matches(&p, opts.check_mem) => {
                aligned += 1;
                ring.push(o);
            }
            (o, p) => break Some((o, p)),
        }
    };
    let orig_visits = orig.drain();
    let packed_visits = pack.drain();
    let fold = &pack.fold;

    let truncated =
        original.stats().stop != StopReason::Halted || packed.stats().stop != StopReason::Halted;
    // Truncation only excuses mismatches at the *tail* of the common
    // prefix (a partial final visit, or one stream ending early); an early
    // mismatch with a truncated run is still a real divergence.
    let tail_mismatch = aligned + 1 >= orig_visits.min(packed_visits);
    let verdict = match (&mismatch, truncated) {
        (None, false) => DiffVerdict::Clean,
        (None, true) => DiffVerdict::Truncated,
        (Some(_), true) if tail_mismatch => DiffVerdict::Truncated,
        (Some(_), _) => DiffVerdict::Diverged,
    };
    let divergence = mismatch.map(|(expected, actual)| Divergence {
        index: aligned,
        expected,
        actual,
        context: ring.buf.into(),
    });

    DIFF_RUNS.incr();
    DIFF_ALIGNED.add(aligned);
    DIFF_EXIT_EVENTS.add(fold.exit_events);
    DIFF_STUB_EVENTS.add(fold.stub_events);
    DIFF_MIGRATIONS.add(fold.migrations);
    if verdict == DiffVerdict::Diverged {
        DIFF_DIVERGENCES.incr();
        // Flight payload: (first mismatched visit index, aligned prefix).
        vp_trace::flight("diff.divergence", aligned, aligned);
    }
    H_ALIGN_RUN.observe(aligned);

    DiffReport {
        verdict,
        orig_visits,
        packed_visits,
        aligned_visits: aligned,
        exit_events: fold.exit_events,
        stub_events: fold.stub_events,
        migrations: fold.migrations,
        divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunConfig;
    use vp_isa::Reg;
    use vp_program::{Layout, ProgramBuilder};

    fn captured(p: &vp_program::Program) -> CapturedTrace {
        let layout = Layout::natural(p);
        CapturedTrace::capture(p, &layout, &RunConfig::default()).expect("capture")
    }

    fn counting_loop(extra_nop: bool) -> vp_program::Program {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let i = Reg::int(8);
            f.li(i, 0);
            f.for_range(i, 0, 50, |f| {
                f.addi(Reg::int(9), Reg::int(9), 1);
                if extra_nop {
                    f.nop();
                }
            });
            f.halt();
        });
        pb.build()
    }

    #[test]
    fn identical_programs_diff_clean() {
        let p = counting_loop(false);
        let a = captured(&p);
        let b = captured(&p);
        let rep = diff_traces(&a, &b, &IdentityMap::new(), &DiffOptions::default());
        assert_eq!(rep.verdict, DiffVerdict::Clean, "{rep}");
        assert_eq!(rep.aligned_visits, rep.orig_visits);
        assert!(rep.divergence.is_none());
    }

    #[test]
    fn different_block_bodies_diverge_with_context() {
        let a = captured(&counting_loop(false));
        let b = captured(&counting_loop(true));
        let rep = diff_traces(&a, &b, &IdentityMap::new(), &DiffOptions::default());
        assert_eq!(rep.verdict, DiffVerdict::Diverged, "{rep}");
        let rendered = format!("{rep}");
        assert!(rendered.contains("first divergence"), "{rendered}");
        let d = rep.divergence.expect("forensics attached");
        assert!(d.expected.is_some() && d.actual.is_some());
        assert_eq!(
            d.expected.unwrap().origin,
            d.actual.unwrap().origin,
            "same block, different instruction count"
        );
        assert_ne!(d.expected.unwrap().plain, d.actual.unwrap().plain);
        // Context holds the visits leading up to the loop body.
        assert!(d.context.len() <= DiffOptions::default().context);
    }

    #[test]
    fn identity_map_folds_copies_back_and_drops_exits() {
        // "Package" simulation: main calls `helper`; the packed variant
        // calls an appended copy whose blocks map back to the original.
        let build = |packed: bool| {
            let mut pb = ProgramBuilder::new();
            // Original functions keep their ids; the copy is appended
            // after them, exactly like the rewriter installs packages.
            let helper = pb.declare("helper");
            let main = pb.declare("main");
            pb.define(helper, |f| {
                f.addi(Reg::ARG0, Reg::ARG0, 7);
                f.ret();
            });
            let copy = if packed {
                let c = pb.declare("helper$pkg");
                pb.define(c, |f| {
                    f.addi(Reg::ARG0, Reg::ARG0, 7);
                    f.ret();
                });
                Some(c)
            } else {
                None
            };
            pb.define(main, |f| {
                f.li(Reg::ARG0, 1);
                f.call(copy.unwrap_or(helper));
                f.halt();
            });
            pb.set_entry(main);
            (pb.build(), copy, helper)
        };

        let (orig, _, _) = build(false);
        let (packed, copy, helper) = build(true);
        let copy = copy.unwrap();

        let mut map = IdentityMap::new();
        let blocks: Vec<BlockIdentity> = packed
            .func(copy)
            .blocks
            .iter()
            .enumerate()
            .map(|(b, _)| BlockIdentity {
                origin: CodeRef {
                    func: helper,
                    block: vp_isa::BlockId(b as u32),
                },
                package: 0,
                phase: 0,
                is_exit: false,
                is_stub: false,
            })
            .collect();
        map.insert_package(copy, blocks);

        let a = captured(&orig);
        let b = captured(&packed);
        let rep = diff_traces(&a, &b, &map, &DiffOptions::default());
        assert_eq!(rep.verdict, DiffVerdict::Clean, "{rep}");

        // A wrong identity (the corrupted-metadata case) must diverge.
        let mut bad = IdentityMap::new();
        bad.insert_package(
            copy,
            packed
                .func(copy)
                .blocks
                .iter()
                .enumerate()
                .map(|(b, _)| BlockIdentity {
                    origin: CodeRef {
                        func: helper,
                        block: vp_isa::BlockId(b as u32 + 1),
                    },
                    package: 0,
                    phase: 0,
                    is_exit: false,
                    is_stub: false,
                })
                .collect(),
        );
        let rep = diff_traces(&a, &b, &bad, &DiffOptions::default());
        assert_eq!(rep.verdict, DiffVerdict::Diverged, "{rep}");
    }

    #[test]
    fn exit_and_stub_events_are_dropped_and_counted() {
        // Fold a hand-rolled stream: one original block, then an exit
        // block, then a stub.
        let ev = crate::event::Retired {
            loc: CodeRef::new(0, 0),
            addr: 0,
            fu: vp_isa::FuClass::IntAlu,
            latency: 1,
            def: None,
            uses: [None; 3],
            mem_addr: None,
            is_store: false,
            ctrl: None,
            in_package: false,
        };
        let flags = crate::event::col::pack_flags(&ev);
        let mut b = VisitFold::default();
        assert_eq!(
            b.push::<false>(&SlotInfo::of(ev.loc, None), flags, None),
            None
        );
        let v = b.finish().expect("one open visit");
        assert_eq!((v.origin, v.plain), (ev.loc, 1));

        let mut map = IdentityMap::new();
        map.insert_package(
            FuncId(9),
            vec![
                BlockIdentity {
                    origin: CodeRef::new(0, 0),
                    package: 0,
                    phase: 0,
                    is_exit: true,
                    is_stub: false,
                },
                BlockIdentity {
                    origin: CodeRef::new(0, 0),
                    package: 0,
                    phase: 0,
                    is_exit: false,
                    is_stub: true,
                },
            ],
        );
        let mut pbuild = VisitFold::default();
        pbuild.push::<true>(&SlotInfo::of(CodeRef::new(9, 0), Some(&map)), flags, None);
        pbuild.push::<true>(&SlotInfo::of(CodeRef::new(9, 1), Some(&map)), flags, None);
        assert_eq!(pbuild.finish(), None);
        assert_eq!(pbuild.exit_events, 1);
        assert_eq!(pbuild.stub_events, 1);
    }

    #[test]
    fn huge_context_on_a_clean_diff_allocates_lazily() {
        // `context` is public: an absurd value must neither abort on an
        // upfront reservation nor change a clean verdict.
        let a = captured(&counting_loop(false));
        let opts = DiffOptions {
            context: usize::MAX,
            ..DiffOptions::default()
        };
        let rep = diff_traces(&a, &a, &IdentityMap::new(), &opts);
        assert_eq!(rep.verdict, DiffVerdict::Clean, "{rep}");
        assert_eq!(rep.aligned_visits, rep.orig_visits);
        assert!(rep.divergence.is_none());
    }

    #[test]
    fn context_ring_keeps_only_the_newest_visits() {
        let visit = |block| Visit {
            origin: CodeRef::new(0, block),
            plain: 1,
            cond: 0,
            mem: 0,
            package: None,
            phase: None,
        };
        let mut ring = ContextRing::new(3);
        for b in 0..10 {
            ring.push(visit(b));
        }
        let kept: Vec<Visit> = ring.buf.into();
        assert_eq!(kept, vec![visit(7), visit(8), visit(9)]);
        let mut none = ContextRing::new(0);
        none.push(visit(0));
        assert!(none.buf.is_empty());
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(DiffMode::parse("off"), Some(DiffMode::Off));
        assert_eq!(DiffMode::parse("report"), Some(DiffMode::Report));
        assert_eq!(DiffMode::parse("strict"), Some(DiffMode::Strict));
        assert_eq!(DiffMode::parse("bogus"), None);
    }

    #[test]
    fn diff_records_counters_and_histograms() {
        let p = counting_loop(false);
        let a = captured(&p);
        let ((), report) = vp_trace::scoped(|| {
            let rep = diff_traces(&a, &a, &IdentityMap::new(), &DiffOptions::default());
            assert_eq!(rep.verdict, DiffVerdict::Clean);
        });
        assert_eq!(report.counter("diff.runs"), 1);
        assert!(report.counter("diff.aligned_visits") > 0);
        assert_eq!(report.counter("diff.divergences"), 0);
        assert!(report.histogram("diff.alignment_run").count >= 1);
    }
}
