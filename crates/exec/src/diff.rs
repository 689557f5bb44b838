//! Differential replay: structural alignment of a packed binary's retired
//! stream against the original binary's capture.
//!
//! Rewriting (`vp-core`) promises that the packed binary does *the same
//! architectural work* as the original — launch points, package links, and
//! exit blocks redirect control flow but never change what is computed.
//! This module checks that promise per run, rather than trusting it:
//!
//! 1. Both retired streams are folded, as they arrive, into canonical
//!    **visits**. A visit is a maximal run of retired events attributed to
//!    one original block. The packed stream is *pushed* into a [`Differ`],
//!    a [`Sink`] that can ride any replay (or live run) of the
//!    packed binary next to its other consumers; its events are mapped
//!    back to original identities through an [`IdentityMap`] built from
//!    the rewriter's per-block provenance metadata, resolved once per diff
//!    into a dense per-function block table. The original stream is
//!    *pulled* from its capture's own cursor, a chunk of visits at a time.
//! 2. Events from exit blocks and launch stubs are *dropped* before
//!    alignment — they are expected, rewriter-introduced divergences
//!    (dummy consumers, migration glue between linked packages), not
//!    correctness signals.
//! 3. The two visit streams are compared chunk against chunk as the packed
//!    side fills; no visit sequence is ever materialized, so a diff holds
//!    O(context + chunk) state whatever the run length. Each visit carries
//!    its non-control instruction count, conditional-branch count, and an
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

use crate::event::{col, ColEvent, Sink};
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// Origin of "no visit open" (no block has this identity).
const NO_ORIGIN: u64 = u64::MAX;
/// Attribution of events outside any package.
const NO_ATTR: u64 = u64::MAX;
/// Package of events outside any package (the high half of [`NO_ATTR`]).
const NO_PKG: u32 = u32::MAX;

/// A block identity as one comparable word.
#[inline(always)]
fn origin_key(c: CodeRef) -> u64 {
    u64::from(c.func.0) << 32 | u64::from(c.block.0)
}

/// A visit without its attribution, in the form the kernel compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cv {
    origin: u64,
    plain: u64,
    cond: u64,
    mem: u64,
}

impl Cv {
    /// The state of a stream with no visit open.
    const NONE: Cv = Cv {
        origin: NO_ORIGIN,
        plain: 0,
        cond: 0,
        mem: 0,
    };

    /// Whether both visits did the same work; `mem_mask` is all ones
    /// when memory hashes are compared, zero otherwise.
    #[inline(always)]
    fn same_work(&self, other: &Cv, mem_mask: u64) -> bool {
        self.origin == other.origin
            && self.plain == other.plain
            && self.cond == other.cond
            && (self.mem ^ other.mem) & mem_mask == 0
    }

    /// The forensic form, with the packed side's `attr`ibution
    /// (`package << 32 | phase`, or [`NO_ATTR`]).
    fn visit(self, attr: u64) -> Visit {
        let (package, phase) = if attr == NO_ATTR {
            (None, None)
        } else {
            (Some((attr >> 32) as u32), Some(attr as u32))
        };
        Visit {
            origin: CodeRef::new((self.origin >> 32) as u32, self.origin as u32),
            plain: self.plain,
            cond: self.cond,
            mem: self.mem,
            package,
            phase,
        }
    }
}

/// Folds one kept event (column `flags`, effective address `mem`) of
/// block `origin` into the stream's `open` visit. Returns the previous
/// open visit when the event opened a new one — [`Cv::NONE`] at the
/// start of the stream.
#[inline(always)]
fn fold(open: &mut Cv, origin: u64, flags: u8, mem: u64) -> Option<Cv> {
    // An unconditional control transfer is a layout artifact, never work.
    // A `Goto` retires an event when encoded as a jump and nothing when
    // its target is the fall-through, so whether an *empty* block appears
    // in the stream at all depends on where relayout put its successor.
    // Visits are therefore built only from architectural work — plain
    // instructions and conditional decisions. (`COND` implies `CTRL`.)
    if flags & (col::CTRL | col::COND) == col::CTRL {
        return None;
    }
    let plain = u64::from(flags & col::CTRL == 0);
    let cond = u64::from(flags & col::COND != 0);
    // Fold the memory address in order-independently: in-block
    // rescheduling reorders loads/stores without changing their
    // effective addresses.
    let mem = if flags & col::MEM != 0 {
        mem.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(flags & col::STORE)
    } else {
        0
    };
    // Merging is on origin alone (not package): a packed stream that
    // leaves a package mid-block-run and re-enters the same original
    // block must collapse exactly like the original stream does.
    if open.origin == origin {
        open.plain += plain;
        open.cond += cond;
        open.mem = open.mem.wrapping_add(mem);
        None
    } else {
        Some(std::mem::replace(
            open,
            Cv {
                origin,
                plain,
                cond,
                mem,
            },
        ))
    }
}

/// The original capture's canonical visits, pulled a chunk at a time
/// from its own [`TraceCursor`]. Every location is its own identity.
struct OrigVisits<'t> {
    cursor: TraceCursor<'t>,
    open: Cv,
    /// Visits pulled so far.
    visits: u64,
    done: bool,
}

impl OrigVisits<'_> {
    /// Fills `out` with the next visits; returns how many it wrote (fewer
    /// than `out.len()` only at the end of the stream). The cursor and
    /// the open visit stay in locals for the whole fill.
    fn fill(&mut self, out: &mut [Cv]) -> usize {
        if self.done || out.is_empty() {
            return 0;
        }
        let mut cursor = self.cursor.clone();
        let mut open = self.open;
        let mut n = 0;
        loop {
            let Some(rec) = cursor.next() else {
                self.done = true;
                if open.origin != NO_ORIGIN {
                    out[n] = std::mem::replace(&mut open, Cv::NONE);
                    n += 1;
                }
                break;
            };
            let e = rec.col_event();
            if let Some(closed) = fold(&mut open, origin_key(e.loc), e.flags, e.mem) {
                if closed.origin != NO_ORIGIN {
                    out[n] = closed;
                    n += 1;
                    if n == out.len() {
                        break;
                    }
                }
            }
        }
        self.cursor = cursor;
        self.open = open;
        self.visits += n as u64;
        n
    }
}

/// What a packed block's events contribute to the canonical visit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Kept: folded into visits of `PackedBlock::origin`.
    Keep,
    /// Exit-block glue: dropped and counted.
    Exit,
    /// Launch-stub glue: dropped and counted.
    Stub,
}

/// One packed block resolved through the identity map.
#[derive(Debug, Clone, Copy)]
struct PackedBlock {
    origin: u64,
    /// `package << 32 | phase`, or [`NO_ATTR`] outside packages.
    attr: u64,
    role: Role,
}

impl PackedBlock {
    fn of(id: &BlockIdentity) -> PackedBlock {
        let (attr, role) = if id.is_stub {
            (NO_ATTR, Role::Stub)
        } else if id.is_exit {
            (NO_ATTR, Role::Exit)
        } else {
            (
                u64::from(id.package) << 32 | u64::from(id.phase),
                Role::Keep,
            )
        };
        PackedBlock {
            origin: origin_key(id.origin),
            attr,
            role,
        }
    }
}

/// The last `cap` aligned original visits: the forensic context of a
/// divergence. It is fed a chunk at a time.
///
/// The buffer starts at `min(cap, 64)` and grows on demand, so a huge
/// [`DiffOptions::context`] costs memory only in proportion to the visits
/// actually retained.
struct ContextRing {
    buf: VecDeque<Cv>,
    cap: usize,
}

impl ContextRing {
    fn new(cap: usize) -> ContextRing {
        ContextRing {
            buf: VecDeque::with_capacity(cap.min(64)),
            cap,
        }
    }

    /// Appends `aligned` (oldest first), keeping only the newest `cap`.
    fn extend(&mut self, aligned: &[Cv]) {
        let keep = &aligned[aligned.len().saturating_sub(self.cap)..];
        let over = (self.buf.len() + keep.len()).saturating_sub(self.cap);
        self.buf.drain(..over.min(self.buf.len()));
        self.buf.extend(keep);
    }
}

/// The streaming differential replay: a [`Sink`] over the *packed*
/// binary's retired stream that aligns it against the original capture.
///
/// Packed events are resolved by [`ColEvent::loc`] through a dense
/// per-function block table built once from the [`IdentityMap`] (other
/// functions map to themselves), so the differ works the same fed live
/// by [`CapturedTrace::capture_with`] or by a replay, and rides along any
/// other consumer of the packed stream. Exit and stub events are dropped
/// and counted; the rest fold into visits, which the differ buffers
/// [`Differ::CHUNK`] at a time. Each full chunk pulls as many visits from
/// the original capture's own cursor and compares the two slices;
/// aligned original visits feed the forensic context ring. After the first
/// mismatch the packed side only counts. [`Differ::finish`] compares the
/// last partial chunk, drains the original and returns the report, so
/// visit totals and drop/migration counts always cover the whole run.
/// Heap use is O(context + chunk), whatever the run length.
pub struct Differ<'t> {
    original: &'t CapturedTrace,
    orig: OrigVisits<'t>,
    /// Per function id: `(start, len)` of its blocks in `blocks`; `len`
    /// 0 for functions outside the identity map.
    ranges: Vec<(u32, u32)>,
    blocks: Vec<PackedBlock>,
    mem_mask: u64,
    // The packed fold.
    open: Cv,
    open_attr: u64,
    cur_pkg: u32,
    cur_residency: u64,
    /// Dropped events since the last kept event.
    dropped_run: u64,
    exit_events: u64,
    stub_events: u64,
    migrations: u64,
    // The chunked comparison.
    pbuf: Box<[Cv]>,
    pattr: Box<[u64]>,
    plen: usize,
    obuf: Box<[Cv]>,
    packed_visits: u64,
    aligned: u64,
    ring: ContextRing,
    /// The two visits at index `aligned` once they mismatched; either
    /// may be `None` (that stream ended).
    mismatch: Option<(Option<Visit>, Option<Visit>)>,
}

impl<'t> Differ<'t> {
    /// Visits per comparison chunk: the packed side buffers this many
    /// closed visits, then pulls as many from the original and compares
    /// the two slices.
    pub const CHUNK: usize = 256;

    /// A differ checking a packed run against `original`, mapping packed
    /// locations back through `map`.
    pub fn new(original: &'t CapturedTrace, map: &IdentityMap, opts: &DiffOptions) -> Differ<'t> {
        let nfuncs = map.funcs.keys().last().map_or(0, |f| f.0 as usize + 1);
        let mut ranges = vec![(0, 0); nfuncs];
        let mut blocks = Vec::new();
        for (f, ids) in &map.funcs {
            ranges[f.0 as usize] = (blocks.len() as u32, ids.len() as u32);
            blocks.extend(ids.iter().map(PackedBlock::of));
        }
        Differ {
            original,
            orig: OrigVisits {
                cursor: original.replay_cursor(),
                open: Cv::NONE,
                visits: 0,
                done: false,
            },
            ranges,
            blocks,
            mem_mask: if opts.check_mem { u64::MAX } else { 0 },
            open: Cv::NONE,
            open_attr: NO_ATTR,
            cur_pkg: NO_PKG,
            cur_residency: 0,
            dropped_run: 0,
            exit_events: 0,
            stub_events: 0,
            migrations: 0,
            pbuf: vec![Cv::NONE; Self::CHUNK].into(),
            pattr: vec![NO_ATTR; Self::CHUNK].into(),
            plen: 0,
            obuf: vec![Cv::NONE; Self::CHUNK].into(),
            packed_visits: 0,
            aligned: 0,
            ring: ContextRing::new(opts.context),
            mismatch: None,
        }
    }

    /// The identity of one packed location.
    #[inline(always)]
    fn resolve(&self, loc: CodeRef) -> PackedBlock {
        if let Some(&(start, len)) = self.ranges.get(loc.func.0 as usize) {
            if loc.block.0 < len {
                return self.blocks[(start + loc.block.0) as usize];
            }
        }
        PackedBlock {
            origin: origin_key(loc),
            attr: NO_ATTR,
            role: Role::Keep,
        }
    }

    /// Counts one dropped exit or stub event.
    #[cold]
    fn drop_event(&mut self, role: Role) {
        if role == Role::Exit {
            self.exit_events += 1;
        } else {
            self.stub_events += 1;
        }
        self.dropped_run += 1;
    }

    /// Package residency and migration tracking, at event granularity:
    /// a kept event entered package `pkg` (or left packages, [`NO_PKG`]).
    #[cold]
    fn switch_package(&mut self, pkg: u32) {
        self.end_residency();
        if pkg != NO_PKG && self.cur_pkg != NO_PKG {
            // Direct package-to-package transfer: an inter-package link,
            // bridged only by dropped exit-block glue.
            self.migrations += 1;
            H_MIGRATION_GAP.observe(self.dropped_run);
        }
        self.cur_pkg = pkg;
        if pkg != NO_PKG {
            // Flight payload: (package id, events dropped in the gap since
            // the last in-package event) — the package-switch timeline.
            vp_trace::flight("diff.pkg_enter", u64::from(pkg), self.dropped_run);
        }
    }

    /// Records the current package stay, if any, as finished.
    fn end_residency(&mut self) {
        if self.cur_pkg != NO_PKG && self.cur_residency > 0 {
            H_RESIDENCY.observe(self.cur_residency);
        }
        self.cur_residency = 0;
    }

    /// Buffers one closed packed visit, comparing a full chunk.
    #[inline(always)]
    fn push_visit(&mut self, v: Cv, attr: u64) {
        self.pbuf[self.plen] = v;
        self.pattr[self.plen] = attr;
        self.plen += 1;
        if self.plen == Self::CHUNK {
            self.compare_chunk();
        }
    }

    /// Compares the buffered packed visits against as many original
    /// visits, slice against slice, and empties the buffer.
    #[inline(never)]
    fn compare_chunk(&mut self) {
        let n = std::mem::take(&mut self.plen);
        self.packed_visits += n as u64;
        if self.mismatch.is_some() {
            return;
        }
        let got = self.orig.fill(&mut self.obuf[..n]);
        let orig = &self.obuf[..got];
        let packed = &self.pbuf[..n];
        let first = orig
            .iter()
            .zip(packed)
            .position(|(o, p)| !o.same_work(p, self.mem_mask))
            .or((got < n).then_some(got));
        let Some(i) = first else {
            self.ring.extend(orig);
            self.aligned += n as u64;
            return;
        };
        self.ring.extend(&orig[..i]);
        self.aligned += i as u64;
        self.mismatch = Some((
            orig.get(i).map(|o| o.visit(NO_ATTR)),
            Some(packed[i].visit(self.pattr[i])),
        ));
    }

    /// Ends the packed stream, whose run stopped for `packed_stop`:
    /// compares the last chunk, drains the original, records the `diff.*`
    /// counters and histograms, and returns the report.
    pub fn finish(mut self, packed_stop: StopReason) -> DiffReport {
        let last = std::mem::replace(&mut self.open, Cv::NONE);
        if last.origin != NO_ORIGIN {
            self.push_visit(last, self.open_attr);
        }
        self.end_residency();
        self.compare_chunk();
        if self.mismatch.is_none() && self.orig.fill(&mut self.obuf[..1]) == 1 {
            // The packed stream ended first.
            self.mismatch = Some((Some(self.obuf[0].visit(NO_ATTR)), None));
        }
        while self.orig.fill(&mut self.obuf) > 0 {}

        let (aligned, orig_visits, packed_visits) =
            (self.aligned, self.orig.visits, self.packed_visits);
        let truncated =
            self.original.stats().stop != StopReason::Halted || packed_stop != StopReason::Halted;
        // Truncation only excuses mismatches at the *tail* of the common
        // prefix (a partial final visit, or one stream ending early); an
        // early mismatch with a truncated run is still a real divergence.
        let tail_mismatch = aligned + 1 >= orig_visits.min(packed_visits);
        let verdict = match (&self.mismatch, truncated) {
            (None, false) => DiffVerdict::Clean,
            (None, true) => DiffVerdict::Truncated,
            (Some(_), true) if tail_mismatch => DiffVerdict::Truncated,
            (Some(_), _) => DiffVerdict::Diverged,
        };
        let ring = self.ring.buf;
        let divergence = self.mismatch.map(|(expected, actual)| Divergence {
            index: aligned,
            expected,
            actual,
            context: ring.into_iter().map(|v| v.visit(NO_ATTR)).collect(),
        });

        DIFF_RUNS.incr();
        DIFF_ALIGNED.add(aligned);
        DIFF_EXIT_EVENTS.add(self.exit_events);
        DIFF_STUB_EVENTS.add(self.stub_events);
        DIFF_MIGRATIONS.add(self.migrations);
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
            exit_events: self.exit_events,
            stub_events: self.stub_events,
            migrations: self.migrations,
            divergence,
        }
    }
}

impl Sink for Differ<'_> {
    #[inline]
    fn retire(&mut self, e: ColEvent) {
        let b = self.resolve(e.loc);
        if b.role != Role::Keep {
            self.drop_event(b.role);
            return;
        }
        let pkg = (b.attr >> 32) as u32;
        if pkg != self.cur_pkg {
            self.switch_package(pkg);
        }
        self.cur_residency += u64::from(pkg != NO_PKG);
        self.dropped_run = 0;
        if let Some(closed) = fold(&mut self.open, b.origin, e.flags, e.mem) {
            let attr = std::mem::replace(&mut self.open_attr, b.attr);
            if closed.origin != NO_ORIGIN {
                self.push_visit(closed, attr);
            }
        }
    }
}

/// Aligns the packed run's retired stream against the original capture:
/// one replay of `packed` into a [`Differ`].
///
/// Counters (`diff.*`) and the residency/migration/alignment histograms
/// are recorded as side effects.
pub fn diff_traces(
    original: &CapturedTrace,
    packed: &CapturedTrace,
    map: &IdentityMap,
    opts: &DiffOptions,
) -> DiffReport {
    let _s = vp_trace::span("exec.diff");
    let mut differ = Differ::new(original, map, opts);
    let stop = packed.replay(&mut differ).stop;
    differ.finish(stop)
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
        // Push a hand-rolled packed stream: an exit-block event, a stub
        // event, then one kept event of the original's only block.
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
        let identity = |is_exit, is_stub| BlockIdentity {
            origin: CodeRef::new(0, 0),
            package: 0,
            phase: 0,
            is_exit,
            is_stub,
        };
        let mut map = IdentityMap::new();
        map.insert_package(
            FuncId(9),
            vec![identity(true, false), identity(false, true)],
        );
        let original = captured(&counting_loop(false));
        let mut differ = Differ::new(&original, &map, &DiffOptions::default());
        for loc in [CodeRef::new(9, 0), CodeRef::new(9, 1), ev.loc] {
            differ.retire(col::event(&crate::event::Retired { loc, ..ev }));
        }
        let rep = differ.finish(StopReason::Halted);
        assert_eq!((rep.exit_events, rep.stub_events), (1, 1));
        assert_eq!(rep.packed_visits, 1, "only the kept event makes a visit");
        let d = rep.divergence.expect("a one-event run diverges");
        assert_eq!(d.actual.map(|v| (v.origin, v.plain)), Some((ev.loc, 1)));
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
        let visit = |block| Cv {
            origin: origin_key(CodeRef::new(0, block)),
            plain: 1,
            cond: 0,
            mem: 0,
        };
        let visits: Vec<Cv> = (0..10).map(visit).collect();
        let mut ring = ContextRing::new(3);
        ring.extend(&visits[..2]);
        ring.extend(&visits[2..3]);
        ring.extend(&visits[3..]);
        let kept: Vec<Cv> = ring.buf.into();
        assert_eq!(kept, [visit(7), visit(8), visit(9)]);
        // Chunks shorter than the ring keep older chunks' tails.
        let mut ring = ContextRing::new(4);
        ring.extend(&visits[..3]);
        ring.extend(&visits[3..5]);
        let kept: Vec<Cv> = ring.buf.into();
        assert_eq!(kept, [visit(1), visit(2), visit(3), visit(4)]);
        let mut none = ContextRing::new(0);
        none.extend(&visits);
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
