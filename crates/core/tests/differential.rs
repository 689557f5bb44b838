//! Differential replay against the real packing pipeline: a correctly
//! rewritten binary must diff clean against the original capture, an
//! injected rewriting fault (a corrupted launch-point target) must be
//! detected and reported with first-divergence forensics, and the
//! streaming [`Differ`] — fed live by the packed capture or by a replay —
//! must agree exactly with a materializing reference on every hand-built
//! workload, clean and corrupted, including divergences at its chunk
//! edges.

use std::collections::BTreeMap;
use vp_core::{build_packages, identify_region, rewrite, CfgCache, PackConfig, PackOutput};
use vp_exec::{
    diff_traces, CapturedTrace, DiffOptions, DiffReport, DiffVerdict, Differ, IdentityMap,
    RunConfig,
};
use vp_hsd::{filter_hot_spots, FilterConfig, HotSpotDetector, HsdConfig, Phase, PhaseBranch};
use vp_isa::{CodeRef, Cond, Reg, Src};
use vp_program::{Layout, Program, ProgramBuilder, Terminator};
use vp_workloads::rng::SplitMix64;

fn hot_loop_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let helper = pb.declare("helper");
    pb.define(helper, |f| {
        f.addi(Reg::ARG0, Reg::ARG0, 1);
        f.ret();
    });
    let main = pb.declare("main");
    pb.define(main, |f| {
        let i = Reg::int(20);
        f.li(i, 0);
        f.while_(
            |f| f.cond(Cond::Lt, i, Src::Imm(200)),
            |f| {
                f.mov(Reg::ARG0, i);
                f.call(helper);
                f.addi(i, i, 1);
            },
        );
        f.halt();
    });
    pb.set_entry(main);
    pb.build()
}

fn phase_for(p: &Program, layout: &Layout) -> Phase {
    let mut branches = BTreeMap::new();
    for f in &p.funcs {
        for (bid, b) in f.blocks_iter() {
            if b.term.is_cond_branch() {
                let addr = layout.branch_addr(CodeRef {
                    func: f.id,
                    block: bid,
                });
                branches.insert(addr, PhaseBranch::once(200, 199));
            }
        }
    }
    Phase {
        id: 0,
        branches,
        first_detected_at: 0,
        detections: 1,
    }
}

fn pack_it(p: &Program) -> PackOutput {
    let layout = Layout::natural(p);
    let phase = phase_for(p, &layout);
    let cfg = PackConfig::default();
    let mut cfgs = CfgCache::new();
    let region = identify_region(p, &layout, &mut cfgs, &phase, &cfg);
    let pkgs = build_packages(p, &mut cfgs, &region, &cfg);
    rewrite(p, pkgs, vec![region], &cfg)
}

fn capture(p: &Program) -> CapturedTrace {
    let layout = Layout::natural(p);
    CapturedTrace::capture(p, &layout, &RunConfig::default()).expect("capture")
}

/// The pipeline's own rewrite must be architecturally transparent: the
/// packed capture aligns visit-for-visit with the original one.
#[test]
fn packed_binary_diffs_clean_against_original() {
    let p = hot_loop_program();
    let out = pack_it(&p);
    assert!(out.launch_points > 0, "test needs a patched launch point");

    let rep = diff_traces(
        &capture(&p),
        &capture(&out.program),
        &out.identity_map(),
        &DiffOptions::default(),
    );
    assert_eq!(rep.verdict, DiffVerdict::Clean, "{rep}");
    assert_eq!(rep.aligned_visits, rep.orig_visits);
    assert!(
        rep.exit_events > 0,
        "leaving the package must pass through exit blocks: {rep}"
    );
}

/// Injected rewriting fault: corrupt one launch-point target so the
/// packed binary enters the package at the wrong block. The diff must
/// flag it and carry first-divergence context.
#[test]
fn corrupted_launch_point_is_detected_with_forensics() {
    let p = hot_loop_program();
    let out = pack_it(&p);
    let pkg = &out.packages[0];

    // Find a launch point: an original-code terminator targeting the
    // package, and retarget it one block off (skipping to a different
    // package block than the rewriter chose).
    let mut bad = out.program.clone();
    let n_blocks = bad.func(pkg.func).blocks.len() as u32;
    let mut corrupted = false;
    'outer: for f in &mut bad.funcs {
        if f.is_package() {
            continue;
        }
        for block in &mut f.blocks {
            let retarget = |t: &mut CodeRef| {
                t.block = vp_isa::BlockId((t.block.0 + 1) % n_blocks);
            };
            match &mut block.term {
                Terminator::Goto(t) if t.func == pkg.func => {
                    retarget(t);
                    corrupted = true;
                    break 'outer;
                }
                Terminator::Br {
                    taken, not_taken, ..
                } => {
                    if taken.func == pkg.func {
                        retarget(taken);
                        corrupted = true;
                        break 'outer;
                    }
                    if not_taken.func == pkg.func {
                        retarget(not_taken);
                        corrupted = true;
                        break 'outer;
                    }
                }
                _ => {}
            }
        }
    }
    if !corrupted {
        // Entry-launch-only programs: bend the package's first Br one
        // block off instead (a corrupted internal rewrite).
        let f = bad.func_mut(pkg.func);
        for block in &mut f.blocks {
            if let Terminator::Br { taken, .. } = &mut block.term {
                taken.block = vp_isa::BlockId((taken.block.0 + 1) % n_blocks);
                corrupted = true;
                break;
            }
        }
    }
    assert!(corrupted, "no corruptible transfer found");
    assert_eq!(bad.validate(), Ok(()), "corruption must stay executable");

    // The corrupted binary may no longer terminate; bound the capture.
    // An early mismatch is a divergence even when the run truncates.
    let layout = Layout::natural(&bad);
    let bad_trace = CapturedTrace::capture(
        &bad,
        &layout,
        &RunConfig {
            max_insts: 1_000_000,
            ..RunConfig::default()
        },
    )
    .expect("corrupted capture");

    let rep = diff_traces(
        &capture(&p),
        &bad_trace,
        &out.identity_map(),
        &DiffOptions::default(),
    );
    assert_eq!(rep.verdict, DiffVerdict::Diverged, "{rep}");
    let d = rep.divergence.as_ref().expect("forensics attached");
    assert!(
        d.expected.is_some() || d.actual.is_some(),
        "divergence names at least one side"
    );
    let rendered = format!("{rep}");
    assert!(rendered.contains("first divergence"), "{rendered}");
    assert!(rendered.contains("expected"), "{rendered}");
}

/// Profiles `p` the way the evaluation harness does: the Table 2 detector
/// rides along the original capture, then the software filter runs.
fn profile(p: &Program) -> (Layout, CapturedTrace, Vec<Phase>) {
    let layout = Layout::natural(p);
    let mut hsd = HotSpotDetector::new(HsdConfig::table2());
    let trace = CapturedTrace::capture_with(p, &layout, &RunConfig::default(), &mut hsd)
        .expect("profile capture");
    let phases = filter_hot_spots(hsd.records(), &FilterConfig::default());
    (layout, trace, phases)
}

/// The packed binary the harness measures: packages optimized and laid
/// out for the Table 2 machine.
fn optimized(out: &PackOutput) -> (Program, Layout) {
    let (prog, order) = vp_opt::optimize_packages(
        out,
        &vp_sim::MachineConfig::table2(),
        &vp_opt::OptConfig::default(),
    );
    let layout = Layout::new(&prog, &order);
    (prog, layout)
}

/// Diffs with the replay-driven differ and the materializing reference
/// and requires identical reports, forensics included.
fn assert_equivalent(
    what: &str,
    original: &CapturedTrace,
    packed: &CapturedTrace,
    map: &IdentityMap,
    opts: &DiffOptions,
) -> DiffReport {
    let got = diff_traces(original, packed, map, opts);
    let want = reference::diff(original, packed, map, opts);
    assert_eq!(got, want, "{what}: the differ disagrees with the reference");
    got
}

/// The divergence shapes the oracle corpus exercised.
#[derive(Debug, Default)]
struct Shapes {
    /// Both visits present at the first mismatch.
    mid_stream: usize,
    /// The packed stream ended first.
    packed_ended: usize,
    /// `Truncated` verdicts.
    truncated: usize,
    /// Mismatches before `context` visits had aligned.
    short_context: usize,
}

impl Shapes {
    fn note(&mut self, r: &DiffReport) {
        self.truncated += usize::from(r.verdict == DiffVerdict::Truncated);
        if let Some(d) = &r.divergence {
            self.mid_stream += usize::from(d.expected.is_some() && d.actual.is_some());
            self.packed_ended += usize::from(d.expected.is_some() && d.actual.is_none());
            self.short_context += usize::from(d.context.len() < DiffOptions::default().context);
        }
    }
}

/// A copy of `out` with one random package block's provenance corrupted:
/// its origin shifted one block on, or its exit flag flipped.
fn corrupt(out: &PackOutput, rng: &mut SplitMix64, flip_exit: bool) -> PackOutput {
    let mut bad = out.clone();
    let pkg = &mut bad.packages[rng.gen_range(0..out.packages.len())];
    let n = pkg.meta.len();
    let meta = &mut pkg.meta[rng.gen_range(0..n)];
    if flip_exit {
        meta.is_exit = !meta.is_exit;
    } else {
        meta.origin.block.0 += 1;
    }
    bad
}

/// The equivalence oracle over `labels`: under the four Figure 8/10
/// configurations, the differ — fed live while the packed binary is
/// captured, and fed by a replay of that capture — returns exactly the
/// reference's report, and the replay-fed differ does the same for
/// SplitMix64-seeded corruptions
/// (shifted identities, flipped exit flags, packed captures cut short),
/// which must drive mid-stream divergences, early stream ends, truncated
/// verdicts and mismatches before the context ring fills.
fn check_oracle(labels: &[&str], seed: u64) {
    let corpus: Vec<_> = vp_workloads::suite(1)
        .into_iter()
        .filter(|w| labels.contains(&w.label().as_str()))
        .collect();
    assert_eq!(corpus.len(), labels.len(), "unknown workload label");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut shapes = Shapes::default();
    for w in corpus {
        let (layout, original, phases) = profile(&w.program);
        // One configuration per workload also carries the corruptions.
        let corrupted_cfg = rng.gen_range(0..4usize);
        for (ci, cfg) in PackConfig::evaluation_matrix().iter().enumerate() {
            let what = format!("{} {cfg:?}", w.label());
            let out = vp_core::pack(&w.program, &layout, &phases, cfg);
            let (prog, playout) = optimized(&out);
            let opts = DiffOptions::default();
            let mut differ = Differ::new(&original, &out.identity_map(), &opts);
            let packed =
                CapturedTrace::capture_with(&prog, &playout, &RunConfig::default(), &mut differ)
                    .expect("packed capture");
            let live = differ.finish(packed.stats().stop);
            let rep = assert_equivalent(&what, &original, &packed, &out.identity_map(), &opts);
            assert_eq!(live, rep, "{what}: the live-fed differ disagrees");
            assert_eq!(rep.verdict, DiffVerdict::Clean, "{what}: {rep}");
            if ci != corrupted_cfg || out.packages.is_empty() {
                continue;
            }
            for flip_exit in [false, true] {
                let bad = corrupt(&out, &mut rng, flip_exit);
                let what = format!("{what} corrupted (flip_exit {flip_exit})");
                shapes.note(&assert_equivalent(
                    &what,
                    &original,
                    &packed,
                    &bad.identity_map(),
                    &opts,
                ));
            }
            // An early cut (inside the first few visits) and one anywhere.
            for cut in [rng.gen_range(1..64u64), rng.gen_range(1..packed.events())] {
                let run = RunConfig {
                    max_insts: cut,
                    ..RunConfig::default()
                };
                let short = CapturedTrace::capture(&prog, &playout, &run).expect("cut capture");
                let what = format!("{what} cut at {cut}");
                shapes.note(&assert_equivalent(
                    &what,
                    &original,
                    &short,
                    &out.identity_map(),
                    &opts,
                ));
            }
        }
    }
    assert!(
        shapes.mid_stream > 0
            && shapes.packed_ended > 0
            && shapes.truncated > 0
            && shapes.short_context > 0,
        "the corpus must exercise every divergence shape: {shapes:?}"
    );
}

// Every hand-built workload generator, each through its input with the
// fewest retired instructions (Table 1), split into two shards of about
// equal capture cost so the halves run in parallel.

#[test]
fn lockstep_diff_matches_the_reference_on_workloads_a() {
    check_oracle(
        &[
            "175.vpr A",
            "300.twolf A",
            "099.go A",
            "132.ijpeg B",
            "164.gzip A",
            "134.perl C",
        ],
        0x5eed_d1ff,
    );
}

#[test]
fn lockstep_diff_matches_the_reference_on_workloads_b() {
    check_oracle(
        &[
            "mpeg2dec A",
            "181.mcf A",
            "197.parser A",
            "255.vortex A",
            "124.m88ksim A",
            "130.li B",
        ],
        0x5eed_d200,
    );
}

/// A straight-line chain of `len` blocks, laid out in order so every
/// `Goto` falls through and retires nothing: block `b` is exactly visit
/// `b`. Each block adds one to a register; `corrupt` rewrites one block's
/// body — an extra `nop` (`by_load = false`: its instruction count
/// differs) or a load in place of the add (`by_load = true`: only its
/// memory hash differs).
fn chain(len: usize, corrupt: Option<(usize, bool)>) -> Program {
    let mut pb = ProgramBuilder::new();
    let data = pb.data(vec![7]);
    pb.func("main", |f| {
        let (acc, base) = (Reg::int(20), Reg::int(21));
        f.li(base, data as i64);
        for b in 0..len {
            match corrupt {
                Some((c, true)) if c == b => f.load(acc, base, 0),
                Some((c, false)) if c == b => {
                    f.addi(acc, acc, 1);
                    f.nop();
                }
                _ => f.addi(acc, acc, 1),
            }
            let next = f.new_block();
            f.goto(next);
            f.switch_to(next);
        }
        f.halt();
    });
    pb.build()
}

/// Divergences at the differ's chunk edges (K = [`Differ::CHUNK`]): the
/// first mismatch lands at visit K−1 (the last of a chunk), K, K+1 and
/// past the third chunk, each with the default context and with one
/// longer than a chunk, so the context ring crosses chunk boundaries.
/// SplitMix64 picks each corruption's kind. The packed run either does
/// different work in that one visit (a `Diverged` verdict) or is cut
/// right before it (the packed stream ends there); every report must
/// equal the reference's, at exactly that index.
#[test]
fn chunk_edge_divergences_match_the_reference() {
    const K: usize = Differ::CHUNK;
    let clean = chain(4 * K, None);
    let original = capture(&clean);
    let starts = reference::visit_starts(&original);
    let mut rng = SplitMix64::seed_from_u64(0x5eed_c4a2);
    let long = DiffOptions {
        context: K + 37,
        ..DiffOptions::default()
    };
    for index in [K - 1, K, K + 1, 3 * K + 1] {
        let by_load = rng.gen_range(0..2u64) == 1;
        let corrupted = capture(&chain(4 * K, Some((index, by_load))));
        let cut = RunConfig {
            max_insts: starts[index],
            ..RunConfig::default()
        };
        let short =
            CapturedTrace::capture(&clean, &Layout::natural(&clean), &cut).expect("cut capture");
        for (packed, ends) in [(&corrupted, false), (&short, true)] {
            for opts in [DiffOptions::default(), long] {
                let what = format!(
                    "visit {index} (load {by_load}, cut {ends}), context {}",
                    opts.context
                );
                let rep = assert_equivalent(&what, &original, packed, &IdentityMap::new(), &opts);
                let d = rep.divergence.as_ref().expect("diverges");
                assert_eq!(d.index, index as u64, "{what}: {rep}");
                assert_eq!(d.actual.is_none(), ends, "{what}: {rep}");
                let want = if ends {
                    DiffVerdict::Truncated
                } else {
                    DiffVerdict::Diverged
                };
                assert_eq!(rep.verdict, want, "{what}");
                assert_eq!(d.context.len(), opts.context.min(index), "{what}");
            }
        }
    }
}

/// The materializing reference the differ is checked against: each
/// retired stream is folded into its full canonical visit sequence
/// through the [`Sink`](vp_exec::Sink) path, and the two sequences are
/// compared element-wise afterwards.
mod reference {
    use vp_exec::{
        col, CapturedTrace, ColEvent, DiffOptions, DiffReport, DiffVerdict, Divergence,
        IdentityMap, Sink, StopReason, Visit,
    };

    struct VisitBuilder<'m> {
        map: Option<&'m IdentityMap>,
        visits: Vec<Visit>,
        exit_events: u64,
        stub_events: u64,
        migrations: u64,
        cur_pkg: Option<u32>,
        /// Events retired so far, and the index of each visit's first.
        events: u64,
        starts: Vec<u64>,
    }

    impl Sink for VisitBuilder<'_> {
        fn retire(&mut self, e: ColEvent) {
            self.events += 1;
            let (origin, package, phase) = match self.map.and_then(|m| m.lookup(e.loc)) {
                Some(id) if id.is_stub => {
                    self.stub_events += 1;
                    return;
                }
                Some(id) if id.is_exit => {
                    self.exit_events += 1;
                    return;
                }
                Some(id) => (id.origin, Some(id.package), Some(id.phase)),
                None => (e.loc, None, None),
            };
            if package != self.cur_pkg {
                if package.is_some() && self.cur_pkg.is_some() {
                    self.migrations += 1;
                }
                self.cur_pkg = package;
            }
            let is_ctrl = e.flags & col::CTRL != 0;
            let cond = u64::from(e.flags & col::COND != 0);
            if is_ctrl && cond == 0 {
                return;
            }
            let mem = if e.flags & col::MEM != 0 {
                e.mem.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(e.flags & col::STORE != 0)
            } else {
                0
            };
            match self.visits.last_mut() {
                Some(v) if v.origin == origin => {
                    v.plain += u64::from(!is_ctrl);
                    v.cond += cond;
                    v.mem = v.mem.wrapping_add(mem);
                }
                _ => {
                    self.starts.push(self.events - 1);
                    self.visits.push(Visit {
                        origin,
                        plain: u64::from(!is_ctrl),
                        cond,
                        mem,
                        package,
                        phase,
                    })
                }
            }
        }
    }

    /// The event index at which each visit of `trace` (folded without
    /// an identity map) begins.
    pub fn visit_starts(trace: &CapturedTrace) -> Vec<u64> {
        let (b, _) = fold(trace, None);
        b.starts
    }

    /// Folds a whole stream; returns the builder and how the run ended.
    fn fold<'m>(
        trace: &CapturedTrace,
        map: Option<&'m IdentityMap>,
    ) -> (VisitBuilder<'m>, StopReason) {
        let mut b = VisitBuilder {
            map,
            visits: Vec::new(),
            exit_events: 0,
            stub_events: 0,
            migrations: 0,
            cur_pkg: None,
            events: 0,
            starts: Vec::new(),
        };
        let stop = trace.replay(&mut b).stop;
        (b, stop)
    }

    pub fn diff(
        original: &CapturedTrace,
        packed: &CapturedTrace,
        map: &IdentityMap,
        opts: &DiffOptions,
    ) -> DiffReport {
        let (ob, orig_stop) = fold(original, None);
        let (pb, packed_stop) = fold(packed, Some(map));

        let matches = |a: &Visit, b: &Visit| {
            a.origin == b.origin
                && a.plain == b.plain
                && a.cond == b.cond
                && (!opts.check_mem || a.mem == b.mem)
        };
        let n = ob.visits.len().min(pb.visits.len());
        let mut first_mismatch = (0..n).find(|&i| !matches(&ob.visits[i], &pb.visits[i]));
        if first_mismatch.is_none() && ob.visits.len() != pb.visits.len() {
            first_mismatch = Some(n);
        }
        let aligned = first_mismatch.unwrap_or(n) as u64;
        let truncated = orig_stop != StopReason::Halted || packed_stop != StopReason::Halted;
        let tail_mismatch = first_mismatch.is_none_or(|i| i + 1 >= n);
        let verdict = match (first_mismatch, truncated) {
            (None, false) => DiffVerdict::Clean,
            (None, true) => DiffVerdict::Truncated,
            (Some(_), true) if tail_mismatch => DiffVerdict::Truncated,
            (Some(_), _) => DiffVerdict::Diverged,
        };
        DiffReport {
            verdict,
            orig_visits: ob.visits.len() as u64,
            packed_visits: pb.visits.len() as u64,
            aligned_visits: aligned,
            exit_events: pb.exit_events,
            stub_events: pb.stub_events,
            migrations: pb.migrations,
            divergence: first_mismatch.map(|i| Divergence {
                index: i as u64,
                expected: ob.visits.get(i).copied(),
                actual: pb.visits.get(i).copied(),
                context: ob.visits[i.saturating_sub(opts.context)..i].to_vec(),
            }),
        }
    }
}
