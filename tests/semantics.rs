//! Semantics preservation: vacuum packing is a *binary rewriting*
//! transformation — the packed (and optimized) program must compute
//! exactly what the original computed.
//!
//! For several workloads, the original, the packed, and the
//! packed-and-optimized binaries are executed to completion and their
//! final architectural states compared: every general-purpose register and
//! every word of every initialized data segment.

use vacuum_packing::core::pack;
use vacuum_packing::metrics::profile;
use vacuum_packing::opt::optimize_packages;
use vacuum_packing::prelude::*;

/// Runs `program` under `layout` and snapshots the architectural state.
fn run_and_snapshot(program: &Program, layout: &Layout) -> (Vec<u64>, Vec<Vec<u64>>) {
    let mut ex = Executor::new(program, layout);
    let stats = ex
        .run(&mut NullSink, &RunConfig::default())
        .expect("run succeeds");
    assert_eq!(stats.stop, vacuum_packing::exec::StopReason::Halted);
    let regs: Vec<u64> = (0..64).map(|i| ex.reg(Reg::int(i))).collect();
    let mem: Vec<Vec<u64>> = program
        .data
        .iter()
        .map(|seg| {
            (0..seg.words.len())
                .map(|i| ex.memory().read(seg.base + 8 * i as u64))
                .collect()
        })
        .collect();
    (regs, mem)
}

fn assert_equivalent(label: &str, program: Program) {
    let layout = Layout::natural(&program);
    let (regs0, mem0) = run_and_snapshot(&program, &layout);

    // Profile and pack.
    let pw = profile(label, program, &HsdConfig::table2(), None).expect("profile");
    assert!(!pw.phases.is_empty(), "{label}: phases must be detected");
    let out = pack(&pw.program, &pw.layout, &pw.phases, &PackConfig::default());
    assert!(!out.packages.is_empty(), "{label}: packages must be built");

    // Packed, natural layout.
    let packed_layout = Layout::natural(&out.program);
    let (regs1, mem1) = run_and_snapshot(&out.program, &packed_layout);
    assert_eq!(regs0, regs1, "{label}: registers diverged after packing");
    assert_eq!(mem0, mem1, "{label}: memory diverged after packing");

    // Packed + optimized (reschedule + relayout).
    let machine = MachineConfig::table2();
    let (opt_prog, order) = optimize_packages(&out, &machine, &OptConfig::default());
    let opt_layout = Layout::new(&opt_prog, &order);
    let (regs2, mem2) = run_and_snapshot(&opt_prog, &opt_layout);
    assert_eq!(
        regs0, regs2,
        "{label}: registers diverged after optimization"
    );
    assert_eq!(mem0, mem2, "{label}: memory diverged after optimization");
}

#[test]
fn weak_caller_interpreter_is_preserved() {
    // 130.li A exits from *inlined* eval_expr code into the original
    // callee: the frame-reconstruction stubs must make the callee's
    // return land back in the middle of the original caller.
    assert_equivalent(
        "130.li A",
        vacuum_packing::workloads::li::build(vacuum_packing::workloads::li::Input::A, 1),
    );
}

#[test]
fn database_with_inlined_probes_is_preserved() {
    // 255.vortex inlines the probe loops into a main-rooted package and
    // exits from deep contexts — the case that exposed the missing-frame
    // bug during development.
    assert_equivalent(
        "255.vortex A",
        vacuum_packing::workloads::vortex::build(vacuum_packing::workloads::vortex::Input::A, 1),
    );
}

#[test]
fn queens_solver_is_preserved() {
    assert_equivalent(
        "130.li B",
        vacuum_packing::workloads::li::build(vacuum_packing::workloads::li::Input::B, 1),
    );
}

#[test]
fn interpreter_is_preserved() {
    assert_equivalent(
        "134.perl C",
        vacuum_packing::workloads::perl::build(vacuum_packing::workloads::perl::Input::C, 1),
    );
}

#[test]
fn annealer_is_preserved() {
    assert_equivalent("300.twolf A", vacuum_packing::workloads::twolf::build(1));
}

#[test]
fn loader_with_linked_packages_is_preserved() {
    // m88ksim migrates between linked loader packages mid-run: the
    // riskiest control-flow path in the rewriter.
    assert_equivalent(
        "124.m88ksim A",
        vacuum_packing::workloads::m88ksim::build(1),
    );
}

#[test]
fn compression_roundtrip_is_preserved() {
    assert_equivalent("164.gzip A", vacuum_packing::workloads::gzip::build(1));
}
