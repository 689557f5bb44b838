//! Executor and timing-model throughput (retired instructions per second).

use vacuum_packing::prelude::*;

fn main() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", |f| {
        let (i, acc) = (Reg::int(20), Reg::int(21));
        f.li(acc, 0);
        f.for_range(i, 0, 20_000, |f| {
            f.add(acc, acc, i);
            f.xor(acc, acc, 3);
        });
        f.halt();
    });
    let p = pb.build();
    let layout = Layout::natural(&p);
    let insts = {
        let mut counts = InstCounts::new();
        Executor::new(&p, &layout)
            .run(&mut counts, &RunConfig::default())
            .unwrap();
        counts.total
    };

    let mut r = bench::micro::runner();
    r.bench_throughput("simulate/functional", insts, || {
        let mut ex = Executor::new(&p, &layout);
        ex.run(&mut NullSink, &RunConfig::default())
            .unwrap()
            .retired
    });
    r.bench_throughput("simulate/functional+timing", insts, || {
        let mut timing = TimingModel::new(MachineConfig::table2());
        Executor::new(&p, &layout)
            .run(&mut timing.run(), &RunConfig::default())
            .unwrap();
        timing.cycles()
    });
    r.finish("bench:simulate");
}
