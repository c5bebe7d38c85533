//! Records every trace stream for one (workload, technique) cell and prints
//! the files written — the quickest way to get a Konata/O3PipeView view of
//! the pipeline or a `chrome://tracing` timeline of runahead intervals.
//!
//! Usage: `pipeview [--suite synthetic|asm|mixed] [--trace <spec>] [--help]
//! [workload] [technique] [max_uops]`. Defaults: the suite's first
//! workload, `pre-emq`, 20 000 committed uops, every stream under
//! `traces/`. Open the `.pipeview` file with Konata (or gem5's
//! o3-pipeview script) and the `.trace.json` file with `chrome://tracing`
//! or Perfetto.

use pre_runahead::Technique;
use pre_sim::experiments::{cli_from_args, Flag};
use pre_sim::runner::{run_one_traced, RunSpec};
use pre_trace::TraceSession;

fn main() {
    let flags = [
        Flag::Suite,
        Flag::Trace,
        Flag::Help,
        Flag::Cell,
        Flag::MaxUops,
    ];
    let cli = cli_from_args(20_000, &flags, "");
    let workload = cli.workload.unwrap_or_else(|| cli.suite.workloads()[0]);
    let technique = cli.technique.unwrap_or(Technique::PreEmq);
    let budget = cli.budget;
    let trace = cli.trace.unwrap_or_default();
    let spec = RunSpec::new(workload, technique).with_budget(budget);
    let session = match TraceSession::create(&trace, &spec.cell_name()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "cannot create trace files under {}: {e}",
                trace.dir.display()
            );
            std::process::exit(1);
        }
    };
    eprintln!(
        "tracing {} / {} for {} committed uops...",
        workload.name(),
        technique.label(),
        budget
    );
    let (result, tracer) = match run_one_traced(&spec, Box::new(session)) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("trace run failed: {e}");
            std::process::exit(1);
        }
    };
    let session = tracer
        .into_any()
        .downcast::<TraceSession>()
        .expect("tracer is the session attached above");
    eprintln!(
        "done: ipc {:.3}, {} cycles, {} runahead intervals",
        result.ipc(),
        result.stats.cycles,
        result.stats.runahead_entries
    );
    for f in session.files() {
        println!("{}", f.display());
    }
    if let Some(e) = session.io_error() {
        eprintln!("trace output incomplete: {e}");
        std::process::exit(1);
    }
}
