//! Experiment definitions: one function per figure/table/statistic of the
//! paper, shared by the `pre-sim` binaries and the benches, plus the one
//! command-line parser ([`parse_cli`]) every binary uses.

use crate::matrix::EvaluationMatrix;
use crate::report::{pct, pct_improvement, Table};
use crate::runner::{run_one, RunResult, RunSpec};
use crate::sample::SampleSpec;
use crate::sweep::{GridDim, Sweep, SweepDim};
use pre_model::config::SimConfig;
use pre_model::error::SimError;
use pre_runahead::Technique;
use pre_trace::TraceSpec;
use pre_workloads::Workload;
use std::fmt;
use std::str::FromStr;

/// Default committed-micro-op budget per (workload, technique) run used by
/// the experiment binaries. The paper simulates 1-billion-instruction
/// SimPoints; this reproduction uses a budget that keeps the full evaluation
/// matrix tractable on one machine while still covering thousands of
/// runahead intervals per run. Override with the `[max_uops]` argument of
/// each binary.
pub const DEFAULT_EVAL_UOPS: u64 = 300_000;

/// Which workload set an experiment binary runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Suite {
    /// The synthetic memory-intensive SPEC-2006-like suite (the default,
    /// matching the paper's figures).
    #[default]
    Synthetic,
    /// The assembled RISC-V kernel suite (`pre-asm`): real programs.
    Asm,
    /// Both suites in one matrix.
    Mixed,
}

impl Suite {
    /// The workloads this suite runs, in figure order.
    pub fn workloads(&self) -> Vec<Workload> {
        match self {
            Suite::Synthetic => Workload::MEMORY_INTENSIVE.to_vec(),
            Suite::Asm => Workload::ASM_SUITE.to_vec(),
            Suite::Mixed => {
                let mut all = Workload::MEMORY_INTENSIVE.to_vec();
                all.extend(Workload::ASM_SUITE);
                all
            }
        }
    }

    /// A reduced, representative workload subset for smoke binaries
    /// (`quick_check`) and quick statistics: the synthetic suite keeps the
    /// five behaviourally distinct workloads; the asm suite is small enough
    /// to run whole.
    pub fn quick_workloads(&self) -> Vec<Workload> {
        match self {
            Suite::Synthetic => vec![
                Workload::LibquantumLike,
                Workload::LbmLike,
                Workload::MilcLike,
                Workload::McfLike,
                Workload::ComputeBound,
            ],
            Suite::Asm => Workload::ASM_SUITE.to_vec(),
            Suite::Mixed => {
                let mut all = Suite::Synthetic.quick_workloads();
                all.extend(Workload::ASM_SUITE);
                all
            }
        }
    }

    /// Every (workload, technique) cell of this suite's full matrix in
    /// canonical order: workload-major, techniques in [`Technique::ALL`]
    /// order. All binaries iterating the matrix share this iterator so
    /// their cell orderings agree.
    pub fn cells(&self) -> impl Iterator<Item = (Workload, Technique)> {
        Self::cells_of(self.workloads())
    }

    /// The cells of the reduced [`Suite::quick_workloads`] matrix, in the
    /// same canonical order.
    pub fn quick_cells(&self) -> impl Iterator<Item = (Workload, Technique)> {
        Self::cells_of(self.quick_workloads())
    }

    fn cells_of(workloads: Vec<Workload>) -> impl Iterator<Item = (Workload, Technique)> {
        workloads
            .into_iter()
            .flat_map(|w| Technique::ALL.iter().map(move |&t| (w, t)))
    }

    /// Short name used on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Synthetic => "synthetic",
            Suite::Asm => "asm",
            Suite::Mixed => "mixed",
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown suite name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSuiteError(String);

impl fmt::Display for ParseSuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown suite `{}` (expected synthetic|asm|mixed)",
            self.0
        )
    }
}

impl std::error::Error for ParseSuiteError {}

impl FromStr for Suite {
    type Err = ParseSuiteError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "synthetic" | "spec" => Ok(Suite::Synthetic),
            "asm" | "riscv" => Ok(Suite::Asm),
            "mixed" | "all" => Ok(Suite::Mixed),
            _ => Err(ParseSuiteError(s.to_string())),
        }
    }
}

/// One element of an experiment binary's command line. Each binary lists
/// the elements it accepts (in usage order) and [`parse_cli`] rejects
/// everything else, so a flag parses identically in every binary that
/// takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--suite synthetic|asm|mixed` (default synthetic).
    Suite,
    /// `--reference-scheduler`: the scan-based escape-hatch scheduler.
    ReferenceScheduler,
    /// `--warmup <uops>`: functional warm-up before detailed simulation.
    Warmup,
    /// `--trace <spec>` (see [`TraceSpec`] for the grammar).
    Trace,
    /// `--sample [n=K,interval=N]`. The value is optional: the next
    /// argument is taken as the spec only when it contains `=` and does not
    /// start with `--`.
    Sample,
    /// A binary-specific option with a value (name, value placeholder),
    /// handed back in [`CliArgs::own`].
    Opt(&'static str, &'static str),
    /// A binary-specific switch, handed back in [`CliArgs::own`] with an
    /// empty value.
    Switch(&'static str),
    /// `--help` / `-h`: print the usage and exit 0.
    Help,
    /// The positionals `[workload] [technique]`.
    Cell,
    /// The positional `[max_uops]`: the per-run micro-op budget.
    MaxUops,
}

impl Flag {
    fn name(self) -> Option<&'static str> {
        match self {
            Flag::Suite => Some("--suite"),
            Flag::ReferenceScheduler => Some("--reference-scheduler"),
            Flag::Warmup => Some("--warmup"),
            Flag::Trace => Some("--trace"),
            Flag::Sample => Some("--sample"),
            Flag::Opt(name, _) | Flag::Switch(name) => Some(name),
            Flag::Help => Some("--help"),
            Flag::Cell | Flag::MaxUops => None,
        }
    }

    fn usage(self) -> String {
        match self {
            Flag::Suite => "[--suite synthetic|asm|mixed]".into(),
            Flag::Warmup => "[--warmup <uops>]".into(),
            Flag::Trace => "[--trace <spec>]".into(),
            Flag::Sample => "[--sample [n=K,interval=N]]".into(),
            Flag::Opt(name, value) => format!("[{name} {value}]"),
            Flag::Cell => "[workload] [technique]".into(),
            Flag::MaxUops => "[max_uops]".into(),
            Flag::ReferenceScheduler | Flag::Switch(_) | Flag::Help => {
                format!("[{}]", self.name().unwrap_or_default())
            }
        }
    }
}

/// The command line of `full_eval` and `quick_check`, the binaries whose
/// cells honour every per-run flag.
pub const MATRIX_FLAGS: &[Flag] = &[
    Flag::Suite,
    Flag::ReferenceScheduler,
    Flag::Warmup,
    Flag::Trace,
    Flag::Sample,
    Flag::MaxUops,
];

/// Parsed command-line arguments of an experiment binary. Fields whose
/// [`Flag`] the binary does not accept keep their defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// Which workload suite to run.
    pub suite: Suite,
    /// Committed-micro-op budget per run.
    pub budget: u64,
    /// Escape hatch: run on the reference (scan-based, no fast-forward)
    /// scheduler instead of the event-driven one. Statistics are
    /// bit-identical; only wall-clock time differs.
    pub reference_scheduler: bool,
    /// Micro-ops of functional warm-up before detailed simulation
    /// (`--warmup <uops>`; 0 = cold start). Warm-up snapshots are shared
    /// across the cells of one invocation, so the warm-up executes once per
    /// workload.
    pub warmup: u64,
    /// Trace outputs requested with `--trace <spec>` (see
    /// [`TraceSpec`] for the spec grammar). `None` when tracing is off.
    pub trace: Option<TraceSpec>,
    /// Sampled-mode parameters requested with `--sample [n=K,interval=N]`
    /// (see [`SampleSpec`] for the grammar). When set, every cell is
    /// estimated by SimPoint-style interval sampling instead of a full
    /// detailed run, and reported numbers are marked `~`.
    pub sample: Option<SampleSpec>,
    /// The `[workload]` positional ([`Flag::Cell`]).
    pub workload: Option<Workload>,
    /// The `[technique]` positional ([`Flag::Cell`]).
    pub technique: Option<Technique>,
    /// Binary-specific options ([`Flag::Opt`], [`Flag::Switch`]) in
    /// command-line order, with their values (empty for switches).
    pub own: Vec<(&'static str, String)>,
    /// `--help` was given ([`Flag::Help`]).
    pub help: bool,
}

impl CliArgs {
    /// The simulator configuration these arguments select: the paper's
    /// Table 1 baseline, with the reference scheduler applied when
    /// requested.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::haswell_like();
        cfg.core.reference_scheduler = self.reference_scheduler;
        cfg
    }

    /// The run of one cell under these arguments: budget, configuration,
    /// warm-up, trace and sampling as given, consulting the result cache
    /// (traced cells always simulate). Each traced cell writes its own files
    /// named after [`crate::runner::cell_name`].
    pub fn spec(&self, workload: Workload, technique: Technique) -> RunSpec {
        let mut spec = RunSpec::new(workload, technique)
            .with_budget(self.budget)
            .with_config(self.config())
            .with_warmup(self.warmup)
            .with_result_cache(true);
        spec.trace.clone_from(&self.trace);
        spec.sample = self.sample;
        spec
    }

    /// [`CliArgs::spec`] for every cell of the suite's matrix, in matrix
    /// order. Run them with [`EvaluationMatrix::run_specs_isolated`];
    /// fields whose flag a binary does not accept keep their defaults.
    pub fn matrix_specs(&self) -> Vec<RunSpec> {
        self.suite
            .cells()
            .map(|(workload, technique)| self.spec(workload, technique))
            .collect()
    }
}

/// The value of a flag: its inline `--flag=value` part, else the next
/// argument.
fn flag_value(
    name: &str,
    inline: &mut Option<String>,
    args: &mut impl Iterator<Item = String>,
) -> Result<String, String> {
    inline
        .take()
        .or_else(|| args.next())
        .ok_or_else(|| format!("{name} requires a value"))
}

/// Parses an experiment binary's arguments against the [`Flag`]s it
/// accepts. Value flags take `--flag value` or `--flag=value`; anything not
/// in `flags` is an error. `default_budget` is the budget when no
/// `[max_uops]` is given.
///
/// # Errors
///
/// Returns a message suitable for printing when an argument is malformed or
/// not accepted.
pub fn parse_cli<I: IntoIterator<Item = String>>(
    args: I,
    default_budget: u64,
    flags: &[Flag],
) -> Result<CliArgs, String> {
    let mut cli = CliArgs {
        suite: Suite::default(),
        budget: default_budget,
        reference_scheduler: false,
        warmup: 0,
        trace: None,
        sample: None,
        workload: None,
        technique: None,
        own: Vec::new(),
        help: false,
    };
    let mut positional = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            positional.push(arg);
            continue;
        }
        let (name, mut inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let name = if name == "-h" { "--help" } else { name };
        let flag = flags
            .iter()
            .copied()
            .find(|f| f.name() == Some(name))
            .ok_or_else(|| format!("unrecognized argument `{arg}`"))?;
        match flag {
            Flag::Suite => {
                let value = flag_value(name, &mut inline, &mut args)?;
                cli.suite = value.parse().map_err(|e: ParseSuiteError| e.to_string())?;
            }
            Flag::Warmup => {
                let value = flag_value(name, &mut inline, &mut args)?;
                cli.warmup = value
                    .parse()
                    .map_err(|_| format!("bad --warmup value `{value}`"))?;
            }
            Flag::Trace => {
                let value = flag_value(name, &mut inline, &mut args)?;
                cli.trace = Some(value.parse().map_err(|e| format!("{e}"))?);
            }
            Flag::Sample => {
                let value = inline
                    .take()
                    .or_else(|| args.next_if(|next| next.contains('=') && !next.starts_with("--")));
                cli.sample = Some(match value {
                    Some(value) => value.parse().map_err(|e| format!("bad --sample: {e}"))?,
                    None => SampleSpec::default(),
                });
            }
            Flag::Opt(name, _) => {
                let value = flag_value(name, &mut inline, &mut args)?;
                cli.own.push((name, value));
            }
            _ if inline.is_some() => return Err(format!("{name} takes no value")),
            Flag::ReferenceScheduler => cli.reference_scheduler = true,
            Flag::Switch(name) => cli.own.push((name, String::new())),
            Flag::Help => cli.help = true,
            Flag::Cell | Flag::MaxUops => unreachable!("positionals have no flag name"),
        }
    }
    let mut positional = positional.into_iter();
    if flags.contains(&Flag::Cell) {
        if let Some(workload) = positional.next() {
            cli.workload = Some(workload.parse().map_err(|e| format!("{e}"))?);
        }
        if let Some(technique) = positional.next() {
            cli.technique = Some(technique.parse().map_err(|e| format!("{e}"))?);
        }
    }
    if flags.contains(&Flag::MaxUops) {
        if let Some(budget) = positional.next() {
            cli.budget = budget
                .parse()
                .map_err(|_| format!("bad max_uops `{budget}`"))?;
        }
    }
    match positional.next() {
        Some(extra) => Err(format!("unrecognized argument `{extra}`")),
        None => Ok(cli),
    }
}

/// The usage line of this binary, built from the [`Flag`]s it accepts.
pub fn usage(flags: &[Flag]) -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let name = std::path::Path::new(&argv0)
        .file_name()
        .map_or_else(|| "<binary>".into(), |n| n.to_string_lossy());
    let mut line = format!("usage: {name}");
    for flag in flags {
        line.push(' ');
        line.push_str(&flag.usage());
    }
    line
}

/// Prints `msg`, the usage line and `about` to stderr, then exits with code
/// 2 — the response to any malformed command line.
pub fn exit_with_usage(msg: &str, flags: &[Flag], about: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{}", usage(flags));
    eprint!("{about}");
    std::process::exit(2);
}

/// Parses the process command line with [`parse_cli`], exiting through
/// [`exit_with_usage`] on malformed input. With [`Flag::Help`] accepted,
/// `--help` prints the usage line and `about` to stdout and exits 0.
pub fn cli_from_args(default_budget: u64, flags: &[Flag], about: &str) -> CliArgs {
    match parse_cli(std::env::args().skip(1), default_budget, flags) {
        Ok(cli) if cli.help => {
            println!("{}", usage(flags));
            print!("{about}");
            std::process::exit(0);
        }
        Ok(cli) => cli,
        Err(msg) => exit_with_usage(&msg, flags, about),
    }
}

/// `~` when the cell's result was extrapolated by sampling, so estimated
/// numbers are never mistaken for measured ones in the rendered tables.
fn est_marker(result: Option<&RunResult>) -> &'static str {
    match result.and_then(|r| r.sample.as_ref()) {
        Some(_) => "~",
        None => "",
    }
}

/// `~` when any of `technique`'s cells in the matrix is extrapolated (the
/// aggregate rows inherit the marker from their inputs).
fn est_marker_any(matrix: &EvaluationMatrix, technique: Technique) -> &'static str {
    if matrix
        .results()
        .iter()
        .any(|r| r.technique == technique && r.sample.is_some())
    {
        "~"
    } else {
        ""
    }
}

/// Builds the Figure 2 table (performance normalized to the out-of-order
/// baseline) from an evaluation matrix.
pub fn fig2_table(matrix: &EvaluationMatrix) -> Table {
    let mut table = Table::new(
        "Figure 2 — performance normalized to OoO (IPC ratio)",
        &["workload", "RA", "RA-buffer", "PRE", "PRE+EMQ"],
    );
    for workload in matrix.workloads() {
        let cell = |t: Technique| {
            // `~` marks extrapolated (sampled) cells.
            let est = est_marker(matrix.get(workload, t));
            matrix
                .speedup(workload, t)
                .map(|s| format!("{est}{s:.3}"))
                .unwrap_or_else(|| "-".into())
        };
        table.add_row(vec![
            workload.name().to_string(),
            cell(Technique::Runahead),
            cell(Technique::RunaheadBuffer),
            cell(Technique::Pre),
            cell(Technique::PreEmq),
        ]);
    }
    let gmean = |t: Technique| {
        format!(
            "{}{:.3}",
            est_marker_any(matrix, t),
            matrix.gmean_speedup(t)
        )
    };
    table.add_row(vec![
        "gmean".into(),
        gmean(Technique::Runahead),
        gmean(Technique::RunaheadBuffer),
        gmean(Technique::Pre),
        gmean(Technique::PreEmq),
    ]);
    table
}

/// Summary lines comparing the measured average improvements against the
/// numbers the paper reports for Figure 2.
pub fn fig2_summary(matrix: &EvaluationMatrix) -> String {
    let mut out = String::new();
    let paper = [
        (Technique::Runahead, 14.5),
        (Technique::RunaheadBuffer, 14.4),
        (Technique::Pre, 35.5),
        (Technique::PreEmq, 28.6),
    ];
    for (technique, paper_pct) in paper {
        let measured = matrix.gmean_speedup(technique);
        out.push_str(&format!(
            "{:<10} paper: +{:.1} %   measured: {}\n",
            technique.label(),
            paper_pct,
            pct_improvement(measured)
        ));
    }
    out
}

/// Builds the Figure 3 table (energy savings relative to the baseline).
pub fn fig3_table(matrix: &EvaluationMatrix) -> Table {
    let mut table = Table::new(
        "Figure 3 — energy savings relative to OoO (core + DRAM)",
        &["workload", "RA", "RA-buffer", "PRE", "PRE+EMQ"],
    );
    for workload in matrix.workloads() {
        let cell = |t: Technique| {
            let est = est_marker(matrix.get(workload, t));
            matrix
                .energy_savings(workload, t)
                .map(|s| format!("{est}{}", pct(s)))
                .unwrap_or_else(|| "-".into())
        };
        table.add_row(vec![
            workload.name().to_string(),
            cell(Technique::Runahead),
            cell(Technique::RunaheadBuffer),
            cell(Technique::Pre),
            cell(Technique::PreEmq),
        ]);
    }
    let mean = |t: Technique| {
        format!(
            "{}{}",
            est_marker_any(matrix, t),
            pct(matrix.mean_energy_savings(t))
        )
    };
    table.add_row(vec![
        "mean".into(),
        mean(Technique::Runahead),
        mean(Technique::RunaheadBuffer),
        mean(Technique::Pre),
        mean(Technique::PreEmq),
    ]);
    table
}

/// Summary lines comparing measured energy savings against the paper's
/// Figure 3 numbers.
pub fn fig3_summary(matrix: &EvaluationMatrix) -> String {
    let mut out = String::new();
    let paper = [
        (Technique::Runahead, -2.7),
        (Technique::RunaheadBuffer, 0.0),
        (Technique::Pre, 6.1),
        (Technique::PreEmq, 7.2),
    ];
    for (technique, paper_pct) in paper {
        out.push_str(&format!(
            "{:<10} paper: {:+.1} %   measured: {}\n",
            technique.label(),
            paper_pct,
            pct(matrix.mean_energy_savings(technique))
        ));
    }
    out
}

/// Renders Table 1 (the baseline configuration) from the live `SimConfig`
/// defaults, so the printed table always matches what the simulator actually
/// uses.
pub fn table1() -> Table {
    let cfg = SimConfig::haswell_like();
    let mut t = Table::new(
        "Table 1 — baseline out-of-order core",
        &["parameter", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        ("frequency", format!("{:.2} GHz", cfg.core.freq_ghz)),
        ("ROB", cfg.core.rob_entries.to_string()),
        (
            "issue/load/store queue",
            format!(
                "{}/{}/{}",
                cfg.core.iq_entries, cfg.core.lq_entries, cfg.core.sq_entries
            ),
        ),
        ("width", cfg.core.dispatch_width.to_string()),
        (
            "front-end depth",
            format!("{} stages", cfg.core.frontend_depth),
        ),
        (
            "register file",
            format!(
                "{} int, {} fp",
                cfg.core.int_phys_regs, cfg.core.fp_phys_regs
            ),
        ),
        (
            "SST",
            format!("{} entry, fully assoc, LRU", cfg.runahead.sst_entries),
        ),
        ("PRDQ size", cfg.runahead.prdq_entries.to_string()),
        ("EMQ size", cfg.runahead.emq_entries.to_string()),
        (
            "L1 I-cache",
            format!(
                "{} KB, assoc {}, {} cyc",
                cfg.l1i.size_bytes / 1024,
                cfg.l1i.assoc,
                cfg.l1i.latency
            ),
        ),
        (
            "L1 D-cache",
            format!(
                "{} KB, assoc {}, {} cyc",
                cfg.l1d.size_bytes / 1024,
                cfg.l1d.assoc,
                cfg.l1d.latency
            ),
        ),
        (
            "private L2",
            format!(
                "{} KB, assoc {}, {} cyc",
                cfg.l2.size_bytes / 1024,
                cfg.l2.assoc,
                cfg.l2.latency
            ),
        ),
        (
            "shared L3",
            format!(
                "{} KB, assoc {}, {} cyc",
                cfg.l3.size_bytes / 1024,
                cfg.l3.assoc,
                cfg.l3.latency
            ),
        ),
        (
            "memory",
            format!(
                "DDR3-1600, {:.0} MHz, ranks {}, banks {}, page {} KB, tRP-tCL-tRCD {}-{}-{}",
                cfg.dram.bus_mhz,
                cfg.dram.ranks,
                cfg.dram.banks,
                cfg.dram.page_bytes / 1024,
                cfg.dram.t_rp,
                cfg.dram.t_cl,
                cfg.dram.t_rcd
            ),
        ),
    ];
    for (k, v) in rows {
        t.add_row(vec![k.to_string(), v]);
    }
    t
}

/// Stat A (§2.4): the per-invocation flush/refill penalty of flush-style
/// runahead: the analytic 8 + 192/4 = 56 cycles, plus the measured average
/// from a traditional-runahead run.
pub fn stat_flush_overhead(max_uops: u64) -> Result<Table, SimError> {
    let cfg = SimConfig::haswell_like();
    let analytic =
        cfg.core.frontend_depth as u64 + (cfg.core.rob_entries / cfg.core.dispatch_width) as u64;
    let mut table = Table::new(
        "Stat A — flush/refill penalty per runahead invocation",
        &[
            "workload",
            "invocations",
            "avg penalty (cycles)",
            "analytic (cycles)",
        ],
    );
    for workload in [
        Workload::LbmLike,
        Workload::LibquantumLike,
        Workload::MilcLike,
    ] {
        let result = run_one(&RunSpec::new(workload, Technique::Runahead).with_budget(max_uops))?;
        let exits = result.stats.runahead_exits.max(1);
        table.add_row(vec![
            workload.name().into(),
            result.stats.runahead_exits.to_string(),
            format!(
                "{:.1}",
                result.stats.flush_refill_cycles as f64 / exits as f64
            ),
            analytic.to_string(),
        ]);
    }
    Ok(table)
}

/// Stat B (§2.4): the distribution of runahead-interval lengths and the
/// fraction below 20 cycles (the paper reports 27 % on average).
pub fn stat_intervals(max_uops: u64) -> Result<Table, SimError> {
    let mut table = Table::new(
        "Stat B — runahead interval lengths (PRE, unrestricted entry)",
        &["workload", "intervals", "mean (cycles)", "< 20 cycles"],
    );
    for workload in Workload::MEMORY_INTENSIVE {
        let result = run_one(&RunSpec::new(workload, Technique::Pre).with_budget(max_uops))?;
        let hist = &result.stats.runahead_interval_hist;
        table.add_row(vec![
            workload.name().into(),
            hist.count().to_string(),
            format!("{:.1}", hist.mean()),
            pct(hist.fraction_below(20)),
        ]);
    }
    Ok(table)
}

/// Stat C (§3.4): free back-end resources sampled at runahead entry
/// (the paper reports ≈37 % of IQ entries, 51 % of integer and 59 % of
/// floating-point registers free), plus the per-class free-register
/// occupancy histograms at full-window stalls and the eager-drain volume —
/// the counters behind the `asm-box-blur` reproduction finding.
pub fn stat_free_resources(suite: Suite, max_uops: u64) -> Result<Table, SimError> {
    stat_free_resources_with(suite, &SimConfig::haswell_like(), max_uops)
}

/// [`stat_free_resources`] with an explicit configuration (e.g. the
/// `--reference-scheduler` escape hatch).
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn stat_free_resources_with(
    suite: Suite,
    config: &SimConfig,
    max_uops: u64,
) -> Result<Table, SimError> {
    let mut table = Table::new(
        "Stat C — free resources at runahead entry (PRE)",
        &[
            "workload",
            "IQ free",
            "int regs free",
            "fp regs free",
            "int <5% @stall",
            "eager frees",
        ],
    );
    // Walk the canonical `Suite::cells` matrix (shared with `quick_check`
    // and the benches) restricted to the PRE column, so cell orderings
    // agree across binaries.
    for (workload, technique) in suite.cells().filter(|&(_, t)| t == Technique::Pre) {
        let result = run_one(
            &RunSpec::new(workload, technique)
                .with_budget(max_uops)
                .with_config(config.clone()),
        )?;
        table.add_row(vec![
            workload.name().into(),
            pct(result.stats.iq_free_at_entry.mean()),
            pct(result.stats.int_regs_free_at_entry.mean()),
            pct(result.stats.fp_regs_free_at_entry.mean()),
            pct(result.stats.int_free_at_stall_hist.fraction_below(5)),
            result.stats.prdq_eager_reclaims.to_string(),
        ]);
    }
    Ok(table)
}

/// Stat D (§5.1): how much more often PRE (and PRE+EMQ) invoke runahead
/// compared with traditional runahead (paper: 1.62× and 1.95×).
pub fn stat_invocations(matrix: &EvaluationMatrix) -> Table {
    let mut table = Table::new(
        "Stat D — runahead invocations relative to traditional runahead",
        &["technique", "paper", "measured"],
    );
    table.add_row(vec![
        "PRE".into(),
        "1.62x".into(),
        format!(
            "{:.2}x",
            matrix.invocation_ratio_vs_runahead(Technique::Pre)
        ),
    ]);
    table.add_row(vec![
        "PRE+EMQ".into(),
        "1.95x".into(),
        format!(
            "{:.2}x",
            matrix.invocation_ratio_vs_runahead(Technique::PreEmq)
        ),
    ]);
    table
}

/// Runs a one-dimensional capacity sweep of `workload` under `technique`
/// (sharing the sweep engine with the `sweep` binary) and returns the points
/// in grid order plus the out-of-order baseline IPC the rows normalize to.
fn capacity_sweep(
    workload: Workload,
    technique: Technique,
    dim: SweepDim,
    sizes: &[usize],
    max_uops: u64,
) -> Result<(Vec<crate::sweep::SweepPoint>, f64), SimError> {
    let baseline = run_one(&RunSpec::new(workload, Technique::OutOfOrder).with_budget(max_uops))?;
    let mut sweep = Sweep::new(workload, technique).with_dim(GridDim {
        dim,
        values: sizes.iter().map(|&s| s as u64).collect(),
    });
    sweep.budget = max_uops;
    let points = sweep.run(|_| {})?;
    Ok((points, baseline.ipc()))
}

/// Stat F / ablation (§3.6): SST-capacity sensitivity. Returns
/// `(entries, speedup over OoO, SST hit rate)` rows for one representative
/// multi-slice workload.
pub fn sst_sensitivity(max_uops: u64, sizes: &[usize]) -> Result<Table, SimError> {
    let (points, base_ipc) = capacity_sweep(
        Workload::LbmLike,
        Technique::Pre,
        SweepDim::Sst,
        sizes,
        max_uops,
    )?;
    let mut table = Table::new(
        "Stat F — SST capacity sensitivity (lbm-like, PRE)",
        &["SST entries", "speedup vs OoO", "SST hit rate", "evictions"],
    );
    for p in points {
        table.add_row(vec![
            p.settings[0].1.to_string(),
            format!("{:.3}", p.result.ipc() / base_ipc),
            format!("{:.3}", p.result.stats.sst_hit_rate()),
            p.result.stats.sst_evictions.to_string(),
        ]);
    }
    Ok(table)
}

/// EMQ-capacity ablation: how the EMQ size bounds PRE+EMQ's benefit.
pub fn emq_sensitivity(max_uops: u64, sizes: &[usize]) -> Result<Table, SimError> {
    let (points, base_ipc) = capacity_sweep(
        Workload::LbmLike,
        Technique::PreEmq,
        SweepDim::Emq,
        sizes,
        max_uops,
    )?;
    let mut table = Table::new(
        "Ablation — EMQ capacity sensitivity (lbm-like, PRE+EMQ)",
        &["EMQ entries", "speedup vs OoO", "EMQ-full stall cycles"],
    );
    for p in points {
        table.add_row(vec![
            p.settings[0].1.to_string(),
            format!("{:.3}", p.result.ipc() / base_ipc),
            p.result.stats.emq_full_stall_cycles.to_string(),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_the_paper_parameters() {
        let t = table1();
        let text = t.render();
        assert!(text.contains("ROB"));
        assert!(text.contains("192"));
        assert!(text.contains("DDR3-1600"));
        assert!(text.contains("SST"));
    }

    #[test]
    fn fig2_table_from_synthetic_matrix_has_gmean_row() {
        let matrix = EvaluationMatrix::new();
        let t = fig2_table(&matrix);
        // Empty matrix still renders the gmean row.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn suites_select_the_right_workloads() {
        assert_eq!(
            Suite::Synthetic.workloads(),
            Workload::MEMORY_INTENSIVE.to_vec()
        );
        assert_eq!(Suite::Asm.workloads(), Workload::ASM_SUITE.to_vec());
        let mixed = Suite::Mixed.workloads();
        assert_eq!(
            mixed.len(),
            Workload::MEMORY_INTENSIVE.len() + Workload::ASM_SUITE.len()
        );
        assert!(Suite::Asm.workloads().iter().all(|w| w.is_asm()));
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parses_suite_and_budget_in_any_order() {
        let cli = parse_cli(args(&[]), 777, MATRIX_FLAGS).unwrap();
        assert_eq!(cli.suite, Suite::Synthetic);
        assert_eq!(cli.budget, 777);

        let cli = parse_cli(args(&["--suite", "asm", "5000"]), 777, MATRIX_FLAGS).unwrap();
        assert_eq!(cli.suite, Suite::Asm);
        assert_eq!(cli.budget, 5000);

        let cli = parse_cli(args(&["9000", "--suite=mixed"]), 777, MATRIX_FLAGS).unwrap();
        assert_eq!(cli.suite, Suite::Mixed);
        assert_eq!(cli.budget, 9000);

        assert!(parse_cli(args(&["--suite", "bogus"]), 777, MATRIX_FLAGS).is_err());
        assert!(parse_cli(args(&["--suite"]), 777, MATRIX_FLAGS).is_err());
        assert!(parse_cli(args(&["wat"]), 777, MATRIX_FLAGS).is_err());
        assert!(parse_cli(args(&["100", "200"]), 777, MATRIX_FLAGS).is_err());
    }

    #[test]
    fn cli_parses_sample_flag_forms() {
        let cli = parse_cli(args(&[]), 777, MATRIX_FLAGS).unwrap();
        assert_eq!(cli.sample, None);

        let cli = parse_cli(args(&["--sample"]), 777, MATRIX_FLAGS).unwrap();
        assert_eq!(cli.sample, Some(SampleSpec::default()));

        let cli = parse_cli(args(&["--sample", "n=4,interval=5000"]), 777, MATRIX_FLAGS).unwrap();
        assert_eq!(cli.sample, Some(SampleSpec::new(4, 5_000)));

        let cli = parse_cli(args(&["--sample=n=3", "9000"]), 777, MATRIX_FLAGS).unwrap();
        assert_eq!(
            cli.sample,
            Some(SampleSpec::new(3, SampleSpec::DEFAULT_INTERVAL_UOPS))
        );
        assert_eq!(cli.budget, 9000);

        // A bare `--sample` followed by the budget leaves the budget intact.
        let cli = parse_cli(args(&["--sample", "60000"]), 777, MATRIX_FLAGS).unwrap();
        assert_eq!(cli.sample, Some(SampleSpec::default()));
        assert_eq!(cli.budget, 60_000);

        // ... and so does a following flag, even one with an inline value.
        let cli = parse_cli(
            args(&["--suite", "asm", "--sample", "--warmup=5000", "1000"]),
            777,
            MATRIX_FLAGS,
        )
        .unwrap();
        assert_eq!(cli.sample, Some(SampleSpec::default()));
        assert_eq!(cli.warmup, 5_000);
        assert_eq!(cli.budget, 1_000);

        assert!(parse_cli(args(&["--sample=n=0"]), 777, MATRIX_FLAGS).is_err());
    }

    #[test]
    fn cli_rejects_flags_a_binary_does_not_take() {
        // `stat_intervals --warmup 500` once ran with a 500-uop budget.
        let err = parse_cli(args(&["--warmup", "500"]), 777, &[Flag::MaxUops]).unwrap_err();
        assert!(err.contains("--warmup"), "{err}");
        // `stat_invocations --bogus 300` was once silently accepted.
        let err = parse_cli(args(&["--bogus", "300"]), 777, MATRIX_FLAGS).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // Switches take no value; `--help` only where a binary offers it.
        assert!(parse_cli(args(&["--reference-scheduler=1"]), 777, MATRIX_FLAGS).is_err());
        assert!(parse_cli(args(&["--help"]), 777, MATRIX_FLAGS).is_err());
        let cli = parse_cli(args(&["-h"]), 777, &[Flag::Help]).unwrap();
        assert!(cli.help);
    }

    #[test]
    fn cli_parses_cell_positionals_and_own_options() {
        let flags = [Flag::Suite, Flag::Cell, Flag::MaxUops];
        let cli = parse_cli(
            args(&["mcf-like", "--suite", "asm", "pre", "3000"]),
            777,
            &flags,
        )
        .unwrap();
        assert_eq!(cli.suite, Suite::Asm);
        assert_eq!(cli.workload, Some(Workload::McfLike));
        assert_eq!(cli.technique, Some(Technique::Pre));
        assert_eq!(cli.budget, 3000);
        assert_eq!(parse_cli(args(&[]), 777, &flags).unwrap().workload, None);
        assert!(parse_cli(args(&["nosuch"]), 777, &flags).is_err());
        assert!(parse_cli(args(&["mcf-like", "nosuch"]), 777, &flags).is_err());
        assert!(parse_cli(args(&["mcf-like", "pre", "lots"]), 777, &flags).is_err());

        let flags = [
            Flag::Opt("--grid", "dim=v1,v2,..."),
            Flag::Switch("--no-cache"),
        ];
        let cli = parse_cli(
            args(&["--grid", "emq=1,2", "--no-cache", "--grid=rob=3"]),
            777,
            &flags,
        )
        .unwrap();
        assert_eq!(
            cli.own,
            vec![
                ("--grid", "emq=1,2".to_string()),
                ("--no-cache", String::new()),
                ("--grid", "rob=3".to_string()),
            ]
        );
        // Without `Flag::MaxUops` a positional budget is not accepted.
        assert!(parse_cli(args(&["3000"]), 777, &flags).is_err());
        assert!(parse_cli(args(&["--grid"]), 777, &flags).is_err());
    }

    #[test]
    fn suite_names_roundtrip() {
        for suite in [Suite::Synthetic, Suite::Asm, Suite::Mixed] {
            assert_eq!(suite.name().parse::<Suite>().unwrap(), suite);
        }
        assert!("nope".parse::<Suite>().is_err());
    }
}
