//! The repository benchmark: four seeded XMark workloads, each checked
//! against an answer key, reporting end-to-end metrics (`--trace 0`) or
//! per-layer metrics from a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload single_user --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Everything above it is the human-readable report. See `README.md`
//! beside this package for why each workload exists and what each
//! metric should move.

mod service;
mod setup;
mod single_user;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use trace::Tracer;

/// A list of metrics: name and unit.
type Metrics = [(&'static str, &'static str)];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_ms", "ms"),
    ("ttfi_ms", "ms"),
    ("space_ratio", "ratio"),
];

/// End-to-end metrics printed in the report and the result record but not
/// in the JSON line: on a shared host they move with its slow phases by
/// more than any regression bound the benchmark may set (README.md).
const E2E_REPORT_ONLY: [(&str, &str); 3] = [
    ("latency_p50_ms", "ms"),
    ("ttfi_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// count or ratio of a layer a workload bypasses reads 0 there; every time
/// here is measured on every workload (README.md).
const PER_LAYER: [(&str, &str); 25] = [
    ("gen.s", "s"),
    ("xml.parse_s", "s"),
    ("store.load_s", "s"),
    ("store.index_build_s", "s"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.metadata_accesses", "count"),
    ("query.compile_share", "ratio"),
    ("query.exec_us", "us"),
    ("query.ttfi_us", "us"),
    ("query.serialize_us", "us"),
    ("query.result_bytes", "bytes"),
    ("store.index.hits_per_req", "count"),
    ("store.index.builds", "count"),
    ("store.paged.pins_per_req", "count"),
    ("store.paged.misses_per_req", "count"),
    ("store.paged.evictions_per_req", "count"),
    ("store.paged.hit_rate", "ratio"),
    ("store.paged.pages_read_per_req", "count"),
    ("service.plan_cache_hit_rate", "ratio"),
    ("service.busy_frac", "ratio"),
    ("query.scatter.vs_mono_ratio", "ratio"),
    ("request.self_us", "us"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Layer times that exist only on the workloads whose layer they time.
/// The traced run prints them in its report and result record (0 where
/// the layer is bypassed), outside the JSON line's metrics.
const REPORT_ONLY: [(&str, &str); 11] = [
    ("service.plan_cache_lookup_us", "us"),
    ("service.overhead_us_per_req", "us"),
    ("query.scatter.exec_us", "us"),
    ("txn.commit_us", "us"),
    ("txn.commit_p50_ms", "ms"),
    ("txn.commit_p95_ms", "ms"),
    ("txn.wal_bytes_per_commit", "bytes"),
    ("txn.overlay_bytes", "bytes"),
    ("txn.wal_bytes", "bytes"),
    ("txn.epochs_observed", "count"),
    ("txn.conflicts", "count"),
];

/// Document scaling factor of every workload: about 1 MB of XML.
pub const FACTOR: f64 = 0.01;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    SingleUser,
    ServicePaged,
    Sharded,
    MixedRw,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "single_user" => Workload::SingleUser,
            "service_paged" => Workload::ServicePaged,
            "sharded" => Workload::Sharded,
            "mixed_rw" => Workload::MixedRw,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleUser => "single_user",
            Workload::ServicePaged => "service_paged",
            Workload::Sharded => "sharded",
            Workload::MixedRw => "mixed_rw",
        }
    }
}

/// Checked command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Query mix of the service workloads.
    pub mix: Vec<usize>,
    /// Writer commits per 100 reads on `mixed_rw`.
    pub write_pct: u32,
    /// Cores the host offers; no workload runs more threads than this.
    pub cores: usize,
}

const USAGE: &str = "usage: perfbench --workload <single_user|service_paged|sharded|mixed_rw> \
     --seed <n> --seconds <s> --trace <0|1> [--mix <q,q,..>] [--write-pct <n>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    // Q1–Q20 without the quadratic Q11/Q12.
    let mut mix: Vec<usize> = (1..=20).filter(|q| *q != 11 && *q != 12).collect();
    let mut write_pct = 20;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--mix" => {
                mix = value
                    .split(',')
                    .map(|q| {
                        q.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|q| (1..=20).contains(q))
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| bad("expected query numbers 1-20"))?;
            }
            "--write-pct" => {
                write_pct = value.parse().map_err(|_| bad("expected an integer"))?;
                if write_pct == 0 || write_pct > 1000 {
                    return Err(bad("expected 1..=1000"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        mix,
        write_pct,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (reads and commits).
    pub attempted: u64,
    /// Operations that returned a wrong answer, failed or conflicted.
    pub wrong: u64,
    /// Operations a stalled run never finished.
    pub unfinished: u64,
    /// Set when the run hit its deadline instead of finishing.
    pub stalled: bool,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Host and run facts recorded with the result.
    pub facts: Vec<(&'static str, String)>,
    /// Extra report lines (printed above the JSON line).
    pub report: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(&E2E_REPORT_ONLY)
                .any(|(n, _)| *n == name),
            "{name}"
        );
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER
                .iter()
                .chain(&REPORT_ONLY)
                .any(|(n, _)| *n == name),
            "{name}"
        );
        self.per_layer.insert(name, value);
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.unfinished
    }
}

/// The commit the checkout was made from, read from `.git` without
/// starting a process; "unknown" outside a git checkout.
fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.chars().take(12).collect()
    }
}

/// Print `table`'s metrics one per line and return them as JSON members
/// (`"name":{"value":…,"unit":…}`); a metric the run did not set reads 0.
fn print_metrics(table: &Metrics, values: &BTreeMap<&str, f64>) -> String {
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("  {name:<32} {value:>14.6} {unit}");
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    json
}

/// Print the report and the final JSON line, and write the result record.
fn finish(args: &Args, tracer: &Tracer, out: &Outcome) {
    let wl = args.workload.name();
    let mut facts = String::new();
    for (i, (k, v)) in out.facts.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(facts, "{sep}\"{k}\":\"{}\"", v.replace('"', "'"));
    }
    println!(
        "== perfbench {wl} (seed {}, trace {})",
        args.seed,
        u8::from(args.trace)
    );
    println!("facts: {{{facts}}}");
    for line in &out.report {
        println!("{line}");
    }
    let failed_frac = out.failed() as f64 / out.attempted.max(1) as f64;
    println!(
        "{wl}: attempted {} failed {} (wrong {}, unfinished {}) failed_frac {failed_frac}",
        out.attempted,
        out.failed(),
        out.wrong,
        out.unfinished
    );
    if out.stalled {
        println!(
            "{wl}: STALLED — the run stopped progressing and ended at its deadline; \
             its unfinished operations count as failed"
        );
    }
    let (table, extra_table, values): (&Metrics, &Metrics, _) = if args.trace {
        (&PER_LAYER, &REPORT_ONLY, &out.per_layer)
    } else {
        (&END_TO_END, &E2E_REPORT_ONLY, &out.end_to_end)
    };
    let metrics = print_metrics(table, values);
    println!("  not in the JSON line:");
    let extra = print_metrics(extra_table, values);
    let json = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.wrong == 0,
        out.attempted,
        out.failed()
    );
    let dir = setup::out_dir();
    let t = u8::from(args.trace);
    if args.trace {
        let spans = dir.join(format!("spans-{wl}-seed{}.jsonl", args.seed));
        match tracer.write_jsonl(&spans) {
            Ok(()) => println!("spans: {} written to {}", tracer.len(), spans.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    let record = format!(
        "{{\"workload\":\"{wl}\",\"facts\":{{{facts}}},\"failed_frac\":{failed_frac},\
         \"report_only\":{{{extra}}},\"result\":{json}}}\n"
    );
    let path = dir.join(format!("result-{wl}-seed{}-trace{t}.json", args.seed));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{json}");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    out.fact("workload", args.workload.name());
    out.fact("cores", args.cores);
    out.fact("commit", commit());
    out.fact("factor", FACTOR);
    out.fact("seed", args.seed);
    out.fact("seconds", args.seconds);
    match args.workload {
        Workload::SingleUser => single_user::run(&args, &mut tracer, &mut out),
        w => service::run(w, &args, &mut tracer, &mut out),
    }
    out.layer("trace.spans", tracer.len() as f64);
    if out.attempted == 0 {
        eprintln!("perfbench: the run attempted no operation");
        return ExitCode::FAILURE;
    }
    finish(&args, &tracer, &out);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv("--workload sharded --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Sharded);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert_eq!(a.mix.len(), 18);
        let a = parse_args(&argv(
            "--workload mixed_rw --seed 1 --seconds 1 --trace 0 --mix 8,9 --write-pct 100",
        ))
        .unwrap();
        assert_eq!((a.mix.clone(), a.write_pct), (vec![8, 9], 100));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sharded --seed x --seconds 1 --trace 0",
            "--workload sharded --seed 1 --seconds 0 --trace 0",
            "--workload sharded --seed 1 --seconds 1 --trace 2",
            "--workload sharded --seed 1 --seconds 1",
            "--workload sharded --seed 1 --seconds 1 --trace 0 --mix 0",
            "--workload sharded --seed 1 --seconds 1 --trace 0 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_follow_the_contract() {
        let ok = |s: &str, max: usize, extra: &str| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .chain(&E2E_REPORT_ONLY)
            .chain(&PER_LAYER)
            .chain(&REPORT_ONLY)
        {
            assert!(ok(name, 64, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(unit, 16, "_/%.-"), "{unit}");
            assert!(seen.insert(*name), "{name} used twice");
        }
    }
}
