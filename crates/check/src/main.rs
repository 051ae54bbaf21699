//! `esched-check` — the differential fuzz driver.
//!
//! ```text
//! cargo run --release -p esched-check -- --iters 1000 --seed 42
//! ```
//!
//! Each iteration seeds a fresh [`ChaCha8`] with `seed + i`, draws one
//! adversarial case — a plain [`Instance`], or an [`OnlineScript`] under
//! `--online` — and runs its oracle battery. Both kinds go through the
//! same loop ([`run_fuzz`]): on a violation the case is auto-shrunk per
//! failing oracle class and the minimal repro is written
//! (content-addressed, deduped) to the corpus directory, online scripts
//! under its `online/` subdirectory. Exit status: 0 when every iteration
//! passed, 1 on any violation, 2 on bad usage.
//!
//! Telemetry: the run is wrapped in a `check_fuzz` INFO span and every
//! violation emits an `oracle_violation` WARN event, so `ESCHED_LOG=info`
//! narrates the run through the standard `esched-obs` subscriber.

use esched_check::oracles::violation_classes;
use esched_check::{write_corpus, FuzzCase, Instance, OnlineScript, OracleClass, OracleViolation};
use esched_engine::Engine;
use esched_obs::rng::ChaCha8;
use esched_obs::{event, span, Level};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Iterations submitted to the engine per batch: large enough to keep
/// every worker busy, small enough that violations surface promptly.
const BATCH: u64 = 256;

struct Args {
    iters: u64,
    seed: u64,
    corpus: PathBuf,
    max_shrink_evals: usize,
    quiet: bool,
    online: bool,
    scale: Option<usize>,
}

const USAGE: &str = "usage: esched-check [--iters N] [--seed N] [--corpus DIR] \
                     [--max-shrink-evals N] [--quiet] [--online] [--scale N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        iters: 1000,
        seed: 42,
        corpus: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus")),
        max_shrink_evals: 400,
        quiet: false,
        online: false,
        scale: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--iters" => args.iters = parse_num(&grab("--iters")?)?,
            "--seed" => args.seed = parse_num(&grab("--seed")?)?,
            "--corpus" => args.corpus = PathBuf::from(grab("--corpus")?),
            "--max-shrink-evals" => {
                args.max_shrink_evals = parse_num(&grab("--max-shrink-evals")?)? as usize;
            }
            "--quiet" => args.quiet = true,
            "--online" => args.online = true,
            "--scale" => args.scale = Some(parse_num(&grab("--scale")?)? as usize),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s}\n{USAGE}"))
}

/// The fuzz loop, shared by both case kinds. Cases are generated
/// serially (the generator is cheap and the per-iteration seed must stay
/// `seed + i`), then each batch is evaluated on the engine's
/// work-stealing pool. Results come back in submission order, so
/// violation reporting, shrinking and corpus writes are exactly as
/// deterministic as a serial loop. `label` starts the summary line.
fn run_fuzz<C: FuzzCase>(args: &Args, label: &str, corpus: &Path) -> ExitCode {
    let generate = |i: u64| C::generate(&mut ChaCha8::seed_from_u64(args.seed.wrapping_add(i)));
    let engine = Engine::new();
    let mut failing_iters = 0_u64;
    let mut written: Vec<PathBuf> = Vec::new();
    let mut deduped = 0_usize;
    let mut start = 0_u64;
    while start < args.iters {
        let count = BATCH.min(args.iters - start);
        let cases: Vec<(u64, C)> = (start..start + count).map(|i| (i, generate(i))).collect();
        let results = engine.batch_map(cases, |_scratch, (i, case)| {
            let violations = case.check();
            (i, case, violations)
        });
        for result in results {
            let (i, case, violations) = match result {
                Ok(triple) => triple,
                Err(e) => {
                    // The oracle battery already converts pipeline panics
                    // into violations, so a job-level panic is a harness
                    // bug; regenerate the case from its seed (the
                    // generator already ran cleanly on this thread) and
                    // report it as a synthetic Panic violation.
                    let i = start + e.index as u64;
                    let v = OracleViolation {
                        class: OracleClass::Panic,
                        message: format!("oracle battery panicked: {}", e.message),
                    };
                    (i, generate(i), vec![v])
                }
            };
            if violations.is_empty() {
                if !args.quiet && (i + 1) % 200 == 0 {
                    eprintln!("  ... {} iterations clean", i + 1);
                }
                continue;
            }
            failing_iters += 1;
            // Flight dump of the moments before the violation — a no-op
            // unless ESCHED_FLIGHT_DIR is set.
            let _ = esched_obs::recorder::dump_post_mortem("fuzz oracle violation");
            eprintln!(
                "iter {i} (seed {}): {} violation(s) on {}",
                args.seed.wrapping_add(i),
                violations.len(),
                case.summary()
            );
            for v in &violations {
                eprintln!("    {v}");
                event!(
                    Level::Warn,
                    "oracle_violation",
                    iter = i as usize,
                    class = v.class.name(),
                );
            }
            // Shrink once per distinct failing class so each corpus entry
            // is minimal *for its oracle*, then write the repro.
            for class in violation_classes(&violations) {
                let shrunk = case.shrink(class, args.max_shrink_evals);
                let message = shrunk
                    .case
                    .check()
                    .into_iter()
                    .find(|v| v.class == class)
                    .map(|v| v.message)
                    .unwrap_or_else(|| "violation vanished after shrink (flaky)".to_string());
                let repro = OracleViolation { class, message };
                match write_corpus(corpus, &shrunk.case, &repro) {
                    Ok(Some(path)) => {
                        eprintln!(
                            "    shrunk to {} ({} evals) -> {}",
                            shrunk.case.summary(),
                            shrunk.evals,
                            path.display()
                        );
                        written.push(path);
                    }
                    Ok(None) => deduped += 1,
                    Err(e) => eprintln!("    corpus write failed: {e}"),
                }
            }
        }
        start += count;
    }

    event!(
        Level::Info,
        "check_fuzz_done",
        failing_iters = failing_iters as usize,
        new_repros = written.len(),
    );
    println!(
        "{label}: {} iterations, {} failing, {} new corpus repro(s), {} deduped",
        args.iters,
        failing_iters,
        written.len(),
        deduped
    );
    for p in &written {
        println!("  new repro: {}", p.display());
    }
    if let Some(path) = esched_obs::recorder::dump_at_exit_if_requested() {
        eprintln!("flight recorder dumped to {}", path.display());
    }
    if failing_iters == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--scale N` mode: the large-n allocator battery. No shrinking or
/// corpus here — instances are fully determined by `(seed, iteration)`,
/// so a failure message already names its repro.
fn run_scale(args: &Args, scale: usize) -> ExitCode {
    let workers = 8;
    println!(
        "esched-check --scale {scale}: {} iteration(s), seed {}, {workers} pool workers",
        args.iters, args.seed
    );
    let report = esched_check::run_scale(scale, args.iters, args.seed, 4, workers);
    if !args.quiet {
        let max = report.sizes.iter().copied().max().unwrap_or(0);
        let min = report.sizes.iter().copied().min().unwrap_or(0);
        println!(
            "  sizes {min}..={max}, {} cells checked, {} violation(s)",
            report.cells_checked,
            report.violations.len()
        );
    }
    for v in &report.violations {
        eprintln!("  {v}");
        event!(Level::Warn, "scale_violation");
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    esched_obs::trace::init_from_env();
    // The oracle battery converts pipeline panics into violations via
    // catch_unwind; silence the default hook so a panicking stage doesn't
    // spray backtraces over the report (RUST_BACKTRACE debugging still
    // works on the shrunk repro via the replay test).
    std::panic::set_hook(Box::new(|_| {}));

    let _span = span!(
        Level::Info,
        "check_fuzz",
        iters = args.iters as usize,
        seed = args.seed as usize,
    );

    if let Some(scale) = args.scale {
        return run_scale(&args, scale);
    }
    if args.online {
        run_fuzz::<OnlineScript>(&args, "esched-check --online", &args.corpus.join("online"))
    } else {
        run_fuzz::<Instance>(&args, "esched-check", &args.corpus)
    }
}
