//! Typed command-line parsing for the `spg` binary.
//!
//! Each subcommand parses into its own args struct, so the binary's `main`
//! works with fields, not a stringly `HashMap`. Unknown flags and missing
//! values are hard errors that name the offending flag, and every
//! subcommand answers `--help` with its own usage text (the same text the
//! README's CLI section is generated from).

use spg_core::FaultPolicy;
use spg_gen::{DriftKind, Setting};
use std::fmt;
use std::path::PathBuf;

/// A parsed invocation of the `spg` binary.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `spg generate` — synthesize a dataset of stream graphs.
    Generate(GenerateArgs),
    /// `spg train` — train the RL coarsening model on a dataset.
    Train(TrainArgs),
    /// `spg evaluate` — compare allocators on a dataset.
    Evaluate(EvaluateArgs),
    /// `spg allocate` — place one graph with a trained model.
    Allocate(AllocateArgs),
    /// `spg report` — summarize a training telemetry JSONL file.
    Report(ReportArgs),
    /// `spg serve` — run the long-lived allocation service.
    Serve(ServeArgs),
    /// `spg realloc` — demo client for the incremental re-allocation path.
    Realloc(ReallocArgs),
    /// `spg bench-serve` — open-loop load generator against `spg serve`.
    BenchServe(BenchServeArgs),
    /// `spg bench-matmul` — matmul kernel microbenchmark.
    BenchMatmul(BenchMatmulArgs),
}

/// Arguments of `spg generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Paper setting that fixes graph sizes, devices and source rate.
    pub setting: Setting,
    /// Number of graphs to generate.
    pub count: usize,
    /// Generator seed.
    pub seed: u64,
    /// Use the scaled-down variant of the setting.
    pub scaled: bool,
    /// Output dataset path (JSON).
    pub out: PathBuf,
}

/// Arguments of `spg train`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    /// Dataset produced by `spg generate`.
    pub dataset: PathBuf,
    /// Output model checkpoint path.
    pub out: PathBuf,
    /// Training epochs.
    pub epochs: usize,
    /// Training seed.
    pub seed: u64,
    /// Metis-guided buffer seeding (cleared by `--no-guide`).
    pub guide: bool,
    /// Rollout worker threads (`None` = auto).
    pub workers: Option<usize>,
    /// Telemetry JSONL output path (`None` = telemetry disabled).
    pub metrics: Option<PathBuf>,
    /// Checkpoint to resume training from (`--resume`).
    pub resume: Option<PathBuf>,
    /// Periodic snapshot interval in epochs (0 = disabled).
    pub checkpoint_every: usize,
    /// How many periodic snapshots to keep.
    pub checkpoint_keep: usize,
    /// What to do when a training-time fault is detected.
    pub fault_policy: FaultPolicy,
    /// Fault injection: simulate a crash after this epoch completes.
    pub inject_kill_after: Option<u64>,
    /// Fault injection: probability of a NaN rollout reward per sample.
    pub inject_nan_rewards: f64,
    /// Fault injection: probability of a rollout worker panic per sample.
    pub inject_worker_panics: f64,
}

/// Arguments of `spg evaluate`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateArgs {
    /// Dataset to evaluate on.
    pub dataset: PathBuf,
    /// Trained model to evaluate alongside the Metis baseline.
    pub model: Option<PathBuf>,
}

/// Arguments of `spg allocate`.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocateArgs {
    /// Dataset holding the graph.
    pub dataset: PathBuf,
    /// Trained model checkpoint.
    pub model: PathBuf,
    /// Index of the graph within the dataset.
    pub index: usize,
}

/// Arguments of `spg report`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// Telemetry JSONL file written by `spg train --metrics`.
    pub metrics: PathBuf,
}

/// Arguments of `spg serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Trained model checkpoint to serve.
    pub model: PathBuf,
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Paper setting whose cluster and source rate are the request
    /// defaults.
    pub setting: Setting,
    /// Shared-nothing replica workers (model copy + batcher + LRU shard
    /// each).
    pub replicas: usize,
    /// Most queued requests a replica takes per batch.
    pub max_batch: usize,
    /// Bounded request-queue depth (`overloaded` beyond it).
    pub queue: usize,
    /// Per-request timeout in milliseconds.
    pub timeout_ms: u64,
    /// Placement-cache capacity (0 disables caching).
    pub cache: usize,
    /// Rollout worker threads (`None` = auto).
    pub workers: Option<usize>,
    /// Placement seed.
    pub seed: u64,
    /// Telemetry JSONL output path (`None` = telemetry disabled).
    pub metrics: Option<PathBuf>,
    /// Queue depth at which a replica stops admitting cache misses and
    /// sheds them `overloaded` (0 disables the watermark).
    pub shed_watermark: usize,
    /// Chaos: probability a replica panics while handling a request.
    pub inject_replica_panics: f64,
    /// Chaos: probability a replica dies (and is respawned) mid-request.
    pub inject_replica_kills: f64,
    /// Chaos: probability a replica stalls before handling a request.
    pub inject_replica_stalls: f64,
    /// Chaos: probability a client connection is dropped at first write.
    pub inject_conn_drops: f64,
    /// Chaos: probability a response write is torn mid-line, then the
    /// connection dropped.
    pub inject_torn_writes: f64,
}

/// Arguments of `spg realloc`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReallocArgs {
    /// Address of a running `spg serve`.
    pub addr: String,
    /// Graph-generator / drift seed.
    pub seed: u64,
    /// Drift kind to exercise (`None` = cycled by seed).
    pub drift: Option<DriftKind>,
    /// Send a shutdown command to the server afterwards.
    pub shutdown: bool,
}

/// Arguments of `spg bench-serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchServeArgs {
    /// Address of a running `spg serve`.
    pub addr: String,
    /// Replica count of the server under test (labels the report rows).
    pub replicas: usize,
    /// Connection counts to sweep (one bench run per entry).
    pub connections: Vec<usize>,
    /// Total requests across all connections.
    pub requests: usize,
    /// Distinct seeded graphs cycled through the request stream.
    pub graphs: usize,
    /// Graph-generator seed.
    pub seed: u64,
    /// Offered load in requests/second (open loop).
    pub rate: f64,
    /// Send a shutdown command to the server after the run.
    pub shutdown: bool,
    /// Run the drift bench (warm-start realloc vs full re-allocation)
    /// instead of the open-loop load sweep.
    pub drift: bool,
    /// Where to write the JSON report.
    pub out: PathBuf,
    /// Telemetry JSONL file written by the server (`spg serve --metrics`);
    /// after shutdown the report extracts the encode/rollout time split
    /// from it.
    pub serve_metrics: Option<PathBuf>,
    /// Chaos audit: assert every request gets exactly one response or
    /// named error (no hangs) against a fault-injecting server; the
    /// report row is keyed `chaos`.
    pub chaos: bool,
}

/// Arguments of `spg bench-matmul`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMatmulArgs {
    /// Problem shape: `[n x k]·[k x m]`.
    pub n: usize,
    pub k: usize,
    pub m: usize,
    /// Timed iterations.
    pub iters: usize,
}

/// Why parsing stopped without producing a [`Command`].
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// The user asked for help; print to stdout and exit 0.
    Help(String),
    /// The invocation is malformed; print to stderr and exit 2.
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help(text) | CliError::Usage(text) => f.write_str(text),
        }
    }
}

/// Top-level usage text (`spg --help`).
pub fn general_help() -> String {
    "spg — coarsening-partitioning allocator for stream processing graphs\n\
     \n\
     usage: spg <command> [options]\n\
     \n\
     commands:\n\
     \x20 generate   synthesize a dataset of stream graphs\n\
     \x20 train      train the RL coarsening model on a dataset\n\
     \x20 evaluate   compare allocators on a dataset\n\
     \x20 allocate   place one graph with a trained model\n\
     \x20 report     summarize a training telemetry JSONL file\n\
     \x20 serve      run the long-lived allocation service (JSONL over TCP)\n\
     \x20 realloc    demo client for incremental re-allocation under drift\n\
     \x20 bench-serve  open-loop load generator against a running `spg serve`\n\
     \x20 bench-matmul f32 matmul kernel microbenchmark\n\
     \n\
     run `spg <command> --help` for command options"
        .to_string()
}

fn settings_list() -> String {
    Setting::all().map(|s| s.slug()).join("|")
}

/// Parse a `--setting` value by its slug.
fn parse_setting(name: &str) -> Result<Setting, CliError> {
    Setting::all()
        .into_iter()
        .find(|s| s.slug() == name)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "invalid value `{name}` for --setting (one of: {})",
                settings_list()
            ))
        })
}

/// Usage text of one subcommand (`spg <cmd> --help`).
pub fn command_help(cmd: &str) -> String {
    match cmd {
        "generate" => format!(
            "usage: spg generate --setting <S> --out FILE [options]\n\
             \n\
             required:\n\
             \x20 --setting <{}>\n\
             \x20 --out FILE     where to write the dataset (JSON)\n\
             \n\
             options:\n\
             \x20 --count N      graphs to generate (default 20)\n\
             \x20 --seed S       generator seed (default 0)\n\
             \x20 --scaled       use the scaled-down variant of the setting",
            settings_list()
        ),
        "train" => "usage: spg train --dataset FILE --out FILE [options]\n\
             \n\
             required:\n\
             \x20 --dataset FILE  dataset produced by `spg generate`\n\
             \x20 --out FILE      where to write the model checkpoint\n\
             \n\
             options:\n\
             \x20 --epochs N      training epochs (default 10)\n\
             \x20 --seed S        training seed (default 0)\n\
             \x20 --no-guide      disable Metis-guided buffer seeding\n\
             \x20 --workers N     rollout worker threads (default: auto)\n\
             \x20 --metrics FILE  write telemetry events (JSONL) to FILE\n\
             \n\
             fault tolerance:\n\
             \x20 --resume FILE           resume from a checkpoint written by a crashed\n\
             \x20                         or interrupted run (same seed and dataset)\n\
             \x20 --checkpoint-every N    write FILE.epoch-<E> snapshots every N epochs\n\
             \x20 --checkpoint-keep K     keep only the newest K snapshots (default 3)\n\
             \x20 --fault-policy P        skip | rollback | abort (default abort)\n\
             \n\
             fault injection (testing the recovery paths):\n\
             \x20 --inject-kill-after E       exit(1) after epoch E completes\n\
             \x20 --inject-nan-rewards P      NaN rollout rewards at rate P (seeded)\n\
             \x20 --inject-worker-panics P    rollout worker panics at rate P (seeded)"
            .to_string(),
        "evaluate" => "usage: spg evaluate --dataset FILE [--model FILE]\n\
             \n\
             required:\n\
             \x20 --dataset FILE  dataset to evaluate on\n\
             \n\
             options:\n\
             \x20 --model FILE    also evaluate this trained model (otherwise Metis only)"
            .to_string(),
        "allocate" => "usage: spg allocate --dataset FILE --model FILE [--index I]\n\
             \n\
             required:\n\
             \x20 --dataset FILE  dataset holding the graph\n\
             \x20 --model FILE    trained model checkpoint\n\
             \n\
             options:\n\
             \x20 --index I       graph index within the dataset (default 0)"
            .to_string(),
        "report" => "usage: spg report METRICS.jsonl\n\
             \n\
             Summarize a telemetry stream written by `spg train --metrics`:\n\
             per-phase time breakdown, counters (reward-cache hit rate,\n\
             simulator calls), histograms, and the reward curve."
            .to_string(),
        "serve" => format!(
            "usage: spg serve --model FILE [options]\n\
             \n\
             Long-running allocation service: loads the checkpoint once, then\n\
             answers line-delimited JSON allocation requests over TCP with\n\
             batched request handling and a placement cache. Prints one\n\
             `listening on ADDR` line once ready; a `{{\"cmd\":\"shutdown\"}}`\n\
             request drains in-flight work and exits.\n\
             \n\
             required:\n\
             \x20 --model FILE    trained model checkpoint\n\
             \n\
             options:\n\
             \x20 --addr A        listen address (default 127.0.0.1:0)\n\
             \x20 --setting <{}>\n\
             \x20                 cluster + source-rate request defaults (default small)\n\
             \x20 --replicas N    shared-nothing replica workers, each with its own\n\
             \x20                 model copy, batcher and LRU shard (default 1)\n\
             \x20 --max-batch N   most queued requests a replica takes per batch; the\n\
             \x20                 batch is deduped, each graph gets its own forward,\n\
             \x20                 and rollouts fan out over --workers (default 8)\n\
             \x20 --queue N       bounded per-replica queue depth; `overloaded`\n\
             \x20                 beyond it (default 64)\n\
             \x20 --timeout-ms N  per-request timeout (default 5000)\n\
             \x20 --cache N       placement-cache entries, 0 disables (default 256)\n\
             \x20 --workers N     rollout worker threads (default: auto)\n\
             \x20 --seed S        placement seed (default 7)\n\
             \x20 --metrics FILE  write telemetry events (JSONL) to FILE\n\
             \x20 --shed-watermark N\n\
             \x20                 queue depth past which replicas serve only\n\
             \x20                 cache hits and shed the rest `overloaded`\n\
             \x20                 (default 0 = disabled)\n\
             \n\
             seeded fault injection (for chaos drills; probabilities in [0,1]):\n\
             \x20 --inject-replica-panics P  replica panics mid-request (caught)\n\
             \x20 --inject-replica-kills P   replica dies and is respawned\n\
             \x20 --inject-replica-stalls P  replica stalls before a request\n\
             \x20 --inject-conn-drops P      connection dropped at first write\n\
             \x20 --inject-torn-writes P     response torn mid-line, conn dropped",
            settings_list()
        ),
        "realloc" => "usage: spg realloc --addr A [options]\n\
             \n\
             Demo client for the incremental re-allocation path: allocates one\n\
             seeded graph (protocol v2), builds a drift delta against it, asks\n\
             the server to re-allocate warm-started from the prior placement,\n\
             and prints both responses plus the path taken (warm|full).\n\
             \n\
             required:\n\
             \x20 --addr A      address of a running `spg serve`\n\
             \n\
             options:\n\
             \x20 --seed S      graph/drift seed (default 0)\n\
             \x20 --drift K     drift kind: rate-ramp | hot-swap | device-loss\n\
             \x20               (default: cycled by seed)\n\
             \x20 --shutdown    send a shutdown command afterwards"
            .to_string(),
        "bench-serve" => "usage: spg bench-serve --addr A [options]\n\
             \n\
             Open-loop seeded load generator: fires allocation requests at a\n\
             fixed rate over concurrent connections, checks that identical\n\
             requests receive bitwise-identical placements, and writes a JSON\n\
             report with sustained req/s and latency percentiles.\n\
             \n\
             required:\n\
             \x20 --addr A         address of a running `spg serve`\n\
             \n\
             options:\n\
             \x20 --connections N[,M...]\n\
             \x20                  connection counts to sweep, one run per entry\n\
             \x20                  (default 4)\n\
             \x20 --replicas N     replica count of the server under test; labels\n\
             \x20                  the report rows `r<N>c<conns>` (default 1)\n\
             \x20 --requests N     total requests per run (default 64)\n\
             \x20 --graphs N       distinct graphs cycled through (default 8)\n\
             \x20 --seed S         graph-generator seed (default 0)\n\
             \x20 --rate R         offered load in req/s (default 200)\n\
             \x20 --shutdown       send a shutdown command after the last run\n\
             \x20 --chaos          audit a fault-injecting server: assert every\n\
             \x20                  request gets exactly one response or named\n\
             \x20                  error (no hangs); the report row is keyed\n\
             \x20                  `chaos`\n\
             \x20 --drift          run the drift bench instead of the load sweep:\n\
             \x20                  per seeded scenario, a warm-start realloc races a\n\
             \x20                  full re-allocation of the mutated graph; the report\n\
             \x20                  row is keyed `drift`\n\
             \x20 --out FILE       report path; rows keyed `r<replicas>c<conns>`\n\
             \x20                  are merged into an existing file\n\
             \x20                  (default BENCH_serve.json)\n\
             \x20 --serve-metrics FILE\n\
             \x20                  telemetry JSONL written by `spg serve --metrics FILE`;\n\
             \x20                  after shutdown, fold the server's encode/rollout\n\
             \x20                  time split into the report"
            .to_string(),
        "bench-matmul" => "usage: spg bench-matmul [options]\n\
             \n\
             Time the f32 matmul kernel (bitwise-deterministic) at a given\n\
             shape and print ns/iter and GFLOP/s.\n\
             \n\
             options:\n\
             \x20 --shape NxKxM  problem shape [n x k]·[k x m]; `NxK` means\n\
             \x20                NxKxN, a bare `N` means NxNxN (default 128)\n\
             \x20 --iters N      timed iterations (default 50)"
            .to_string(),
        other => panic!("no help for unknown command `{other}`"),
    }
}

/// Walks the raw argument list of one subcommand.
struct Args<'a> {
    cmd: &'static str,
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    fn new(cmd: &'static str, rest: &'a [String]) -> Self {
        Self {
            cmd,
            rest: rest.iter(),
        }
    }

    /// Value of a `--flag VALUE` pair, or a usage error naming the flag.
    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        match self.rest.next() {
            Some(v) => Ok(v),
            None => Err(CliError::Usage(format!(
                "flag --{flag} needs a value (see `spg {} --help`)",
                self.cmd
            ))),
        }
    }

    fn unknown(&self, arg: &str) -> CliError {
        CliError::Usage(format!(
            "unknown argument `{arg}` for `spg {}` (see `spg {} --help`)",
            self.cmd, self.cmd
        ))
    }

    fn missing(&self, flag: &str) -> CliError {
        CliError::Usage(format!(
            "--{flag} is required (see `spg {} --help`)",
            self.cmd
        ))
    }
}

fn parse_num<T: std::str::FromStr>(cmd: &str, flag: &str, text: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    text.parse().map_err(|e| {
        CliError::Usage(format!(
            "invalid value `{text}` for --{flag}: {e} (see `spg {cmd} --help`)"
        ))
    })
}

/// Parse an injection-rate flag value: a probability in `[0, 1]`.
fn parse_rate(cmd: &str, flag: &str, a: &mut Args<'_>) -> Result<f64, CliError> {
    let p: f64 = parse_num(cmd, flag, a.value(flag)?)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(CliError::Usage(format!(
            "invalid value `{p}` for --{flag}: must be a probability in [0, 1] \
             (see `spg {cmd} --help`)"
        )));
    }
    Ok(p)
}

impl Command {
    /// Parse the argument list after the program name.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let Some(cmd) = args.first() else {
            return Err(CliError::Usage(general_help()));
        };
        let rest = &args[1..];
        match cmd.as_str() {
            "help" | "--help" | "-h" => Err(CliError::Help(general_help())),
            "generate" => Self::parse_generate(rest),
            "train" => Self::parse_train(rest),
            "evaluate" => Self::parse_evaluate(rest),
            "allocate" => Self::parse_allocate(rest),
            "report" => Self::parse_report(rest),
            "serve" => Self::parse_serve(rest),
            "realloc" => Self::parse_realloc(rest),
            "bench-serve" => Self::parse_bench_serve(rest),
            "bench-matmul" => Self::parse_bench_matmul(rest),
            other => Err(CliError::Usage(format!(
                "unknown command `{other}`\n\n{}",
                general_help()
            ))),
        }
    }

    fn parse_generate(rest: &[String]) -> Result<Self, CliError> {
        let mut a = Args::new("generate", rest);
        let (mut setting, mut out) = (None, None);
        let (mut count, mut seed, mut scaled) = (20usize, 0u64, false);
        while let Some(arg) = a.rest.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help(command_help("generate"))),
                "--setting" => setting = Some(parse_setting(a.value("setting")?)?),
                "--count" => count = parse_num("generate", "count", a.value("count")?)?,
                "--seed" => seed = parse_num("generate", "seed", a.value("seed")?)?,
                "--scaled" => scaled = true,
                "--out" => out = Some(PathBuf::from(a.value("out")?)),
                other => return Err(a.unknown(other)),
            }
        }
        Ok(Command::Generate(GenerateArgs {
            setting: setting.ok_or_else(|| a.missing("setting"))?,
            count,
            seed,
            scaled,
            out: out.ok_or_else(|| a.missing("out"))?,
        }))
    }

    fn parse_train(rest: &[String]) -> Result<Self, CliError> {
        let mut a = Args::new("train", rest);
        let (mut dataset, mut out, mut workers, mut metrics) = (None, None, None, None);
        let (mut epochs, mut seed, mut guide) = (10usize, 0u64, true);
        let (mut resume, mut checkpoint_every, mut checkpoint_keep) = (None, 0usize, 3usize);
        let mut fault_policy = FaultPolicy::default();
        let mut inject_kill_after = None;
        let (mut inject_nan_rewards, mut inject_worker_panics) = (0.0f64, 0.0f64);
        while let Some(arg) = a.rest.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help(command_help("train"))),
                "--dataset" => dataset = Some(PathBuf::from(a.value("dataset")?)),
                "--out" => out = Some(PathBuf::from(a.value("out")?)),
                "--epochs" => epochs = parse_num("train", "epochs", a.value("epochs")?)?,
                "--seed" => seed = parse_num("train", "seed", a.value("seed")?)?,
                "--no-guide" => guide = false,
                "--workers" => workers = Some(parse_num("train", "workers", a.value("workers")?)?),
                "--metrics" => metrics = Some(PathBuf::from(a.value("metrics")?)),
                "--resume" => resume = Some(PathBuf::from(a.value("resume")?)),
                "--checkpoint-every" => {
                    checkpoint_every =
                        parse_num("train", "checkpoint-every", a.value("checkpoint-every")?)?
                }
                "--checkpoint-keep" => {
                    checkpoint_keep =
                        parse_num("train", "checkpoint-keep", a.value("checkpoint-keep")?)?
                }
                "--fault-policy" => {
                    fault_policy = parse_num("train", "fault-policy", a.value("fault-policy")?)?
                }
                "--inject-kill-after" => {
                    inject_kill_after = Some(parse_num(
                        "train",
                        "inject-kill-after",
                        a.value("inject-kill-after")?,
                    )?)
                }
                "--inject-nan-rewards" => {
                    inject_nan_rewards = parse_rate("train", "inject-nan-rewards", &mut a)?
                }
                "--inject-worker-panics" => {
                    inject_worker_panics = parse_rate("train", "inject-worker-panics", &mut a)?
                }
                other => return Err(a.unknown(other)),
            }
        }
        Ok(Command::Train(TrainArgs {
            dataset: dataset.ok_or_else(|| a.missing("dataset"))?,
            out: out.ok_or_else(|| a.missing("out"))?,
            epochs,
            seed,
            guide,
            workers,
            metrics,
            resume,
            checkpoint_every,
            checkpoint_keep,
            fault_policy,
            inject_kill_after,
            inject_nan_rewards,
            inject_worker_panics,
        }))
    }

    fn parse_evaluate(rest: &[String]) -> Result<Self, CliError> {
        let mut a = Args::new("evaluate", rest);
        let (mut dataset, mut model) = (None, None);
        while let Some(arg) = a.rest.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help(command_help("evaluate"))),
                "--dataset" => dataset = Some(PathBuf::from(a.value("dataset")?)),
                "--model" => model = Some(PathBuf::from(a.value("model")?)),
                other => return Err(a.unknown(other)),
            }
        }
        Ok(Command::Evaluate(EvaluateArgs {
            dataset: dataset.ok_or_else(|| a.missing("dataset"))?,
            model,
        }))
    }

    fn parse_allocate(rest: &[String]) -> Result<Self, CliError> {
        let mut a = Args::new("allocate", rest);
        let (mut dataset, mut model) = (None, None);
        let mut index = 0usize;
        while let Some(arg) = a.rest.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help(command_help("allocate"))),
                "--dataset" => dataset = Some(PathBuf::from(a.value("dataset")?)),
                "--model" => model = Some(PathBuf::from(a.value("model")?)),
                "--index" => index = parse_num("allocate", "index", a.value("index")?)?,
                other => return Err(a.unknown(other)),
            }
        }
        Ok(Command::Allocate(AllocateArgs {
            dataset: dataset.ok_or_else(|| a.missing("dataset"))?,
            model: model.ok_or_else(|| a.missing("model"))?,
            index,
        }))
    }

    fn parse_report(rest: &[String]) -> Result<Self, CliError> {
        let mut a = Args::new("report", rest);
        let mut metrics = None;
        while let Some(arg) = a.rest.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help(command_help("report"))),
                other if other.starts_with('-') => return Err(a.unknown(other)),
                path => {
                    if metrics.is_some() {
                        return Err(CliError::Usage(
                            "spg report takes exactly one METRICS.jsonl path (see `spg report --help`)"
                                .to_string(),
                        ));
                    }
                    metrics = Some(PathBuf::from(path));
                }
            }
        }
        Ok(Command::Report(ReportArgs {
            metrics: metrics.ok_or_else(|| {
                CliError::Usage(
                    "spg report needs a METRICS.jsonl path (see `spg report --help`)".to_string(),
                )
            })?,
        }))
    }

    fn parse_serve(rest: &[String]) -> Result<Self, CliError> {
        let mut a = Args::new("serve", rest);
        let (mut model, mut workers, mut metrics) = (None, None, None);
        let mut addr = String::from("127.0.0.1:0");
        let mut setting = Setting::Small;
        let mut replicas = 1usize;
        let (mut max_batch, mut queue, mut cache) = (8usize, 64usize, 256usize);
        let (mut timeout_ms, mut seed) = (5000u64, 7u64);
        let mut shed_watermark = 0usize;
        let (mut inject_replica_panics, mut inject_replica_kills) = (0.0f64, 0.0f64);
        let (mut inject_replica_stalls, mut inject_conn_drops) = (0.0f64, 0.0f64);
        let mut inject_torn_writes = 0.0f64;
        while let Some(arg) = a.rest.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help(command_help("serve"))),
                "--model" => model = Some(PathBuf::from(a.value("model")?)),
                "--addr" => addr = a.value("addr")?.to_string(),
                "--setting" => setting = parse_setting(a.value("setting")?)?,
                "--replicas" => {
                    replicas = parse_num("serve", "replicas", a.value("replicas")?)?;
                    if replicas == 0 {
                        return Err(CliError::Usage(
                            "invalid value `0` for --replicas: must be >= 1 \
                             (see `spg serve --help`)"
                                .to_string(),
                        ));
                    }
                }
                "--max-batch" => {
                    max_batch = parse_num("serve", "max-batch", a.value("max-batch")?)?
                }
                "--queue" => queue = parse_num("serve", "queue", a.value("queue")?)?,
                "--timeout-ms" => {
                    timeout_ms = parse_num("serve", "timeout-ms", a.value("timeout-ms")?)?
                }
                "--cache" => cache = parse_num("serve", "cache", a.value("cache")?)?,
                "--workers" => workers = Some(parse_num("serve", "workers", a.value("workers")?)?),
                "--seed" => seed = parse_num("serve", "seed", a.value("seed")?)?,
                "--metrics" => metrics = Some(PathBuf::from(a.value("metrics")?)),
                "--shed-watermark" => {
                    shed_watermark =
                        parse_num("serve", "shed-watermark", a.value("shed-watermark")?)?
                }
                "--inject-replica-panics" => {
                    inject_replica_panics = parse_rate("serve", "inject-replica-panics", &mut a)?
                }
                "--inject-replica-kills" => {
                    inject_replica_kills = parse_rate("serve", "inject-replica-kills", &mut a)?
                }
                "--inject-replica-stalls" => {
                    inject_replica_stalls = parse_rate("serve", "inject-replica-stalls", &mut a)?
                }
                "--inject-conn-drops" => {
                    inject_conn_drops = parse_rate("serve", "inject-conn-drops", &mut a)?
                }
                "--inject-torn-writes" => {
                    inject_torn_writes = parse_rate("serve", "inject-torn-writes", &mut a)?
                }
                other => return Err(a.unknown(other)),
            }
        }
        Ok(Command::Serve(ServeArgs {
            model: model.ok_or_else(|| a.missing("model"))?,
            addr,
            setting,
            replicas,
            max_batch,
            queue,
            timeout_ms,
            cache,
            workers,
            seed,
            metrics,
            shed_watermark,
            inject_replica_panics,
            inject_replica_kills,
            inject_replica_stalls,
            inject_conn_drops,
            inject_torn_writes,
        }))
    }

    fn parse_realloc(rest: &[String]) -> Result<Self, CliError> {
        let mut a = Args::new("realloc", rest);
        let (mut addr, mut drift) = (None, None);
        let (mut seed, mut shutdown) = (0u64, false);
        while let Some(arg) = a.rest.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help(command_help("realloc"))),
                "--addr" => addr = Some(a.value("addr")?.to_string()),
                "--seed" => seed = parse_num("realloc", "seed", a.value("seed")?)?,
                "--drift" => {
                    let text = a.value("drift")?;
                    drift = Some(DriftKind::from_slug(text).ok_or_else(|| {
                        CliError::Usage(format!(
                            "invalid value `{text}` for --drift (one of: rate-ramp|hot-swap|\
                             device-loss; see `spg realloc --help`)"
                        ))
                    })?);
                }
                "--shutdown" => shutdown = true,
                other => return Err(a.unknown(other)),
            }
        }
        Ok(Command::Realloc(ReallocArgs {
            addr: addr.ok_or_else(|| a.missing("addr"))?,
            seed,
            drift,
            shutdown,
        }))
    }

    fn parse_bench_serve(rest: &[String]) -> Result<Self, CliError> {
        let mut a = Args::new("bench-serve", rest);
        let mut addr = None;
        let (mut requests, mut graphs) = (64usize, 8usize);
        let mut connections = vec![4usize];
        let mut replicas = 1usize;
        let (mut seed, mut rate, mut shutdown) = (0u64, 200.0f64, false);
        let (mut drift, mut chaos) = (false, false);
        let mut out = PathBuf::from("BENCH_serve.json");
        let mut serve_metrics = None;
        while let Some(arg) = a.rest.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help(command_help("bench-serve"))),
                "--addr" => addr = Some(a.value("addr")?.to_string()),
                "--connections" => {
                    let text = a.value("connections")?;
                    connections = text
                        .split(',')
                        .map(|c| parse_num("bench-serve", "connections", c.trim()))
                        .collect::<Result<_, _>>()?;
                    if connections.is_empty() || connections.contains(&0) {
                        return Err(CliError::Usage(format!(
                            "invalid value `{text}` for --connections: expected a \
                             comma-separated list of positive counts \
                             (see `spg bench-serve --help`)"
                        )));
                    }
                }
                "--replicas" => {
                    replicas = parse_num("bench-serve", "replicas", a.value("replicas")?)?;
                    if replicas == 0 {
                        return Err(CliError::Usage(
                            "invalid value `0` for --replicas: must be >= 1 \
                             (see `spg bench-serve --help`)"
                                .to_string(),
                        ));
                    }
                }
                "--requests" => {
                    requests = parse_num("bench-serve", "requests", a.value("requests")?)?
                }
                "--graphs" => graphs = parse_num("bench-serve", "graphs", a.value("graphs")?)?,
                "--seed" => seed = parse_num("bench-serve", "seed", a.value("seed")?)?,
                "--rate" => {
                    rate = parse_num("bench-serve", "rate", a.value("rate")?)?;
                    if !(rate > 0.0 && rate.is_finite()) {
                        return Err(CliError::Usage(format!(
                            "invalid value `{rate}` for --rate: must be a positive req/s \
                             (see `spg bench-serve --help`)"
                        )));
                    }
                }
                "--shutdown" => shutdown = true,
                "--drift" => drift = true,
                "--chaos" => chaos = true,
                "--out" => out = PathBuf::from(a.value("out")?),
                "--serve-metrics" => serve_metrics = Some(PathBuf::from(a.value("serve-metrics")?)),
                other => return Err(a.unknown(other)),
            }
        }
        if drift && chaos {
            return Err(CliError::Usage(
                "--drift and --chaos are mutually exclusive (see `spg bench-serve --help`)"
                    .to_string(),
            ));
        }
        Ok(Command::BenchServe(BenchServeArgs {
            addr: addr.ok_or_else(|| a.missing("addr"))?,
            replicas,
            connections,
            requests,
            graphs,
            seed,
            rate,
            shutdown,
            drift,
            out,
            serve_metrics,
            chaos,
        }))
    }

    fn parse_bench_matmul(rest: &[String]) -> Result<Self, CliError> {
        let mut a = Args::new("bench-matmul", rest);
        let (mut n, mut k, mut m) = (128usize, 128usize, 128usize);
        let mut iters = 50usize;
        while let Some(arg) = a.rest.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help(command_help("bench-matmul"))),
                "--shape" => {
                    let text = a.value("shape")?;
                    let dims: Vec<usize> = text
                        .split('x')
                        .map(|d| parse_num("bench-matmul", "shape", d))
                        .collect::<Result<_, _>>()?;
                    (n, k, m) = match dims.as_slice() {
                        [s] => (*s, *s, *s),
                        [n, k] => (*n, *k, *n),
                        [n, k, m] => (*n, *k, *m),
                        _ => {
                            return Err(CliError::Usage(format!(
                                "invalid value `{text}` for --shape: expected N, NxK or \
                                 NxKxM (see `spg bench-matmul --help`)"
                            )))
                        }
                    };
                    if n == 0 || k == 0 || m == 0 {
                        return Err(CliError::Usage(format!(
                            "invalid value `{text}` for --shape: dimensions must be \
                             positive (see `spg bench-matmul --help`)"
                        )));
                    }
                }
                "--iters" => {
                    iters = parse_num("bench-matmul", "iters", a.value("iters")?)?;
                    if iters == 0 {
                        return Err(CliError::Usage(
                            "invalid value `0` for --iters: must be positive \
                             (see `spg bench-matmul --help`)"
                                .to_string(),
                        ));
                    }
                }
                other => return Err(a.unknown(other)),
            }
        }
        Ok(Command::BenchMatmul(BenchMatmulArgs { n, k, m, iters }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Command::parse(&args)
    }

    #[test]
    fn generate_full_invocation() {
        let cmd =
            parse("generate --setting medium --count 5 --seed 7 --scaled --out ds.json").unwrap();
        let Command::Generate(g) = cmd else {
            panic!("expected generate, got {cmd:?}")
        };
        assert_eq!(g.setting.slug(), "medium");
        assert_eq!(g.count, 5);
        assert_eq!(g.seed, 7);
        assert!(g.scaled);
        assert_eq!(g.out, PathBuf::from("ds.json"));
    }

    #[test]
    fn generate_defaults() {
        let Command::Generate(g) = parse("generate --setting small --out x.json").unwrap() else {
            panic!()
        };
        assert_eq!((g.count, g.seed, g.scaled), (20, 0, false));
    }

    #[test]
    fn generate_rejects_bad_setting() {
        let Err(CliError::Usage(msg)) = parse("generate --setting tiny --out x.json") else {
            panic!("bad setting must be a usage error")
        };
        assert!(msg.contains("`tiny`") && msg.contains("small"), "{msg}");
    }

    #[test]
    fn train_full_invocation() {
        let cmd = parse(
            "train --dataset ds.json --out m.json --epochs 3 --seed 2 --no-guide \
             --workers 4 --metrics ev.jsonl",
        )
        .unwrap();
        let Command::Train(t) = cmd else { panic!() };
        assert_eq!(t.dataset, PathBuf::from("ds.json"));
        assert_eq!(t.out, PathBuf::from("m.json"));
        assert_eq!((t.epochs, t.seed, t.guide), (3, 2, false));
        assert_eq!(t.workers, Some(4));
        assert_eq!(t.metrics, Some(PathBuf::from("ev.jsonl")));
    }

    #[test]
    fn train_defaults() {
        let Command::Train(t) = parse("train --dataset d --out m").unwrap() else {
            panic!()
        };
        assert_eq!((t.epochs, t.seed, t.guide), (10, 0, true));
        assert_eq!((t.workers, t.metrics), (None, None));
        assert_eq!(t.resume, None);
        assert_eq!((t.checkpoint_every, t.checkpoint_keep), (0, 3));
        assert_eq!(t.fault_policy, FaultPolicy::Abort);
        assert_eq!(t.inject_kill_after, None);
        assert_eq!((t.inject_nan_rewards, t.inject_worker_panics), (0.0, 0.0));
    }

    #[test]
    fn train_fault_tolerance_flags() {
        let cmd = parse(
            "train --dataset d --out m --resume m.epoch-4 --checkpoint-every 2 \
             --checkpoint-keep 5 --fault-policy rollback --inject-kill-after 4 \
             --inject-nan-rewards 0.25 --inject-worker-panics 0.5",
        )
        .unwrap();
        let Command::Train(t) = cmd else { panic!() };
        assert_eq!(t.resume, Some(PathBuf::from("m.epoch-4")));
        assert_eq!((t.checkpoint_every, t.checkpoint_keep), (2, 5));
        assert_eq!(t.fault_policy, FaultPolicy::RollbackToSnapshot);
        assert_eq!(t.inject_kill_after, Some(4));
        assert_eq!((t.inject_nan_rewards, t.inject_worker_panics), (0.25, 0.5));
    }

    #[test]
    fn train_rejects_bad_fault_policy_and_rates() {
        let Err(CliError::Usage(msg)) = parse("train --dataset d --out m --fault-policy yolo")
        else {
            panic!()
        };
        assert!(msg.contains("`yolo`") && msg.contains("rollback"), "{msg}");
        let Err(CliError::Usage(msg)) = parse("train --dataset d --out m --inject-nan-rewards 2")
        else {
            panic!()
        };
        assert!(msg.contains("probability"), "{msg}");
    }

    #[test]
    fn train_missing_required_flag_names_it() {
        let Err(CliError::Usage(msg)) = parse("train --dataset d") else {
            panic!()
        };
        assert!(msg.contains("--out is required"), "{msg}");
    }

    #[test]
    fn train_missing_value_names_the_flag() {
        let Err(CliError::Usage(msg)) = parse("train --dataset d --out m --epochs") else {
            panic!()
        };
        assert!(msg.contains("--epochs needs a value"), "{msg}");
    }

    #[test]
    fn train_bad_number_is_reported() {
        let Err(CliError::Usage(msg)) = parse("train --dataset d --out m --epochs ten") else {
            panic!()
        };
        assert!(msg.contains("`ten`") && msg.contains("--epochs"), "{msg}");
    }

    #[test]
    fn unknown_flag_is_an_error_naming_it() {
        let Err(CliError::Usage(msg)) = parse("train --dataset d --out m --bogus 1") else {
            panic!()
        };
        assert!(
            msg.contains("`--bogus`") && msg.contains("spg train"),
            "{msg}"
        );
    }

    #[test]
    fn evaluate_with_and_without_model() {
        let Command::Evaluate(e) = parse("evaluate --dataset d").unwrap() else {
            panic!()
        };
        assert_eq!(e.model, None);
        let Command::Evaluate(e) = parse("evaluate --dataset d --model m").unwrap() else {
            panic!()
        };
        assert_eq!(e.model, Some(PathBuf::from("m")));
    }

    #[test]
    fn allocate_parses_index() {
        let Command::Allocate(al) = parse("allocate --dataset d --model m --index 3").unwrap()
        else {
            panic!()
        };
        assert_eq!(al.index, 3);
        let Err(CliError::Usage(msg)) = parse("allocate --dataset d") else {
            panic!()
        };
        assert!(msg.contains("--model is required"), "{msg}");
    }

    #[test]
    fn report_takes_one_positional() {
        let Command::Report(r) = parse("report ev.jsonl").unwrap() else {
            panic!()
        };
        assert_eq!(r.metrics, PathBuf::from("ev.jsonl"));
        assert!(matches!(parse("report"), Err(CliError::Usage(_))));
        assert!(matches!(parse("report a b"), Err(CliError::Usage(_))));
        assert!(matches!(
            parse("report --frobnicate"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_everywhere() {
        assert!(matches!(parse("--help"), Err(CliError::Help(_))));
        assert!(matches!(parse("help"), Err(CliError::Help(_))));
        for cmd in [
            "generate",
            "train",
            "evaluate",
            "allocate",
            "report",
            "serve",
            "realloc",
            "bench-serve",
        ] {
            let Err(CliError::Help(text)) = parse(&format!("{cmd} --help")) else {
                panic!("{cmd} --help must be a help error")
            };
            assert!(text.contains(&format!("spg {cmd}")), "{cmd}: {text}");
        }
    }

    #[test]
    fn serve_defaults_and_full_invocation() {
        let Command::Serve(s) = parse("serve --model m.json").unwrap() else {
            panic!()
        };
        assert_eq!(s.model, PathBuf::from("m.json"));
        assert_eq!(s.addr, "127.0.0.1:0");
        assert_eq!(s.setting.slug(), "small");
        assert_eq!(s.replicas, 1);
        assert_eq!((s.max_batch, s.queue, s.cache), (8, 64, 256));
        assert_eq!((s.timeout_ms, s.seed), (5000, 7));
        assert_eq!((s.workers, s.metrics), (None, None));
        assert_eq!(s.shed_watermark, 0);
        assert_eq!(
            (
                s.inject_replica_panics,
                s.inject_replica_kills,
                s.inject_replica_stalls,
                s.inject_conn_drops,
                s.inject_torn_writes
            ),
            (0.0, 0.0, 0.0, 0.0, 0.0)
        );

        let Command::Serve(s) = parse(
            "serve --model m --addr 0.0.0.0:9000 --setting large --replicas 2 --max-batch 4 \
             --queue 16 --timeout-ms 250 --cache 0 --workers 2 --seed 5 --metrics t.jsonl",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.addr, "0.0.0.0:9000");
        assert_eq!(s.setting.slug(), "large");
        assert_eq!(s.replicas, 2);
        assert_eq!((s.max_batch, s.queue, s.cache), (4, 16, 0));
        assert_eq!((s.timeout_ms, s.seed), (250, 5));
        assert_eq!(s.workers, Some(2));
        assert_eq!(s.metrics, Some(PathBuf::from("t.jsonl")));

        let Err(CliError::Usage(msg)) = parse("serve") else {
            panic!()
        };
        assert!(msg.contains("--model is required"), "{msg}");
        let Err(CliError::Usage(msg)) = parse("serve --model m --replicas 0") else {
            panic!()
        };
        assert!(msg.contains("--replicas"), "{msg}");
        let Err(CliError::Usage(msg)) = parse("serve --model m --precision f32") else {
            panic!()
        };
        assert!(msg.contains("unknown argument `--precision`"), "{msg}");
    }

    #[test]
    fn bench_serve_defaults_and_full_invocation() {
        let Command::BenchServe(b) = parse("bench-serve --addr 127.0.0.1:9000").unwrap() else {
            panic!()
        };
        assert_eq!(b.addr, "127.0.0.1:9000");
        assert_eq!(b.connections, vec![4]);
        assert_eq!(b.replicas, 1);
        assert_eq!((b.requests, b.graphs), (64, 8));
        assert_eq!((b.seed, b.rate, b.shutdown), (0, 200.0, false));
        assert!(!b.drift);
        assert_eq!(b.out, PathBuf::from("BENCH_serve.json"));

        let Command::BenchServe(b) = parse(
            "bench-serve --addr h:1 --connections 2 --replicas 2 --requests 10 --graphs 3 \
             --seed 9 --rate 50 --shutdown --out r.json --serve-metrics m.jsonl",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(b.connections, vec![2]);
        assert_eq!(b.replicas, 2);
        assert_eq!((b.requests, b.graphs), (10, 3));
        assert_eq!((b.seed, b.rate, b.shutdown), (9, 50.0, true));
        assert_eq!(b.out, PathBuf::from("r.json"));
        assert_eq!(b.serve_metrics, Some(PathBuf::from("m.jsonl")));

        let Err(CliError::Usage(msg)) = parse("bench-serve --addr h:1 --rate -3") else {
            panic!()
        };
        assert!(msg.contains("positive"), "{msg}");
        let Err(CliError::Usage(msg)) = parse("bench-serve") else {
            panic!()
        };
        assert!(msg.contains("--addr is required"), "{msg}");
    }

    #[test]
    fn bench_serve_drift_flag() {
        let Command::BenchServe(b) = parse("bench-serve --addr h:1 --drift --shutdown").unwrap()
        else {
            panic!()
        };
        assert!(b.drift && b.shutdown);
        assert!(!b.chaos);
    }

    #[test]
    fn bench_serve_chaos_flag() {
        let Command::BenchServe(b) = parse("bench-serve --addr h:1 --chaos").unwrap() else {
            panic!()
        };
        assert!(b.chaos && !b.drift);
        let Err(CliError::Usage(msg)) = parse("bench-serve --addr h:1 --chaos --drift") else {
            panic!("chaos+drift must be a usage error")
        };
        assert!(msg.contains("mutually exclusive"), "{msg}");
    }

    #[test]
    fn serve_fault_injection_flags() {
        let Command::Serve(s) = parse(
            "serve --model m --shed-watermark 32 --inject-replica-panics 0.05 \
             --inject-replica-kills 0.02 --inject-replica-stalls 0.1 \
             --inject-conn-drops 0.04 --inject-torn-writes 0.03",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.shed_watermark, 32);
        assert_eq!(s.inject_replica_panics, 0.05);
        assert_eq!(s.inject_replica_kills, 0.02);
        assert_eq!(s.inject_replica_stalls, 0.1);
        assert_eq!(s.inject_conn_drops, 0.04);
        assert_eq!(s.inject_torn_writes, 0.03);

        let Err(CliError::Usage(msg)) = parse("serve --model m --inject-conn-drops 1.5") else {
            panic!("out-of-range rate must be a usage error")
        };
        assert!(
            msg.contains("probability") && msg.contains("spg serve"),
            "{msg}"
        );
    }

    #[test]
    fn realloc_defaults_drift_kinds_and_errors() {
        let Command::Realloc(r) = parse("realloc --addr h:1").unwrap() else {
            panic!()
        };
        assert_eq!(r.addr, "h:1");
        assert_eq!((r.seed, r.drift, r.shutdown), (0, None, false));

        let Command::Realloc(r) =
            parse("realloc --addr h:1 --seed 3 --drift device-loss --shutdown").unwrap()
        else {
            panic!()
        };
        assert_eq!(r.seed, 3);
        assert_eq!(r.drift, Some(DriftKind::DeviceLoss));
        assert!(r.shutdown);

        let Err(CliError::Usage(msg)) = parse("realloc") else {
            panic!()
        };
        assert!(msg.contains("--addr is required"), "{msg}");
        let Err(CliError::Usage(msg)) = parse("realloc --addr h:1 --drift sideways") else {
            panic!()
        };
        assert!(
            msg.contains("`sideways`") && msg.contains("hot-swap"),
            "{msg}"
        );
    }

    #[test]
    fn bench_serve_connection_sweeps() {
        let Command::BenchServe(b) = parse("bench-serve --addr h:1 --connections 1,4,16").unwrap()
        else {
            panic!()
        };
        assert_eq!(b.connections, vec![1, 4, 16]);

        for bad in [
            "bench-serve --addr h:1 --connections 0",
            "bench-serve --addr h:1 --connections 2,0",
            "bench-serve --addr h:1 --connections ,",
            "bench-serve --addr h:1 --replicas 0",
        ] {
            assert!(
                matches!(parse(bad), Err(CliError::Usage(_))),
                "`{bad}` should be a usage error"
            );
        }
    }

    #[test]
    fn bench_matmul_shapes_and_errors() {
        let Command::BenchMatmul(b) = parse("bench-matmul").unwrap() else {
            panic!()
        };
        assert_eq!((b.n, b.k, b.m), (128, 128, 128));
        assert_eq!(b.iters, 50);

        let Command::BenchMatmul(b) = parse("bench-matmul --shape 64").unwrap() else {
            panic!()
        };
        assert_eq!((b.n, b.k, b.m), (64, 64, 64));
        let Command::BenchMatmul(b) = parse("bench-matmul --shape 320x28").unwrap() else {
            panic!()
        };
        assert_eq!((b.n, b.k, b.m), (320, 28, 320));
        let Command::BenchMatmul(b) = parse("bench-matmul --shape 320x28x24 --iters 7").unwrap()
        else {
            panic!()
        };
        assert_eq!((b.n, b.k, b.m), (320, 28, 24));
        assert_eq!(b.iters, 7);

        for bad in [
            "bench-matmul --shape 0x3x3",
            "bench-matmul --shape 1x2x3x4",
            "bench-matmul --shape axb",
            "bench-matmul --iters 0",
            "bench-matmul --fast",
            "bench-matmul --precision f32",
        ] {
            assert!(
                matches!(parse(bad), Err(CliError::Usage(_))),
                "`{bad}` should be a usage error"
            );
        }
    }

    #[test]
    fn no_args_and_unknown_command_are_usage_errors() {
        assert!(matches!(Command::parse(&[]), Err(CliError::Usage(_))));
        let Err(CliError::Usage(msg)) = parse("frobnicate") else {
            panic!()
        };
        assert!(msg.contains("`frobnicate`"), "{msg}");
    }
}
