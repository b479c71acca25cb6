//! The shared command-line surface of every binary in the workspace.
//!
//! The 17 figure binaries, the sweep coordinator, the fleet monitor,
//! and the serving daemon all accept the same core flags (`--quick`,
//! `--threads`, `--telemetry`, `--telemetry-summary`, `--shard`,
//! `--checkpoint`, `--steal`), so parsing lives here
//! exactly once as [`CommonArgs`]. Binaries with extra flags layer
//! them over the shared core through [`CommonArgs::parse_with`]'s
//! extension hook instead of re-rolling the whole loop.
//!
//! Invalid invocations produce a typed [`CliError`] — the binaries
//! print it to stderr and exit with status 1 instead of silently
//! ignoring unknown flags (the degradation contract in DESIGN.md: bad
//! configuration is an error, not a guess).

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// One shard of an `n`-way sweep partition: `--shard i/n`.
///
/// Shard `i` owns every lattice point whose stable index `p`
/// satisfies `p % n == i`. Round-robin (rather than contiguous
/// blocks) spreads the expensive deep-loss corner of a surface across
/// all shards, so wall-clock balances without any cost model on a
/// homogeneous fleet; heterogeneous fleets use `--steal` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: u32,
    /// Total number of shards, `>= 1`.
    pub count: u32,
}

impl ShardSpec {
    /// The trivial partition: one shard owning every point.
    pub const FULL: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// A validated shard; `None` when `count == 0` or `index >= count`.
    pub fn new(index: u32, count: u32) -> Option<ShardSpec> {
        (count > 0 && index < count).then_some(ShardSpec { index, count })
    }

    /// Parses the CLI form `"i/n"` (e.g. `"0/2"`).
    ///
    /// Only strings that round-trip through [`Display`](fmt::Display)
    /// are accepted: `u32::from_str` tolerates a leading `+` (and we
    /// would otherwise inherit leading zeros and stray whitespace), but
    /// a shard spec that renders differently from what was typed is a
    /// recipe for mismatched checkpoint names across hosts.
    pub fn parse(s: &str) -> Option<ShardSpec> {
        let (i, n) = s.split_once('/')?;
        let shard = ShardSpec::new(i.parse().ok()?, n.parse().ok()?)?;
        (shard.to_string() == s).then_some(shard)
    }

    /// Whether this shard owns lattice point `point_index`.
    pub fn owns(&self, point_index: usize) -> bool {
        point_index % self.count as usize == self.index as usize
    }

    /// Whether this is the trivial single-shard partition.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The shared run configuration every binary understands.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommonArgs {
    /// Use the reduced quick-profile grids (`--quick`).
    pub quick: bool,
    /// Write structured JSONL telemetry to this path
    /// (`--telemetry <path>`).
    pub telemetry: Option<PathBuf>,
    /// Print the aggregated telemetry table to stderr on exit
    /// (`--telemetry-summary`).
    pub telemetry_summary: bool,
    /// Write the aggregated telemetry table to this file instead
    /// (`--telemetry-summary=<path>`); composes with the stderr form.
    pub telemetry_summary_file: Option<PathBuf>,
    /// Size the global worker pool to this many threads (`--threads N`).
    /// `None` defers to `LRD_THREADS` or the detected parallelism;
    /// `Some(1)` forces the bit-for-bit-identical serial path.
    pub threads: Option<usize>,
    /// Solve only this slice of the sweep lattice (`--shard i/n`).
    /// `None` means the full lattice.
    pub shard: Option<ShardSpec>,
    /// Stream completed sweep points to this JSONL file and resume
    /// from it when it already exists (`--checkpoint <path>`).
    pub checkpoint: Option<PathBuf>,
    /// Run as a work-stealing worker against the `sweep_coord`
    /// coordinator at this endpoint (`--steal host:port` or
    /// `--steal unix:<path>`). Requires `--checkpoint`; mutually
    /// exclusive with `--shard` (the coordinator, not a
    /// static split, decides which points this process solves).
    pub steal: Option<String>,
    /// Identity stamped on JSONL telemetry records instead of the pid
    /// default. Never parsed from a flag — callers that know their
    /// stable identity (steal-mode workers adopt it from their
    /// checkpoint) set it before installing telemetry, so offline
    /// tooling can join the records with other ledgers by name.
    pub identity: Option<String>,
}

impl CommonArgs {
    /// Parses an argument list (without the program name) containing
    /// only the shared flags.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CommonArgs, CliError> {
        CommonArgs::parse_with(args, |_, _| Ok(false))
    }

    /// Parses an argument list, routing every argument the shared core
    /// does not recognize (including `--help`) through `ext` first.
    /// `ext` returns `Ok(true)` when it consumed the argument (pulling
    /// any value it needs from the iterator), `Ok(false)` to fall
    /// through to the typed [`CliError::UnknownArgument`] rejection.
    pub fn parse_with<I, F>(args: I, mut ext: F) -> Result<CommonArgs, CliError>
    where
        I: IntoIterator<Item = String>,
        F: FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, CliError>,
    {
        let mut config = CommonArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => config.quick = true,
                "--telemetry" => {
                    let path = args.next().ok_or(CliError::MissingValue("--telemetry"))?;
                    config.telemetry = Some(PathBuf::from(path));
                }
                "--telemetry-summary" => config.telemetry_summary = true,
                "--threads" => {
                    let n = args.next().ok_or(CliError::MissingValue("--threads"))?;
                    config.threads = Some(parse_threads(&n)?);
                }
                "--shard" => {
                    let s = args.next().ok_or(CliError::MissingValue("--shard"))?;
                    config.shard = Some(parse_shard(&s)?);
                }
                "--checkpoint" => {
                    let path = args.next().ok_or(CliError::MissingValue("--checkpoint"))?;
                    config.checkpoint = Some(PathBuf::from(path));
                }
                "--steal" => {
                    let endpoint = args.next().ok_or(CliError::MissingValue("--steal"))?;
                    config.steal = Some(parse_endpoint(&endpoint)?);
                }
                other if other.starts_with("--threads=") => {
                    let n = &other["--threads=".len()..];
                    if n.is_empty() {
                        return Err(CliError::MissingValue("--threads"));
                    }
                    config.threads = Some(parse_threads(n)?);
                }
                other if other.starts_with("--telemetry=") => {
                    let path = &other["--telemetry=".len()..];
                    if path.is_empty() {
                        return Err(CliError::MissingValue("--telemetry"));
                    }
                    config.telemetry = Some(PathBuf::from(path));
                }
                other if other.starts_with("--telemetry-summary=") => {
                    let path = &other["--telemetry-summary=".len()..];
                    if path.is_empty() {
                        return Err(CliError::MissingValue("--telemetry-summary"));
                    }
                    config.telemetry_summary_file = Some(PathBuf::from(path));
                }
                other if other.starts_with("--shard=") => {
                    let s = &other["--shard=".len()..];
                    if s.is_empty() {
                        return Err(CliError::MissingValue("--shard"));
                    }
                    config.shard = Some(parse_shard(s)?);
                }
                other if other.starts_with("--checkpoint=") => {
                    let path = &other["--checkpoint=".len()..];
                    if path.is_empty() {
                        return Err(CliError::MissingValue("--checkpoint"));
                    }
                    config.checkpoint = Some(PathBuf::from(path));
                }
                other if other.starts_with("--steal=") => {
                    let endpoint = &other["--steal=".len()..];
                    if endpoint.is_empty() {
                        return Err(CliError::MissingValue("--steal"));
                    }
                    config.steal = Some(parse_endpoint(endpoint)?);
                }
                other => {
                    if !ext(other, &mut args)? {
                        return Err(CliError::UnknownArgument(other.to_string()));
                    }
                }
            }
        }
        Ok(config)
    }

    /// Applies a `--threads` request to the global worker pool —
    /// called once right after parsing, before any solver work can
    /// touch the pool. A no-op without the flag.
    pub fn apply_threads(&self) {
        if let Some(n) = self.threads {
            if !lrd_pool::set_global_threads(n) {
                eprintln!("warning: worker pool already started; --threads {n} ignored");
            }
        }
    }

    /// The telemetry sinks this configuration asks for: a JSONL writer
    /// when `--telemetry` was given (stamped with
    /// [`identity`](CommonArgs::identity) when one is set), a summary
    /// table (to a file and/or stderr) when `--telemetry-summary` was.
    /// Empty (telemetry stays disabled) with neither flag. Harnesses
    /// that want to observe the run themselves can append their own
    /// sink before installing.
    ///
    /// # Errors
    ///
    /// [`CliError::Io`] naming the sink file that could not be created
    /// — the `--telemetry` JSONL path or the `--telemetry-summary`
    /// file, whichever actually failed.
    pub fn build_subscribers(&self) -> Result<Vec<Arc<dyn lrd_obs::Subscriber>>, CliError> {
        let io_error = |path: &PathBuf, e: std::io::Error| CliError::Io {
            path: path.clone(),
            message: e.to_string(),
        };
        let mut sinks: Vec<Arc<dyn lrd_obs::Subscriber>> = Vec::new();
        if let Some(path) = &self.telemetry {
            let mut sink =
                lrd_obs::JsonlSubscriber::create(path).map_err(|e| io_error(path, e))?;
            if let Some(identity) = &self.identity {
                sink = sink.with_identity(identity);
            }
            sinks.push(Arc::new(sink));
        }
        if let Some(path) = &self.telemetry_summary_file {
            let file = std::fs::File::create(path).map_err(|e| io_error(path, e))?;
            sinks.push(Arc::new(lrd_obs::SummarySubscriber::to_writer(Box::new(
                file,
            ))));
        }
        if self.telemetry_summary {
            sinks.push(Arc::new(lrd_obs::SummarySubscriber::stderr()));
        }
        Ok(sinks)
    }

    /// Installs the configured telemetry sinks for the lifetime of the
    /// returned guard — the one-liner every binary calls right after
    /// parsing. A no-op guard when no telemetry was requested.
    ///
    /// # Errors
    ///
    /// An unwritable sink path surfaces as [`CliError::Io`] naming the
    /// path that failed; deciding what to do with it (the binaries
    /// print and exit 1) stays with the caller — library code never
    /// terminates the process.
    pub fn install_telemetry(&self) -> Result<lrd_obs::InstallGuard, CliError> {
        Ok(lrd_obs::install_fanout(self.build_subscribers()?))
    }
}

/// Pulls the value of `flag` from the argument stream — the helper
/// extension parsers use for their own `--flag <value>` spellings.
pub fn require_value(
    flag: &'static str,
    args: &mut dyn Iterator<Item = String>,
) -> Result<String, CliError> {
    args.next().ok_or(CliError::MissingValue(flag))
}

/// Why the command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument the binary does not understand.
    UnknownArgument(String),
    /// A flag that needs a value was given without one.
    MissingValue(&'static str),
    /// A flag value that does not parse (e.g. `--threads zero`).
    InvalidValue(&'static str, String),
    /// A `--shard` value that is not of the form `i/n` with
    /// `0 <= i < n`.
    InvalidShard(String),
    /// An endpoint value that is neither `host:port` nor `unix:<path>`.
    InvalidEndpoint(String),
    /// A file named on the command line could not be opened.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The rendered OS error.
        message: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownArgument(arg) => {
                write!(f, "unknown argument `{arg}` (see --help)")
            }
            CliError::MissingValue(flag) => {
                write!(f, "{flag} requires a value")
            }
            CliError::InvalidValue(flag, value) => {
                write!(f, "{flag} requires a positive integer, got `{value}`")
            }
            CliError::InvalidShard(value) => {
                write!(
                    f,
                    "--shard requires the form i/n with 0 <= i < n (e.g. 0/4), got `{value}`"
                )
            }
            CliError::InvalidEndpoint(value) => {
                write!(
                    f,
                    "expected an endpoint of the form host:port or unix:<path> \
                     (e.g. 127.0.0.1:7077), got `{value}`"
                )
            }
            CliError::Io { path, message } => {
                write!(f, "cannot open sink file {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for CliError {}

fn parse_threads(value: &str) -> Result<usize, CliError> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(CliError::InvalidValue("--threads", value.to_string())),
    }
}

fn parse_shard(value: &str) -> Result<ShardSpec, CliError> {
    ShardSpec::parse(value).ok_or_else(|| CliError::InvalidShard(value.to_string()))
}

/// Validates an endpoint string (`host:port` or `unix:<path>`),
/// returning it unchanged — shared by `--steal`, `--listen`, `--coord`
/// and friends.
pub fn parse_endpoint(value: &str) -> Result<String, CliError> {
    lrd_net::Endpoint::parse(value)
        .map(|_| value.to_string())
        .ok_or_else(|| CliError::InvalidEndpoint(value.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: Vec<String>) -> Result<CommonArgs, CliError> {
        CommonArgs::parse(args)
    }

    #[test]
    fn shard_spec_parse_and_display() {
        let s = ShardSpec::parse("1/3").unwrap();
        assert_eq!((s.index, s.count), (1, 3));
        assert_eq!(s.to_string(), "1/3");
        assert_eq!(ShardSpec::parse("0/1"), Some(ShardSpec::FULL));
        assert_eq!(ShardSpec::parse("10/12").unwrap().to_string(), "10/12");
        for bad in [
            "", "1", "3/3", "4/3", "1/0", "-1/3", "a/b", "1/3/5",
            // Signed and otherwise non-round-tripping forms that
            // u32::from_str alone would tolerate.
            "+1/3", "1/+3", "+0/1", "01/3", "1/03", "00/1", " 1/3", "1/3 ", "1 /3", "1/ 3",
        ] {
            assert_eq!(ShardSpec::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn round_robin_ownership() {
        let shards: Vec<ShardSpec> = (0..3).map(|i| ShardSpec::new(i, 3).unwrap()).collect();
        for p in 0..20usize {
            let owners: Vec<u32> = shards
                .iter()
                .filter(|s| s.owns(p))
                .map(|s| s.index)
                .collect();
            assert_eq!(owners, vec![(p % 3) as u32]);
        }
        assert!(ShardSpec::FULL.owns(0) && ShardSpec::FULL.owns(17));
        assert!(ShardSpec::FULL.is_full());
        assert!(!shards[1].is_full());
    }

    #[test]
    fn empty_is_full_profile() {
        assert_eq!(parse(strings(&[])), Ok(CommonArgs::default()));
    }

    #[test]
    fn quick_flag() {
        let config = parse(strings(&["--quick"])).unwrap();
        assert!(config.quick);
        assert!(config.telemetry.is_none());
        assert!(!config.telemetry_summary);
    }

    #[test]
    fn telemetry_flags() {
        let config =
            parse(strings(&["--telemetry", "out.jsonl", "--telemetry-summary"])).unwrap();
        assert_eq!(config.telemetry, Some(PathBuf::from("out.jsonl")));
        assert!(config.telemetry_summary);
        assert!(config.telemetry_summary_file.is_none());
        let config = parse(strings(&["--telemetry=t.jsonl"])).unwrap();
        assert_eq!(config.telemetry, Some(PathBuf::from("t.jsonl")));
        // The `=` form of --telemetry-summary writes the table to a
        // file and does not imply the stderr table.
        let config = parse(strings(&["--telemetry-summary=s.txt"])).unwrap();
        assert_eq!(config.telemetry_summary_file, Some(PathBuf::from("s.txt")));
        assert!(!config.telemetry_summary);
        assert_eq!(
            parse(strings(&["--telemetry-summary="])),
            Err(CliError::MissingValue("--telemetry-summary"))
        );
    }

    #[test]
    fn telemetry_without_path_is_a_typed_error() {
        assert_eq!(
            parse(strings(&["--telemetry"])),
            Err(CliError::MissingValue("--telemetry"))
        );
        assert_eq!(
            parse(strings(&["--telemetry="])),
            Err(CliError::MissingValue("--telemetry"))
        );
    }

    #[test]
    fn threads_flag_both_spellings() {
        let config = parse(strings(&["--threads", "4"])).unwrap();
        assert_eq!(config.threads, Some(4));
        let config = parse(strings(&["--threads=2", "--quick"])).unwrap();
        assert_eq!(config.threads, Some(2));
        assert!(config.quick);
    }

    #[test]
    fn threads_value_is_validated() {
        assert_eq!(
            parse(strings(&["--threads"])),
            Err(CliError::MissingValue("--threads"))
        );
        assert_eq!(
            parse(strings(&["--threads="])),
            Err(CliError::MissingValue("--threads"))
        );
        for bad in ["0", "-1", "two", "1.5"] {
            assert_eq!(
                parse(strings(&["--threads", bad])),
                Err(CliError::InvalidValue("--threads", bad.to_string())),
                "--threads {bad} should be rejected"
            );
        }
        let e = parse(strings(&["--threads", "0"])).unwrap_err();
        assert!(e.to_string().contains("--threads"));
        assert!(e.to_string().contains('0'));
    }

    #[test]
    fn unknown_arguments_are_typed_errors() {
        for bad in ["--fast", "quick", "-q", "--buffer=2", "extra"] {
            match parse(strings(&[bad])) {
                Err(CliError::UnknownArgument(a)) => assert_eq!(a, bad),
                other => panic!("expected UnknownArgument for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_message_names_the_argument() {
        let e = parse(strings(&["--bogus"])).unwrap_err();
        assert!(e.to_string().contains("--bogus"));
        assert!(parse(strings(&["--telemetry"]))
            .unwrap_err()
            .to_string()
            .contains("--telemetry"));
    }

    #[test]
    fn shard_flag_both_spellings() {
        let config = parse(strings(&["--shard", "1/4"])).unwrap();
        assert_eq!(config.shard, ShardSpec::new(1, 4));
        let config = parse(strings(&["--shard=0/2", "--checkpoint=ck.jsonl"])).unwrap();
        assert_eq!(config.shard, ShardSpec::new(0, 2));
        assert_eq!(config.checkpoint, Some(PathBuf::from("ck.jsonl")));
        let config = parse(strings(&["--checkpoint", "shard.jsonl"])).unwrap();
        assert_eq!(config.checkpoint, Some(PathBuf::from("shard.jsonl")));
        assert_eq!(config.shard, None);
    }

    #[test]
    fn shard_value_is_validated() {
        assert_eq!(
            parse(strings(&["--shard"])),
            Err(CliError::MissingValue("--shard"))
        );
        assert_eq!(
            parse(strings(&["--shard="])),
            Err(CliError::MissingValue("--shard"))
        );
        assert_eq!(
            parse(strings(&["--checkpoint"])),
            Err(CliError::MissingValue("--checkpoint"))
        );
        for bad in ["2", "2/2", "3/2", "1/0", "a/b", "-1/2"] {
            assert_eq!(
                parse(strings(&["--shard", bad])),
                Err(CliError::InvalidShard(bad.to_string())),
                "--shard {bad} should be rejected"
            );
        }
        let e = parse(strings(&["--shard", "9/3"])).unwrap_err();
        assert!(e.to_string().contains("9/3"));
        assert!(e.to_string().contains("i/n"));
    }

    #[test]
    fn steal_flag_both_spellings_and_validation() {
        let config = parse(strings(&["--steal", "127.0.0.1:7077"])).unwrap();
        assert_eq!(config.steal, Some("127.0.0.1:7077".to_string()));
        let config = parse(strings(&["--steal=unix:/tmp/coord.sock", "--quick"])).unwrap();
        assert_eq!(config.steal, Some("unix:/tmp/coord.sock".to_string()));
        assert_eq!(
            parse(strings(&["--steal"])),
            Err(CliError::MissingValue("--steal"))
        );
        assert_eq!(
            parse(strings(&["--steal="])),
            Err(CliError::MissingValue("--steal"))
        );
        for bad in ["nocolon", "unix:"] {
            assert_eq!(
                parse(strings(&["--steal", bad])),
                Err(CliError::InvalidEndpoint(bad.to_string())),
                "--steal {bad} should be rejected"
            );
        }
        let e = parse(strings(&["--steal", "nocolon"])).unwrap_err();
        assert!(e.to_string().contains("host:port"));
    }

    #[test]
    fn removed_assignment_flag_is_unknown() {
        for args in [&["--assignment", "plan.json"][..], &["--assignment=p.json"]] {
            assert_eq!(
                parse(strings(args)),
                Err(CliError::UnknownArgument(args[0].to_string()))
            );
        }
    }

    #[test]
    fn extension_hook_consumes_binary_specific_flags() {
        let mut listen = None;
        let config = CommonArgs::parse_with(
            strings(&["--quick", "--listen", "127.0.0.1:0", "--threads", "2"]),
            |flag, args| match flag {
                "--listen" => {
                    listen = Some(require_value("--listen", args)?);
                    Ok(true)
                }
                _ => Ok(false),
            },
        )
        .unwrap();
        assert!(config.quick);
        assert_eq!(config.threads, Some(2));
        assert_eq!(listen, Some("127.0.0.1:0".to_string()));

        // An extension that declines still produces the typed error.
        let err = CommonArgs::parse_with(strings(&["--bogus"]), |_, _| Ok(false)).unwrap_err();
        assert_eq!(err, CliError::UnknownArgument("--bogus".to_string()));

        // ...and one that fails propagates its own error.
        let err = CommonArgs::parse_with(strings(&["--listen"]), |flag, args| match flag {
            "--listen" => require_value("--listen", args).map(|_| true),
            _ => Ok(false),
        })
        .unwrap_err();
        assert_eq!(err, CliError::MissingValue("--listen"));
    }

    #[test]
    fn unwritable_telemetry_is_a_typed_error() {
        let config = CommonArgs {
            telemetry: Some(PathBuf::from("/nonexistent-dir-for-cli-test/t.jsonl")),
            ..CommonArgs::default()
        };
        let err = config
            .install_telemetry()
            .map(|_guard| ())
            .expect_err("an unwritable path must fail");
        match err {
            CliError::Io { path, message } => {
                assert_eq!(path, PathBuf::from("/nonexistent-dir-for-cli-test/t.jsonl"));
                assert!(!message.is_empty());
            }
            other => panic!("expected CliError::Io, got {other:?}"),
        }
    }

    #[test]
    fn sink_errors_name_the_failing_path_not_the_telemetry_flag() {
        // Regression: the error used to be attributed to the
        // --telemetry path unconditionally (or to "?" when none was
        // given), even when a different sink failed to open.
        let bad = PathBuf::from("/nonexistent-dir-for-cli-test/summary.txt");

        // No --telemetry at all: the old code reported path "?".
        let config = CommonArgs {
            telemetry_summary_file: Some(bad.clone()),
            ..CommonArgs::default()
        };
        match config.install_telemetry().map(|_g| ()).unwrap_err() {
            CliError::Io { path, .. } => assert_eq!(path, bad),
            other => panic!("expected CliError::Io, got {other:?}"),
        }

        // A perfectly writable --telemetry plus a failing summary
        // file: the old code blamed the telemetry path.
        let dir = std::env::temp_dir().join(format!("lrd-cli-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("t.jsonl");
        let config = CommonArgs {
            telemetry: Some(good.clone()),
            telemetry_summary_file: Some(bad.clone()),
            ..CommonArgs::default()
        };
        match config.install_telemetry().map(|_g| ()).unwrap_err() {
            CliError::Io { path, .. } => {
                assert_eq!(path, bad, "must blame the sink that failed");
                assert_ne!(path, good);
            }
            other => panic!("expected CliError::Io, got {other:?}"),
        }
    }

    #[test]
    fn no_flags_build_no_subscribers() {
        let sinks = CommonArgs::default().build_subscribers().unwrap();
        assert!(sinks.is_empty());
    }

    #[test]
    fn summary_flag_builds_one_subscriber() {
        let config = CommonArgs {
            telemetry_summary: true,
            ..CommonArgs::default()
        };
        assert_eq!(config.build_subscribers().unwrap().len(), 1);
    }
}
