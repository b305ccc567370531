//! `repro` — regenerate any table/figure of the paper's evaluation.
//!
//! Usage: `repro [options] <experiment>...`; see [`USAGE`] (or
//! `repro --help`) for the experiment list and options. Experiments run
//! in parallel on `--threads` workers with output printed in request
//! order, so `repro all --threads 8` is byte-identical on stdout (and in
//! `--csvdir` artifacts) to `repro all --threads 1`.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool owns the process streams"
)]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "wall time is reported on stderr, never in the byte-identical stdout"
)]

use mpdf_eval::experiments as exp;
use mpdf_eval::workload::CampaignConfig;

// With `--features alloc-profile` the binary counts every heap
// allocation and attributes it to the active stage; the default build
// runs on the system allocator untouched.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static COUNTING_ALLOC: mpdf_obs::allocs::CountingAllocator = mpdf_obs::allocs::CountingAllocator;

/// Known experiment names, in `all` execution order.
const ALL_EXPERIMENTS: [&str; 18] = [
    "fig2a",
    "fig2b",
    "fig3",
    "fig4",
    "fig5b",
    "fig5c",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ext-hmm",
    "ext-array",
    "ext-ablate",
    "ext-sweep",
    "ext-chaos",
    "ext-drift",
];

/// Help text; printed on `--help` and after usage errors.
const USAGE: &str = "\
usage: repro [options] <experiment>...

experiments:
  fig2a fig2b fig3 fig4 fig5b fig5c fig7 fig8 fig9 fig10 fig11 fig12
  ext-hmm ext-array ext-ablate ext-sweep ext-chaos ext-drift all
  (default: fig7)

  stream             replay the recorded campaign through the CSI wire codec
                     at max speed; scoring workers pull, decode and score
                     their own epochs, verifying stream-path scores
                     bit-identical to the offline pass (runs alone, not
                     part of `all`)
  fleet              run many links under the sharded fleet supervisor:
                     fault containment, overload shedding, room fusion;
                     with --chaos, crash-recoverable shard logs under
                     seeded IO faults and shard kills, asserting recovery
                     equivalence (runs alone, not part of `all`)

options:
  --snr <db>         per-subcarrier SNR in dB
  --bg <rate>        background-dynamics rate in [0, 1]
  --bgdist <m>       minimum background-walker distance from the link
  --sway <m>         sway amplitude of the monitored person
  --seed <u64>       base RNG seed (non-negative integer)
  --episodes <n>     windows per human grid position
  --drift <rel>      session clutter-drift relative amplitude
  --gaindrift <db>   peak session gain drift in dB
  --intf <p>         narrowband interference probability in [0, 1]
  --intfpow <db>     interference power relative to the signal
  --faults <preset>  inject receiver faults into every capture; presets:
                     none loss dropout agc glitch chaos
  --locations <n>    sample locations for fig2a/fig3
  --packets <n>      packets for fig2b
  --threads <n>      worker threads (0 = all cores); output is identical
                     for every value
  --csvdir <dir>     export each experiment's key series as CSV
  --case <name>      select an experiment (alias for the positional form)
  --trace <path>     write an NDJSON span trace of the run to <path>
  --metrics <path>   write a metrics snapshot (counters, gauges, per-stage
                     latency histograms) as JSON to <path>
  --trajectory <p>   write windowed metric trajectories (registry deltas
                     sampled every K windows) as NDJSON to <p>
  --traj-every <k>   windows per trajectory sample (default 64, min 1)
  --session          run a supervised long-running session demo instead of
                     experiments: drift sentinels, staged recalibration and
                     per-window checkpointing (one line per window)
  --chunk <bytes>    stream mode: wire bytes per ingest chunk (default 1460,
                     deliberately smaller than one 3x30 frame so every frame
                     crosses a chunk boundary)
  --checkpoint <p>   session checkpoint file; an existing checkpoint is
                     resumed from its window cursor, bit-identically
  --kill-after <n>   exit after processing n windows of this session run,
                     leaving the checkpoint behind for a later resume
  --links <n>        fleet mode: number of links (default 24)
  --ticks <n>        fleet mode: number of ticks (default 12)
  --fleet-shards <n> fleet mode: number of shards (default 4)
  --fleet-dir <p>    fleet mode: shard-log directory for --chaos (default:
                     a temp directory, removed afterwards)
  --chaos            fleet mode: inject seeded shard kills and log IO
                     faults, asserting bit-identical recovery
  --help             print this message

observability flags only add artifacts: stdout and --csvdir output stay
byte-identical with or without them, at any thread count.";

struct Options {
    cfg: CampaignConfig,
    locations: usize,
    packets: usize,
    csv_dir: Option<std::path::PathBuf>,
    trace: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
    trajectory: Option<std::path::PathBuf>,
    traj_every: u64,
    experiments: Vec<String>,
    session: Option<mpdf_eval::session::SessionDemoOptions>,
    stream: mpdf_eval::stream::StreamOptions,
    fleet: mpdf_eval::fleet::FleetDemoOptions,
    help: bool,
}

/// Parses a flag value with a strict grammar, rejecting what `v as u64`
/// style casts used to silently accept (negatives, fractions, overflow).
fn parse_num<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for --{flag}: expected {what}"))
}

fn parse_float(flag: &str, value: &str) -> Result<f64, String> {
    let v: f64 = parse_num(flag, value, "a finite number")?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("bad value `{value}` for --{flag}: must be finite"))
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut cfg = CampaignConfig::default();
    let mut locations = 300usize;
    let mut packets = 1000usize;
    let mut experiments = Vec::new();
    let mut csv_dir = None;
    let mut trace = None;
    let mut metrics = None;
    let mut trajectory = None;
    let mut traj_every = 64u64;
    let mut session = false;
    let mut session_opts = mpdf_eval::session::SessionDemoOptions::default();
    let mut stream_opts = mpdf_eval::stream::StreamOptions::default();
    let mut fleet_opts = mpdf_eval::fleet::FleetDemoOptions::default();
    let mut fleet_flags = false;
    let mut help = false;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        let Some(flag) = a.strip_prefix("--") else {
            experiments.push(a.clone());
            continue;
        };
        if flag == "help" {
            help = true;
            continue;
        }
        // `--session` and `--chaos` are the boolean flags besides
        // `--help`.
        if flag == "session" {
            session = true;
            continue;
        }
        if flag == "chaos" {
            fleet_opts.chaos = true;
            fleet_flags = true;
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("missing value for --{flag}"))?;
        match flag {
            "snr" => cfg.snr_db = parse_float(flag, value)?,
            "bg" => cfg.background_rate = parse_float(flag, value)?,
            "bgdist" => cfg.background_distance = parse_float(flag, value)?,
            "sway" => cfg.sway_amplitude = parse_float(flag, value)?,
            "seed" => cfg.seed = parse_num(flag, value, "a non-negative integer")?,
            "episodes" => {
                cfg.episodes_per_position = parse_num(flag, value, "a non-negative integer")?;
            }
            "drift" => cfg.clutter_drift_rel = parse_float(flag, value)?,
            "gaindrift" => cfg.session_gain_drift_db = parse_float(flag, value)?,
            "intf" => cfg.interference_prob = parse_float(flag, value)?,
            "intfpow" => cfg.interference_power_db = parse_float(flag, value)?,
            "faults" => {
                cfg.faults = mpdf_wifi::FaultModel::preset(value).ok_or_else(|| {
                    format!(
                        "bad value `{value}` for --faults: known presets {:?}",
                        mpdf_wifi::fault::PRESET_NAMES
                    )
                })?;
            }
            "locations" => locations = parse_num(flag, value, "a non-negative integer")?,
            "packets" => packets = parse_num(flag, value, "a non-negative integer")?,
            "threads" => cfg.threads = parse_num(flag, value, "a non-negative integer")?,
            "csvdir" => csv_dir = Some(std::path::PathBuf::from(value)),
            "case" => experiments.push(value.clone()),
            "trace" => trace = Some(std::path::PathBuf::from(value)),
            "metrics" => metrics = Some(std::path::PathBuf::from(value)),
            "trajectory" => trajectory = Some(std::path::PathBuf::from(value)),
            "traj-every" => {
                traj_every = parse_num(flag, value, "a positive integer")?;
                if traj_every == 0 {
                    return Err("bad value `0` for --traj-every: must be at least 1".to_string());
                }
            }
            "chunk" => {
                stream_opts.chunk_bytes = parse_num(flag, value, "a positive integer")?;
                if stream_opts.chunk_bytes == 0 {
                    return Err("bad value `0` for --chunk: must be at least 1".to_string());
                }
            }
            "checkpoint" => session_opts.checkpoint = Some(std::path::PathBuf::from(value)),
            "kill-after" => {
                session_opts.kill_after = Some(parse_num(flag, value, "a non-negative integer")?);
            }
            "links" => {
                fleet_opts.links = parse_num(flag, value, "a positive integer")?;
                if fleet_opts.links == 0 {
                    return Err("bad value `0` for --links: must be at least 1".to_string());
                }
                fleet_flags = true;
            }
            "ticks" => {
                fleet_opts.ticks = parse_num(flag, value, "a positive integer")?;
                if fleet_opts.ticks == 0 {
                    return Err("bad value `0` for --ticks: must be at least 1".to_string());
                }
                fleet_flags = true;
            }
            "fleet-shards" => {
                fleet_opts.shards = parse_num(flag, value, "a positive integer")?;
                if fleet_opts.shards == 0 {
                    return Err("bad value `0` for --fleet-shards: must be at least 1".to_string());
                }
                fleet_flags = true;
            }
            "fleet-dir" => {
                fleet_opts.dir = Some(std::path::PathBuf::from(value));
                fleet_flags = true;
            }
            other => return Err(format!("unknown option --{other}")),
        }
    }
    if !session && (session_opts.checkpoint.is_some() || session_opts.kill_after.is_some()) {
        return Err("--checkpoint/--kill-after require --session".to_string());
    }
    if fleet_flags && !experiments.iter().any(|e| e == "fleet") {
        return Err(
            "--links/--ticks/--fleet-shards/--fleet-dir/--chaos require the `fleet` experiment"
                .to_string(),
        );
    }
    if experiments.is_empty() {
        experiments.push("fig7".to_string());
    }
    Ok(Options {
        cfg,
        locations,
        packets,
        csv_dir,
        trace,
        metrics,
        trajectory,
        traj_every,
        experiments,
        session: session.then_some(session_opts),
        stream: stream_opts,
        fleet: fleet_opts,
        help,
    })
}

/// The renderable product of one experiment: the stdout report plus any
/// CSV artifacts, generated on a worker and emitted later in request
/// order so parallel runs print exactly what serial runs print.
struct ExperimentOutput {
    report: String,
    csvs: Vec<(String, String)>,
    seconds: f64,
}

fn run_experiment(name: &str, opts: &Options) -> Result<ExperimentOutput, String> {
    let _stage = mpdf_obs::stage!("repro.experiment");
    mpdf_obs::trace::instant(match name {
        // Static tag so the trace shows which experiment a span tree
        // belongs to without allocating per event.
        "fig2a" => "repro.start.fig2a",
        "fig2b" => "repro.start.fig2b",
        "fig3" => "repro.start.fig3",
        "fig4" => "repro.start.fig4",
        "fig5b" => "repro.start.fig5b",
        "fig5c" => "repro.start.fig5c",
        "fig7" => "repro.start.fig7",
        "fig8" => "repro.start.fig8",
        "fig9" => "repro.start.fig9",
        "fig10" => "repro.start.fig10",
        "fig11" => "repro.start.fig11",
        "fig12" => "repro.start.fig12",
        "ext-hmm" => "repro.start.ext-hmm",
        "ext-array" => "repro.start.ext-array",
        "ext-ablate" => "repro.start.ext-ablate",
        "ext-sweep" => "repro.start.ext-sweep",
        "ext-chaos" => "repro.start.ext-chaos",
        "ext-drift" => "repro.start.ext-drift",
        _ => "repro.start.unknown",
    });
    let started = std::time::Instant::now();
    let mut csvs: Vec<(String, String)> = Vec::new();
    let err = |e: mpdf_core::error::DetectError| format!("{name}: {e}");
    let report = match name {
        "fig2a" => {
            let r = exp::fig2::run_fig2a(&opts.cfg, opts.locations).map_err(err)?;
            csvs.push((
                "fig2a_cdf".into(),
                mpdf_eval::report::csv_series("delta_s_db", "cdf", &r.cdf),
            ));
            exp::fig2::report_fig2a(&r)
        }
        "fig2b" => {
            let r = exp::fig2::run_fig2b(&opts.cfg, opts.packets).map_err(err)?;
            csvs.push((
                "fig2b_drop_slot".into(),
                mpdf_eval::report::csv_series("packet", "ds_db", &r.subcarrier_a),
            ));
            csvs.push((
                "fig2b_rise_slot".into(),
                mpdf_eval::report::csv_series("packet", "ds_db", &r.subcarrier_b),
            ));
            exp::fig2::report_fig2b(&r)
        }
        "fig3" => {
            let r = exp::fig3::run(&opts.cfg, opts.locations).map_err(err)?;
            csvs.push((
                "fig3a_cdf".into(),
                mpdf_eval::report::csv_series("mu", "cdf", &r.distribution.cdf),
            ));
            let mut rows = vec![vec!["slot".into(), "a".into(), "b".into(), "r2".into()]];
            for f in &r.fits {
                rows.push(vec![
                    f.slot.to_string(),
                    f.fit.slope.to_string(),
                    f.fit.intercept.to_string(),
                    f.fit.r_squared.to_string(),
                ]);
            }
            csvs.push(("fig3c_fits".into(), mpdf_eval::report::csv(&rows)));
            exp::fig3::report(&r)
        }
        "fig4" => exp::fig4::report(&exp::fig4::run(&opts.cfg, 2000).map_err(err)?),
        "fig5b" => {
            let r = exp::fig5::run_fig5b(&opts.cfg).map_err(err)?;
            csvs.push((
                "fig5b_spectrum".into(),
                mpdf_eval::report::csv_series("angle_deg", "ps", &r.spectrum),
            ));
            exp::fig5::report_fig5b(&r)
        }
        "fig5c" => {
            let r = exp::fig5::run_fig5c(&opts.cfg).map_err(err)?;
            csvs.push((
                "fig5c_rss_by_angle".into(),
                mpdf_eval::report::csv_series(
                    "angle_deg",
                    "mean_abs_ds_db",
                    &r.rss_change_by_angle,
                ),
            ));
            exp::fig5::report_fig5c(&r)
        }
        "fig7" => {
            let r = exp::fig7::run(&opts.cfg).map_err(err)?;
            for s in &r.schemes {
                let tag = s.name.replace(['+', ' '], "_");
                csvs.push((
                    format!("fig7_roc_{tag}"),
                    mpdf_eval::report::csv_series("fp", "tp", &s.roc_points),
                ));
            }
            exp::fig7::report(&r)
        }
        "fig8" => {
            let r = exp::fig8::run(&opts.cfg).map_err(err)?;
            let mut rows = vec![vec![
                "case".into(),
                "baseline".into(),
                "subcarrier".into(),
                "combined".into(),
            ]];
            for (id, b, s2, c) in &r.rows {
                rows.push(vec![
                    id.to_string(),
                    mpdf_eval::report::value_or_na(*b),
                    mpdf_eval::report::value_or_na(*s2),
                    mpdf_eval::report::value_or_na(*c),
                ]);
            }
            csvs.push(("fig8_cases".into(), mpdf_eval::report::csv(&rows)));
            exp::fig8::report(&r)
        }
        "fig9" => {
            let r = exp::fig9::run(&opts.cfg).map_err(err)?;
            // As in the report, the abstention column only when one occurred.
            let abstained = r.rows.iter().any(|row| row.4 > 0);
            let mut header: Vec<String> = vec![
                "distance_m".into(),
                "baseline".into(),
                "subcarrier".into(),
                "combined".into(),
            ];
            header.extend(abstained.then(|| "abstained".into()));
            let mut rows = vec![header];
            for (d, b, s2, c, n) in &r.rows {
                let mut row = vec![
                    d.to_string(),
                    mpdf_eval::report::value_or_na(*b),
                    mpdf_eval::report::value_or_na(*s2),
                    mpdf_eval::report::value_or_na(*c),
                ];
                row.extend(abstained.then(|| n.to_string()));
                rows.push(row);
            }
            csvs.push(("fig9_distance".into(), mpdf_eval::report::csv(&rows)));
            exp::fig9::report(&r)
        }
        "fig10" => {
            let r = exp::fig10::run(&opts.cfg).map_err(err)?;
            csvs.push((
                "fig10_single_packet".into(),
                mpdf_eval::report::csv_series("error_deg", "cdf", &r.single_packet_cdf),
            ));
            csvs.push((
                "fig10_averaged".into(),
                mpdf_eval::report::csv_series("error_deg", "cdf", &r.averaged_cdf),
            ));
            exp::fig10::report(&r)
        }
        "fig11" => {
            let r = exp::fig11::run(&opts.cfg).map_err(err)?;
            let abstained = r.rows.iter().any(|row| row.3 > 0);
            let mut header: Vec<String> =
                vec!["angle_deg".into(), "subcarrier".into(), "combined".into()];
            header.extend(abstained.then(|| "abstained".into()));
            let mut rows = vec![header];
            for (a, s2, c, n) in &r.rows {
                let mut row = vec![
                    a.to_string(),
                    mpdf_eval::report::value_or_na(*s2),
                    mpdf_eval::report::value_or_na(*c),
                ];
                row.extend(abstained.then(|| n.to_string()));
                rows.push(row);
            }
            csvs.push(("fig11_angles".into(), mpdf_eval::report::csv(&rows)));
            exp::fig11::report(&r)
        }
        "fig12" => {
            let r = exp::fig12::run(&opts.cfg).map_err(err)?;
            let mut rows = vec![vec![
                "packets".into(),
                "seconds".into(),
                "baseline".into(),
                "subcarrier".into(),
                "combined".into(),
            ]];
            for (w, t, b, s2, c) in &r.rows {
                rows.push(vec![
                    w.to_string(),
                    t.to_string(),
                    b.to_string(),
                    s2.to_string(),
                    c.to_string(),
                ]);
            }
            csvs.push(("fig12_windows".into(), mpdf_eval::report::csv(&rows)));
            exp::fig12::report(&r)
        }
        "ext-hmm" => exp::ext_hmm::report(&exp::ext_hmm::run(&opts.cfg).map_err(err)?),
        "ext-array" => exp::ext_array::report(&exp::ext_array::run(&opts.cfg).map_err(err)?),
        "ext-sweep" => exp::ext_sweep::report(&exp::ext_sweep::run(&opts.cfg).map_err(err)?),
        "ext-ablate" => exp::ext_ablate::report(&exp::ext_ablate::run(&opts.cfg).map_err(err)?),
        "ext-chaos" => {
            let r = exp::ext_chaos::run(&opts.cfg).map_err(err)?;
            let mut rows = vec![vec![
                "intensity".into(),
                "detection_rate".into(),
                "fp_rate".into(),
                "degraded_windows".into(),
                "aborted_windows".into(),
                "scored_windows".into(),
            ]];
            for row in &r.rows {
                rows.push(vec![
                    row.intensity.to_string(),
                    row.detection_rate.to_string(),
                    row.fp_rate.to_string(),
                    row.degraded_windows.to_string(),
                    row.aborted_windows.to_string(),
                    row.scored_windows.to_string(),
                ]);
            }
            csvs.push((
                "ext_chaos_degradation".into(),
                mpdf_eval::report::csv(&rows),
            ));
            exp::ext_chaos::report(&r)
        }
        "ext-drift" => {
            let r = exp::ext_drift::run(&opts.cfg).map_err(err)?;
            let mut rows = vec![vec![
                "block".into(),
                "drift_rel".into(),
                "frozen_detect".into(),
                "frozen_fp".into(),
                "adaptive_detect".into(),
                "adaptive_fp".into(),
                "recals_accepted".into(),
                "recals_rejected".into(),
            ]];
            for row in &r.rows {
                rows.push(vec![
                    row.block.to_string(),
                    row.drift_rel.to_string(),
                    row.frozen_detect.to_string(),
                    row.frozen_fp.to_string(),
                    row.adaptive_detect.to_string(),
                    row.adaptive_fp.to_string(),
                    row.recals_accepted.to_string(),
                    row.recals_rejected.to_string(),
                ]);
            }
            csvs.push(("ext_drift_adaptation".into(), mpdf_eval::report::csv(&rows)));
            exp::ext_drift::report(&r)
        }
        other => return Err(format!("unknown experiment `{other}`")),
    };
    Ok(ExperimentOutput {
        report,
        csvs,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// Writes one CSV artifact under `dir`.
fn write_csv(dir: &std::path::Path, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if opts.help {
        println!("{USAGE}");
        return;
    }
    // Stream mode replaces the experiment fan-out: record the campaign,
    // replay it through the wire codec on pull-based workers, and verify
    // bit-identity with the offline scoring pass. Kept out of `all` so
    // `repro all` output is unchanged; throughput goes to stderr so the
    // stdout report stays deterministic.
    if opts.experiments.iter().any(|e| e == "stream") {
        if opts.experiments.len() != 1 {
            eprintln!("error: `stream` runs alone, not alongside other experiments");
            std::process::exit(2);
        }
        let started = std::time::Instant::now();
        let run = match mpdf_eval::stream::run_stream(&opts.cfg, &opts.stream) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("error: stream: {e}");
                flush_observability(&opts);
                std::process::exit(1);
            }
        };
        println!("{}", mpdf_eval::stream::report(&run));
        eprintln!(
            "[stream done in {:.1}s: {} packets over the wire at {:.0} packets/s]\n",
            started.elapsed().as_secs_f64(),
            run.packets_total,
            run.packets_per_second(),
        );
        let mut failed = !run.all_match();
        if failed {
            eprintln!("error: stream-path scores diverge from the offline path");
        }
        if flush_observability(&opts) > 0 {
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    // Fleet mode likewise replaces the experiment fan-out: many links
    // under the sharded supervisor, optionally with the chaos harness.
    // Kept out of `all` so `repro all` output is unchanged.
    if opts.experiments.iter().any(|e| e == "fleet") {
        if opts.experiments.len() != 1 {
            eprintln!("error: `fleet` runs alone, not alongside other experiments");
            std::process::exit(2);
        }
        if opts.metrics.is_some() {
            mpdf_obs::metrics::enable_timing();
        }
        let started = std::time::Instant::now();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let result = mpdf_eval::fleet::run_fleet_demo(&opts.cfg, &opts.fleet, &mut out);
        drop(out);
        let mut failed = result.is_err();
        if let Err(e) = &result {
            eprintln!("error: fleet: {e}");
        }
        eprintln!("[fleet done in {:.1}s]\n", started.elapsed().as_secs_f64());
        if flush_observability(&opts) > 0 {
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    let selected: Vec<&str> = if opts.experiments.iter().any(|e| e == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        opts.experiments.iter().map(String::as_str).collect()
    };
    if let Some(unknown) = selected.iter().find(|n| !ALL_EXPERIMENTS.contains(n)) {
        eprintln!("error: unknown experiment `{unknown}`; known: {ALL_EXPERIMENTS:?} or `all`");
        std::process::exit(2);
    }

    // Observability backends (stderr/artifacts only — stdout is reserved
    // for the reports and stays byte-identical with these flags on).
    if let Some(path) = &opts.trace {
        match mpdf_obs::trace::NdjsonWriter::create(path) {
            Ok(writer) => {
                mpdf_obs::trace::install(std::sync::Arc::new(writer));
                eprintln!("tracing spans to {}", path.display());
            }
            Err(e) => {
                eprintln!("error: create trace file {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if opts.metrics.is_some() {
        mpdf_obs::metrics::enable_timing();
    }
    if let Some(path) = &opts.trajectory {
        mpdf_obs::trajectory::install(opts.traj_every);
        eprintln!(
            "sampling metric trajectories every {} window(s) to {}",
            opts.traj_every,
            path.display()
        );
    }
    #[cfg(feature = "alloc-profile")]
    mpdf_obs::allocs::enable();

    // Session mode replaces the experiment fan-out entirely: one
    // supervised long-running loop, windows printed in order.
    if let Some(demo) = &opts.session {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let result = mpdf_eval::session::run_session_demo(&opts.cfg, demo, &mut out);
        drop(out);
        let mut failed = result.is_err();
        if let Err(e) = &result {
            eprintln!("error: {e}");
        }
        if flush_observability(&opts) > 0 {
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    // Fan the experiments out, then emit everything in request order so
    // stdout and the CSV directory are independent of the thread count.
    // A panicking experiment surfaces as a named pool error instead of
    // unwinding through main with a truncated result set.
    let results = match mpdf_par::catch_map_indexed(opts.cfg.threads, &selected, |_, name| {
        run_experiment(name, &opts)
    }) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut failures = 0usize;
    for (name, result) in selected.iter().zip(results) {
        match result {
            Ok(out) => {
                if let Some(dir) = &opts.csv_dir {
                    for (csv_name, contents) in &out.csvs {
                        if let Err(msg) = write_csv(dir, csv_name, contents) {
                            eprintln!("error: {msg}");
                            failures += 1;
                        }
                    }
                }
                println!("{}", out.report);
                eprintln!("[{name} done in {:.1}s]\n", out.seconds);
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                failures += 1;
            }
        }
    }
    failures += flush_observability(&opts);
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Flushes observability artifacts before any exit path (`process::exit`
/// skips destructors, so the trace writer is flushed explicitly).
/// Returns the number of artifact-write failures.
fn flush_observability(opts: &Options) -> usize {
    mpdf_obs::trace::uninstall();
    let mut failures = 0usize;
    // Allocation totals publish before the snapshot is written so the
    // obs.alloc.* counters land in --metrics output.
    #[cfg(feature = "alloc-profile")]
    mpdf_obs::allocs::publish();
    if let Some(path) = &opts.trajectory {
        if let Some(recorder) = mpdf_obs::trajectory::uninstall() {
            match mpdf_obs::trajectory::write_ndjson(path, &recorder.take_samples()) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("error: write trajectory {}: {e}", path.display());
                    failures += 1;
                }
            }
        }
    }
    if let Some(path) = &opts.metrics {
        match mpdf_obs::metrics::write_json(path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: write metrics {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    failures
}
