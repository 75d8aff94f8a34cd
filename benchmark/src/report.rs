//! What the measurements become: the one-line result of a contract run,
//! the full suite's tables and result file, and the traced run's derived
//! per-layer metrics and cross-checks.

use crate::driver::{self, median, training_seeds, E2e, Ops};
use crate::json::Json;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::trace::LAYERS;
use crate::workload::{self, Entry, Workload};
use crate::Args;

/// Where the traced run of `workload` leaves its span log.
fn trace_path(workload: &str) -> String {
    format!("benchmark/results/trace-{workload}.jsonl")
}

fn same(a: &Json, b: &Json, keys: &[&str]) -> bool {
    keys.iter()
        .all(|k| a.get(k).is_some() && a.get(k) == b.get(k))
}

/// Per-layer metrics of one workload, plus the per-sample detail
/// (median, p95, n) behind the per-batch ones.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Json,
}

/// Wall time of the epoch between a `T(0)` and a `T(1)` record.
fn epoch_s(pair: &(Json, Json)) -> f64 {
    pair.1.f64("t_s") - pair.0.f64("t_s")
}

/// One `T(0)`/`T(1)` pair of `w`, for the traced run's baselines.
fn pair(w: &Workload, seed: u64, smoke: bool, ops: &mut Ops) -> Option<(Json, Json)> {
    let setup = driver::spawn_child(&driver::once_args(w, seed, 0, smoke), ops)?;
    let epoch = driver::spawn_child(&driver::once_args(w, seed, 1, smoke), ops)?;
    Some((setup, epoch))
}

/// An untraced `run_reference` pair and the record of the replay child
/// that ran right after it.
struct Traced {
    seq: (Json, Json),
    replay: Json,
}

impl Traced {
    fn measure(w: &Workload, seed: u64, smoke: bool, ops: &mut Ops) -> Option<Traced> {
        let seq = pair(&w.sequential(), seed, smoke, ops)?;
        let mut args: Vec<String> = ["trace", "--workload", w.name, "--seed"]
            .map(String::from)
            .into();
        args.extend([
            seed.to_string(),
            "--trace-out".to_string(),
            trace_path(w.name),
        ]);
        if smoke {
            args.push("--smoke".to_string());
        }
        let replay = driver::spawn_child(&args, ops)?;
        Some(Traced { seq, replay })
    }

    /// Self time of `layer` in the traced epoch, in seconds.
    fn self_s(&self, layer: &str) -> f64 {
        self.replay
            .get("layer_self_s")
            .map_or(f64::NAN, |l| l.f64(layer))
    }

    /// Share of the untraced sequential epoch that the traced epoch's
    /// layer self times account for.
    fn coverage(&self) -> f64 {
        let layers = LAYERS.iter().filter(|&&l| l != "harness");
        layers.map(|l| self.self_s(l)).sum::<f64>() / epoch_s(&self.seq)
    }
}

/// Readings `trace.coverage` is the median of where it is checked.
const COVERAGE_READINGS: usize = 3;

/// The traced run of one workload, seen from outside: an untraced
/// sequential epoch, the replay child, and an untraced epoch of the
/// workload's own entry point; then every per-layer metric and the checks
/// that tie the three together. `seed` is the training seed.
pub fn traced(w: &Workload, seed: u64, smoke: bool, ops: &mut Ops) -> Option<Layers> {
    // On `ma-seq` the replay does nothing the reference does not, so its
    // layers must account for the untraced epoch. The two are single
    // samples seconds apart on a host whose speed drifts by more than the
    // window within seconds, so the check is made on the median reading.
    let checked = w.name == "ma-seq" && !smoke;
    let mut readings = Vec::new();
    for _ in 0..if checked { COVERAGE_READINGS } else { 1 } {
        readings.push(Traced::measure(w, seed, smoke, ops)?);
    }
    readings.sort_by(|a, b| a.coverage().total_cmp(&b.coverage()));
    let measured = readings.swap_remove(readings.len() / 2);
    let coverage = measured.coverage();
    if checked {
        ops.check((0.90..=1.10).contains(&coverage), || {
            format!("ma-seq: traced layer self times cover {coverage:.3} of the untraced epoch")
        });
    }
    let Traced { seq, replay } = &measured;
    let own = if w.entry == Entry::Sequential {
        None
    } else {
        Some(pair(w, seed, smoke, ops)?)
    };
    let own = own.as_ref().unwrap_or(seq);

    // A lossless codec leaves the arithmetic alone, so the entry point
    // must reproduce the sequential reference bit for bit; a lossy one
    // must still agree on what was fetched.
    let lossless = w.dist_config().wire_codec.features == splpg::prelude::FeatCodec::F32;
    let shared: &[&str] = if lossless {
        &[
            "loss_bits",
            "test_hits_bits",
            "comm_total_bytes",
            "comm_wire_bytes",
        ]
    } else {
        &["comm_total_bytes", "comm_wire_bytes"]
    };
    ops.check(same(&own.1, &seq.1, shared), || {
        format!(
            "{}: entry point and run_reference disagree on {shared:?}",
            w.name
        )
    });
    ops.check(
        same(
            replay,
            &own.1,
            &["loss_bits", "test_hits_bits", "comm_total_bytes"],
        ),
        || {
            format!(
                "{}: the replayed epoch is not the epoch the trainer ran",
                w.name
            )
        },
    );

    let seq_epoch_s = epoch_s(seq);
    let traced_epoch_s = replay.f64("traced_epoch_s");

    let mut metrics: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let value = match m.name {
            "net.frames_per_epoch" => own.1.f64("net_messages") - own.0.f64("net_messages"),
            "net.wire_bytes_per_epoch" => own.1.f64("net_bytes") - own.0.f64("net_bytes"),
            "net.retries" => own.1.f64("net_retries"),
            "dist.speedup_vs_seq" => seq_epoch_s / epoch_s(own),
            "trace.coverage" => coverage,
            "trace.overhead_frac" => traced_epoch_s / seq_epoch_s - 1.0,
            name => match name.strip_prefix("share.") {
                Some(layer) => measured.self_s(layer) / traced_epoch_s,
                None => replay.get("metrics").map_or(f64::NAN, |r| r.f64(name)),
            },
        };
        ops.check(value.is_finite(), || {
            format!("{}: `{}` was not measured", w.name, m.name)
        });
        metrics.push((m.name, value));
    }
    Some(Layers {
        metrics,
        detail: replay.get("detail").cloned().unwrap_or(Json::Null),
    })
}

fn metric_object(values: impl IntoIterator<Item = (&'static str, &'static str, f64)>) -> Json {
    Json::obj(values.into_iter().map(|(name, unit, value)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// `bench run`: the benchmark contract's single-workload invocation. The
/// last line of output is the result object.
pub fn contract(args: &Args) -> Result<(), String> {
    let w = args.workload()?;
    let seed = args.seed()?;
    let mut ops = Ops::default();
    let metrics = match args.get("trace").unwrap_or("0") {
        "0" => {
            let seconds = args.usize("seconds")? as f64;
            driver::measure(&w, seed, seconds, args.smoke(), &mut ops).map(|e| {
                let times = |runs: &[Json]| {
                    Json::Arr(runs.iter().map(|r| Json::Num(r.f64("t_s"))).collect())
                };
                println!("T(0) = {} s", times(&e.setup_runs).compact());
                println!("T({}) = {} s", e.epochs, times(&e.epoch_runs).compact());
                metric_object(
                    END_TO_END
                        .iter()
                        .map(|m| (m.name, m.unit, e.metric(m.name))),
                )
            })
        }
        "1" => traced(&w, training_seeds(seed)[0], args.smoke(), &mut ops).map(|layers| {
            let units = |name: &str| {
                PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .map_or("", |m| m.unit)
            };
            metric_object(
                layers
                    .metrics
                    .iter()
                    .map(|&(name, value)| (name, units(name), value)),
            )
        }),
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let result = Json::obj([
        ("correct", Json::Bool(metrics.is_some() && ops.failed == 0)),
        ("attempted", Json::Num(ops.attempted.max(1) as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", metrics.unwrap_or(Json::Obj(Vec::new()))),
    ]);
    println!("{}", result.compact());
    Ok(())
}

fn host() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(driver::nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "splpg_num_threads",
            Json::Num(driver::pinned_threads() as f64),
        ),
        ("commit", Json::Str(commit)),
    ])
}

/// Counts as integers, everything else with six digits at whatever
/// magnitude the metric takes.
pub fn show(v: f64) -> String {
    match v.abs() {
        a if v.fract() == 0.0 && a < 1e15 => format!("{v:.0}"),
        a if (1e-3..1e4).contains(&a) => format!("{v:.6}"),
        a if a >= 1e4 => format!("{v:.0}"),
        _ => format!("{v:.3e}"),
    }
}

fn summary(values: &[f64], unit: &str) -> Json {
    let fold = |f: fn(f64, f64) -> f64, init: f64| values.iter().copied().fold(init, f);
    Json::obj([
        ("median", Json::Num(median(values))),
        ("min", Json::Num(fold(f64::min, f64::INFINITY))),
        ("max", Json::Num(fold(f64::max, f64::NEG_INFINITY))),
        ("n", Json::Num(values.len() as f64)),
        ("unit", Json::str(unit)),
    ])
}

/// Measurements per workload in the full suite; a smoke run makes one.
const REPS: usize = 3;

/// `bench all`: every workload `REPS` times, interleaved round-robin, then
/// every traced run; prints each metric by name with its unit and writes
/// the result file `bench compare` reads.
pub fn suite(args: &Args) -> Result<bool, String> {
    let smoke = args.smoke();
    let seed = args.seed()?;
    let reps = if smoke { 1 } else { REPS };
    let seconds = if smoke { 1.0 } else { spec::RUN_SECONDS as f64 };
    // A smoke run never lands where a baseline is expected.
    let default_out = if smoke {
        "benchmark/results/smoke.json"
    } else {
        "benchmark/results/latest.json"
    };
    let out_path = args.get("out").unwrap_or(default_out);
    let workloads = workload::all();
    let mut ops = Ops::default();

    let mut runs: Vec<Vec<E2e>> = workloads.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (i, w) in workloads.iter().enumerate() {
            eprintln!("bench: rep {}/{reps}: {}", rep + 1, w.name);
            runs[i].extend(driver::measure(w, seed, seconds, smoke, &mut ops));
        }
    }
    let mut layers: Vec<Option<Layers>> = Vec::new();
    for w in &workloads {
        eprintln!("bench: traced run: {}", w.name);
        layers.push(traced(w, training_seeds(seed)[0], smoke, &mut ops));
    }

    // Checks across runs: every repetition of a workload, and the thread
    // cluster and its sequential reference, agree bit for bit.
    for (w, reps) in workloads.iter().zip(&runs) {
        let agree = reps
            .iter()
            .all(|r| r.fingerprint() == reps[0].fingerprint());
        ops.check(agree && !reps.is_empty(), || {
            format!("{}: repetitions disagree on seed-determined output", w.name)
        });
    }
    let by_name = |name: &str| {
        workloads
            .iter()
            .position(|w| w.name == name)
            .map(|i| &runs[i])
    };
    let (threads, seq) = (by_name("ma-threads"), by_name("ma-seq"));
    let identical = match (threads.and_then(|r| r.first()), seq.and_then(|r| r.first())) {
        (Some(a), Some(b)) => a.fingerprint() == b.fingerprint(),
        _ => false,
    };
    ops.check(identical, || {
        "ma-threads and ma-seq disagree on loss, hits or bytes".to_string()
    });

    println!("\nend-to-end (median [min .. max] over n measurements of {seconds} s each)");
    let mut workloads_json = Vec::new();
    for ((w, reps), layer) in workloads.iter().zip(&runs).zip(&layers) {
        println!("  {}", w.name);
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = reps.iter().map(|r| r.metric(m.name)).collect();
            let s = summary(&values, m.unit);
            println!(
                "    {:<24} {:>14} [{} .. {}] n={} {}",
                m.name,
                show(s.f64("median")),
                show(s.f64("min")),
                show(s.f64("max")),
                values.len(),
                m.unit
            );
            e2e.push((m.name, s));
        }
        let per_layer = layer.as_ref().map_or(Json::Null, |l| {
            Json::obj(
                l.metrics
                    .iter()
                    .map(|&(name, value)| (name, Json::Num(value))),
            )
        });
        workloads_json.push((
            w.name,
            Json::obj([
                ("why", Json::str(w.why)),
                ("epochs", Json::Num(w.epochs as f64)),
                ("end_to_end", Json::obj(e2e)),
                (
                    "fingerprint",
                    Json::Str(reps.first().map_or_else(String::new, E2e::fingerprint)),
                ),
                ("runs", Json::Arr(reps.iter().map(E2e::to_json).collect())),
                ("per_layer", per_layer),
                (
                    "per_layer_detail",
                    layer.as_ref().map_or(Json::Null, |l| l.detail.clone()),
                ),
            ]),
        ));
    }

    println!("\nper layer (traced run, one epoch; per-batch values are medians)");
    print!("  {:<38}{:>9}", "", "unit");
    for w in &workloads {
        print!("{:>14}", w.name);
    }
    println!();
    for m in &PER_LAYER {
        print!("  {:<38}{:>9}", m.name, m.unit);
        for layer in &layers {
            let value = layer
                .as_ref()
                .and_then(|l| l.metrics.iter().find(|(name, _)| *name == m.name))
                .map_or(f64::NAN, |&(_, v)| v);
            print!("{:>14}", show(value));
        }
        println!();
    }

    // The scaling number proper comes from the end-to-end medians, and
    // means nothing on a host that cannot run two workers at once.
    let epoch = |reps: Option<&Vec<E2e>>| {
        reps.map_or(f64::NAN, |r| {
            median(&r.iter().map(|e| e.epoch_s).collect::<Vec<_>>())
        })
    };
    let speedup = if driver::nproc() < 2 {
        Json::str("unmeasured")
    } else {
        Json::Num(epoch(seq) / epoch(threads))
    };
    println!(
        "\ndist.speedup_vs_seq (ma-seq.epoch_s / ma-threads.epoch_s) = {}",
        speedup.compact()
    );
    println!("ops attempted {} failed {}", ops.attempted, ops.failed);

    let result = Json::obj([
        ("smoke", Json::Bool(smoke)),
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("host", host()),
        ("ops_attempted", Json::Num(ops.attempted as f64)),
        ("ops_failed", Json::Num(ops.failed as f64)),
        (
            "failures",
            Json::Arr(ops.reasons.iter().map(Json::str).collect()),
        ),
        ("dist.speedup_vs_seq", speedup),
        ("workloads", Json::obj(workloads_json)),
    ]);
    crate::create_parent_dir(out_path)?;
    std::fs::write(out_path, result.pretty()).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(ops.failed == 0)
}
