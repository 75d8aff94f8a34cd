//! The outside-in harness: spawns every timed run as a fresh child
//! process in a scratch directory it owns, checks what the run left
//! behind, and turns the children's records into the end-to-end metrics.
//! The load is a closed loop: one run at a time, each with `p` workers.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::once::ENV_SCRATCH;
use crate::workload::{Entry, Workload};

/// A child that has not exited by then is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker-pool width every child runs at: the host's cores, capped at
/// the widest concurrent worker count any workload uses.
pub fn pinned_threads() -> usize {
    nproc().min(2)
}

/// What every operation and output check of one invocation adds up to.
/// A run that errors, a child that exits non-zero, a failed check or a
/// leaked OS resource is one failed op.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let reason = reason();
            eprintln!("bench: FAILED: {reason}");
            self.reasons.push(reason);
        }
    }

    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        let (ok, reason) = match &result {
            Ok(_) => (true, String::new()),
            Err(e) => (false, e.clone()),
        };
        self.check(ok, || reason);
        result.ok()
    }
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Everything the driver writes lives next to the executable, i.e. inside
/// the build directory, so nothing is ever written outside the checkout.
fn fresh_scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let root = exe.parent().ok_or("executable has no parent directory")?;
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = root.join(format!("scratch/run-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Processes (other than this one) whose environment names `scratch`:
/// children or re-parented grandchildren a run left alive.
fn live_descendants(scratch: &Path) -> Vec<u32> {
    let needle = scratch.as_os_str().as_encoded_bytes();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| pid != std::process::id())
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/environ"))
                .is_ok_and(|env| env.windows(needle.len()).any(|w| w == needle))
        })
        .collect()
}

fn leaked_shm_segments() -> Vec<String> {
    let Ok(entries) = std::fs::read_dir("/dev/shm") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.starts_with("splpg-"))
        .collect()
}

/// Runs `bench <args>` as a child in a fresh scratch directory, waits for
/// it, verifies it left nothing behind, and returns the JSON record on
/// the last line of its output. Every step that can fail is an op.
pub fn spawn_child(args: &[String], ops: &mut Ops) -> Option<Json> {
    let scratch = ops.record(fresh_scratch_dir())?;
    let record = ops.record(run_in(&scratch, args));

    let alive = live_descendants(&scratch);
    ops.check(alive.is_empty(), || {
        format!("run left live processes behind: {alive:?}")
    });
    let segments = leaked_shm_segments();
    ops.check(segments.is_empty(), || {
        format!("run left /dev/shm segments behind: {segments:?}")
    });
    let leftovers: Vec<String> = std::fs::read_dir(&scratch)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.file_name().into_string().ok())
                .collect()
        })
        .unwrap_or_default();
    let stray: Vec<&String> = leftovers
        .iter()
        .filter(|n| !matches!(n.as_str(), "stdout" | "stderr"))
        .collect();
    ops.check(stray.is_empty(), || {
        format!("run left files in its scratch dir: {stray:?}")
    });
    let _ = std::fs::remove_dir_all(&scratch);
    record
}

fn run_in(scratch: &Path, args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let file = |name: &str| {
        std::fs::File::create(scratch.join(name)).map_err(|e| format!("create {name}: {e}"))
    };
    let mut child = Command::new(exe)
        .args(args)
        // The trainer's rendezvous port file goes to the temp dir.
        .env("TMPDIR", scratch)
        .env(ENV_SCRATCH, scratch)
        .env("SPLPG_NUM_THREADS", pinned_threads().to_string())
        .stdin(Stdio::null())
        .stdout(file("stdout")?)
        .stderr(file("stderr")?)
        .spawn()
        .map_err(|e| format!("spawn failed: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait failed: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("`bench {}` timed out", args.join(" ")));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let read = |name: &str| std::fs::read_to_string(scratch.join(name)).unwrap_or_default();
    if !status.success() {
        let stderr = read("stderr");
        let reason = stderr.lines().last().unwrap_or("no message");
        return Err(format!(
            "`bench {}` exited with {status}: {reason}",
            args.join(" ")
        ));
    }
    let stdout = read("stdout");
    let line = stdout.lines().last().ok_or("child printed no record")?;
    Json::parse(line).map_err(|e| format!("child record: {e}"))
}

pub fn once_args(w: &Workload, seed: u64, epochs: usize, smoke: bool) -> Vec<String> {
    let mut args: Vec<String> = ["once", "--workload", w.name, "--seed"]
        .map(String::from)
        .into();
    args.extend([seed.to_string(), "--epochs".to_string(), epochs.to_string()]);
    if w.entry == Entry::Sequential {
        // Also how the traced run gets any workload's sequential epoch.
        args.extend(["--entry".to_string(), "sequential".to_string()]);
    }
    if smoke {
        args.push("--smoke".to_string());
    }
    args
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Every field of a run's record that the seed determines; repetitions
/// must agree on all of them bit for bit.
fn fingerprint(record: &Json) -> String {
    [
        "loss_bits",
        "test_hits_bits",
        "comm_total_bytes",
        "comm_wire_bytes",
    ]
    .iter()
    .map(|k| record.get(k).map_or_else(String::new, Json::compact))
    .collect::<Vec<_>>()
    .join(" ")
}

/// Training seeds per measurement. Bytes, hits and peak memory are
/// determined by the training seed and spread by 7-11 % between seeds on
/// some workload (README, "Seed results"); a measurement reports their
/// mean over this many seeds, which brings the spread under 7 %.
pub const PANEL: usize = 3;

/// The training seeds (`TrainConfig.seed`) of the measurement `--seed`
/// names. No two measurement seeds share one.
pub fn training_seeds(seed: u64) -> [u64; PANEL] {
    std::array::from_fn(|j| seed.wrapping_mul(PANEL as u64).wrapping_add(j as u64))
}

/// One measurement of one workload: the raw `T(0)` and `T(E)` records
/// and the five end-to-end metrics derived from them. Run `i` of either
/// kind trained with `training_seeds[i % PANEL]`.
#[derive(Debug, Clone)]
pub struct E2e {
    pub epochs: usize,
    pub training_seeds: [u64; PANEL],
    pub setup_runs: Vec<Json>,
    pub epoch_runs: Vec<Json>,
    pub epoch_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub comm_bytes_per_epoch: f64,
    pub test_hits: f64,
}

impl E2e {
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "epoch_s" => self.epoch_s,
            "setup_s" => self.setup_s,
            "peak_rss_mb" => self.peak_rss_mb,
            "comm_bytes_per_epoch" => self.comm_bytes_per_epoch,
            "test_hits" => self.test_hits,
            _ => f64::NAN,
        }
    }

    /// The seed-determined part of one `T(E)` run per training seed.
    pub fn fingerprint(&self) -> String {
        let first = self.epoch_runs.iter().take(PANEL);
        first.map(fingerprint).collect::<Vec<_>>().join(" | ")
    }

    pub fn to_json(&self) -> Json {
        let seeds = self.training_seeds.iter().map(|&s| Json::Num(s as f64));
        Json::obj([
            ("epochs", Json::Num(self.epochs as f64)),
            ("epoch_s", Json::Num(self.epoch_s)),
            ("setup_s", Json::Num(self.setup_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("comm_bytes_per_epoch", Json::Num(self.comm_bytes_per_epoch)),
            ("test_hits", Json::Num(self.test_hits)),
            ("training_seeds", Json::Arr(seeds.collect())),
            ("setup_runs", Json::Arr(self.setup_runs.clone())),
            ("epoch_runs", Json::Arr(self.epoch_runs.clone())),
        ])
    }
}

/// Alternates `T(0)` and `T(E)` runs of `w`, cycling through the
/// measurement's training seeds, until every seed has run and the next run
/// would overrun `seconds`; then derives the metrics and checks the runs
/// against each other.
///
/// `epoch_s` is taken between the *fastest* `T(E)` and the fastest `T(0)`.
/// On a shared host a run is only ever slowed down, in bursts of seconds
/// to a minute, and a measurement has room for three or four `T(E)`
/// samples: the minimum of those is markedly steadier than their median
/// (README, "Seed results"). `setup_s` is a median.
pub fn measure(w: &Workload, seed: u64, seconds: f64, smoke: bool, ops: &mut Ops) -> Option<E2e> {
    let epochs = w.epochs;
    let training_seeds = training_seeds(seed);
    let started = Instant::now();
    let mut runs: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    // Wall cost of the last child of each kind, process start and
    // dataset generation included: what the budget is spent in.
    let mut cost = [0.0f64; 2];
    'pairs: loop {
        let train_seed = training_seeds[runs[1].len() % PANEL];
        for (kind, k) in [0, epochs].into_iter().enumerate() {
            let covered = runs[1].len() >= PANEL;
            if covered && started.elapsed().as_secs_f64() + cost[kind] > seconds {
                break 'pairs;
            }
            let child_started = Instant::now();
            runs[kind].push(spawn_child(&once_args(w, train_seed, k, smoke), ops)?);
            cost[kind] = child_started.elapsed().as_secs_f64();
        }
    }
    let [setup_runs, epoch_runs] = runs;

    for group in [&setup_runs, &epoch_runs] {
        let agree = group
            .iter()
            .enumerate()
            .all(|(i, r)| fingerprint(r) == fingerprint(&group[i % PANEL]));
        ops.check(agree, || {
            format!("{}: repetitions disagree on seed-determined output", w.name)
        });
    }
    if w.entry != Entry::Sequential {
        for r in &epoch_runs {
            let reconciled = r.f64("net_data_bytes") == r.f64("comm_total_bytes");
            ops.check(reconciled, || {
                format!(
                    "{}: fetch ledgers and comm meters disagree on data bytes",
                    w.name
                )
            });
            let quiet = r.f64("net_retries") == 0.0 && r.f64("net_faulted") == 0.0;
            ops.check(quiet, || {
                format!("{}: fault-free run saw retries or faults", w.name)
            });
        }
    }
    // One `T(E)` run per training seed: what the seed-determined metrics
    // are the mean of, so that they repeat exactly at one `--seed`.
    let panel = &epoch_runs[..PANEL];
    for r in panel {
        let sane = (0.0..=1.0).contains(&r.f64("test_hits"))
            && r.get("loss_bits").is_some_and(|l| l.arr().len() == epochs)
            && r.f64("comm_total_bytes") > 0.0;
        ops.check(sane, || {
            format!("{}: implausible outcome {}", w.name, r.compact())
        });
    }
    let mean = |of: &dyn Fn(&Json) -> f64| panel.iter().map(of).sum::<f64>() / PANEL as f64;
    let rss_kb = |r: &Json| {
        let children = r.get("children_hwm_kb");
        let children: f64 = children.map_or(0.0, |c| c.arr().iter().filter_map(Json::num).sum());
        r.f64("vm_hwm_kb") + children
    };

    let times = |group: &[Json]| group.iter().map(|r| r.f64("t_s")).collect::<Vec<_>>();
    let fastest = |group: &[Json]| times(group).into_iter().fold(f64::INFINITY, f64::min);
    Some(E2e {
        epochs,
        training_seeds,
        epoch_s: (fastest(&epoch_runs) - fastest(&setup_runs)) / epochs as f64,
        setup_s: median(&times(&setup_runs)),
        peak_rss_mb: mean(&rss_kb) / 1024.0,
        comm_bytes_per_epoch: mean(&|r| r.f64("comm_total_bytes")) / epochs as f64,
        test_hits: mean(&|r| r.f64("test_hits")),
        setup_runs,
        epoch_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
