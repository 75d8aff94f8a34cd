//! One timed run in a fresh process: `T(k)`, the wall time of the
//! workload's public `DistTrainer` entry point with `epochs = k`, plus
//! everything the run reports about itself. The driver spawns this once
//! per sample so every run starts cold and owns its own `VmHWM`.

use std::path::Path;
use std::time::Instant;

use splpg::prelude::*;

use crate::json::Json;
use crate::workload::{Entry, Workload};
use crate::Args;

/// Scratch directory the driver created for this run; worker children
/// leave their peak RSS there.
pub const ENV_SCRATCH: &str = "SPLPG_BENCH_SCRATCH";

/// Peak resident set of the calling process in KiB, from the kernel.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Called in a re-exec'd worker child after it served its whole lifetime.
pub fn write_child_hwm() {
    let (Ok(dir), Ok(worker)) = (
        std::env::var(ENV_SCRATCH),
        std::env::var(splpg::net::process::ENV_WORKER),
    ) else {
        return;
    };
    if let Some(kb) = vm_hwm_kb() {
        // A missing file is reported by the master as a failed op.
        let _ = std::fs::write(
            Path::new(&dir).join(format!("hwm-worker-{worker}")),
            kb.to_string(),
        );
    }
}

fn collect_child_hwm(workers: usize) -> Result<Vec<u64>, String> {
    let dir = std::env::var(ENV_SCRATCH).map_err(|_| format!("{ENV_SCRATCH} is not set"))?;
    (0..workers)
        .map(|w| {
            let path = Path::new(&dir).join(format!("hwm-worker-{w}"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("worker {w} left no peak-RSS record: {e}"))?;
            std::fs::remove_file(&path).map_err(|e| e.to_string())?;
            text.trim()
                .parse::<u64>()
                .map_err(|e| format!("worker {w} peak-RSS record: {e}"))
        })
        .collect()
}

pub fn hex32(bits: u32) -> Json {
    Json::Str(format!("0x{bits:08x}"))
}

pub fn hex64(bits: u64) -> Json {
    Json::Str(format!("0x{bits:016x}"))
}

pub fn run(workload: &Workload, args: &Args) -> Result<Json, String> {
    let epochs = args.usize("epochs")?;
    let data = workload.generate(args.smoke())?;
    let trainer = workload.trainer(args.seed()?, epochs, args.smoke());
    let kind = ModelKind::GraphSage;

    let start = Instant::now();
    let outcome = match workload.entry {
        Entry::Threads => trainer.run(kind, &data),
        Entry::Sequential => trainer.run_reference(kind, &data),
        Entry::Processes => trainer.run_multiprocess(kind, &data, &args.raw),
    };
    let t_s = start.elapsed().as_secs_f64();
    let out = outcome.map_err(|e| format!("{} failed: {e}", workload.name))?;

    let children = match workload.entry {
        Entry::Processes => collect_child_hwm(workload.dist_config().num_workers)?,
        _ => Vec::new(),
    };
    let own = vm_hwm_kb().ok_or("no VmHWM in /proc/self/status")?;
    let nums = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::Num(x as f64)).collect());
    Ok(Json::obj([
        ("epochs", Json::Num(epochs as f64)),
        ("t_s", Json::Num(t_s)),
        (
            "loss_bits",
            Json::Arr(
                out.epochs
                    .iter()
                    .map(|e| hex32(e.mean_loss.to_bits()))
                    .collect(),
            ),
        ),
        ("test_hits", Json::Num(out.test_hits)),
        ("test_hits_bits", hex64(out.test_hits.to_bits())),
        ("comm_total_bytes", Json::Num(out.comm.total_bytes() as f64)),
        (
            "comm_wire_bytes",
            Json::Num(out.comm.total_wire_bytes() as f64),
        ),
        ("partition_s", Json::Num(out.partition_time.as_secs_f64())),
        ("sparsify_s", Json::Num(out.sparsify_time.as_secs_f64())),
        ("net_messages", Json::Num(out.net.messages as f64)),
        ("net_bytes", Json::Num(out.net.bytes as f64)),
        ("net_data_bytes", Json::Num(out.net.data_bytes as f64)),
        ("net_retries", Json::Num(out.net.retries as f64)),
        (
            "net_faulted",
            Json::Num((out.net.dropped + out.net.duplicated + out.net.delayed) as f64),
        ),
        ("vm_hwm_kb", Json::Num(own as f64)),
        ("children_hwm_kb", nums(&children)),
    ]))
}
