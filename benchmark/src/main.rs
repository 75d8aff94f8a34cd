//! `bench`: the SpLPG benchmark. It measures the workspace strictly from
//! outside — end-to-end numbers by timing the public `DistTrainer` entry
//! points in fresh processes, per-layer numbers from a separate traced
//! run that replays a worker epoch through the layers' public functions.
//! README.md defines every workload and metric.

mod compare;
mod driver;
mod json;
mod once;
mod report;
mod spec;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use splpg::prelude::*;

/// `--key value` flags after the subcommand; `raw` is the whole argument
/// list, which a multi-process run hands to its re-exec'd children so
/// they rebuild the identical workload.
pub struct Args {
    pub raw: Vec<String>,
    pub command: String,
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut it = raw.iter().cloned();
        let command = it.next().unwrap_or_default();
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => {
                    flags.insert("smoke".to_string(), "1".to_string());
                }
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.insert(key.to_string(), value);
                }
                None => positional.push(arg),
            }
        }
        Ok(Args {
            raw,
            command,
            positional,
            flags,
        })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    pub fn usize(&self, key: &str) -> Result<usize, String> {
        let text = self
            .get(key)
            .ok_or_else(|| format!("--{key} is required"))?;
        text.parse().map_err(|e| format!("--{key} {text}: {e}"))
    }

    /// For `run` and `all`, the measurement seed (3 is the baseline, 6 the
    /// held-out one), from which `driver::training_seeds` are derived;
    /// for `once` and `trace`, one of those training seeds.
    pub fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(3),
            Some(text) => text.parse().map_err(|e| format!("--seed {text}: {e}")),
        }
    }

    pub fn smoke(&self) -> bool {
        self.get("smoke").is_some()
    }

    /// The named workload; `--entry sequential` redirects it through
    /// `run_reference` (how the traced run gets its untraced baseline).
    pub fn workload(&self) -> Result<workload::Workload, String> {
        let found = workload::find(self.get("workload").ok_or("--workload is required")?)?;
        match self.get("entry") {
            None => Ok(found),
            Some("sequential") => Ok(found.sequential()),
            Some(other) => Err(format!("--entry {other}: only `sequential` is accepted")),
        }
    }
}

/// Result and trace files go under `benchmark/results/`, which a fresh
/// checkout may not have yet.
pub fn create_parent_dir(path: &str) -> Result<(), String> {
    match std::path::Path::new(path).parent() {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
        }
        None => Ok(()),
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    match args.command.as_str() {
        "once" => {
            let record = once::run(&args.workload()?, args)?;
            println!("{}", record.compact());
            Ok(ExitCode::SUCCESS)
        }
        "trace" => {
            let record = trace::run(&args.workload()?, args)?;
            println!("{}", record.compact());
            Ok(ExitCode::SUCCESS)
        }
        "run" => report::contract(args).map(|()| ExitCode::SUCCESS),
        "all" => Ok(if report::suite(args)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }),
        "compare" => match args.positional.as_slice() {
            [a, b] => Ok(if compare::run(a, b)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err("usage: bench compare A.json B.json".to_string()),
        },
        "manifest" => {
            print!("{}", spec::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    // A re-exec'd worker child is routed here before anything else can
    // run, so it can never launch runs of its own. It rebuilds the
    // identical workload from the arguments its master was started with.
    let as_worker = tcp_worker_entry(|_workers| {
        let build = || -> Result<_, String> {
            let workload = args.workload()?;
            let data = workload.generate(args.smoke())?;
            let trainer = workload.trainer(args.seed()?, args.usize("epochs")?, args.smoke());
            Ok((trainer, ModelKind::GraphSage, data))
        };
        build().map_err(splpg::dist::DistError::InvalidConfig)
    });
    match as_worker {
        Ok(false) => {}
        Ok(true) => {
            once::write_child_hwm();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("bench worker: {e}");
            return ExitCode::FAILURE;
        }
    }
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
