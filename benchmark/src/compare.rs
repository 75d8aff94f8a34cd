//! `bench compare A.json B.json`: one row per (metric, workload) of two
//! result files of the same seed, `A` being the base. Verdicts use the
//! same-seed bounds of `spec::END_TO_END`.

use crate::json::Json;
use crate::report::show;
use crate::spec::{EndToEnd, END_TO_END};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Within the bound, but the runs of one side spread wider than it.
    Unresolved,
}

struct Stat {
    median: f64,
    min: f64,
    max: f64,
}

fn stat(file: &Json, workload: &str, metric: &str) -> Result<Stat, String> {
    let s = file
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .ok_or_else(|| format!("no `{metric}` for `{workload}`"))?;
    Ok(Stat {
        median: s.field("median")?,
        min: s.field("min")?,
        max: s.field("max")?,
    })
}

fn verdict(m: &EndToEnd, a: &Stat, b: &Stat) -> Verdict {
    let sign = if m.better == "lower" { 1.0 } else { -1.0 };
    let worse_by = sign * (b.median - a.median);
    let allowed = (m.rel * a.median.abs()).max(m.abs);
    let spread = (a.max - a.min).max(b.max - b.min);
    if worse_by > allowed {
        Verdict::Regressed
    } else if worse_by < -allowed {
        Verdict::Improved
    } else if spread > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Prints the table; `Ok(true)` when nothing regressed, every workload's
/// loss, hits and byte bits are identical, and the share of failed
/// operations did not rise.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.get("smoke") != b.get("smoke") {
        return Err("one file is a smoke run and the other is not".to_string());
    }
    if a.get("seed") != b.get("seed") {
        return Err(
            "the files were measured at different seeds; the bounds assume one seed".to_string(),
        );
    }
    let workloads = a.get("workloads").ok_or("no workloads in the base file")?;
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>18}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)"
    );
    let mut ok = true;
    for (name, entry) in workloads.entries() {
        for m in &END_TO_END {
            let (sa, sb) = (stat(&a, name, m.name)?, stat(&b, name, m.name)?);
            let v = verdict(m, &sa, &sb);
            ok &= v != Verdict::Regressed;
            println!(
                "{:<12} {:<22} {:>14} {:>14} {:>18.4}  {}",
                name,
                m.name,
                show(sa.median),
                show(sb.median),
                sb.median / sa.median,
                format!("{v:?}").to_lowercase()
            );
        }
        let other = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .and_then(|w| w.get("fingerprint"));
        let identical = entry.get("fingerprint").is_some() && entry.get("fingerprint") == other;
        ok &= identical;
        println!(
            "{:<12} {:<22} {:>66}",
            name,
            "loss/hits/bytes bits",
            if identical { "identical" } else { "differ" }
        );
    }
    let failed_share = |f: &Json| -> Result<f64, String> {
        Ok(f.field("ops_failed")? / f.field("ops_attempted")?.max(1.0))
    };
    let (fa, fb) = (failed_share(&a)?, failed_share(&b)?);
    println!("ops failed / attempted: A {fa:.4}  B {fb:.4}");
    if fb > fa {
        println!("the share of failed operations rose");
        ok = false;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(x: f64) -> Stat {
        Stat {
            median: x,
            min: x,
            max: x,
        }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let epoch = &END_TO_END[0];
        assert_eq!(verdict(epoch, &flat(1.0), &flat(1.05)), Verdict::Unchanged);
        assert_eq!(verdict(epoch, &flat(1.0), &flat(1.09)), Verdict::Regressed);
        assert_eq!(verdict(epoch, &flat(1.0), &flat(0.90)), Verdict::Improved);
        let wide = Stat {
            median: 1.0,
            min: 0.9,
            max: 1.1,
        };
        assert_eq!(verdict(epoch, &wide, &flat(1.02)), Verdict::Unresolved);
        // A regression stays one however wide the runs spread.
        assert_eq!(verdict(epoch, &wide, &flat(1.2)), Verdict::Regressed);
    }

    #[test]
    fn setup_has_an_absolute_floor_and_bytes_are_exact() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(verdict(setup, &flat(0.2), &flat(0.29)), Verdict::Unchanged);
        assert_eq!(verdict(setup, &flat(0.2), &flat(0.31)), Verdict::Regressed);
        let bytes = END_TO_END
            .iter()
            .find(|m| m.name == "comm_bytes_per_epoch")
            .unwrap();
        assert_eq!(
            verdict(bytes, &flat(1000.0), &flat(1000.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(bytes, &flat(1000.0), &flat(1001.0)),
            Verdict::Regressed
        );
        let hits = END_TO_END.iter().find(|m| m.name == "test_hits").unwrap();
        assert_eq!(verdict(hits, &flat(0.40), &flat(0.38)), Verdict::Unchanged);
        assert_eq!(verdict(hits, &flat(0.40), &flat(0.36)), Verdict::Regressed);
    }
}
