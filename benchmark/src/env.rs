//! Environment hygiene and process accounting: the `PEB_*` refusal, the
//! environment fingerprint printed with every result, and `/proc`
//! readers for peak RSS and CPU time (this process and its workers).

use std::path::Path;

use crate::json::{obj, Json};

/// Names of every ambient `PEB_*` variable. The product parses ~55 such
/// knobs where they are used; any one of them set would silently turn
/// the run into a measurement of another program.
pub fn ambient_peb_vars() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PEB_"))
        .collect();
    v.sort();
    v
}

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `VmHWM` (peak resident set) of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = read(format!("/proc/{pid}/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU milliseconds from a `/proc/.../stat` file.
/// `/proc` counts in clock ticks; Linux fixes `USER_HZ` at 100 on every
/// architecture this workspace targets, so a tick is 10 ms.
fn stat_cpu_ms(path: impl AsRef<Path>) -> Option<f64> {
    let stat = read(path)?;
    // Field 2 (comm) may contain spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// CPU time consumed by `pid` (all threads, including exited ones).
pub fn cpu_ms(pid: u32) -> Option<f64> {
    stat_cpu_ms(format!("/proc/{pid}/stat"))
}

/// CPU time of the thread of process `pid` whose name starts with
/// `prefix` (`/proc` truncates thread names to 15 bytes).
pub fn thread_cpu_ms(pid: u32, prefix: &str) -> Option<f64> {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
        .find(|task| read(task.path().join("comm")).is_some_and(|c| c.trim().starts_with(prefix)))
        .and_then(|task| stat_cpu_ms(task.path().join("stat")))
}

/// Live direct children of this process (the fleet's `peb_worker`s; the
/// supervisor owns the `Child` handles and does not expose pids).
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Some(stat) = read(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let Some(close) = stat.rfind(')') else {
            continue;
        };
        let mut f = stat[close + 1..].split_whitespace();
        let state = f.next();
        let ppid = f.next().and_then(|s| s.parse::<u32>().ok());
        if ppid == Some(me) && state != Some("Z") {
            out.push(pid);
        }
    }
    out.sort_unstable();
    out
}

fn cpu_model_and_flags() -> (String, Vec<String>) {
    let info = read("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let wanted = [
        "sse4_2",
        "avx",
        "avx2",
        "fma",
        "avx512f",
        "avx512_bf16",
        "avx_vnni",
    ];
    let flags = field("flags");
    let present = flags
        .split_whitespace()
        .filter(|f| wanted.contains(f))
        .map(str::to_string)
        .collect();
    (field("model name"), present)
}

/// Largest cache level the kernel reports for cpu0, in bytes.
pub fn last_level_cache_bytes() -> Option<usize> {
    (0..8)
        .filter_map(|i| {
            let s = read(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))?;
            let s = s.trim();
            let (num, mul) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                _ => (s, 1),
            };
            Some(num.parse::<usize>().ok()? * mul)
        })
        .max()
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything needed to tell whether two results are comparable.
pub fn fingerprint(repo_root: &Path, extra: Vec<(&'static str, Json)>) -> Json {
    let (model, flags) = cpu_model_and_flags();
    let git_sha = read(repo_root.join(".git/HEAD"))
        .map(|head| {
            let head = head.trim().to_string();
            match head.strip_prefix("ref: ") {
                Some(r) => read(repo_root.join(".git").join(r))
                    .map(|s| s.trim().to_string())
                    .unwrap_or(head),
                None => head,
            }
        })
        .unwrap_or_else(|| "not-a-git-checkout".to_string());
    let mut pairs = vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::Str(model)),
        (
            "cpu_flags",
            Json::Arr(flags.into_iter().map(Json::Str).collect()),
        ),
        (
            "llc_bytes",
            Json::Num(last_level_cache_bytes().unwrap_or(0) as f64),
        ),
        (
            "simd_level",
            Json::Str(peb_simd::level().name().to_string()),
        ),
        ("precision", Json::Str(peb_simd::prec().name().to_string())),
        ("plan_replay", Json::Bool(peb_plan::enabled())),
        ("pool", Json::Bool(peb_pool::enabled())),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        ("git_sha", Json::Str(git_sha)),
    ];
    pairs.extend(extra);
    obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let me = std::process::id();
        assert!(peak_rss_mib(me).unwrap() > 0.1);
        assert!(cpu_ms(me).unwrap() >= 0.0);
        assert!(peak_rss_mib(u32::MAX).is_none());
    }

    #[test]
    fn children_are_found_by_parent_pid() {
        let mut child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .expect("spawn sleep");
        assert!(child_pids().contains(&child.id()));
        child.kill().expect("kill");
        child.wait().expect("reap");
        assert!(!child_pids().contains(&child.id()));
    }
}
