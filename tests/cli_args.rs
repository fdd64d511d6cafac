//! CLI argument validation: numeric flags must reject zero and garbage
//! with a stable one-line error on stderr and a nonzero exit — never be
//! accepted silently. Also pins the `live` flag surface: window specs,
//! `--advance` coupling, and that valid invocations still run.

use std::process::Command;

fn heapdrag(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_heapdrag"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr_line(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).trim_end().to_string()
}

#[test]
fn numeric_flags_reject_zero_and_garbage_with_stable_one_line_errors() {
    let flags = [
        "--interval-kb",
        "--top",
        "--shards",
        "--chunk-records",
        "--pool",
        "--drivers",
        "--budget-chunks",
        "--rounds",
        "--advance",
        "--cold-after",
        "--every",
        "--ring",
    ];
    for flag in flags {
        for bad in ["0", "nope", "-3", "1.5", ""] {
            let out = heapdrag(&["report", "whatever.log", flag, bad]);
            assert!(
                !out.status.success(),
                "{flag} {bad:?} must be rejected, got success"
            );
            let err = stderr_line(&out);
            assert_eq!(
                err,
                format!("heapdrag: bad {flag}: expected a positive integer, got `{bad}`"),
                "{flag} {bad:?}: unstable error line"
            );
            assert!(!err.contains('\n'), "{flag}: error must be one line");
        }
    }
}

#[test]
fn window_specs_accept_unbounded_and_positive_bytes_only() {
    for flag in ["--window", "--live-window"] {
        for bad in ["0", "forever", "-1"] {
            let out = heapdrag(&["live", "x", flag, bad]);
            assert!(!out.status.success(), "{flag} {bad:?} must be rejected");
            assert_eq!(
                stderr_line(&out),
                format!("heapdrag: bad {flag}: expected a positive integer, got `{bad}`")
            );
        }
    }
    // `unbounded` parses; the command then fails on the missing target,
    // not on the flag.
    let out = heapdrag(&["live", "/nonexistent.hdasm", "--window", "unbounded"]);
    assert!(!out.status.success());
    assert!(
        stderr_line(&out).contains("/nonexistent.hdasm"),
        "failure must be about the target, not the window spec"
    );
}

#[test]
fn advance_requires_a_rolling_window() {
    let out = heapdrag(&["live", "x", "--advance", "64"]);
    assert!(!out.status.success());
    assert_eq!(
        stderr_line(&out),
        "heapdrag: --advance requires a rolling --window <bytes>"
    );
    // With a rolling window the same flag parses (failure, if any, comes
    // later, from the bogus target).
    let out = heapdrag(&["live", "/nonexistent.hdasm", "--window", "4096", "--advance", "64"]);
    assert!(!out.status.success());
    assert!(stderr_line(&out).contains("/nonexistent.hdasm"));
}

#[test]
fn a_valid_live_invocation_runs_a_workload_by_name() {
    let out = heapdrag(&["live", "juru", "--every", "65536", "--snapshot-out", "/dev/null"]);
    assert!(
        out.status.success(),
        "live juru failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== drag report ==="));
    assert!(stdout.contains("--- coldness: per-site idle intervals"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("live:"), "summary line: {stderr}");
}

#[test]
fn strict_and_salvage_stay_mutually_exclusive() {
    let out = heapdrag(&["report", "x.log", "--strict", "--salvage"]);
    assert!(!out.status.success());
    assert_eq!(
        stderr_line(&out),
        "heapdrag: --strict and --salvage are mutually exclusive"
    );
}

#[test]
fn run_reports_label_faults_as_one_line_errors_not_panics() {
    let source = include_str!("../examples/dragged.hdasm");
    let dir = std::env::temp_dir().join(format!("heapdrag-labels-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases = [
        (
            "jump.hdasm",
            source.replace("  jump loop\n", "  jump nowhere\n"),
            "line 39: label `nowhere` referenced but never placed",
        ),
        (
            "twice.hdasm",
            source.replace("done:\n", "loop:\ndone:\n"),
            "line 40: label `loop` placed twice",
        ),
    ];
    for (name, text, message) in cases {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("writes");
        let path = path.to_str().expect("utf-8 path");
        let out = heapdrag(&["run", path]);
        assert_eq!(out.status.code(), Some(1), "{name}: {}", stderr_line(&out));
        assert_eq!(stderr_line(&out), format!("heapdrag: {path}: {message}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_reports_an_oversized_newarray_as_out_of_memory_not_an_abort() {
    let dir = std::env::temp_dir().join(format!("heapdrag-huge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("huge.hdasm");
    std::fs::write(
        &path,
        "method main static params=1 locals=1 {\n  push 4294967295\n  newarray\n  pop\n  ret\n}\nentry main\n",
    )
    .expect("writes");
    let out = heapdrag(&["run", path.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_line(&out));
    assert_eq!(
        stderr_line(&out),
        "heapdrag: uncaught exception: OutOfMemoryError"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_accepts_a_workload_name_like_live() {
    let dir = std::env::temp_dir().join(format!("heapdrag-profile-name-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("j.log");
    let log = log.to_str().expect("utf-8 path");
    let out = heapdrag(&["profile", "jess", "-o", log]);
    assert!(out.status.success(), "profile jess: {}", stderr_line(&out));
    let report = heapdrag(&["report", log]);
    assert!(report.status.success(), "report: {}", stderr_line(&report));
    let live = heapdrag(&["live", "jess", "--window", "unbounded"]);
    assert!(live.status.success(), "live jess: {}", stderr_line(&live));
    assert!(!report.stdout.is_empty());
    assert!(
        live.stdout.starts_with(&report.stdout),
        "the post-mortem report must be the live report's prefix"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
