//! The CLI's accepted-flags table, driven through the real `titan-repro`
//! binary: every subcommand that parses the common flags rejects each
//! common flag it does not accept — nonzero exit, the flag named on
//! stderr, no panic — so no flag is ever parsed and silently ignored.

use std::process::Command;

/// Every common flag, with a placeholder value (`None` for switches).
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--days", Some("1")),
    ("--seed", Some("1")),
    ("--seeds", Some("1")),
    ("--threads", Some("1")),
    ("--skip-expectations", None),
    ("--out", Some("x")),
    ("--metrics", Some("x")),
    ("--json", Some("x")),
    ("--trace", Some("x")),
    ("--health", Some("x")),
    ("--prof", Some("x")),
    ("--flamegraph", Some("x")),
    ("--perfetto", Some("x")),
    ("--checkpoint-every", Some("1")),
    ("--ckpt-dir", Some("x")),
    ("--from-checkpoint", Some("x")),
    ("--inject-divergence", Some("1")),
];

/// What each subcommand accepts, as documented in the usage text. The
/// walk includes `run --out`, `check --out` and `logs --json`: each
/// must fail rather than parse and be ignored.
const ACCEPTED: &[(&str, &[&str])] = &[
    ("taxonomy", &[]),
    (
        "run",
        &[
            "--days", "--seed", "--metrics", "--trace", "--health", "--prof", "--checkpoint-every",
            "--ckpt-dir", "--from-checkpoint", "--inject-divergence",
        ],
    ),
    ("check", &["--days", "--seed", "--metrics", "--json", "--health"]),
    ("logs", &["--days", "--seed", "--out"]),
    (
        "replicate",
        &[
            "--days", "--seed", "--seeds", "--threads", "--skip-expectations", "--out",
            "--metrics", "--trace", "--health",
        ],
    ),
    (
        "profile",
        &["--days", "--seed", "--metrics", "--json", "--health", "--flamegraph", "--perfetto"],
    ),
];

#[test]
fn every_unaccepted_flag_is_rejected_by_name() {
    let mut checked = 0;
    for (cmd, accepted) in ACCEPTED {
        for (flag, value) in FLAGS {
            if accepted.contains(flag) {
                continue;
            }
            let mut args = vec![*cmd, *flag];
            args.extend(*value);
            let out = Command::new(env!("CARGO_BIN_EXE_titan-repro"))
                .args(&args)
                .output()
                .expect("spawn titan-repro");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let shown = args.join(" ");
            assert!(!out.status.success(), "`{shown}` was accepted");
            assert!(stderr.contains(flag), "`{shown}` error does not name {flag}:\n{stderr}");
            assert!(!stderr.contains("panicked"), "`{shown}` panicked:\n{stderr}");
            checked += 1;
        }
    }
    assert!(checked > 50, "only {checked} cases walked");
}

#[test]
fn unknown_flags_and_bad_values_fail_cleanly() {
    for args in [
        vec!["run", "--bogus"],
        vec!["check", "--days"],
        vec!["run", "--seed", "0xZZ"],
        vec!["run", "--span-capacity", "8"],
        vec!["run", "--checkpoint-every", "0", "--ckpt-dir", "x"],
        vec!["replicate", "--seeds", "0"],
        vec!["taxonomy", "extra"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_titan-repro"))
            .args(&args)
            .output()
            .expect("spawn titan-repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`{}` was accepted", args.join(" "));
        assert!(stderr.starts_with("error: "), "`{}`:\n{stderr}", args.join(" "));
        assert!(!stderr.contains("panicked"), "`{}` panicked:\n{stderr}", args.join(" "));
    }
}
