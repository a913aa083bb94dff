//! Boundary values at the CLI: out-of-range numeric flags and flags a
//! command does not accept are usage errors (exit 2) with a message
//! naming the flag, never a library assert (exit 101) or a silently
//! ignored typo, and `--help` prints the usage text. Drives the built binary
//! (`CARGO_BIN_EXE_ppm`), so the exit codes are the ones scripts see.

use std::process::Command;

#[test]
fn boundary_values_exit_with_documented_codes_and_never_panic() {
    let dir = std::env::temp_dir().join(format!("ppm-cli-boundaries-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    // (arguments, expected exit code)
    let cases: &[(&str, i32)] = &[
        ("simulate --benchmark mcf --batch 1", 2),
        ("simulate --benchmark mcf --batch 2 --rob 64", 2),
        ("simulate --benchmark mcf --batch 2 --energy", 2),
        ("build --benchmark mcf --out m --sample 0", 2),
        ("build --benchmark mcf --out m --sample 1", 2),
        ("simulate --benchmark mcf --instructions 0", 2),
        ("build --benchmark mcf --out m --instructions 0", 2),
        ("screen --benchmark mcf --instructions 0", 2),
        ("firstorder --benchmark mcf --instructions 0", 2),
        ("workload-info --benchmark mcf --instructions 0", 2),
        ("analyze", 2),
        ("lint --rules nonsense", 2),
        ("simulate --benchmark mcf --robb 3", 2),
        // Serve pool bounds, rejected before the registry opens, the
        // address binds or a thread spawns (else: exit 8 on the missing
        // registry). 257 and 1025 are one past the documented maxima.
        ("serve 256.0.0.1:1 --registry /nonexistent --workers 0", 2),
        ("serve 256.0.0.1:1 --registry /nonexistent --workers 257", 2),
        ("serve 256.0.0.1:1 --registry /nonexistent --queue 1025", 2),
        (
            "serve 256.0.0.1:1 --registry /nonexistent --queue 18446744073709551615",
            2,
        ),
        ("--help", 0),
        ("simulate --help", 0),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
            .args(args.split_whitespace())
            .args(["--no-ledger", "--quiet"])
            .current_dir(&dir)
            .output()
            .expect("run ppm");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(*want), "ppm {args}: {stderr}");
        assert!(!stderr.contains("panicked"), "ppm {args}: {stderr}");
        if *want == 0 {
            assert!(stdout.contains("USAGE"), "ppm {args}: {stdout}");
        } else {
            assert!(stderr.starts_with("error: "), "ppm {args}: {stderr}");
            // The message names the flag it rejects: the last one given.
            if let Some(flag) = args.split_whitespace().rfind(|a| a.starts_with("--")) {
                assert!(stderr.contains(flag), "ppm {args}: {stderr}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
    // The serve pool bounds the usage text documents are the enforced ones.
    assert_eq!(
        (ppm_exec::MAX_THREADS, ppm_serve::MAX_QUEUE_PER_WORKER),
        (256, 1024)
    );
    assert!(ppm::cli::USAGE.contains("1..256") && ppm::cli::USAGE.contains("at most 1024"));
}

#[test]
fn every_flag_in_the_usage_text_is_accepted_by_some_command() {
    use ppm::cli::{ArgError, Parsed, USAGE};
    // Command words open the lines of the COMMANDS section that are
    // indented by exactly two spaces.
    let section = USAGE.split("COMMANDS:\n").nth(1).expect("COMMANDS section");
    let commands: Vec<&str> = section
        .split("\n\n")
        .next()
        .unwrap_or_default()
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(
        commands.contains(&"benchmarks") && commands.contains(&"help"),
        "{commands:?}"
    );
    let flags: std::collections::BTreeSet<&str> = USAGE
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.len() > 2 && w.starts_with("--"))
        .collect();
    for flag in flags {
        let accepted = commands.iter().any(|command| {
            let args = [command, flag, "1"].map(str::to_string);
            !matches!(Parsed::parse(args), Err(ArgError::UnknownFlag { .. }))
        });
        assert!(accepted, "{flag} is documented but no command accepts it");
    }
}
