//! Boundary values at the CLI: out-of-range numeric flags are usage
//! errors (exit 2) with a message, never a library assert (exit 101),
//! and `--help` prints the usage text. Drives the built binary
//! (`CARGO_BIN_EXE_ppm`), so the exit codes are the ones scripts see.

use std::process::Command;

#[test]
fn boundary_values_exit_with_documented_codes_and_never_panic() {
    let dir = std::env::temp_dir().join(format!("ppm-cli-boundaries-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    // (arguments, expected exit code)
    let cases: &[(&str, i32)] = &[
        ("simulate --benchmark mcf --batch 1", 2),
        ("build --benchmark mcf --out m --sample 0", 2),
        ("build --benchmark mcf --out m --sample 1", 2),
        ("simulate --benchmark mcf --instructions 0", 2),
        ("build --benchmark mcf --out m --instructions 0", 2),
        ("screen --benchmark mcf --instructions 0", 2),
        ("firstorder --benchmark mcf --instructions 0", 2),
        ("workload-info --benchmark mcf --instructions 0", 2),
        ("analyze", 2),
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
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
