//! `repro` refuses impossible search parameters up front: exit 2 with
//! a usage message, never a panic (101) or an allocation abort (134).

use ft_core::MAX_BUDGET;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn assert_refused(args: &[&str], problem: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains(problem), "repro {args:?}: {stderr}");
}

#[test]
fn budgets_outside_the_searchable_range_exit_2() {
    for k in ["0", "1", "1099511627776"] {
        assert_refused(&["fig5c", "--k", k], "--k needs a sample budget");
    }
    // The check runs before any experiment, so a static table is
    // enough to probe the upper bound without starting a campaign.
    let over = (MAX_BUDGET + 1).to_string();
    assert_refused(&["table1", "--k", &over], "--k needs a sample budget");
}

#[test]
fn zero_focus_width_exits_2() {
    assert_refused(&["fig5c", "--x", "0"], "--x needs a focus width");
}

#[test]
fn boundary_parameters_are_accepted() {
    let max = MAX_BUDGET.to_string();
    for args in [
        ["table1", "--k", "2"],
        ["table1", "--k", &max],
        ["table1", "--x", "1"],
    ] {
        let out = repro(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "repro {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
