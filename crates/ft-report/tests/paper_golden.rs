//! The paper's evidence, pinned byte for byte: the EXPERIMENTS.md
//! command (`repro all --full --compare --json DIR --md DIR/md`) must
//! reproduce the checked-in `results/repro_full.txt`, and every
//! `results/<id>.json` and `results/md/<id>.md`, exactly.
//!
//! Each artifact is a pure function of its id and `ReproConfig`, so
//! any change to a model constant, a search, or a renderer shows up
//! here. When such a change is intended, regenerate `results/` with
//! the EXPERIMENTS.md command and review the diff.

use std::path::Path;
use std::process::Command;

/// Panics naming the first line where `actual` departs from the
/// checked-in `expected` file.
fn assert_same(expected: &Path, actual: &Path) {
    let read = |p: &Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    };
    let (want, got) = (read(expected), read(actual));
    if want == got {
        return;
    }
    let mut want_lines = want.split('\n');
    let mut got_lines = got.split('\n');
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => panic!(
                "{} differs from the reproduction at line {line}:\n  checked in: {:?}\n  reproduced: {:?}\n\
                 (regenerate results/ with the EXPERIMENTS.md command if the change is intended)",
                expected.display(),
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>"),
            ),
        }
    }
}

#[test]
fn full_protocol_reproduces_every_checked_in_artifact() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_golden");
    let _ = std::fs::remove_dir_all(&out);
    let md = out.join("md");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--full", "--compare", "--json"])
        .arg(&out)
        .arg("--md")
        .arg(&md)
        .output()
        .expect("spawn repro");
    assert!(
        run.status.success(),
        "repro all --full exited {:?}: {}",
        run.status.code(),
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = out.join("repro_full.txt");
    std::fs::write(&stdout, &run.stdout).expect("write stdout");
    assert_same(&results.join("repro_full.txt"), &stdout);

    let ids = ft_report::all_ids();
    assert_eq!(ids.len(), 19, "the registry's ids: {ids:?}");
    for id in ids {
        let json = format!("{id}.json");
        assert_same(&results.join(&json), &out.join(&json));
        let page = format!("{id}.md");
        assert_same(&results.join("md").join(&page), &md.join(&page));
    }
}
