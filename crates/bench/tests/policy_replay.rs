//! Policy replay round-trips: stamped MultiQueue histories recorded
//! under **all four** choice policies must (a) replay
//! checker-linearizable online, (b) survive export → parse → re-export
//! **bit-for-bit**, and (c) pass the `histcheck` binary over the
//! exported tree.

use std::path::{Path, PathBuf};
use std::process::Command;

use dlz_core::spec::HistoryArtifact;
use dlz_core::{DeleteMode, PolicyCfg};
use dlz_workload::backends::MultiQueueBackend;
use dlz_workload::{engine, Budget, Family, OpMix, Scenario};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlz-policyreplay-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn all_policies() -> [PolicyCfg; 4] {
    [
        PolicyCfg::TwoChoice,
        PolicyCfg::DChoice { d: 4 },
        PolicyCfg::Sticky { ops: 16 },
        PolicyCfg::AdaptiveSticky { s_max: 8 },
    ]
}

/// Every exported `.histjsonl` under `dir`, depth-first.
fn exported_artifacts(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read_dir") {
            let p = entry.expect("entry").path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "histjsonl") {
                out.push(p);
            }
        }
    }
    out
}

#[test]
fn histories_replay_bit_for_bit_under_every_policy() {
    let dir = scratch("hist");
    let mut runs = 0usize;
    for (pi, policy) in all_policies().into_iter().enumerate() {
        let name = format!("replay-p{pi}");
        let s = Scenario::builder(&name, Family::Queue)
            .threads(4)
            .budget(Budget::OpsPerWorker(2_000))
            .mix(OpMix::new(50, 50, 0))
            .prefill(500)
            .seed(0xc0ffee + pi as u64)
            .choice_policy(policy)
            .record_history(true)
            .export(dir.clone())
            .build();
        let b = MultiQueueBackend::heap_policy(8, DeleteMode::Strict, policy, 1);
        let r = engine::run(&s, &b);
        assert!(r.verified(), "{name}: {:?}", r.verify_error);
        assert!(r.export_errors.is_empty(), "{name}: {:?}", r.export_errors);
        assert_eq!(
            r.quality.get("linearizable"),
            Some(1.0),
            "{name} must replay linearizable online"
        );
        runs += 1;
    }
    assert_eq!(runs, 4, "one run per policy");

    // Bit-for-bit: parse → re-serialize must reproduce every exported
    // artifact byte-identically (the replay contract downstream tools
    // rely on).
    let artifacts = exported_artifacts(&dir);
    assert_eq!(artifacts.len(), 4, "one artifact per run: {artifacts:?}");
    for path in &artifacts {
        let text = std::fs::read_to_string(path).expect("read artifact");
        let a = HistoryArtifact::from_json_lines(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            a.to_json_lines(),
            text,
            "{} must round-trip bit-for-bit",
            path.display()
        );
    }

    // The offline checker agrees: histcheck walks the whole tree and
    // passes every artifact.
    let out = Command::new(env!("CARGO_BIN_EXE_histcheck"))
        .arg(&dir)
        .output()
        .expect("spawn histcheck");
    assert!(
        out.status.success(),
        "histcheck failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let verdict = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        verdict.matches("\"linearizable\":true").count(),
        4,
        "one linearizable verdict per artifact: {verdict}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
