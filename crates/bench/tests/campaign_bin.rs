//! The `campaign` gate fails on bad input or output instead of warning
//! past it: a malformed knob and a report that cannot be written both
//! exit non-zero, naming what went wrong. A good plain run writes the
//! report, nothing else.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A small, fast campaign writing into `out`.
fn campaign(out: &PathBuf, trials: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .env("DVE_CAMPAIGN_TRIALS", trials)
        .env("DVE_CAMPAIGN_WORKERS", "1")
        .env("DVE_CAMPAIGN_OUT", out)
        .env_remove("DVE_CAMPAIGN_SEED")
        .env_remove("DVE_CAMPAIGN_STRATIFIED")
        .output()
        .expect("campaign binary runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dve-campaign-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn malformed_trial_count_is_rejected_by_name() {
    let dir = scratch("malformed");
    let out = campaign(&dir, "1e5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "1e5 must not run as a default");
    assert!(stderr.contains("DVE_CAMPAIGN_TRIALS"), "{stderr}");
    assert!(!dir.exists(), "nothing is written before the knobs parse");
}

#[test]
fn unwritable_report_fails_the_run() {
    let ok_dir = scratch("ok");
    let ok = campaign(&ok_dir, "200");
    assert!(
        ok.status.success(),
        "control run: {}",
        String::from_utf8_lossy(&ok.stdout)
    );
    let mut written: Vec<String> = std::fs::read_dir(&ok_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, ["campaign.txt"]);

    // A directory squatting on the report's path: the run fails and
    // names the path it could not write.
    let bad_dir = scratch("blocked");
    let report = bad_dir.join("campaign.txt");
    std::fs::create_dir_all(&report).unwrap();
    let bad = campaign(&bad_dir, "200");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(!bad.status.success(), "an unwritten report must fail");
    assert!(
        stderr.contains(&format!("cannot write {}", report.display())),
        "{stderr}"
    );

    std::fs::remove_dir_all(&ok_dir).unwrap();
    std::fs::remove_dir_all(&bad_dir).unwrap();
}
