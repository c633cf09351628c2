//! End-to-end failure forensics: kill one rank of a real 4-process
//! spawn-local run, assert every survivor leaves a flight-recorder dump,
//! and assert `spdkfac_postmortem` merges them into a timeline that names
//! the killed rank and the first failing collective.
//!
//! These tests spawn the actual release-path binaries
//! (`CARGO_BIN_EXE_*`), so every byte crosses real process boundaries and
//! real loopback sockets — the same path CI's kill-a-rank smoke exercises.

use spdkfac_collectives::OpKind;
use spdkfac_obs::{parse_json, JsonValue};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("spdkfac_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp trace dir");
    dir.to_string_lossy().into_owned()
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    v.get(key).and_then(|x| x.as_str())
}

fn get_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

#[test]
fn killed_rank_is_identified_by_the_merged_postmortem() {
    let world = 4;
    let dir = temp_dir("postmortem");
    let status = Command::new(env!("CARGO_BIN_EXE_spdkfac_node"))
        // Rank 2 dies mid-run (`spdkfac_node --kill`), so every surviving
        // rank is deep in steady state when the ring breaks.
        .args([
            "spawn-local",
            "4",
            "--iters",
            "20",
            "--kill",
            "--trace-dir",
            &dir,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("launch spdkfac_node");
    assert!(
        !status.success(),
        "a run with a killed rank must fail, but exited {status}"
    );

    // Survivors dump; the killed rank cannot.
    for rank in [0usize, 1, 3] {
        let path = format!("{dir}/postmortem.rank{rank}.json");
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("surviving rank {rank} left no dump at {path}: {e}"));
        let doc = parse_json(&body).expect("dump is valid JSON");
        assert_eq!(get_str(&doc, "schema"), Some("spdkfac-postmortem-v2"));
        assert_eq!(get_f64(&doc, "rank"), Some(rank as f64));
        let Some(JsonValue::Array(spans)) = doc.get("spans") else {
            panic!("rank {rank}: dump has no spans array");
        };
        assert!(!spans.is_empty(), "rank {rank}: empty span window");
        let heartbeat = doc.get("heartbeat").expect("heartbeat object");
        for key in [
            "iteration",
            "loss",
            "phase",
            "generation",
            "epoch",
            "rss_bytes",
        ] {
            assert!(
                heartbeat.get(key).is_some(),
                "rank {rank}: heartbeat lacks {key}"
            );
        }
    }
    assert!(
        !std::path::Path::new(&format!("{dir}/postmortem.rank2.json")).exists(),
        "the killed rank must not have written a dump"
    );

    let status = Command::new(env!("CARGO_BIN_EXE_spdkfac_postmortem"))
        .arg(&dir)
        .status()
        .expect("launch spdkfac_postmortem");
    assert!(status.success(), "postmortem merge failed: {status}");

    let timeline = std::fs::read_to_string(format!("{dir}/postmortem_timeline.json"))
        .expect("merged timeline written");
    let timeline = parse_json(&timeline).expect("timeline is valid JSON");
    assert_eq!(
        get_str(&timeline, "schema"),
        Some("spdkfac-postmortem-timeline-v1")
    );
    let Some(JsonValue::Array(killed)) = timeline.get("killed") else {
        panic!("timeline missing killed array");
    };
    let killed: Vec<f64> = killed.iter().filter_map(|v| v.as_f64()).collect();
    assert_eq!(killed, vec![2.0], "timeline must name rank 2 as killed");

    // The first failing collective is identified by kind + generation + seq.
    let first = timeline
        .get("first_failure")
        .expect("timeline missing first_failure");
    assert!(
        !matches!(first, JsonValue::Null),
        "a broken ring must pin a first failure"
    );
    let op = get_str(first, "op").expect("first_failure.op");
    assert!(
        OpKind::ALL.iter().any(|k| k.name() == op),
        "first_failure.op {op:?} is not a collective kind"
    );
    assert!(get_f64(first, "seq").is_some(), "first_failure.seq missing");
    assert!(
        get_f64(first, "generation").is_some(),
        "first_failure.generation missing"
    );
    let observer = get_f64(first, "rank").expect("first_failure.rank") as usize;
    assert!(
        observer != 2 && observer < world,
        "the failure observer must be a survivor, got rank {observer}"
    );

    // The merged Chrome trace of the final window parses.
    let trace = std::fs::read_to_string(format!("{dir}/postmortem_trace.json"))
        .expect("merged postmortem trace written");
    parse_json(&trace).expect("postmortem trace is valid JSON");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_removed_metrics_flag_is_a_usage_error() {
    let status = Command::new(env!("CARGO_BIN_EXE_spdkfac_node"))
        .args(["smoke", "2", "--metrics-addr", "127.0.0.1:0"])
        .stderr(Stdio::null())
        .status()
        .expect("launch spdkfac_node");
    assert_eq!(status.code(), Some(2));
}

#[test]
fn the_removed_monitor_flag_is_a_usage_error() {
    let status = Command::new(env!("CARGO_BIN_EXE_spdkfac_node"))
        .args(["smoke", "2", "--monitor"])
        .stderr(Stdio::null())
        .status()
        .expect("launch spdkfac_node");
    assert_eq!(status.code(), Some(2));
}

/// A minimal per-rank document (schema `spdkfac-postmortem-v2`) with the
/// given raw `rank` and `world` fields.
fn document(rank: &str, world: &str) -> String {
    format!(
        r#"{{"schema":"spdkfac-postmortem-v2","rank":{rank},"world":{world},"reason":"test","wall_now":0,"heartbeat":{{"iteration":0,"phase":"Update","generation":0}},"clock":null,"failure":null,"dropped":0,"spans":[],"metrics":null}}"#
    )
}

/// Runs `spdkfac_postmortem` on a fresh directory holding `files`
/// (name, body) and returns its exit code; a run still going after 20 s
/// is killed and reads as `None`.
fn postmortem_exit(tag: &str, files: &[(&str, String)]) -> Option<i32> {
    let dir = temp_dir(tag);
    for (name, body) in files {
        std::fs::write(format!("{dir}/{name}"), body).expect("write a document");
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_spdkfac_postmortem"))
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("launch spdkfac_postmortem");
    let deadline = Instant::now() + Duration::from_secs(20);
    let code = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status.code();
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_dir_all(&dir);
    code
}

#[test]
fn a_hostile_world_is_refused_not_enumerated() {
    let lone = |world: &str| vec![("postmortem.rank0.json", document("0", world))];
    assert_eq!(postmortem_exit("pm_world_ok", &lone("1")), Some(0));
    for world in ["1e15", "1e19"] {
        assert_eq!(
            postmortem_exit("pm_world_huge", &lone(world)),
            Some(1),
            "world {world}"
        );
    }
    // The trace files go through the same reader.
    let trace = vec![("trace.rank0.json", document("0", "1e15"))];
    assert_eq!(postmortem_exit("pm_trace_huge", &trace), Some(1));
}

#[test]
fn a_document_outside_its_world_is_refused() {
    for (rank, world) in [("0", "0"), ("5", "2"), ("2", "2")] {
        let files = vec![("postmortem.rank0.json", document(rank, world))];
        assert_eq!(
            postmortem_exit("pm_outside", &files),
            Some(1),
            "rank {rank} of world {world}"
        );
    }
}

#[test]
fn documents_that_disagree_on_world_or_rank_are_refused() {
    let disagree = vec![
        ("postmortem.rank0.json", document("0", "2")),
        ("postmortem.rank1.json", document("1", "3")),
    ];
    assert_eq!(postmortem_exit("pm_disagree", &disagree), Some(1));
    let twice = vec![
        ("postmortem.rank0.json", document("0", "2")),
        ("postmortem.rank00.json", document("0", "2")),
    ];
    assert_eq!(postmortem_exit("pm_twice", &twice), Some(1));
}

#[test]
fn a_closed_stdout_ends_the_report_not_the_run() {
    let dir = temp_dir("pm_closed_stdout");
    std::fs::write(format!("{dir}/postmortem.rank0.json"), document("0", "1"))
        .expect("write a document");
    // A pipe whose read end is gone before the tool starts: every write to
    // it fails with EPIPE, as under `spdkfac_postmortem DIR | head -0`.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_spdkfac_postmortem"))
        .arg(&dir)
        .stdout(writer)
        .stderr(Stdio::null())
        .status()
        .expect("launch spdkfac_postmortem");
    assert_eq!(status.code(), Some(0), "exited {status}");
    for name in ["postmortem_trace.json", "postmortem_timeline.json"] {
        assert!(
            std::path::Path::new(&format!("{dir}/{name}")).exists(),
            "{name} was not written"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
