//! The daemon binary against hostile input: lines that used to panic
//! the main thread, overflow its stack or silently wrap a number must
//! each be answered with an `error` event, and the daemon must keep
//! serving — a trailing ping still gets its pong and EOF exits 0.

use std::io::Write;
use std::process::{Command, Stdio};

use bfpp_planner::json::Value;

#[test]
fn hostile_lines_get_error_events_and_the_daemon_keeps_serving() {
    let hostile = [
        r#"{"id":"n0","model":"bert-52b","nodes":0,"batch":8}"#.to_string(),
        r#"{"id":"n1","model":"bert-52b","cluster":"dgx1_v100","nodes":536870913,"batch":8}"#
            .to_string(),
        r#"{"id":"mm","model":"bert-52b","batch":8,"max_microbatch":4294967300}"#.to_string(),
        r#"{"id":"b","model":"bert-52b","batch":4294967304}"#.to_string(),
        "[".repeat(100_000),
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_planner_daemon"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn planner_daemon");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        for line in &hostile {
            writeln!(stdin, "{line}").expect("write line");
        }
        writeln!(stdin, r#"{{"ping":true}}"#).expect("write ping");
    }
    let out = child.wait_with_output().expect("daemon output");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "daemon must exit 0: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let events: Vec<Value> = stdout
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(events.len(), hostile.len() + 1, "{stdout}");
    let event = |v: &Value| v.get("event").and_then(Value::as_str).map(str::to_string);
    for (v, id) in events.iter().zip(["n0", "n1", "mm", "b", "line-5"]) {
        assert_eq!(event(v).as_deref(), Some("error"), "{stdout}");
        assert_eq!(v.get("id").and_then(Value::as_str), Some(id), "{stdout}");
    }
    assert!(
        events[4].get("at").and_then(Value::as_u64).is_some(),
        "the nesting error names its byte: {stdout}"
    );
    assert_eq!(event(&events[5]).as_deref(), Some("pong"), "{stdout}");
}
