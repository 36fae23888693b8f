//! Spawns the real `mist-cli` binary as a daemon over a Unix socket and
//! drives the cold → exact-hit → warm-start → shutdown lifecycle with
//! `mist-cli query`, then feeds it hostile request lines.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};

use serde_json::Value;

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Kills the daemon if the test panics before the clean shutdown.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Starts `mist-cli serve --listen <socket> <extra>` and waits for its
/// `READY` banner.
fn serve(socket: &str, extra: &[&str]) -> DaemonGuard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mist-cli"))
        .args(["serve", "--listen", socket, "--threads", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn mist-cli serve");
    let stdout = child.stdout.take().expect("captured stdout");
    let guard = DaemonGuard(child);
    // The daemon announces readiness; no polling needed.
    let mut ready = String::new();
    BufReader::new(stdout).read_line(&mut ready).unwrap();
    assert!(ready.starts_with("READY "), "unexpected banner: {ready}");
    guard
}

fn query(socket: &str, extra: &[&str]) -> (Value, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mist-cli"))
        .args(["query", "--connect", socket])
        .args(extra)
        .output()
        .expect("spawn mist-cli query");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = serde_json::from_str(stdout.trim()).unwrap_or_else(|e| {
        panic!(
            "query response must be JSON ({e}): {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (value, out.status.success())
}

fn plan_query(socket: &str, batch: &str, extra: &[&str]) -> Value {
    let mut args = vec![
        "--model",
        "gpt3-1.3b",
        "--gpus",
        "2",
        "--batch",
        batch,
        "--max-grad-accum",
        "8",
    ];
    args.extend_from_slice(extra);
    let (value, ok) = query(socket, &args);
    assert!(ok, "plan query failed: {value:?}");
    value
}

fn work_field<'a>(v: &'a Value, key: &str) -> &'a Value {
    get(v, "work")
        .and_then(|w| get(w, key))
        .unwrap_or_else(|| panic!("response must carry work.{key}: {v:?}"))
}

fn result_json(v: &Value) -> String {
    serde_json::to_string(get(v, "result").expect("result field")).unwrap()
}

#[test]
fn daemon_cold_hit_warm_lifecycle() {
    let dir = std::env::temp_dir().join(format!("mist-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("planner.sock").display().to_string();
    let cache = dir.join("plans.jsonl").display().to_string();

    let mut guard = serve(&socket, &["--cache", &cache]);

    let (pong, ok) = query(&socket, &["--ping"]);
    assert!(ok);
    assert_eq!(get(&pong, "pong"), Some(&Value::Bool(true)));

    let cold = plan_query(&socket, "8", &[]);
    assert_eq!(work_field(&cold, "source"), &Value::Str("cold".into()));

    let hit = plan_query(&socket, "8", &[]);
    assert_eq!(work_field(&hit, "source"), &Value::Str("hit".into()));
    assert_eq!(
        result_json(&cold),
        result_json(&hit),
        "exact hit must return the cold result byte-for-byte"
    );

    let warm = plan_query(&socket, "16", &[]);
    assert_eq!(work_field(&warm, "source"), &Value::Str("warm".into()));

    let bypass = plan_query(&socket, "16", &["--no-cache"]);
    assert_eq!(work_field(&bypass, "source"), &Value::Str("cold".into()));
    assert_eq!(
        result_json(&warm),
        result_json(&bypass),
        "warm-start result must be byte-identical to a cold tune"
    );
    let configs = |v: &Value| work_field(v, "configs_evaluated").as_i64().unwrap();
    assert!(
        configs(&warm) < configs(&bypass),
        "warm ({}) must evaluate strictly fewer configs than cold ({})",
        configs(&warm),
        configs(&bypass)
    );

    let (stats, ok) = query(&socket, &["--stats"]);
    assert!(ok);
    let counters = get(&stats, "cache").expect("cache counters");
    assert_eq!(get(counters, "hits"), Some(&Value::Int(1)));
    assert_eq!(get(counters, "warm_starts"), Some(&Value::Int(1)));
    assert_eq!(get(counters, "entries"), Some(&Value::Int(2)));

    // Malformed queries error without killing the daemon, and a bad
    // plan request exits nonzero.
    let (err, ok) = query(
        &socket,
        &["--model", "gpt3-1.3b", "--gpus", "12", "--batch", "8"],
    );
    assert!(!ok, "gpus=12 is not a valid cluster shape");
    assert_eq!(get(&err, "ok"), Some(&Value::Bool(false)));

    let (bye, ok) = query(&socket, &["--shutdown"]);
    assert!(ok);
    assert_eq!(get(&bye, "shutdown"), Some(&Value::Bool(true)));
    let status = guard.0.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon must exit cleanly: {status:?}");

    // The persisted cache survives a restart: a fresh daemon answers the
    // original query as an exact hit.
    let mut guard = serve(&socket, &["--cache", &cache]);
    let rehit = plan_query(&socket, "8", &[]);
    assert_eq!(work_field(&rehit, "source"), &Value::Str("hit".into()));
    assert_eq!(
        result_json(&cold),
        result_json(&rehit),
        "cache reload must preserve results byte-for-byte"
    );

    query(&socket, &["--shutdown"]);
    guard.0.wait().expect("daemon exits after shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile lines against the real process, one connection, one response
/// per line: an in-process test cannot see the daemon's connection
/// thread overflow its stack and abort the whole binary.
#[test]
fn daemon_answers_hostile_lines_and_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("mist-cli-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("planner.sock").display().to_string();
    let mut guard = serve(&socket, &[]);

    let mut stream = UnixStream::connect(&socket).expect("connect to daemon");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| -> Value {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        serde_json::from_str(response.trim())
            .unwrap_or_else(|e| panic!("response must be JSON ({e}): {response}"))
    };
    let error = |v: &Value| match (get(v, "ok"), get(v, "error")) {
        (Some(Value::Bool(false)), Some(Value::Str(e))) => e.clone(),
        _ => panic!("expected an ok:false error, got {v:?}"),
    };

    // Under the 64 KiB line cap, so it reaches the JSON parser.
    let nested = ask(&"[".repeat(60_000));
    assert!(error(&nested).contains("nesting too deep"), "{nested:?}");
    // Values past u32 must be rejected, not truncated to a 2-GPU query.
    let out_of_range =
        ask(r#"{"model":"gpt3-1.3b","gpus":4294967298,"batch":8,"max_grad_accum":4294967304}"#);
    assert!(
        error(&out_of_range).contains("out of range"),
        "{out_of_range:?}"
    );
    let pong = ask(r#"{"cmd":"ping"}"#);
    assert_eq!(get(&pong, "pong"), Some(&Value::Bool(true)), "{pong:?}");

    ask(r#"{"cmd":"shutdown"}"#);
    let status = guard.0.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon must exit cleanly: {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}
