//! Protocol and supervision robustness: every failure mode a hostile or
//! unlucky client can produce must yield a structured error (or a clean
//! close) and leave the daemon fully serviceable. The handler here is a
//! millisecond-scale stub driven by directives in the "manifest" text,
//! so these tests exercise the daemon — queue, dedup, cancel, timeout,
//! poison, drain, recovery — without simulating a single circuit.

use qufi_obs::json::Value;
use qufi_serve::client::Client;
use qufi_serve::store::{JobState, Store};
use qufi_serve::{Config, HandlerOutcome, JobHandler, Server};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Directive-driven stub: the manifest text is a list of lines —
/// `name=<display>`, `sleep_ms=<n>` (cancel-aware), `fail=<n>` (error
/// the first n attempts), `panic` (always panic). Canonicalization
/// sorts the lines, so permuted submissions content-address together.
struct StubHandler {
    attempts: Mutex<HashMap<String, u32>>,
}

impl StubHandler {
    fn new() -> Arc<StubHandler> {
        Arc::new(StubHandler {
            attempts: Mutex::new(HashMap::new()),
        })
    }
}

impl JobHandler for StubHandler {
    fn canonicalize(&self, manifest: &str) -> Result<(String, String), String> {
        if manifest.contains("invalid") {
            return Err("stub: manifest marked invalid".to_string());
        }
        let mut lines: Vec<&str> = manifest
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort_unstable();
        let name = lines
            .iter()
            .find_map(|l| l.strip_prefix("name="))
            .unwrap_or("anonymous")
            .to_string();
        Ok((lines.join("\n"), name))
    }

    fn run(
        &self,
        manifest: &str,
        dir: &Path,
        cancel: &Arc<AtomicBool>,
    ) -> Result<HandlerOutcome, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let directive = |key: &str| -> Option<u64> {
            manifest
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.parse().ok())
        };
        if manifest.lines().any(|l| l.trim() == "panic") {
            panic!("stub: told to panic");
        }
        // A handler bug the daemon must absorb: report `Stopped` on the
        // first attempt with the cancel flag untouched.
        if manifest.lines().any(|l| l.trim() == "stop_once") {
            let mut attempts = self.attempts.lock().unwrap();
            let seen = attempts.entry(manifest.to_string()).or_insert(0);
            *seen += 1;
            if *seen == 1 {
                return Ok(HandlerOutcome::Stopped);
            }
        }
        if let Some(n) = directive("fail=") {
            let mut attempts = self.attempts.lock().unwrap();
            let seen = attempts.entry(manifest.to_string()).or_insert(0);
            *seen += 1;
            if u64::from(*seen) <= n {
                return Err(format!("stub: planned failure {seen}"));
            }
        }
        if let Some(ms) = directive("sleep_ms=") {
            let deadline = std::time::Instant::now() + Duration::from_millis(ms);
            while std::time::Instant::now() < deadline {
                if cancel.load(Ordering::SeqCst) {
                    return Ok(HandlerOutcome::Stopped);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        std::fs::write(dir.join("result.txt"), manifest).map_err(|e| e.to_string())?;
        Ok(HandlerOutcome::Complete)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qufi-serve-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str) -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        dir: temp_dir(tag),
        workers: 2,
        queue_cap: 8,
        conn_cap: 8,
        max_request: 4096,
        io_timeout: Duration::from_millis(400),
        job_timeout: None,
        max_strikes: 3,
    }
}

fn start(cfg: Config) -> (Server, Client) {
    let server = Server::start(cfg, StubHandler::new()).expect("server starts");
    let client = Client::connect(server.addr(), Duration::from_secs(2)).expect("client connects");
    (server, client)
}

fn drain(server: Server, client: &mut Client) {
    let reply = client.shutdown(true).expect("shutdown drain");
    assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
    server.wait().expect("drain exits cleanly");
}

fn str_field<'v>(reply: &'v Value, key: &str) -> &'v str {
    reply.get(key).and_then(Value::as_str).unwrap_or_else(|| {
        panic!("reply {reply:?} lacks string field {key:?}");
    })
}

#[test]
fn submit_runs_to_done_and_dedups_by_content() {
    let cfg = config("submit");
    let dir = cfg.dir.clone();
    let (server, mut client) = start(cfg);
    let reply = client.submit("name=alpha\nsleep_ms=5").unwrap();
    assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(reply.get("deduped"), Some(&Value::Bool(false)));
    let id = str_field(&reply, "job").to_string();
    let done = client
        .wait_for(&id, &["done"], Duration::from_secs(5))
        .unwrap();
    assert_eq!(str_field(&done, "state"), "done");
    assert!(dir.join("jobs").join(&id).join("result.txt").exists());

    // Same content, permuted lines → the same job, no second run.
    let again = client.submit("sleep_ms=5\nname=alpha").unwrap();
    assert_eq!(str_field(&again, "job"), id);
    assert_eq!(again.get("deduped"), Some(&Value::Bool(true)));
    assert_eq!(str_field(&again, "state"), "done");
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn invalid_manifest_is_a_structured_rejection() {
    let cfg = config("invalid");
    let dir = cfg.dir.clone();
    let (server, mut client) = start(cfg);
    let reply = client.submit("name=x\ninvalid").unwrap();
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        str_field(reply.get("error").unwrap(), "kind"),
        "invalid_manifest"
    );
    // Nothing persisted for a rejected submission.
    let list = client.list().unwrap();
    assert_eq!(list.get("jobs").unwrap().as_arr().unwrap().len(), 0);
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn flood_sheds_with_overloaded_and_health_stays_responsive() {
    let mut cfg = config("flood");
    cfg.workers = 1;
    cfg.queue_cap = 2;
    let dir = cfg.dir.clone();
    let (server, mut client) = start(cfg);
    // One long job occupies the worker; then flood distinct manifests.
    // Wait for the worker to take it first: on a loaded host the flood
    // can otherwise finish before the worker thread wakes.
    let blocker = client.submit("name=blocker\nsleep_ms=60000").unwrap();
    let blocker_id = str_field(&blocker, "job").to_string();
    client
        .wait_for(&blocker_id, &["running"], Duration::from_secs(5))
        .unwrap();
    let mut shed = 0;
    let mut admitted = Vec::new();
    for i in 0..10 {
        let reply = client
            .submit(&format!("name=flood-{i}\nsleep_ms=60000"))
            .unwrap();
        if reply.get("ok") == Some(&Value::Bool(true)) {
            admitted.push(str_field(&reply, "job").to_string());
        } else {
            assert_eq!(str_field(reply.get("error").unwrap(), "kind"), "overloaded");
            shed += 1;
        }
    }
    assert!(shed >= 8, "queue_cap=2 must shed most of 10: shed {shed}");
    assert!(admitted.len() <= 2);
    // Health answers immediately even at full load.
    let health = client.health().unwrap();
    assert_eq!(health.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(str_field(&health, "state"), "running");
    assert_eq!(health.get("running").unwrap().as_u64(), Some(1));
    // Unwedge: cancel everything, then drain.
    client.cancel(&blocker_id).unwrap();
    for id in &admitted {
        client.cancel(id).unwrap();
    }
    client
        .wait_for(&blocker_id, &["canceled"], Duration::from_secs(5))
        .unwrap();
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn torn_and_oversized_and_garbage_frames_leave_the_daemon_clean() {
    let cfg = config("frames");
    let dir = cfg.dir.clone();
    let max_request = cfg.max_request;
    let (server, client) = start(cfg);
    let addr = server.addr();

    // Torn frame: half a request, then close. Daemon must not care.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"{\"op\":\"sub").unwrap();
    }
    // Oversized frame: a single line over the cap → structured too_large.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let huge = vec![b'x'; max_request + 64];
        raw.write_all(&huge).unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).unwrap();
        assert!(reply.contains("\"too_large\""), "{reply:?}");
    }
    // Garbage then a valid request on the SAME connection: bad_request
    // does not burn the connection.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        raw.write_all(b"not json at all\n{\"op\":\"health\"}\n")
            .unwrap();
        let mut reader = std::io::BufReader::new(raw);
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert!(line.contains("\"bad_request\""), "{line:?}");
        line.clear();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line:?}");
    }
    // A fresh protocol client still works after all of the above (the
    // original may itself have idled past the server's read deadline).
    drop(client);
    let mut client = Client::connect(addr, Duration::from_secs(2)).unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.get("ok"), Some(&Value::Bool(true)));
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn idle_socket_hits_the_read_deadline() {
    let cfg = config("idle");
    let dir = cfg.dir.clone();
    let io_timeout = cfg.io_timeout;
    let (server, client) = start(cfg);
    drop(client); // it would idle out right alongside the raw socket
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(io_timeout * 10)).unwrap();
    // Send nothing; the server must give up on us, not hold the slot.
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.contains("\"timeout\""), "{reply:?}");
    let mut client = Client::connect(server.addr(), Duration::from_secs(2)).unwrap();
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cancel_running_job_lands_on_canceled_and_resubmit_requeues() {
    let cfg = config("cancel");
    let dir = cfg.dir.clone();
    let (server, mut client) = start(cfg);
    let manifest = "name=c\nsleep_ms=60000";
    let id = str_field(&client.submit(manifest).unwrap(), "job").to_string();
    client
        .wait_for(&id, &["running"], Duration::from_secs(5))
        .unwrap();
    // Concurrent cancel + status racing must both stay structured.
    let reply = client.cancel(&id).unwrap();
    assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
    let settled = client
        .wait_for(&id, &["canceled"], Duration::from_secs(5))
        .unwrap();
    assert_eq!(str_field(&settled, "state"), "canceled");
    // Explicit resubmission of a canceled job re-admits it (same id).
    let again = client.submit("sleep_ms=60000\nname=c").unwrap();
    assert_eq!(str_field(&again, "job"), id);
    assert_eq!(again.get("deduped"), Some(&Value::Bool(false)));
    client
        .wait_for(&id, &["running"], Duration::from_secs(5))
        .unwrap();
    client.cancel(&id).unwrap();
    client
        .wait_for(&id, &["canceled"], Duration::from_secs(5))
        .unwrap();
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn job_timeout_fails_the_job_with_a_timeout_error() {
    let mut cfg = config("timeout");
    cfg.job_timeout = Some(Duration::from_millis(60));
    let dir = cfg.dir.clone();
    let (server, mut client) = start(cfg);
    let id = str_field(&client.submit("name=slow\nsleep_ms=60000").unwrap(), "job").to_string();
    let settled = client
        .wait_for(&id, &["failed"], Duration::from_secs(5))
        .unwrap();
    assert!(
        str_field(&settled, "error").contains("timeout"),
        "{settled:?}"
    );
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn transient_failures_retry_then_poison_after_three_strikes() {
    let cfg = config("poison");
    let dir = cfg.dir.clone();
    let (server, mut client) = start(cfg);
    // Fails twice, succeeds on the third attempt → retried to done.
    let healing = str_field(&client.submit("name=healing\nfail=2").unwrap(), "job").to_string();
    let healed = client
        .wait_for(&healing, &["done", "poisoned"], Duration::from_secs(10))
        .unwrap();
    assert_eq!(str_field(&healed, "state"), "done");
    assert_eq!(healed.get("fails").unwrap().as_u64(), Some(2));

    // Panics every attempt → quarantined after max_strikes, daemon alive.
    let doomed = str_field(&client.submit("name=doomed\npanic").unwrap(), "job").to_string();
    let settled = client
        .wait_for(&doomed, &["poisoned"], Duration::from_secs(10))
        .unwrap();
    assert_eq!(settled.get("fails").unwrap().as_u64(), Some(3));
    assert!(
        str_field(&settled, "error").contains("panic"),
        "{settled:?}"
    );
    // A poisoned job stays quarantined on resubmission.
    let again = client.submit("name=doomed\npanic").unwrap();
    assert_eq!(again.get("deduped"), Some(&Value::Bool(true)));
    assert_eq!(str_field(&again, "state"), "poisoned");
    // And the daemon still serves fresh work.
    let ok = str_field(&client.submit("name=after\nsleep_ms=1").unwrap(), "job").to_string();
    client
        .wait_for(&ok, &["done"], Duration::from_secs(5))
        .unwrap();
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn colliding_job_id_with_different_manifest_is_rejected_not_aliased() {
    let cfg = config("collision");
    let dir = cfg.dir.clone();
    // Seed a finished job whose id is the content address of a DIFFERENT
    // manifest — exactly what a 64-bit hash collision between two
    // tenants' manifests would produce.
    let victim_manifest = "name=victim\nsleep_ms=1";
    let colliding_id = qufi_serve::job_id(victim_manifest);
    {
        let store = Store::open(&dir).unwrap();
        store
            .save(&qufi_serve::JobRecord {
                id: colliding_id.clone(),
                name: "innocent".to_string(),
                state: JobState::Done,
                manifest: "name=innocent\nsleep_ms=1".to_string(),
                fails: 0,
                error: None,
                seq: 0,
            })
            .unwrap();
    }
    let (server, mut client) = start(cfg);
    // Submitting the colliding manifest must NOT dedup onto the stored
    // job (wrong tenant, shared job_dir) — it is a structured rejection.
    let reply = client.submit(victim_manifest).unwrap();
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(str_field(reply.get("error").unwrap(), "kind"), "internal");
    assert!(
        str_field(reply.get("error").unwrap(), "message").contains("collision"),
        "{reply:?}"
    );
    // The stored job is untouched and the daemon stays serviceable.
    let status = client.status(&colliding_id).unwrap();
    assert_eq!(str_field(&status, "state"), "done");
    assert_eq!(str_field(&status, "name"), "innocent");
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn spurious_stop_requeues_the_job_instead_of_stranding_it() {
    let mut cfg = config("spurious");
    cfg.workers = 1;
    let dir = cfg.dir.clone();
    let (server, mut client) = start(cfg);
    // The stub reports `Stopped` on attempt 1 with nobody having flipped
    // the cancel flag; the daemon must put the job back on the live
    // queue (not just the durable one) so attempt 2 completes.
    let id = str_field(&client.submit("name=flaky\nstop_once").unwrap(), "job").to_string();
    let settled = client
        .wait_for(&id, &["done"], Duration::from_secs(5))
        .unwrap();
    assert_eq!(str_field(&settled, "state"), "done");
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn restart_recovers_the_durable_queue_in_order() {
    let cfg = config("recover");
    let dir = cfg.dir.clone();
    // Seed the store as a dead daemon would have left it: one job
    // mid-run, one still queued. (The config is built first — its
    // temp-dir reset must not run after seeding.)
    {
        let store = Store::open(&dir).unwrap();
        for (i, (id, state)) in [("ja", JobState::Running), ("jb", JobState::Queued)]
            .into_iter()
            .enumerate()
        {
            store
                .save(&qufi_serve::JobRecord {
                    id: id.to_string(),
                    name: format!("recovered-{i}"),
                    state,
                    manifest: format!("name=recovered-{i}\nsleep_ms=1"),
                    fails: 0,
                    error: None,
                    seq: i as u64,
                })
                .unwrap();
        }
    }
    let (server, mut client) = start(cfg);
    for id in ["ja", "jb"] {
        let settled = client
            .wait_for(id, &["done"], Duration::from_secs(5))
            .unwrap();
        assert_eq!(str_field(&settled, "state"), "done");
    }
    drain(server, &mut client);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn drain_stops_admissions_and_persists_queued_jobs() {
    let mut cfg = config("drain");
    cfg.workers = 1;
    let dir = cfg.dir.clone();
    let (server, mut client) = start(cfg);
    let running = str_field(
        &client.submit("name=inflight\nsleep_ms=300").unwrap(),
        "job",
    )
    .to_string();
    client
        .wait_for(&running, &["running"], Duration::from_secs(5))
        .unwrap();
    let queued = str_field(&client.submit("name=waiting\nsleep_ms=1").unwrap(), "job").to_string();

    let reply = client.shutdown(true).unwrap();
    assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
    // Post-shutdown submissions are refused with `draining`.
    let refused = client.submit("name=late\nsleep_ms=1").unwrap();
    assert_eq!(str_field(refused.get("error").unwrap(), "kind"), "draining");
    server.wait().unwrap();

    // The in-flight job finished; the queued one survived as `queued`.
    let store = Store::open(&dir).unwrap();
    let (records, _) = store.load_all().unwrap();
    let by_id = |id: &str| records.iter().find(|r| r.id == id).unwrap().state;
    assert_eq!(by_id(&running), JobState::Done);
    assert_eq!(by_id(&queued), JobState::Queued);
    let _ = std::fs::remove_dir_all(dir);
}
