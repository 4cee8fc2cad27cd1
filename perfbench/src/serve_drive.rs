//! The serve-mix load: a closed loop of tenants, each on one connection,
//! keeping `INFLIGHT` campaigns submitted and polling their status,
//! submitting the next one whenever one finishes. Closed loop because a
//! tenant waits for its own jobs: a slower daemon receives less load.

use crate::tracer::Tracer;
use qufi_obs::json::Value;
use qufi_serve::client::Client;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Duration;

/// Campaigns each tenant keeps in flight: with as many tenants as the
/// daemon has workers, more than one each keeps its queue from running dry.
const INFLIGHT: usize = 2;

/// Pause after a status round in which no job finished: the interval at
/// which the program's own client (`Client::wait_for`) polls.
const POLL: Duration = Duration::from_millis(15);

/// One generated submission.
pub struct Submission {
    pub tenant: usize,
    pub name: String,
    pub manifest: String,
}

/// What happened to one submission, on the tracer's millisecond clock.
pub struct Outcome {
    pub index: usize,
    pub name: String,
    pub tenant: usize,
    pub job: String,
    pub submit_ms: f64,
    pub ack_ms: f64,
    /// First status reply that showed the job running (or already done).
    pub started_ms: Option<f64>,
    /// First status reply that showed the job done.
    pub done_ms: Option<f64>,
    /// Final state, or `refused:<kind>` / `deduped` for a submit that
    /// admitted no new work.
    pub state: String,
}

/// Runs the closed loop to completion and returns every outcome in
/// submission order.
///
/// # Errors
///
/// Transport failures and unparseable replies.
pub fn drive(
    tracer: &Tracer,
    addr: &str,
    subs: &[Submission],
    tenants: usize,
) -> Result<Vec<Outcome>, String> {
    let root = tracer.span("run", 0);
    let root_id = root.id();
    let mut outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..tenants)
            .map(|t| {
                let mine: VecDeque<(usize, &Submission)> = subs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.tenant == t)
                    .collect();
                scope.spawn(move || {
                    let _tenant = tracer.child_of("serve.tenant", 0, root_id);
                    tenant_loop(tracer, addr, mine)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(subs.len());
        for h in handles {
            all.extend(h.join().expect("tenant thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;
    drop(root);
    outcomes.sort_by_key(|o| o.index);
    Ok(outcomes)
}

fn tenant_loop(
    tracer: &Tracer,
    addr: &str,
    mut queue: VecDeque<(usize, &Submission)>,
) -> Result<Vec<Outcome>, String> {
    let mut client = Client::connect(addr, Duration::from_secs(30))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut live: Vec<Outcome> = Vec::new();
    let mut finished = Vec::new();
    loop {
        while live.len() < INFLIGHT {
            let Some((index, sub)) = queue.pop_front() else {
                break;
            };
            let submit_ms = tracer.now_ms();
            let reply = {
                let _s = tracer.span("serve.submit", index as u64 + 1);
                client.submit(&sub.manifest)
            }
            .map_err(|e| format!("submit {}: {e}", sub.name))?;
            let mut outcome = Outcome {
                index,
                name: sub.name.clone(),
                tenant: sub.tenant,
                job: String::new(),
                submit_ms,
                ack_ms: tracer.now_ms(),
                started_ms: None,
                done_ms: None,
                state: String::new(),
            };
            if reply.get("ok") != Some(&Value::Bool(true)) {
                let kind = reply
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Value::as_str)
                    .unwrap_or("unknown");
                outcome.state = format!("refused:{kind}");
                finished.push(outcome);
                continue;
            }
            if reply.get("deduped") == Some(&Value::Bool(true)) {
                outcome.state = "deduped".to_string();
                finished.push(outcome);
                continue;
            }
            outcome.job = reply
                .get("job")
                .and_then(Value::as_str)
                .ok_or("submit reply without a job id")?
                .to_string();
            live.push(outcome);
        }
        if live.is_empty() {
            break;
        }
        let mut any_finished = false;
        let mut i = 0;
        while i < live.len() {
            let o = &mut live[i];
            let reply = {
                let _s = tracer.span("serve.status", o.index as u64 + 1);
                client.status(&o.job)
            }
            .map_err(|e| format!("status {}: {e}", o.job))?;
            let now = tracer.now_ms();
            let state = reply
                .get("state")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string();
            match state.as_str() {
                "queued" => {}
                "running" => {
                    o.started_ms.get_or_insert(now);
                }
                "done" => {
                    o.started_ms.get_or_insert(now);
                    o.done_ms = Some(now);
                }
                _ => {}
            }
            if state == "queued" || state == "running" {
                i += 1;
                continue;
            }
            o.state = state;
            finished.push(live.swap_remove(i));
            any_finished = true;
        }
        if !any_finished {
            std::thread::sleep(POLL);
        }
    }
    Ok(finished)
}

/// Renders outcomes as the JSON array `run.py` reads.
pub fn outcomes_json(outcomes: &[Outcome]) -> String {
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.4}"));
    let mut out = String::from("[");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"index\":{},\"name\":{},\"tenant\":{},\"job\":{},\"submit_ms\":{:.4},\
             \"ack_ms\":{:.4},\"started_ms\":{},\"done_ms\":{},\"state\":{}}}",
            if i == 0 { "" } else { "," },
            o.index,
            qufi_obs::json::quote(&o.name),
            o.tenant,
            qufi_obs::json::quote(&o.job),
            o.submit_ms,
            o.ack_ms,
            opt(o.started_ms),
            opt(o.done_ms),
            qufi_obs::json::quote(&o.state),
        );
    }
    out.push(']');
    out
}
