//! The newline-delimited JSON wire protocol between `dmdp submit` and
//! `dmdp serve`, and between `dmdp serve --workers` and its children.
//!
//! Framing is one JSON document per line (the compact writer never emits
//! an embedded newline), read back with a [`LineReader`] that survives
//! socket read timeouts without losing partial lines. Everything rides
//! on `harness::json` — no new dependencies, and the documents are the
//! same shapes the campaign artifacts already use. Messages that carry
//! result rows (the `artifact` reply and `group_done`) are written and
//! read member by member through `JobResult::write`/`read`, never as a
//! [`Json`] tree; every other message is a tree.
//!
//! Requests (client → daemon): `submit`, `metrics`, `shutdown`, `ping`.
//! Responses (daemon → client): `finished` job events (when the submit
//! asked to watch), a final `artifact` carrying the complete assembled
//! campaign, `metrics` (the daemon's one status reply), `ok`, `pong`, or
//! `error`.
//!
//! The worker dialect runs over a spawned child's stdin and stdout,
//! never over a daemon socket. The coordinator writes `group`
//! dispatches ([`GroupSpec`] — one batch unit or singleton job group,
//! keyed by a dispatch id) to the child's stdin, and the child answers
//! each on its stdout with `group_done` (the members' executed
//! [`JobResult`] rows, with no source tag: a worker only executes) or
//! `group_failed`. The coordinator alone writes those rows to the
//! store. End of file ends the link either way: on stdin it is the
//! drain order, on stdout it means the child is gone.

use std::io::{BufRead, BufReader, Read, Write};

use dmdp_core::CommModel;
use dmdp_harness::json::obj;
use dmdp_harness::{CampaignSpec, CfgPatch, Field, JobResult, Json, Parser, Sampling, Writer};
use dmdp_workloads::Scale;

/// Bumped when the wire format changes incompatibly. The daemon answers
/// `ping` with its version so clients can refuse to talk across a gap.
/// 2 = sharded-service worker dialect.
pub const PROTOCOL_VERSION: u64 = 2;

/// A line longer than this is a protocol violation, not a message —
/// the largest legitimate document (a full-campaign artifact) is well
/// under a megabyte.
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// A campaign submission: the declarative spec fields of
/// [`dmdp_harness::CampaignSpec`], plus whether the client wants per-job
/// progress events streamed back before the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Campaign name (also the client's default artifact stem).
    pub name: String,
    /// Workload scale for every job.
    pub scale: Scale,
    /// Communication models to sweep.
    pub models: Vec<CommModel>,
    /// Workload-name filter; `None` means all 21 kernels.
    pub kernels: Option<Vec<String>>,
    /// Configuration variants as `(label, patch)`.
    pub variants: Vec<(String, CfgPatch)>,
    /// Stream a `finished` event per job before the artifact.
    pub watch: bool,
    /// Run every job sampled (interval clustering + checkpoint
    /// fast-forward). Absent on the wire means full simulation, so old
    /// clients are unaffected.
    pub sampling: Option<Sampling>,
}

impl SubmitRequest {
    /// A request over all kernels, all models, the main variant.
    pub fn new(name: &str, scale: Scale) -> SubmitRequest {
        SubmitRequest {
            name: name.to_string(),
            scale,
            models: CommModel::ALL.to_vec(),
            kernels: None,
            variants: vec![("main".to_string(), CfgPatch::default())],
            watch: false,
            sampling: None,
        }
    }

    /// The campaign this request asks for.
    pub fn campaign(&self) -> CampaignSpec {
        let spec = CampaignSpec::new(&self.name, self.scale).models(self.models.clone());
        CampaignSpec { kernels: self.kernels.clone(), variants: self.variants.clone(), sampling: self.sampling, ..spec }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or fetch) a campaign.
    Submit(SubmitRequest),
    /// Report the full metrics registry snapshot.
    Metrics,
    /// Drain running jobs, then exit.
    Shutdown,
    /// Liveness / version check.
    Ping,
}

fn variants_json(variants: &[(String, CfgPatch)]) -> Json {
    Json::Arr(
        variants
            .iter()
            .map(|(label, patch)| obj([("label", Json::Str(label.clone())), ("patch", patch.to_json())]))
            .collect(),
    )
}

/// Parses a non-empty `[{label, patch?}]` array; `what` prefixes errors.
fn variants_from_json(v: &Json, what: &str) -> Result<Vec<(String, CfgPatch)>, String> {
    let variants = v
        .as_arr()
        .ok_or_else(|| format!("{what}: `variants` must be an array"))?
        .iter()
        .map(|entry| {
            let label = entry
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{what}: variant missing `label`"))?;
            let patch = entry.get("patch").map(CfgPatch::from_json).transpose()?.unwrap_or_default();
            Ok((label.to_string(), patch))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if variants.is_empty() {
        return Err(format!("{what}: empty `variants` array"));
    }
    Ok(variants)
}

fn sampling_json(s: Sampling) -> Json {
    obj([
        ("interval_insns", Json::Num(s.interval_insns as f64)),
        ("warmup_intervals", Json::Num(s.warmup_intervals as f64)),
    ])
}

/// Parses the optional `sampling` member; `what` prefixes errors.
fn sampling_from_json(v: &Json, what: &str) -> Result<Option<Sampling>, String> {
    let Some(s) = v.get("sampling") else { return Ok(None) };
    let interval_insns = s
        .get("interval_insns")
        .and_then(Json::as_u64)
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{what}: `sampling.interval_insns` must be positive"))?;
    let warmup_intervals = s
        .get("warmup_intervals")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: `sampling.warmup_intervals` must be a count"))?;
    Ok(Some(Sampling { interval_insns, warmup_intervals: warmup_intervals as u32 }))
}

impl Request {
    /// Serializes the request to one wire document.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Metrics => obj([("type", Json::Str("metrics".into()))]),
            Request::Shutdown => obj([("type", Json::Str("shutdown".into()))]),
            Request::Ping => obj([
                ("type", Json::Str("ping".into())),
                ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
            ]),
            Request::Submit(req) => {
                let mut members = vec![
                    ("type".to_string(), Json::Str("submit".into())),
                    ("name".to_string(), Json::Str(req.name.clone())),
                    ("scale".to_string(), Json::Str(req.scale.name().to_string())),
                    (
                        "models".to_string(),
                        Json::Arr(
                            req.models.iter().map(|m| Json::Str(m.name().to_string())).collect(),
                        ),
                    ),
                    ("variants".to_string(), variants_json(&req.variants)),
                    ("watch".to_string(), Json::Bool(req.watch)),
                ];
                if let Some(kernels) = &req.kernels {
                    members.push((
                        "kernels".to_string(),
                        Json::Arr(kernels.iter().map(|k| Json::Str(k.clone())).collect()),
                    ));
                }
                if let Some(s) = req.sampling {
                    members.push(("sampling".to_string(), sampling_json(s)));
                }
                Json::Obj(members)
            }
        }
    }

    /// Parses one wire document into a request.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        match v.get("type").and_then(Json::as_str) {
            Some("metrics") => Ok(Request::Metrics),
            Some("shutdown") => Ok(Request::Shutdown),
            Some("ping") => Ok(Request::Ping),
            Some("submit") => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("submit: missing `name`")?
                    .to_string();
                let scale_name =
                    v.get("scale").and_then(Json::as_str).ok_or("submit: missing `scale`")?;
                let scale = Scale::from_name(scale_name)
                    .ok_or_else(|| format!("submit: unknown scale `{scale_name}`"))?;
                let models = v
                    .get("models")
                    .and_then(Json::as_arr)
                    .ok_or("submit: missing `models` array")?
                    .iter()
                    .map(|m| {
                        let name = m.as_str().ok_or("submit: model names must be strings")?;
                        CommModel::from_name(name)
                            .ok_or_else(|| format!("submit: unknown model `{name}`"))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                if models.is_empty() {
                    return Err("submit: empty `models` array".to_string());
                }
                let kernels = match v.get("kernels") {
                    None => None,
                    Some(arr) => Some(
                        arr.as_arr()
                            .ok_or("submit: `kernels` must be an array")?
                            .iter()
                            .map(|k| {
                                k.as_str()
                                    .map(str::to_string)
                                    .ok_or_else(|| "submit: kernel names must be strings".to_string())
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                    ),
                };
                let variants = match v.get("variants") {
                    None => vec![("main".to_string(), CfgPatch::default())],
                    Some(arr) => variants_from_json(arr, "submit")?,
                };
                // Duplicate labels would collide silently in artifacts
                // and reports — refuse the submission outright.
                for (i, (label, _)) in variants.iter().enumerate() {
                    if variants[..i].iter().any(|(prior, _)| prior == label) {
                        return Err(format!(
                            "submit: duplicate variant label `{label}`: variant labels \
                             must be unique"
                        ));
                    }
                }
                let sampling = sampling_from_json(v, "submit")?;
                Ok(Request::Submit(SubmitRequest {
                    name,
                    scale,
                    models,
                    kernels,
                    variants,
                    watch: v.get("watch").and_then(Json::as_bool).unwrap_or(false),
                    sampling,
                }))
            }
            Some(other) => Err(format!("unknown request type `{other}`")),
            None => Err("request has no `type`".to_string()),
        }
    }
}

/// `finished` event: the job's result is in. `source` says how it was
/// satisfied: `"executed"`, `"store"`, or `"dedup"` (another client's
/// identical in-flight job).
pub fn finished_msg(index: usize, result: &JobResult, source: &str) -> Json {
    obj([
        ("type", Json::Str("finished".into())),
        ("index", Json::Num(index as f64)),
        ("workload", Json::Str(result.workload.clone())),
        ("model", Json::Str(result.model.name().to_string())),
        ("variant", Json::Str(result.variant.clone())),
        ("digest", Json::Str(result.digest.clone())),
        ("ipc", Json::Num(result.ipc)),
        ("wall_s", Json::Num(result.wall_s)),
        ("source", Json::Str(source.to_string())),
    ])
}

/// `metrics` response: the full registry snapshot as one wire document.
/// Counters and gauges carry a scalar `value`; histograms carry `count`,
/// `sum`, and the non-empty log₂ `buckets` as `[le, cumulative_count]`
/// pairs (`le` of -1 encodes the +Inf overflow bucket).
pub fn metrics_msg(snapshot: &dmdp_obs::Snapshot) -> Json {
    use dmdp_obs::{LogHistogram, SnapshotValue, HISTOGRAM_BUCKETS};
    let entries = snapshot
        .entries
        .iter()
        .map(|e| {
            let mut members = vec![
                ("name".to_string(), Json::Str(e.name.clone())),
                ("kind".to_string(), Json::Str(e.value.kind().to_string())),
            ];
            if !e.labels.is_empty() {
                members.push((
                    "labels".to_string(),
                    Json::Obj(
                        e.labels
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                            .collect(),
                    ),
                ));
            }
            match &e.value {
                SnapshotValue::Counter(v) => {
                    members.push(("value".to_string(), Json::Num(*v as f64)));
                }
                SnapshotValue::Gauge(v) => {
                    members.push(("value".to_string(), Json::Num(*v as f64)));
                }
                SnapshotValue::Histogram(h) => {
                    members.push(("count".to_string(), Json::Num(h.count as f64)));
                    members.push(("sum".to_string(), Json::Num(h.sum as f64)));
                    let mut cum = 0u64;
                    let mut buckets = Vec::new();
                    for (i, &b) in h.buckets.iter().enumerate() {
                        cum = cum.saturating_add(b);
                        if b == 0 {
                            continue;
                        }
                        let le = if i >= HISTOGRAM_BUCKETS - 1 {
                            -1.0
                        } else {
                            LogHistogram::bucket_bound(i) as f64
                        };
                        buckets.push(Json::Arr(vec![
                            Json::Num(le),
                            Json::Num(cum as f64),
                        ]));
                    }
                    members.push(("buckets".to_string(), Json::Arr(buckets)));
                }
            }
            Json::Obj(members)
        })
        .collect();
    obj([
        ("type", Json::Str("metrics".into())),
        ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
        ("metrics", Json::Arr(entries)),
    ])
}

/// One dispatchable job group: the claimed misses of one unit carved by
/// [`dmdp_harness::partition_units`] — config variants of one (workload,
/// model), or a single sampled job. The worker rebuilds the same
/// [`dmdp_harness::JobSpec`]s from its own resident images; digests are
/// content-derived, so both sides agree on every row's identity without
/// shipping program bytes. A multi-member group runs through one batch
/// engine over a shared front end.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Workload name (resolved against the worker's resident images).
    pub workload: String,
    /// Workload scale.
    pub scale: Scale,
    /// Communication model every member runs under.
    pub model: CommModel,
    /// Member variants in campaign order as `(label, patch)`.
    pub variants: Vec<(String, CfgPatch)>,
    /// Sampled execution (checkpoint fast-forward); the worker reads
    /// the bundle's blob from the store directory or rebuilds it.
    /// Sampled groups are always singletons.
    pub sampling: Option<Sampling>,
}

impl GroupSpec {
    /// The campaign whose job list is this group's members, in order.
    pub fn campaign(&self) -> CampaignSpec {
        let spec = CampaignSpec::new(&self.workload, self.scale).models([self.model]).kernels([&self.workload]);
        CampaignSpec { variants: self.variants.clone(), sampling: self.sampling, ..spec }
    }

    /// Serializes the group body (embedded in a `group` dispatch).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("scale".to_string(), Json::Str(self.scale.name().to_string())),
            ("model".to_string(), Json::Str(self.model.name().to_string())),
            ("variants".to_string(), variants_json(&self.variants)),
        ];
        if let Some(s) = self.sampling {
            members.push(("sampling".to_string(), sampling_json(s)));
        }
        Json::Obj(members)
    }

    /// Parses a group body.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<GroupSpec, String> {
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("group: missing `workload`")?
            .to_string();
        let scale_name = v.get("scale").and_then(Json::as_str).ok_or("group: missing `scale`")?;
        let scale = Scale::from_name(scale_name)
            .ok_or_else(|| format!("group: unknown scale `{scale_name}`"))?;
        let model_name = v.get("model").and_then(Json::as_str).ok_or("group: missing `model`")?;
        let model = CommModel::from_name(model_name)
            .ok_or_else(|| format!("group: unknown model `{model_name}`"))?;
        let variants =
            variants_from_json(v.get("variants").ok_or("group: missing `variants` array")?, "group")?;
        let sampling = sampling_from_json(v, "group")?;
        Ok(GroupSpec {
            workload,
            scale,
            model,
            variants,
            sampling,
        })
    }
}

/// `group`: coordinator → worker job-group dispatch.
pub fn group_msg(id: u64, spec: &GroupSpec) -> Json {
    obj([
        ("type", Json::Str("group".into())),
        ("id", Json::Num(id as f64)),
        ("group", spec.to_json()),
    ])
}

/// Room reserved per result row in a line that carries rows, above the
/// 600–700 bytes of a compact row, so the line is allocated once.
pub(crate) const ROW_LINE_BYTES: usize = 1024;

/// `group_done`: worker → coordinator, all members executed, as one line
/// with its newline: `rows` holds each member's full result in dispatch
/// order.
pub fn group_done_line(id: u64, rows: &[JobResult]) -> String {
    let mut line = String::with_capacity(ROW_LINE_BYTES * (rows.len() + 1));
    Writer::new(&mut line, false).object(|w| {
        w.key("type").str("group_done");
        w.key("id").count(id);
        w.key("rows").array(|w| {
            for r in rows {
                r.write(w.elem());
            }
        });
    });
    line.push('\n');
    line
}

/// `group_failed`: worker → coordinator, the group errored as a whole.
pub fn group_failed_msg(id: u64, error: &str) -> Json {
    obj([
        ("type", Json::Str("group_failed".into())),
        ("id", Json::Num(id as f64)),
        ("error", Json::Str(error.to_string())),
    ])
}

/// A parsed worker → coordinator message.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// A dispatched group's members all executed.
    GroupDone {
        /// The dispatch id from the `group` message.
        id: u64,
        /// One row per member, in dispatch order.
        rows: Vec<JobResult>,
    },
    /// A dispatched group failed as a whole.
    GroupFailed {
        /// The dispatch id from the `group` message.
        id: u64,
        /// The worker's error message.
        error: String,
    },
}

impl WorkerMsg {
    /// Parses one line of a worker's stdout, reading each row with
    /// [`JobResult::read`].
    ///
    /// # Errors
    ///
    /// A syntax error, or a message naming the missing or malformed
    /// field.
    pub fn parse(line: &str) -> Result<WorkerMsg, String> {
        let (mut kind, mut id, mut rows, mut error) =
            (Field::default(), Field::default(), Field::default(), Field::default());
        Parser::document(line, |p| {
            p.members(|p, key| match key {
                "type" => kind.read(p, Parser::string),
                "id" => id.read(p, Parser::count),
                "rows" => rows.read(p, read_group_rows),
                "error" => error.read(p, Parser::string),
                _ => p.skip(),
            })
        })?;
        match kind.get().as_deref() {
            Some("group_done") => Ok(WorkerMsg::GroupDone {
                id: id.get().ok_or("group_done: missing `id`")?,
                rows: rows.get().ok_or("group_done: missing `rows` array")?,
            }),
            Some("group_failed") => Ok(WorkerMsg::GroupFailed {
                id: id.get().ok_or("group_failed: missing `id`")?,
                error: error.get().unwrap_or_else(|| "worker reported an unnamed failure".to_string()),
            }),
            Some(other) => Err(format!("unknown worker message type `{other}`")),
            None => Err("worker message has no `type`".to_string()),
        }
    }
}

/// A `group_done` message's `rows`: `None` when it is not an array.
fn read_group_rows(p: &mut Parser) -> Result<Option<Vec<JobResult>>, String> {
    let mut rows = Vec::new();
    let found = p.elements(|p| {
        rows.push(JobResult::read(p)?);
        Ok(())
    })?;
    Ok(found.then_some(rows))
}

/// Parses one line of a worker's stdin: a `group` dispatch, as its
/// dispatch id and group.
///
/// # Errors
///
/// Any other message type, or a message naming the missing or malformed
/// field.
pub fn parse_group_msg(v: &Json) -> Result<(u64, GroupSpec), String> {
    match v.get("type").and_then(Json::as_str) {
        Some("group") => Ok((
            v.get("id").and_then(Json::as_u64).ok_or("group: missing `id`")?,
            GroupSpec::from_json(v.get("group").ok_or("group: missing `group` body")?)?,
        )),
        Some(other) => Err(format!("unknown coordinator message type `{other}`")),
        None => Err("coordinator message has no `type`".to_string()),
    }
}

/// Error response. The connection may close after a protocol-level error.
pub fn error_msg(message: &str) -> Json {
    obj([("type", Json::Str("error".into())), ("message", Json::Str(message.to_string()))])
}

/// Bare acknowledgement.
pub fn ok_msg() -> Json {
    obj([("type", Json::Str("ok".into()))])
}

/// `ping` response with the daemon's protocol version.
pub fn pong_msg() -> Json {
    obj([
        ("type", Json::Str("pong".into())),
        ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
    ])
}

/// Writes one message as a single line and flushes it onto the wire.
///
/// # Errors
///
/// Propagates I/O errors, stringified.
pub fn write_msg<W: Write>(w: &mut W, msg: &Json) -> Result<(), String> {
    let mut line = msg.compact();
    line.push('\n');
    write_line(w, &line)
}

/// Writes one complete line, its newline included, in a single write and
/// flushes it onto the wire.
///
/// # Errors
///
/// Propagates I/O errors, stringified.
pub(crate) fn write_line<W: Write>(w: &mut W, line: &str) -> Result<(), String> {
    w.write_all(line.as_bytes()).and_then(|()| w.flush()).map_err(|e| format!("write: {e}"))
}

/// [`write_msg`] through a writer shared between threads.
pub(crate) fn write_locked<W: Write>(writer: &std::sync::Mutex<W>, msg: &Json) -> Result<(), String> {
    write_msg(&mut *writer.lock().unwrap(), msg)
}

/// What one [`LineReader::read_line`] call produced.
#[derive(Debug)]
pub enum LineEvent {
    /// A complete line (without its newline).
    Line(String),
    /// The peer closed the connection at a line boundary.
    Eof,
    /// A read timeout expired with no complete line yet; any partial
    /// line is retained for the next call. Lets the daemon poll its
    /// shutdown flag without losing buffered bytes.
    Idle,
}

/// Bytes [`LineReader`] asks the socket for at a time.
const READ_CHUNK: usize = 64 * 1024;

/// A newline-framed reader that tolerates read timeouts: bytes received
/// before a timeout stay buffered, so a message split across reads (or
/// delivered slowly) is reassembled correctly. Each
/// received byte is looked at once, so framing a line costs time linear
/// in its length however many reads it arrives in.
pub struct LineReader<R> {
    inner: BufReader<R>,
    /// The line so far, newline not yet seen.
    line: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    /// Wraps a raw byte stream.
    pub fn new(inner: R) -> LineReader<R> {
        LineReader { inner: BufReader::with_capacity(READ_CHUNK, inner), line: Vec::new() }
    }

    /// Reads until a newline, EOF, or a socket timeout.
    ///
    /// # Errors
    ///
    /// Mid-line EOF (truncated message), a line over [`MAX_LINE_BYTES`],
    /// invalid UTF-8, or any other I/O error.
    pub fn read_line(&mut self) -> Result<LineEvent, String> {
        // One byte past the cap tells a line that fits from one that does not.
        let room = (MAX_LINE_BYTES + 1).saturating_sub(self.line.len()) as u64;
        match (&mut self.inner).take(room).read_until(b'\n', &mut self.line) {
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(LineEvent::Idle);
            }
            Err(e) => return Err(format!("read: {e}")),
        }
        if self.line.last() != Some(&b'\n') {
            return if self.line.len() > MAX_LINE_BYTES {
                Err(format!("protocol: line exceeds {MAX_LINE_BYTES} bytes"))
            } else if self.line.is_empty() {
                Ok(LineEvent::Eof)
            } else {
                Err("protocol: connection closed mid-message".to_string())
            };
        }
        self.line.pop();
        if self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        String::from_utf8(std::mem::take(&mut self.line))
            .map(LineEvent::Line)
            .map_err(|_| "protocol: invalid UTF-8 on the wire".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Metrics,
            Request::Shutdown,
            Request::Ping,
            Request::Submit(SubmitRequest::new("full", Scale::Test)),
            Request::Submit(SubmitRequest {
                name: "sweep".into(),
                scale: Scale::Small,
                models: vec![CommModel::NoSq, CommModel::Dmdp],
                kernels: Some(vec!["lib".into(), "mcf".into()]),
                variants: vec![
                    ("main".into(), CfgPatch::default()),
                    ("rob128".into(), CfgPatch { rob: Some(128), ..CfgPatch::default() }),
                    ("rmo".into(), CfgPatch { rmo: true, ..CfgPatch::default() }),
                    ("ablate".into(), CfgPatch { balanced: true, nosilent: true, ..CfgPatch::default() }),
                ],
                watch: true,
                sampling: None,
            }),
            Request::Submit(SubmitRequest {
                sampling: Some(Sampling { interval_insns: 10_000, warmup_intervals: 2 }),
                ..SubmitRequest::new("sampled", Scale::Full)
            }),
        ];
        for req in reqs {
            let wire = req.to_json().compact();
            let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, req, "{wire}");
        }
        // An older client's `batch_variants` field is ignored.
        let wire = r#"{"type": "submit", "name": "x", "scale": "test", "models": ["dmdp"], "batch_variants": false}"#;
        let want = SubmitRequest { models: vec![CommModel::Dmdp], ..SubmitRequest::new("x", Scale::Test) };
        assert_eq!(Request::from_json(&Json::parse(wire).unwrap()), Ok(Request::Submit(want)));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "{}",
            r#"{"type": "launch"}"#,
            r#"{"type": "stats"}"#,
            r#"{"type": "submit"}"#,
            r#"{"type": "submit", "name": "x", "scale": "galactic", "models": ["dmdp"]}"#,
            r#"{"type": "submit", "name": "x", "scale": "test", "models": []}"#,
            r#"{"type": "submit", "name": "x", "scale": "test", "models": ["warp"]}"#,
            r#"{"type": "submit", "name": "x", "scale": "test", "models": ["dmdp"], "variants": []}"#,
            r#"{"type": "submit", "name": "x", "scale": "test", "models": ["dmdp"], "kernels": [7]}"#,
            r#"{"type": "submit", "name": "x", "scale": "test", "models": ["dmdp"], "sampling": {"interval_insns": 0, "warmup_intervals": 1}}"#,
            r#"{"type": "submit", "name": "x", "scale": "test", "models": ["dmdp"], "sampling": {"warmup_intervals": 1}}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn malformed_patches_are_rejected_naming_the_key() {
        for (patch, want) in [
            (r#"{"robb": 512}"#, "unknown key `robb`"),
            (r#"{"rmo": 1}"#, "`rmo` must be a boolean"),
            (r#"{"rob": 64, "rob": 128}"#, "`rob` given twice"),
            (r#"{"sb": -2}"#, "`sb` must be a non-negative integer"),
            (r#"[512]"#, "patch: must be an object"),
            (r#"{"balanced": 1}"#, "`balanced` must be a boolean"),
            (r#"{"nosilent": true, "nosilent": false}"#, "`nosilent` given twice"),
            (r#"{"silent": false}"#, "unknown key `silent` (width/rob/prf/sb/rmo/balanced/nosilent)"),
        ] {
            let wire = format!(
                r#"{{"type": "submit", "name": "x", "scale": "test", "models": ["dmdp"],
                    "variants": [{{"label": "big", "patch": {patch}}}]}}"#
            );
            let err = Request::from_json(&Json::parse(&wire).unwrap()).unwrap_err();
            assert!(err.contains(want), "{patch}: {err}");
        }
    }

    #[test]
    fn duplicate_variant_labels_are_rejected() {
        let wire = r#"{"type": "submit", "name": "x", "scale": "test", "models": ["dmdp"],
            "variants": [{"label": "a", "patch": {"rob": 64}},
                         {"label": "b"},
                         {"label": "a", "patch": {"rob": 128}}]}"#;
        let err = Request::from_json(&Json::parse(wire).unwrap()).unwrap_err();
        assert!(err.contains("duplicate variant label `a`"), "{err}");
    }

    #[test]
    fn metrics_msg_carries_every_kind() {
        let r = dmdp_obs::Registry::default();
        r.counter_with("proto_test_total", &[("type", "x")], "h").add(7);
        r.gauge("proto_test_level", "h").set(-3);
        let h = r.histogram("proto_test_us", "h");
        h.observe(0);
        h.observe(9);
        let msg = metrics_msg(&r.snapshot());
        let wire = msg.compact();
        let back = Json::parse(&wire).unwrap();
        assert_eq!(back.get("type").and_then(Json::as_str), Some("metrics"));
        let entries = back.get("metrics").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), 3);
        let by_name = |n: &str| {
            entries
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(n))
                .unwrap()
        };
        let c = by_name("proto_test_total");
        assert_eq!(c.get("value").and_then(Json::as_u64), Some(7));
        assert_eq!(
            c.get("labels").and_then(|l| l.get("type")).and_then(Json::as_str),
            Some("x")
        );
        let g = by_name("proto_test_level");
        assert_eq!(g.get("value").and_then(Json::as_f64), Some(-3.0));
        let hist = by_name("proto_test_us");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(9));
        assert_eq!(hist.get("buckets").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn group_specs_round_trip() {
        let specs = [
            GroupSpec {
                workload: "mcf".into(),
                scale: Scale::Test,
                model: CommModel::Dmdp,
                variants: vec![
                    ("main".into(), CfgPatch::default()),
                    ("rob32".into(), CfgPatch { rob: Some(32), ..CfgPatch::default() }),
                ],
                sampling: None,
            },
            GroupSpec {
                workload: "lib".into(),
                scale: Scale::Full,
                model: CommModel::NoSq,
                variants: vec![("main".into(), CfgPatch::default())],
                sampling: Some(Sampling { interval_insns: 1000, warmup_intervals: 2 }),
            },
        ];
        for spec in specs {
            let wire = group_msg(42, &spec).compact();
            let back = parse_group_msg(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, (42, spec.clone()), "{wire}");
        }
        for other in [r#"{"type": "shutdown"}"#, r#"{"type": "warp"}"#, "{}"] {
            assert!(parse_group_msg(&Json::parse(other).unwrap()).is_err(), "accepted: {other}");
        }
        for bad in [
            "{}",
            r#"{"workload": "lib", "scale": "test", "model": "dmdp", "variants": []}"#,
            r#"{"workload": "lib", "scale": "test", "model": "warp", "variants": [{"label": "main"}]}"#,
        ] {
            assert!(GroupSpec::from_json(&Json::parse(bad).unwrap()).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn worker_messages_round_trip() {
        // A group_done row carries the full summary result; parse it
        // back and check identity fields survive the wire.
        let w = dmdp_workloads::by_name("lib", Scale::Test).unwrap();
        let image = dmdp_harness::PlannedImage::new(std::sync::Arc::new(w.program));
        let result = dmdp_harness::JobSpec::new(
            "lib",
            w.suite,
            CommModel::Dmdp,
            Scale::Test,
            "main",
            dmdp_core::CoreConfig::new(CommModel::Dmdp),
            &image,
        )
        .execute()
        .unwrap();
        let wire = group_done_line(7, std::slice::from_ref(&result));
        assert!(wire.ends_with('\n') && !wire.trim_end().contains('\n'), "one line: {wire}");
        assert!(!wire.contains("\"source\""), "a worker row carries no source: {wire}");
        let WorkerMsg::GroupDone { id, rows } = WorkerMsg::parse(&wire).unwrap() else {
            panic!("group_done should parse");
        };
        assert_eq!(id, 7);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].digest, result.digest);
        assert_eq!(rows[0].cycles, result.cycles);
        assert_eq!(rows[0].ipc, result.ipc);

        let wire = group_failed_msg(9, "cycle limit").compact();
        let WorkerMsg::GroupFailed { id, error } = WorkerMsg::parse(&wire).unwrap() else {
            panic!("group_failed should parse");
        };
        assert_eq!((id, error.as_str()), (9, "cycle limit"));

        // There is no handshake in the dialect.
        assert!(WorkerMsg::parse(r#"{"type": "register"}"#).is_err());
        // A row that does not read is an error naming what is missing.
        for (rows, want) in [
            ("[{}]", "job row: missing string `suite`"),
            ("[7]", "job row: missing string `suite`"),
            ("{}", "missing `rows` array"),
        ] {
            let err = WorkerMsg::parse(&format!(r#"{{"type": "group_done", "id": 1, "rows": {rows}}}"#)).unwrap_err();
            assert!(err.contains(want), "{rows}: {err}");
        }
    }

    /// Gives the inner reader at most `self.1` bytes of room per read.
    struct Reads<R>(R, usize);
    impl<R: Read> Read for Reads<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.1);
            self.0.read(&mut buf[..n])
        }
    }

    /// Replays one scripted read per entry: its bytes, or its error.
    struct Script(std::collections::VecDeque<Result<&'static [u8], std::io::ErrorKind>>);
    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    fn line(r: &mut LineReader<impl Read>) -> String {
        match r.read_line() {
            Ok(LineEvent::Line(text)) => text,
            other => panic!("expected a line, got {other:?}"),
        }
    }

    #[test]
    fn line_reader_reassembles_split_messages() {
        // One byte per read; and 8 bytes per read, where the first read
        // ends on a newline and the third starts with `\r\n`.
        for size in [1, 8] {
            let src = std::io::Cursor::new(b"{\"a\":1}\n{\"b\":22}\r\n{}\n");
            let mut r = LineReader::new(Reads(src, size));
            assert_eq!(line(&mut r), "{\"a\":1}");
            assert_eq!(line(&mut r), "{\"b\":22}");
            assert_eq!(line(&mut r), "{}");
            assert!(matches!(r.read_line(), Ok(LineEvent::Eof)));
        }
    }

    #[test]
    fn mid_line_eof_is_an_error() {
        let mut r = LineReader::new(std::io::Cursor::new(b"{\"a\": 1".to_vec()));
        assert!(r.read_line().is_err());
    }

    #[test]
    fn a_32_mib_line_in_8_kib_reads_is_framed_in_linear_time() {
        // A reader that rescans the buffered line after every read needs
        // about half a minute here; one look per byte takes milliseconds.
        let len = 32 << 20;
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let src = std::io::repeat(b'x').take(len).chain(&b"\n"[..]);
            tx.send(LineReader::new(Reads(src, 8192)).read_line()).ok();
        });
        match rx.recv_timeout(std::time::Duration::from_secs(5)) {
            Ok(Ok(LineEvent::Line(text))) => {
                assert_eq!(text.len() as u64, len);
                assert!(text.bytes().all(|b| b == b'x'));
            }
            Ok(other) => panic!("expected the line, got {other:?}"),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("framing a 32 MiB line took over 5 s")
            }
            // The join below reports the reader thread's panic.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {}
        }
        reader.join().expect("the reader thread panicked");
    }

    #[test]
    fn lines_already_buffered_are_framed_without_another_read() {
        // Four lines arrive in one read; the next read would fail, so
        // every line after the first must come from carried-over bytes.
        let mut r = LineReader::new(Script(
            [Ok(&b"{\"a\":1}\n{\"b\":2}\r\n\n{\"c\":3}\n"[..]), Err(std::io::ErrorKind::ConnectionReset)]
                .into(),
        ));
        assert_eq!(line(&mut r), "{\"a\":1}");
        assert_eq!(line(&mut r), "{\"b\":2}");
        assert_eq!(line(&mut r), "");
        assert_eq!(line(&mut r), "{\"c\":3}");
        assert!(r.read_line().unwrap_err().starts_with("read: "));
    }

    #[test]
    fn a_partial_line_survives_read_timeouts() {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        let mut r = LineReader::new(Script(
            [Ok(&b"{\"a\""[..]), Err(WouldBlock), Ok(b":1}\r"), Err(TimedOut), Ok(b"\n")].into(),
        ));
        assert!(matches!(r.read_line(), Ok(LineEvent::Idle)));
        assert!(matches!(r.read_line(), Ok(LineEvent::Idle)));
        assert_eq!(line(&mut r), "{\"a\":1}", "a `\\r\\n` split across reads still frames");
        assert!(matches!(r.read_line(), Ok(LineEvent::Eof)));
    }

    #[test]
    fn a_line_over_the_cap_is_refused() {
        let src = std::io::repeat(b'x').take(MAX_LINE_BYTES as u64 + 2).chain(&b"\n"[..]);
        let err = LineReader::new(src).read_line().unwrap_err();
        assert!(err.contains(&format!("exceeds {MAX_LINE_BYTES} bytes")), "{err}");
    }
}
