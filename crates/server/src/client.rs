//! The `dmdp submit` client side of the daemon protocol.

use std::os::unix::net::UnixStream;
use std::path::Path;

use dmdp_harness::{Campaign, Field, Json, Parser};

use crate::protocol::{self, LineEvent, LineReader, Request, SubmitRequest};

/// A connected daemon client. One connection can carry any number of
/// requests in sequence.
pub struct Client {
    reader: LineReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to a daemon's unix socket.
    ///
    /// # Errors
    ///
    /// Connection failures, stringified with the socket path.
    pub fn connect_unix(path: &Path) -> Result<Client, String> {
        Client::connect_unix_retry(path, 0)
    }

    /// Connects to a daemon's unix socket, retrying transient failures
    /// `retries` times ([`retry_transient`]) — racing a daemon that is
    /// still binding its socket is expected in scripts.
    ///
    /// # Errors
    ///
    /// The last connection failure once the retries are exhausted.
    pub fn connect_unix_retry(path: &Path, retries: u32) -> Result<Client, String> {
        let at_path = |e: std::io::Error| format!("{}: {e}", path.display());
        let writer = retry_transient(retries, || UnixStream::connect(path)).map_err(at_path)?;
        let reader = LineReader::new(writer.try_clone().map_err(at_path)?);
        Ok(Client { reader, writer })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        protocol::write_msg(&mut self.writer, &req.to_json())
    }

    /// The next complete line from the daemon. Blocks; `Idle` never
    /// surfaces here because client sockets have no read timeout.
    fn next_line(&mut self) -> Result<String, String> {
        loop {
            match self.reader.read_line()? {
                LineEvent::Line(text) => return Ok(text),
                LineEvent::Eof => return Err("daemon closed the connection".to_string()),
                LineEvent::Idle => continue,
            }
        }
    }

    /// The next complete message from the daemon, as a tree.
    fn next_msg(&mut self) -> Result<Json, String> {
        Json::parse(&self.next_line()?).map_err(malformed)
    }

    /// If the message is an `error`, surfaces it as `Err`.
    fn check_error(msg: &Json) -> Result<(), String> {
        if msg.get("type").and_then(Json::as_str) == Some("error") {
            let detail = msg
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("(no detail)");
            return Err(format!("daemon error: {detail}"));
        }
        Ok(())
    }

    /// Liveness check; returns the daemon's protocol version.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`pong` reply.
    pub fn ping(&mut self) -> Result<u64, String> {
        self.send(&Request::Ping)?;
        let msg = self.next_msg()?;
        Self::check_error(&msg)?;
        match msg.get("type").and_then(Json::as_str) {
            Some("pong") => Ok(msg.get("protocol").and_then(Json::as_u64).unwrap_or(0)),
            other => Err(format!("expected pong, got `{}`", other.unwrap_or("?"))),
        }
    }

    /// Fetches the daemon's full metrics registry snapshot, its one
    /// status reply.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`metrics` reply.
    pub fn metrics(&mut self) -> Result<Json, String> {
        self.send(&Request::Metrics)?;
        let msg = self.next_msg()?;
        Self::check_error(&msg)?;
        match msg.get("type").and_then(Json::as_str) {
            Some("metrics") => Ok(msg),
            other => Err(format!("expected metrics, got `{}`", other.unwrap_or("?"))),
        }
    }

    /// Asks the daemon to drain running submissions and exit. Returns
    /// once the daemon acknowledges — i.e. after the drain.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`ok` reply.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send(&Request::Shutdown)?;
        let msg = self.next_msg()?;
        Self::check_error(&msg)?;
        match msg.get("type").and_then(Json::as_str) {
            Some("ok") => Ok(()),
            other => Err(format!("expected ok, got `{}`", other.unwrap_or("?"))),
        }
    }

    /// Submits a campaign and blocks until the daemon returns the
    /// complete artifact. When the request asked to `watch`, each job's
    /// `finished` event (its row summary and `source`) is handed to
    /// `on_event` as it arrives.
    ///
    /// # Errors
    ///
    /// Transport failures, a daemon-side `error` reply, or an artifact
    /// that does not deserialize.
    pub fn submit(
        &mut self,
        req: &SubmitRequest,
        mut on_event: impl FnMut(&Json),
    ) -> Result<Campaign, String> {
        self.send(&Request::Submit(req.clone()))?;
        loop {
            // A `campaign` member is read straight into its rows; every
            // other member is a tree.
            let line = self.next_line()?;
            let mut campaign = Field::default();
            let mut members = Vec::new();
            Parser::document(&line, |p| {
                p.members(|p, key| match key {
                    "campaign" => campaign.read(p, |p| Campaign::read(p).map(Some)),
                    _ => {
                        members.push((key.to_string(), p.value()?));
                        Ok(())
                    }
                })
            })
            .map_err(malformed)?;
            let msg = Json::Obj(members);
            Self::check_error(&msg)?;
            match msg.get("type").and_then(Json::as_str) {
                Some("finished") => on_event(&msg),
                Some("artifact") => {
                    return campaign
                        .get()
                        .ok_or_else(|| "artifact reply without a campaign".to_string());
                }
                other => {
                    return Err(format!(
                        "unexpected daemon message `{}`",
                        other.unwrap_or("?")
                    ));
                }
            }
        }
    }
}

fn malformed(e: String) -> String {
    format!("daemon sent a malformed message: {e}")
}

/// Retries `op` across *transient* connection failures — the daemon not
/// up yet (refused, socket file absent) or drowning in backlog (reset,
/// aborted, timed out) — with capped exponential backoff: 100 ms
/// doubling per attempt, capped at 2 s. `retries` counts the extra
/// attempts after the first, so `0` degrades to a single plain try.
/// Non-transient errors (permission denied, unreachable address) fail
/// immediately.
///
/// # Errors
///
/// The first non-transient error, or the last error once the retry
/// budget is exhausted.
pub fn retry_transient<T>(
    retries: u32,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    use std::io::ErrorKind;
    let mut backoff = std::time::Duration::from_millis(100);
    let cap = std::time::Duration::from_secs(2);
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                let transient = matches!(
                    e.kind(),
                    ErrorKind::ConnectionRefused
                        | ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::NotFound
                        | ErrorKind::TimedOut
                        | ErrorKind::WouldBlock
                        | ErrorKind::Interrupted
                );
                if !transient || attempt >= retries {
                    return Err(e);
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(cap);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    #[test]
    fn retry_transient_retries_refusals_then_succeeds() {
        let mut attempts = 0;
        let got = retry_transient(3, || {
            attempts += 1;
            if attempts < 3 {
                Err(std::io::Error::new(ErrorKind::ConnectionRefused, "not up yet"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(got.unwrap(), 42);
        assert_eq!(attempts, 3);
    }

    #[test]
    fn retry_transient_fails_fast_on_permanent_errors() {
        let mut attempts = 0;
        let got: std::io::Result<()> = retry_transient(5, || {
            attempts += 1;
            Err(std::io::Error::new(ErrorKind::PermissionDenied, "no"))
        });
        assert_eq!(got.unwrap_err().kind(), ErrorKind::PermissionDenied);
        assert_eq!(attempts, 1, "permanent errors are not retried");
    }

    #[test]
    fn retry_transient_exhausts_its_budget() {
        let mut attempts = 0;
        let got: std::io::Result<()> = retry_transient(2, || {
            attempts += 1;
            Err(std::io::Error::new(ErrorKind::ConnectionRefused, "still down"))
        });
        assert_eq!(got.unwrap_err().kind(), ErrorKind::ConnectionRefused);
        assert_eq!(attempts, 3, "one try plus two retries");
    }
}
