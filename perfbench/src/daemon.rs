//! Spawning, connecting to and stopping a `bcc-served` process.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bcc_client::wire::{read_frame, recv_msg, send_msg};
use bcc_client::{ClientMsg, ServedClient, ServerMsg, WireError, WIRE_SCHEMA};

/// How long a fresh daemon may take to accept its first handshake.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Pause between connection attempts while the socket is not bound yet.
/// The daemon's accept loop sleeps 50 ms whenever it finds no pending
/// connection, so a client retrying every millisecond races its first
/// `accept` and start-up time turns bimodal (one or two sleeps); at 5 ms
/// the first attempt almost always lands in the first sleep, which hides
/// the retry granularity inside it.
const RETRY_INTERVAL: Duration = Duration::from_millis(5);

/// Tenant every benchmark connection authenticates as.
const TENANT: &str = "perfbench";

/// A running daemon. Dropping it kills the process if it was not shut
/// down through [`Daemon::shutdown`].
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `exe` listening on `socket` under the config file `config`.
    pub fn spawn(exe: &Path, socket: &Path, config: &Path) -> Result<Daemon, String> {
        let child = Command::new(exe)
            .arg("--socket")
            .arg(socket)
            .arg("--config")
            .arg(config)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        Ok(Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        })
    }

    /// Connects and authenticates, retrying while the daemon is still
    /// binding its socket.
    pub fn connect(&mut self) -> Result<ServedClient, String> {
        let start = Instant::now();
        loop {
            match ServedClient::connect(&self.socket, TENANT) {
                Ok(client) => return Ok(client),
                Err(WireError::Io { .. }) if start.elapsed() < READY_TIMEOUT => {
                    if let Some(status) = self.child_mut().try_wait().map_err(|e| e.to_string())? {
                        return Err(format!("daemon exited during start-up: {status}"));
                    }
                    std::thread::sleep(RETRY_INTERVAL);
                }
                Err(e) => return Err(format!("cannot connect to the daemon: {e}")),
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// Asks the daemon to drain and exit, and waits for the process to end.
    ///
    /// The final report that answers `Shutdown` is read but not decoded:
    /// it lists every submission, and decoding it takes time quadratic in
    /// its size (see `README.md`), so it would dominate a run's wall time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let fail = |e: WireError| format!("daemon shutdown failed: {e}");
        let mut stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
        let hello = ClientMsg::Hello {
            schema: WIRE_SCHEMA.to_string(),
            tenant: TENANT.to_string(),
        };
        send_msg(&mut stream, &hello).map_err(fail)?;
        match recv_msg::<ServerMsg>(&mut stream).map_err(fail)? {
            ServerMsg::Hello { .. } => {}
            other => return Err(format!("daemon refused the shutdown handshake: {other:?}")),
        }
        send_msg(&mut stream, &ClientMsg::Shutdown).map_err(fail)?;
        read_frame(&mut stream)
            .map_err(fail)?
            .ok_or("daemon hung up before its final report")?;
        let status = self
            .child
            .take()
            .expect("daemon is running")
            .wait()
            .map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("daemon is running")
    }
}

/// The peak resident set (`VmHWM`) of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read the daemon's status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "the daemon's status has no VmHWM line".to_string())
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
