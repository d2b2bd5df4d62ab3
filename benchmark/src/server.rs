//! The server under test, in a process of its own: this executable
//! re-run with the `serve` argument binds a default-configured
//! `mahif-serve` server on a loopback ephemeral port, prints the address
//! and serves until its standard input closes.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mahif::Session;
use mahif_serve::{ServeConfig, Server};

/// Argument that turns this executable into the server process.
pub const SERVE_ARG: &str = "serve";

/// Body of the server process.
pub fn serve_child() -> Result<(), String> {
    let server = Server::bind(Arc::new(Session::new()), ServeConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "listening {}", handle.addr()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    // The parent holds the other end: EOF (closed pipe or parent exit)
    // is the stop signal, so the server never outlives the benchmark.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.stop();
    Ok(())
}

/// A running server process.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl ServerProcess {
    pub fn start() -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(SERVE_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the server process: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut process = ServerProcess {
            child,
            stdin,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening ")) {
            (Ok(_), Some(addr)) => {
                process.addr = addr.to_string();
                Ok(process)
            }
            _ => Err(format!("the server process did not start: {line:?}")),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server process's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        proc_kib(&status, "VmHWM:")
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }

    /// Closes the server's stdin and waits for it to exit, killing it if
    /// it has not exited within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the server process exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("the server process did not stop; killed".to_string());
                }
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// Reads a `kB` field of a `/proc/*/status` text.
pub fn proc_kib(status: &str, field: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
}

/// This process's current resident set (`VmRSS`), in MiB.
pub fn own_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| proc_kib(&s, "VmRSS:"))
        .map_or(0.0, |kib| kib / 1024.0)
}
