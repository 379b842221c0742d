//! Scheduling hygiene: keep every virtual CPU awake while a workload
//! runs, and keep the generator's own threads from queueing behind the
//! cluster they measure. Both are best effort through `chrt`/`nice`
//! (std has no scheduling calls); the report says what took.
//!
//! Why the vCPUs must stay awake, measured on the builder's shared
//! 2-vCPU VM: the cluster's ~45 threads sleep and wake tens of
//! thousands of times a second, each wake-up of a halted vCPU waits for
//! the host, and that wait moved the median commit latency between
//! 2.5 ms and 11 ms from one hour to the next; the single-threaded
//! simulator leg, with its sibling vCPU asleep, ran anywhere between
//! 5 700 and 8 400 transfers/s, and 8 900–9 400 with it awake. One
//! idle-priority busy loop per CPU removes both: every other thread
//! preempts it at once, and as a child process its CPU time stays out
//! of `/proc/self`.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `perf spin`: burn CPU until stdin closes — which it does when the
/// parent drops its end or dies, so a spinner can never be left behind.
pub fn spin_until_stdin_closes() {
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            while matches!(std::io::stdin().read(&mut byte), Ok(read) if read > 0) {}
            stop.store(true, Ordering::Relaxed);
        })
    };
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..1_000 {
            std::hint::spin_loop();
        }
    }
    let _ = watcher.join();
}

/// The running spinners; dropping the guard stops and reaps them.
pub struct Spinners(Vec<Child>);

impl Spinners {
    /// One spinner per CPU, or none at all when `nice` or the
    /// executable cannot be started (the report's `env` says which).
    pub fn start(cpus: usize) -> Spinners {
        let Ok(exe) = std::env::current_exe() else {
            return Spinners(Vec::new());
        };
        let mut children = Vec::new();
        // SCHED_IDLE where util-linux is installed (any other thread
        // preempts it at once), else the lowest nice level.
        let launchers: [(&str, &[&str]); 2] = [("chrt", &["-i", "0"]), ("nice", &["-n", "19"])];
        for (launcher, args) in launchers {
            for _ in children.len()..cpus {
                match Command::new(launcher)
                    .args(args)
                    .arg(&exe)
                    .arg("spin")
                    .stdin(Stdio::piped())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                {
                    Ok(child) => children.push(child),
                    Err(_) => break,
                }
            }
        }
        Spinners(children)
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        for child in &mut self.0 {
            drop(child.stdin.take()); // EOF: the spinner exits by itself
        }
        for child in &mut self.0 {
            let _ = child.wait();
        }
    }
}

/// Gives the calling thread real-time priority (`SCHED_FIFO` 1). The
/// generator's threads use a few milliseconds of CPU per thousand
/// transfers, but on two cores shared with ~45 runtime threads an
/// ordinary thread waits its turn for milliseconds — lateness that a
/// client on its own machine would never add. Returns whether it took.
pub fn boost_current_thread() -> bool {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let Some(tid) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|link| Some(link.file_name()?.to_str()?.to_string()))
    else {
        return false;
    };
    Command::new("chrt")
        .args(["-f", "-p", "1", &tid])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}
