//! The host-speed witness: a fixed computation owned by the benchmark,
//! timed between ops on every CPU at once.
//!
//! The machine the benchmark was written on is a 2-vCPU VM whose speed
//! changes by up to a third for minutes at a time, invisibly to steal
//! time. The witness slows with it, but no change to the program can
//! move it: it calls none of the program's code and runs only while no
//! op is in flight. A time multiplied by [`Witness::scale`] is expressed
//! at one reference host speed, the one at which the witness takes
//! [`NOMINAL_MS`]. `STEADINESS.md` has the measurements behind the
//! choice of kernels.
//!
//! The kernels run in a child process (this binary with
//! [`WORKER_FLAG`]), so their memory never counts in the benchmark
//! process's peak resident set, and its CPU pinning never reaches them.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

use crate::stats::Samples;

/// The witness time, in ms, that defines the reference host speed.
pub const NOMINAL_MS: f64 = 60.0;

/// The argument that makes this binary a witness worker process.
pub const WORKER_FLAG: &str = "--witness-worker";

/// Entries in each thread's branch table (256 KiB: resident in L2).
const TABLE: usize = 1 << 16;
/// Passes over the branch table per measurement.
const ROUNDS: u32 = 40;
/// Freshly allocated memory touched per measurement, one write per page.
const FRESH_BYTES: usize = 32 << 20;
/// Keys sorted per measurement (4 MiB).
const SORT_KEYS: usize = 1 << 19;

/// The benchmark's handle on its witness worker process.
pub struct Witness {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
    samples: Samples,
}

impl Witness {
    pub fn start(threads: usize) -> Result<Witness, String> {
        let exe = std::env::current_exe().map_err(|e| format!("witness: {e}"))?;
        let mut child = Command::new(exe)
            .args([WORKER_FLAG, &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the witness: {e}"))?;
        let to = child.stdin.take();
        let from = child.stdout.take().map(BufReader::new);
        let Some(from) = from else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("witness: no stdout pipe".to_string());
        };
        Ok(Witness {
            child,
            to,
            from,
            samples: Samples::default(),
        })
    }

    /// Runs the kernel once on every CPU at the same time and records
    /// the mean of their times.
    pub fn measure(&mut self) -> Result<(), String> {
        let to = self.to.as_mut().ok_or("witness closed")?;
        writeln!(to)
            .and_then(|()| to.flush())
            .map_err(|e| format!("witness: {e}"))?;
        let mut line = String::new();
        self.from
            .read_line(&mut line)
            .map_err(|e| format!("witness: {e}"))?;
        let ms = line
            .trim()
            .parse()
            .map_err(|_| format!("witness answered {line:?}"))?;
        self.samples.push(ms);
        Ok(())
    }

    /// The median witness time of the run, in ms, with its sample count.
    pub fn median_ms(&self) -> (f64, usize) {
        (self.samples.median(), self.samples.len())
    }

    /// Reference seconds per host second in this run: multiply a
    /// measured time by it, divide a rate by it.
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / self.samples.median()
    }
}

impl Drop for Witness {
    /// Closing the worker's stdin ends it; it is reaped here.
    fn drop(&mut self) {
        self.to = None;
        let _ = self.child.wait();
    }
}

/// The worker process: one thread per CPU; each line on stdin runs the
/// kernel on all of them at once and answers with the mean time in ms.
/// Returns when stdin closes.
pub fn worker(threads: usize) -> Result<(), String> {
    let (done_tx, done) = channel();
    let mut jobs = Vec::new();
    let mut workers = Vec::new();
    for k in 0..threads.max(1) {
        let (tx, rx) = channel::<()>();
        let done_tx: Sender<f64> = done_tx.clone();
        jobs.push(tx);
        workers.push(std::thread::spawn(move || {
            let table = xorshift(k as u32 + 1, TABLE);
            let keys = xorshift(k as u32 + 101, SORT_KEYS);
            for () in rx {
                let start = Instant::now();
                black_box(kernel(&table, &keys));
                if done_tx.send(start.elapsed().as_secs_f64() * 1e3).is_err() {
                    return;
                }
            }
        }));
    }
    let answered = answer(&jobs, &done);
    drop(jobs);
    for w in workers {
        w.join().map_err(|_| "a witness thread panicked")?;
    }
    answered
}

/// Runs one measurement per line of stdin until it closes.
fn answer(jobs: &[Sender<()>], done: &Receiver<f64>) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        for job in jobs {
            job.send(()).map_err(|_| "a witness thread exited")?;
        }
        let mut sum = 0.0;
        for _ in jobs {
            sum += done.recv().map_err(|_| "a witness thread exited")?;
        }
        writeln!(out, "{}", sum / jobs.len() as f64)
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn xorshift(seed: u32, len: usize) -> Vec<u32> {
    let mut x = 0x9e37_79b9 ^ seed;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        })
        .collect()
}

/// Three kinds of work whose slowdowns followed the workloads': branches
/// that depend on random data in an L2-resident table, first touches of
/// fresh pages, and a sort of random keys.
fn kernel(table: &[u32], keys: &[u32]) -> u64 {
    let mut s = 0u64;
    for r in 0..ROUNDS {
        for (i, &x) in table.iter().enumerate() {
            if (x ^ r) & 1 == 0 {
                s = s.wrapping_add(u64::from(x));
            } else if x & 6 == 2 {
                s ^= i as u64;
            } else {
                s = s.rotate_left(3);
            }
        }
    }
    let mut fresh = vec![0u64; FRESH_BYTES / 8];
    for i in (0..fresh.len()).step_by(512) {
        fresh[i] = i as u64;
    }
    let mut sorted: Vec<u64> = keys.iter().map(|&k| u64::from(k) * 2_654_435_761).collect();
    sorted.sort_unstable();
    s ^ black_box(&fresh)[fresh.len() / 2] ^ sorted[keys.len() / 2]
}
