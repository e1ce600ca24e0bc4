//! The host-speed reference: a small transient written in the benchmark
//! itself, so no change to rlckit moves it, timed between ops.
//!
//! The host is shared, and the speed it gives a process drifts by 20–30 %
//! over seconds to minutes, on the CPU time of a process as much as on its
//! wall time. A run that lands in a slow stretch reads slow on every time
//! metric, and no median inside one run removes that. Each run therefore
//! times this kernel before its first op and after every window of ops, and
//! reports its time metrics at the host's nominal speed: each window scaled
//! by [`NOMINAL_S`] over the kernel's mean time at the window's two ends.
//!
//! The kernel does what the simulating ops spend their time on: a banded
//! solve per time step (a chain of dependent multiply-adds) and the storage
//! of every step's state (memory traffic), on as many threads at once as
//! the workload keeps busy. It runs in a fresh process of its own, started
//! as `perfbench --reference-kernel THREADS`, so nothing the measured
//! program did (its heap, the pages it kept) moves it, and its memory is not
//! counted in the benchmark process's peak resident set.

use std::process::Command;
use std::time::Instant;

/// Median kernel time on the 2-vCPU "Intel(R) Xeon(R) Processor" host the
/// first numbers were measured on: the speed the scaled time metrics are
/// reported at.
pub const NOMINAL_S: f64 = 0.028;

/// The argument that makes `perfbench` time the kernel and print the time.
pub const ARG: &str = "--reference-kernel";

/// Nodes of the kernel's RC ladder.
const NODES: usize = 200;
/// Backward-Euler steps per kernel run; the stored states take 32 MB per
/// thread.
const STEPS: usize = 20_000;

/// A run's kernel times, taken on `threads` threads at once.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Threads running the kernel at once.
    pub threads: usize,
    /// Every kernel time taken, in seconds, in order.
    pub times_s: Vec<f64>,
}

impl Reference {
    /// A reference that runs the kernel on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1), times_s: Vec::new() }
    }

    /// Times the kernel once in a child process, this executable started
    /// with [`ARG`], and records the time it prints.
    ///
    /// # Errors
    ///
    /// Returns spawn errors and a child that fails or prints no time.
    pub fn sample(&mut self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = Command::new(exe)
            .args([ARG, &self.threads.to_string()])
            .output()
            .map_err(|e| format!("reference kernel: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.trim().parse::<f64>() {
            Ok(seconds) if out.status.success() && seconds > 0.0 => {
                self.times_s.push(seconds);
                Ok(())
            }
            _ => Err(format!("reference kernel failed ({}): {text:?}", out.status)),
        }
    }

    /// [`NOMINAL_S`] over the median time: the factor that turns a time
    /// measured in the run into one at the host's nominal speed.
    ///
    /// # Panics
    ///
    /// Panics when no time was taken.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / crate::stats::median(&self.times_s)
    }

    /// The factor of each window of a phase: a time was taken before the
    /// first window and one after each, so window `i` is scaled by
    /// [`NOMINAL_S`] over the mean of times `i` and `i + 1`.
    pub fn window_scales(&self) -> Vec<f64> {
        self.times_s.windows(2).map(|pair| 2.0 * NOMINAL_S / (pair[0] + pair[1])).collect()
    }
}

/// Runs the kernel on `threads` threads at once and returns the seconds
/// until the slowest one finished. Each thread's storage is allocated and
/// touched before the clock starts.
pub fn time_kernel(threads: usize) -> f64 {
    let mut stores = vec![vec![0.5; STEPS * NODES]; threads.max(1)];
    let start = Instant::now();
    std::thread::scope(|scope| {
        for store in &mut stores {
            scope.spawn(move || std::hint::black_box(kernel(store)));
        }
    });
    start.elapsed().as_secs_f64()
}

/// One kernel run: the step response of a uniform RC ladder driven at node
/// 0, by backward Euler with a factored tridiagonal matrix, keeping every
/// step's node voltages in `store`. Returns a stored voltage so nothing is
/// optimised away.
fn kernel(store: &mut [f64]) -> f64 {
    let (g, c_dt) = (1.0, 4.0);
    let diag = c_dt + 2.0 * g;
    // LU factors of the tridiagonal matrix diag / -g: multipliers `l` and
    // inverted pivots `inv_u`.
    let mut l = [0.0; NODES];
    let mut inv_u = [0.0; NODES];
    let mut u = diag;
    inv_u[0] = 1.0 / u;
    for i in 1..NODES {
        l[i] = -g / u;
        u = diag - l[i] * -g;
        inv_u[i] = 1.0 / u;
    }
    let mut x = [0.0; NODES];
    for step in store.chunks_exact_mut(NODES) {
        let mut y = c_dt * x[0] + g;
        x[0] = y;
        for i in 1..NODES {
            y = c_dt * x[i] - l[i] * y;
            x[i] = y;
        }
        let mut next = x[NODES - 1] * inv_u[NODES - 1];
        x[NODES - 1] = next;
        for i in (0..NODES - 1).rev() {
            next = (x[i] + g * next) * inv_u[i];
            x[i] = next;
        }
        step.copy_from_slice(&x);
    }
    store[store.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_charges_the_ladder_towards_the_source() {
        let mut store = vec![0.0; STEPS * NODES];
        let v = kernel(&mut store);
        assert!(v > 0.0 && v < 1.0, "{v}");
        assert!(time_kernel(2) > 0.0);
    }

    #[test]
    fn windows_scale_to_the_nominal_speed() {
        let times_s = vec![NOMINAL_S, NOMINAL_S, 3.0 * NOMINAL_S];
        let reference = Reference { threads: 1, times_s };
        assert_eq!(reference.window_scales(), [1.0, 0.5]);
        assert_eq!(reference.scale(), 1.0);
    }
}
