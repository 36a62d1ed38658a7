//! What the benchmark reads from the host: core count, peak memory and
//! CPU time of a process (`/proc`), plus the block timer the layer probes
//! share and the one thing it sets: the CPUs a workload may run on.

use std::time::Instant;

use crate::stats;

/// Threads and connections used to generate load: `min(nproc, 4)`.
pub fn load_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// The kernel's CPU mask of a thread, sized like glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn affinity() -> Result<CpuMask, String> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if status == 0 {
        Ok(mask)
    } else {
        Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

fn set_affinity(mask: &CpuMask) -> Result<(), String> {
    // SAFETY: `mask` is a live buffer of exactly the size passed, the
    // call only reads it, and pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if status == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Keeps the calling thread, and every thread and child process it
/// starts meanwhile, on one CPU; dropping it gives the thread its CPUs
/// back. `edge-ingest` runs under it: a request there is ~130 us of
/// which most is handing a connection from thread to thread, and when
/// those threads sit on different virtual CPUs every hand-over wakes a
/// halted one through the hypervisor — 0.29 ms a request with two CPUs
/// against 0.13 ms on one, swinging with how the host schedules the
/// halted CPU (README, "Noise"). On one CPU a hand-over is a context
/// switch, which is the program's own cost.
#[derive(Debug)]
pub struct OneCpu {
    before: CpuMask,
    pub cpu: usize,
}

impl OneCpu {
    /// Confines the calling thread to the highest-numbered CPU it may
    /// run on (the lowest takes most of the timer interrupts).
    pub fn confine() -> Result<OneCpu, String> {
        let before = affinity()?;
        let cpu = (0..before.len() * 64)
            .rev()
            .find(|&cpu| before[cpu / 64] >> (cpu % 64) & 1 == 1)
            .ok_or("the thread may run on no CPU")?;
        let mut only: CpuMask = [0; 16];
        only[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&only)?;
        Ok(OneCpu { before, cpu })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // Cannot fail for a mask the thread had a moment ago; and if it
        // did, the run would only go on using one CPU.
        let _ = set_affinity(&self.before);
    }
}

fn proc_file(pid: Option<u32>, file: &str) -> std::io::Result<String> {
    let who = pid.map_or_else(|| "self".to_owned(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/{file}"))
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let status = proc_file(pid, "status").map_err(|e| format!("read /proc status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc status".to_owned())
}

/// User and system CPU time of `pid`, or of this process, in clock
/// ticks (fields 14 and 15 of `/proc/<pid>/stat`).
pub fn cpu_ticks(pid: Option<u32>) -> Result<(u64, u64), String> {
    let stat = proc_file(pid, "stat").map_err(|e| format!("read /proc stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, starting at field 3.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => Ok((user, system)),
        _ => Err("malformed /proc stat".to_owned()),
    }
}

/// Nanoseconds per call of `call`, timed in blocks of `per_block` calls
/// between clock reads (so the clock costs well under 2 %), repeated
/// `blocks` times; the fastest block counts.
pub fn ns_per_call(per_block: usize, blocks: usize, mut call: impl FnMut()) -> f64 {
    let per_block = per_block.max(1);
    let times: Vec<f64> = (0..blocks.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_block {
                call();
            }
            start.elapsed().as_nanos() as f64 / per_block as f64
        })
        .collect();
    stats::fastest_time(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process_from_proc() {
        assert!(peak_rss_mib(None).expect("VmHWM") > 0.0);
        cpu_ticks(None).expect("cpu ticks");
        assert!((1..=4).contains(&load_width()));
    }

    #[test]
    fn a_thread_confined_to_one_cpu_gets_its_cpus_back() {
        // On a thread of its own: affinity is per thread, and the other
        // tests of this binary run beside this one.
        std::thread::spawn(|| {
            let before = affinity().expect("affinity");
            {
                let one = OneCpu::confine().expect("confine");
                let during = affinity().expect("affinity");
                assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
                assert_eq!(during[one.cpu / 64] >> (one.cpu % 64) & 1, 1);
                assert_eq!(load_width(), 1);
            }
            assert_eq!(affinity().expect("affinity"), before);
        })
        .join()
        .expect("the confined thread");
    }

    #[test]
    fn block_timer_calls_the_closure_per_block_times_blocks() {
        let mut calls = 0;
        let ns = ns_per_call(10, 4, || calls += 1);
        assert_eq!(calls, 40);
        assert!(ns >= 0.0);
    }
}
