//! Process CPU time, the clock behind every bounded time metric.
//!
//! On a shared host a run's wall-clock time moves with whatever else the
//! host runs: a neighbour that steals the vCPUs for half a minute makes
//! every wall-clock metric of that run slower, and medians taken inside the
//! run cannot take it out. The CPU time this process's threads spend on the
//! work does not move with them: `CLOCK_PROCESS_CPUTIME_ID` sums every
//! thread of the process, ended ones included, and a kernel that accounts
//! paravirtual steal time leaves the stolen time out.

use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used by every thread of this process so far, in seconds.
pub fn process_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the call's duration;
    // the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Wall-clock and process CPU seconds taken by one call.
#[derive(Clone, Copy, Debug)]
pub struct Spent {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Starts timing a step on both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_s(),
        }
    }

    pub fn spent(&self) -> Spent {
        Spent {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_s() - self.cpu_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_every_thread() {
        let sw = Stopwatch::start();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let t = Stopwatch::start();
                    let mut x = 0u64;
                    while t.spent().wall_s < 0.1 {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                    }
                });
            }
        });
        // Two threads that each spun for 0.1 s: at least 0.1 s in total
        // even if they never ran at once. (The clock is process-wide, so
        // tests running beside this one can only add to it.)
        let spent = sw.spent();
        assert!(
            spent.cpu_s >= 0.09,
            "two spinning threads used {} s",
            spent.cpu_s
        );
        assert!(spent.wall_s >= 0.1);
    }
}
