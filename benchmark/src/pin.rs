//! Host width 1: pin the process to one CPU before any world exists.
//!
//! The discrete-event scheduler runs up to `available_parallelism()` ranks at
//! once and loses wakeups when that is more than one (ROADMAP open item 1).
//! The width cannot be chosen through the program's interface yet, so the
//! benchmark narrows the affinity mask instead and refuses to run otherwise.

/// Pin the calling thread — and so every thread spawned later — to the lowest
/// CPU of the inherited affinity mask. Returns that CPU's number once
/// `available_parallelism()` reads 1.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    use std::os::raw::c_int;

    // `cpu_set_t` is an array of `unsigned long`; 16 words cover 1024 CPUs,
    // the size of glibc's own `cpu_set_t`.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }

    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, &bits)| bits != 0)
        .map(|(word, &bits)| word * 64 + bits.trailing_zeros() as usize)
        .ok_or("the inherited affinity mask is empty")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    match std::thread::available_parallelism() {
        Ok(n) if n.get() == 1 => Ok(cpu),
        Ok(n) => Err(format!("available_parallelism() is still {n} after pinning to CPU {cpu}")),
        Err(e) => Err(format!("available_parallelism(): {e}")),
    }
}

/// There is no way to select host width 1 here, so fail closed.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is implemented for Linux only".into())
}
