//! Machine-speed calibration.
//!
//! The machine this benchmark was built on runs the same work up to 1.9×
//! slower in phases lasting tens of seconds to minutes, which no amount of
//! repetition inside a 30-s run averages out. So each round of a run first
//! times a fixed amount of work that does not touch the simulator, and the
//! end-to-end host times are reported at a reference speed: multiplied by
//! [`REFERENCE_S`] / (the run's median calibration time). A change to the
//! simulator moves them exactly as it moves the raw times; a change of
//! machine speed cancels out. The raw times are printed next to them.

use std::time::Instant;

/// The calibration time, in seconds, that defines the reference speed
/// (about this machine's time in a fast phase).
pub const REFERENCE_S: f64 = 0.25;

/// Interpreter steps per worker and calibration.
const STEPS: u32 = 100_000_000;
/// Words of the interpreted program's memory (256 KiB, beyond L1).
const MEM_WORDS: usize = 1 << 16;

/// A small register-machine interpreter running a fixed pseudo-random
/// program: data-dependent dispatch, branches and loads, like the
/// simulator's own inner loops.
fn interpret(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let program: Vec<[u8; 4]> = (0..512)
        .map(|_| {
            let r = next().to_le_bytes();
            [r[0] % 6, r[1] & 15, r[2] & 15, r[3]]
        })
        .collect();
    let mut mem = vec![0u32; MEM_WORDS];
    let mut regs = [0u32; 16];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = (next() as u32) | i as u32;
    }
    let mut pc = 0usize;
    for _ in 0..STEPS {
        let [op, a, b, imm] = program[pc];
        let (a, b) = (usize::from(a), usize::from(b));
        pc = (pc + 1) % program.len();
        match op {
            0 => regs[a] = regs[a].wrapping_add(regs[b] ^ u32::from(imm)),
            1 => {
                regs[a] = regs[a]
                    .rotate_left(u32::from(imm & 31))
                    .wrapping_mul(regs[b] | 1)
            }
            2 => regs[a] = mem[regs[b] as usize % MEM_WORDS],
            3 => mem[regs[a] as usize % MEM_WORDS] = regs[b],
            4 if regs[a] & 1 == 1 => pc = (pc + usize::from(imm)) % program.len(),
            4 => {}
            _ => regs[a] ^= regs[b] >> (imm & 7),
        }
    }
    regs.iter()
        .fold(0u64, |h, &r| h.rotate_left(5) ^ u64::from(r))
}

/// Seconds the calibration work takes on every core at once. The thread
/// count comes from the machine, not from the simulator's pool, so no
/// change to the pool can move the divisor.
pub fn calibrate() -> f64 {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let t = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            s.spawn(move || std::hint::black_box(interpret(w as u64)));
        }
    });
    t.elapsed().as_secs_f64()
}
