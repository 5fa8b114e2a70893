//! A fixed reference kernel timed right after every timed repetition,
//! so host times can be read in units of the host's current speed.
//!
//! On a shared host, co-tenant load slows whole stretches of a run by
//! up to 2x, far more than any change the benchmark must detect.  The
//! kernel mixes the three kinds of work the simulator's hot paths do —
//! ordered-map lookups, byte-table lookups over a buffer, and binary
//! heap pop/push — and is part of the benchmark, never of the program,
//! so a change to the program cannot move it.  Scaling each repetition
//! by the kernel's speed measured next to it cancels much of the
//! shared-host drift (see README.md for the measured effect).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one kernel pass takes on an uncontended core of the
/// host the benchmark was written on (Intel Xeon, 2 vCPUs).  Only a
/// unit: it makes a scaled time read like seconds on that host.
pub const REFERENCE_PASS_S: f64 = 2.2e-3;

const LOOKUPS: u32 = 10_000;
const TABLE_PASSES: usize = 4;
const HEAP_OPS: u32 = 20_000;
const HEAP_DEPTH: u64 = 96;

/// The kernel's inputs, built once per process.
pub struct Reference {
    map: BTreeMap<u64, u64>,
    table: Vec<u8>,
    buf: Vec<u8>,
    out: Vec<u8>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let map = (0..65_536)
            .map(|_| (xorshift(&mut x) % 1_000_000, xorshift(&mut x)))
            .collect();
        let table = (0..65_536u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let buf: Vec<u8> = (0..131_072u32).map(|i| (i * 7 + 3) as u8).collect();
        let out = vec![0; buf.len()];
        Reference {
            map,
            table,
            buf,
            out,
        }
    }

    /// Time one kernel pass and return the factor that turns host time
    /// measured now into reference time: `REFERENCE_PASS_S / pass`.
    pub fn scale(&mut self) -> f64 {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            if let Some((_, v)) = self.map.range(xorshift(&mut x) % 1_000_000..).next() {
                acc = acc.wrapping_add(*v);
            }
        }
        for p in 0..TABLE_PASSES {
            let row = (p * 37 + 5) << 8;
            for (o, &b) in self.out.iter_mut().zip(&self.buf) {
                *o ^= self.table[row | b as usize];
            }
        }
        let mut heap: BinaryHeap<Reverse<u64>> = (0..HEAP_DEPTH).map(Reverse).collect();
        for _ in 0..HEAP_OPS {
            let Reverse(at) = heap.pop().expect("the heap holds HEAP_DEPTH entries");
            heap.push(Reverse(at + (xorshift(&mut x) & 1023)));
        }
        black_box((acc, &self.out, &heap));
        REFERENCE_PASS_S / t.elapsed().as_secs_f64()
    }
}
