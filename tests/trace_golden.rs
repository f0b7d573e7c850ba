//! Golden pin of the synthetic instruction streams.
//!
//! Every simulated number starts as a draw from a seeded `SyntheticTrace`,
//! so the order of those draws is part of the simulated machine. Each case
//! folds the first million `next_instruction()` events of one source into
//! an FNV-1a hash (memory or compute, address, write), counts the memory
//! and write events, then hashes 1,000 `next_access()` calls and reports
//! `generated()`. Every value equals a constant captured before the trace
//! generator's hot path was reworked: a change to the order of the draws
//! fails here, not only in the simulator's outputs.

use cmpqos::trace::{spec, Access, InstrEvent, SyntheticTrace, TraceSource};

const EVENTS: u64 = 1_000_000;
const ACCESSES: u64 = 1_000;
const SCALE: u64 = 8;

/// FNV-1a 64-bit, folded one byte at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn access(&mut self, access: Access) {
        self.bytes(&access.addr().to_le_bytes());
        self.bytes(&[u8::from(access.is_write())]);
    }

    fn event(&mut self, event: InstrEvent) {
        match event.access {
            Some(access) => {
                self.bytes(&[1]);
                self.access(access);
            }
            None => self.bytes(&[0]),
        }
    }
}

/// `(hash, memory events, write events)` over the first [`EVENTS`].
fn fold_events(source: &mut dyn TraceSource) -> (u64, u64, u64) {
    let mut hash = Fnv::new();
    let (mut memory, mut writes) = (0, 0);
    for _ in 0..EVENTS {
        let event = source.next_instruction();
        if let Some(access) = event.access {
            memory += 1;
            writes += u64::from(access.is_write());
        }
        hash.event(event);
    }
    (hash.0, memory, writes)
}

/// `[hash, memory, writes, next_access hash, generated]`.
fn synthetic(bench: &str, seed: u64) -> [u64; 5] {
    let profile = spec::scaled(bench, SCALE).expect("built-in benchmark");
    let mut source: SyntheticTrace = profile.instantiate(seed, 1 << 36);
    let (hash, memory, writes) = fold_events(&mut source);
    let mut accesses = Fnv::new();
    for _ in 0..ACCESSES {
        accesses.access(source.next_access());
    }
    [hash, memory, writes, accesses.0, source.generated()]
}

#[test]
fn synthetic_streams_match_their_captured_digests() {
    // `[hash, memory, writes, next_access hash, generated]`.
    #[rustfmt::skip]
    let cases: [(&str, u64, [u64; 5]); 6] = [
        ("hmmer", 1, [12969931054982969105, 400099, 119786, 2595001137129341779, 1002424]),
        ("hmmer", 7919, [7861168961673050702, 400424, 120226, 6410418797604121541, 1002524]),
        ("gobmk", 1, [15216203677610665582, 350180, 103777, 14048044139366402005, 1002770]),
        ("gobmk", 7919, [5681489694648306875, 350289, 104180, 1957557895630930285, 1002848]),
        ("bzip2", 1, [17660343212550346133, 299553, 88656, 5097406694014710918, 1003421]),
        ("bzip2", 7919, [7266456009117231802, 300634, 89072, 17939671039016183217, 1003295]),
    ];
    for (bench, seed, expected) in cases {
        assert_eq!(synthetic(bench, seed), expected, "{bench} at seed {seed}");
    }
}
