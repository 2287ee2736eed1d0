//! Property-based verification of the append-only run ledger:
//!
//! * every *prefix* of a rendered ledger stream — cut at any line boundary
//!   — is itself a valid NDJSON ledger, so an interrupted run (SIGINT mid
//!   sweep, OOM-kill between appends) never leaves an unreadable history;
//! * appended sequence numbers are strictly increasing regardless of how
//!   records arrive, and survive a torn (partially written) tail line;
//! * rendering round-trips hostile strings — quotes, backslashes, control
//!   characters, non-ASCII — through the hand-rolled JSON layer without
//!   ever producing a second physical line.

use obs::ledger::{self, LedgerRecord};
use proptest::prelude::*;

/// Deterministic record whose string fields are drawn from a seeded LCG
/// walk over a hostile alphabet (mirrors `prop_series.rs` style: shims'
/// proptest has no string strategy, so we grow our own).
struct Lcg(u64);

impl Lcg {
    fn step(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Random word over a hostile alphabet — quotes, backslashes, control
    /// characters, non-ASCII, JSON structure characters.
    fn word(&mut self, len: u64) -> String {
        const ALPHABET: [char; 12] =
            ['a', '"', '\\', '\n', '\t', '\u{1}', 'é', '→', ' ', '/', '{', '}'];
        (0..len).map(|_| ALPHABET[(self.step() % ALPHABET.len() as u64) as usize]).collect()
    }
}

fn seeded_record(seed: u64, seq: u64) -> LedgerRecord {
    let mut g = Lcg(seed | 1);
    let mut rec = LedgerRecord {
        seq,
        ts: g.step(),
        kind: if g.step().is_multiple_of(2) { "run".to_string() } else { "verdict".to_string() },
        command: String::new(),
        label: String::new(),
        seed: g.step(),
        fingerprint: String::new(),
        git_rev: String::new(),
        git_dirty: g.step().is_multiple_of(2),
        elapsed_ms: (g.step() % 1_000_000) as f64 / 7.0,
        peak_rss_kb: g.step(),
        peak_live_bytes: g.step(),
        alloc_calls: g.step(),
        stages_ms: Vec::new(),
        stage_allocs: Vec::new(),
        stage_alloc_bytes: Vec::new(),
        objectives: Vec::new(),
        verdicts: Vec::new(),
    };
    let n = 1 + g.step() % 8;
    rec.command = g.word(n);
    let n = g.step() % 24;
    rec.label = g.word(n);
    let n = g.step() % 16;
    rec.fingerprint = g.word(n);
    let n = 1 + g.step() % 10;
    rec.git_rev = g.word(n);
    for i in 0..g.step() % 5 {
        let v = (g.step() % 10_000) as f64 / 3.0;
        rec.stages_ms.push((format!("stage{}", i), v));
    }
    for i in 0..g.step() % 4 {
        let v = g.step();
        rec.stage_allocs.push((format!("s{}", i), v));
    }
    for i in 0..g.step() % 4 {
        let w = g.word(3);
        let v = g.step();
        rec.stage_alloc_bytes.push((format!("{}-{}", w, i), v));
    }
    for i in 0..g.step() % 6 {
        let w = g.word(2);
        let v = f64::from_bits(0x3FF0_0000_0000_0000 | g.step());
        rec.objectives.push((format!("cell{}/{}", i, w), v));
    }
    for i in 0..g.step() % 3 {
        let w = g.word(4);
        rec.verdicts.push((format!("gate{}", i), w));
    }
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cut a rendered multi-record stream at EVERY line boundary: each
    /// prefix must validate, and the record count must equal the number of
    /// whole lines kept. This is exactly the on-disk state an interrupt
    /// can leave behind (appends are single flushed `write_all`s).
    #[test]
    fn every_prefix_of_a_stream_is_valid_ndjson(
        seed in 0u64..1u64 << 32,
        n in 1usize..24,
    ) {
        let mut stream = String::new();
        for i in 0..n {
            let rec = seeded_record(seed.wrapping_add(i as u64 * 0x9E37), (i + 1) as u64);
            let line = ledger::render_record(&rec);
            // One physical line per record, no matter how hostile the strings.
            prop_assert_eq!(line.matches('\n').count(), 1, "record spilled onto multiple lines");
            prop_assert!(line.ends_with('\n'));
            stream.push_str(&line);
        }
        let mut boundary = 0usize;
        let mut kept = 0u64;
        while boundary < stream.len() {
            let next = stream[boundary..].find('\n').map(|i| boundary + i + 1).unwrap_or(stream.len());
            kept += 1;
            prop_assert_eq!(
                ledger::validate_stream(&stream[..next]),
                Ok(kept),
                "prefix of {} lines failed validation", kept
            );
            boundary = next;
        }
        prop_assert_eq!(kept, n as u64);
    }

    /// Records round-trip exactly: parse(render(r)) == r, including f64
    /// objectives at bit precision.
    #[test]
    fn records_round_trip_bit_exactly(seed in 0u64..1u64 << 32) {
        let rec = seeded_record(seed, 1);
        let line = ledger::render_record(&rec);
        let back = ledger::parse_record(&line);
        prop_assert_eq!(back.as_ref(), Ok(&rec), "round-trip failed for {}", line);
        let back = back.unwrap();
        for ((_, a), (_, b)) in rec.objectives.iter().zip(&back.objectives) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Appends to a real file assign strictly increasing seqs starting at
    /// 1, and the file validates as a stream after every append — even
    /// when a torn tail line is injected mid-way (a crash between
    /// `write_all`s of a *different* writer, or a partial final write).
    #[test]
    fn file_appends_are_monotone_and_always_validate(
        seed in 0u64..1u64 << 32,
        n in 1usize..10,
        tear_at in 0usize..10,
    ) {
        ledger::set_zero_provenance(true);
        let path = std::env::temp_dir().join(format!(
            "prop-ledger-{}-{}.ndjson", std::process::id(), seed
        ));
        let path_s = path.to_str().expect("temp path is utf-8");
        let _ = std::fs::remove_file(&path);
        for i in 0..n {
            if i == tear_at {
                // Torn line: valid JSON prefix, no closing brace. Parsing
                // skips it; appends must keep counting past it.
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .and_then(|mut f| {
                        use std::io::Write as _;
                        f.write_all(b"{\"schema\":\"coflow-ledg\n")
                    })
                    .expect("inject torn line");
            }
            let mut rec = seeded_record(seed.wrapping_add(i as u64), 0);
            rec.git_rev = "r".to_string(); // skip git subprocess in the hot loop
            let got = ledger::append(path_s, &mut rec).expect("append");
            prop_assert_eq!(got, (i + 1) as u64);
            prop_assert_eq!(rec.seq, got);
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        // validate_stream skips nothing: remove the torn line first, the
        // way `load` callers see it after parse-filtering.
        let clean: String = text
            .lines()
            .filter(|l| ledger::parse_record(l).is_ok())
            .map(|l| format!("{}\n", l))
            .collect();
        prop_assert_eq!(ledger::validate_stream(&clean), Ok(n as u64));
        let _ = std::fs::remove_file(&path);
    }
}
