//! Seeded mutation test for the decoders that read untrusted bytes: grid
//! protocol frames (`ToWorker::decode`, `FromWorker::decode`) and sweep
//! journals (`JournalReplay::read`).
//!
//! Each case takes a valid encoding and applies one to three mutations —
//! byte flips, truncations, splices of another input, dropped fields — and
//! checks that decoding returns a value or a typed error instead of
//! panicking. Seeds and iteration counts are fixed, so a failure names a
//! case that reproduces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use prism_exocore::{DesignResult, WorkloadMetrics};
use prism_grid::{FromWorker, ToWorker, WalkCounts, PROTO_VERSION};
use prism_pipeline::{journal_path, JournalReplay, KeyBuilder, PipelineError, Stage, SweepJournal};

/// `splitmix64`: a tiny deterministic generator, enough to pick offsets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` ≥ 1).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies one to three random mutations to `input`, drawing splice
/// material from `corpus`.
fn mutate(rng: &mut Rng, input: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        match rng.below(4) {
            // Byte flip.
            0 => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
            // Truncation.
            1 => bytes.truncate(rng.below(bytes.len())),
            // Splice: a slice of another input replaces a slice of this one.
            2 => {
                let donor = &corpus[rng.below(corpus.len())];
                let from = rng.below(donor.len());
                let piece = &donor[from..from + rng.below(donor.len() - from + 1)];
                let at = rng.below(bytes.len());
                let end = at + rng.below(bytes.len() - at + 1);
                bytes.splice(at..end, piece.iter().copied());
            }
            // Dropped field: cut from one `,"` to the next `,` or `}`.
            _ => {
                let starts: Vec<usize> = bytes
                    .windows(2)
                    .enumerate()
                    .filter(|(_, w)| w == b",\"")
                    .map(|(i, _)| i)
                    .collect();
                if starts.is_empty() {
                    continue;
                }
                let at = starts[rng.below(starts.len())];
                let end = bytes[at + 1..]
                    .iter()
                    .position(|&b| b == b',' || b == b'}')
                    .map_or(bytes.len(), |i| at + 1 + i);
                bytes.drain(at..end);
            }
        }
    }
    bytes
}

fn sample_result(label: &str) -> DesignResult {
    DesignResult {
        label: label.into(),
        core: "OOO2".into(),
        bsas: "SDN".into(),
        area_mm2: 7.25,
        per_workload: vec![WorkloadMetrics {
            workload: "stencil".into(),
            cycles: (1u64 << 53) + 3,
            energy: 1.0 / 3.0,
            unaccelerated: 0.125,
            unit_cycles: [10, 20, 30, 40, 50],
            unit_energy: [0.1, 0.2, 0.3, 0.4, 0.5],
        }],
    }
}

fn to_worker_corpus() -> Vec<Vec<u8>> {
    [
        ToWorker::Hello {
            proto: PROTO_VERSION,
            shard: 3,
            workloads: vec!["fft".into(), "micro-fetch".into()],
            max_insts: 20_000,
            artifact_dir: "/tmp/prism artifacts".into(),
        },
        ToWorker::Assign {
            id: 17,
            core: "OOO2".into(),
            bsas: "SDN".into(),
        },
        ToWorker::Fetch {
            key: "ab".repeat(32),
        },
        ToWorker::Shutdown,
    ]
    .iter()
    .map(|m| m.encode().into_bytes())
    .collect()
}

fn from_worker_corpus() -> Vec<Vec<u8>> {
    [
        FromWorker::HelloAck {
            shard: 1,
            proto: PROTO_VERSION,
        },
        FromWorker::Heartbeat {
            shard: 1,
            inflight: 2,
        },
        FromWorker::UnitResult {
            id: 5,
            result: sample_result("OOO2-SDN"),
            artifact: "12".repeat(32),
            counts: WalkCounts {
                walks: 2,
                walks_skipped: 9,
                shape_memo_hits: 5,
                timing_artifacts_loaded: 4,
                table_walks: 6,
                table_timings_loaded: 1,
            },
        },
        FromWorker::Artifact {
            key: "ef".repeat(32),
            doc: "{\"schema\":2,\"payload\":\"with \\\"quotes\\\" and \\n newline\"}".into(),
        },
        FromWorker::UnitQuarantine {
            id: Some(6),
            key: "OOO4-T".into(),
            error: PipelineError::panicked("OOO4-T", Stage::Evaluate, "boom"),
        },
        FromWorker::UnitQuarantine {
            id: None,
            key: "workload:fft".into(),
            error: PipelineError::new("fft", Stage::Trace, "truncated"),
        },
        FromWorker::Bye {
            counts: WalkCounts {
                walks: 3,
                walks_skipped: 61,
                shape_memo_hits: 40,
                timing_artifacts_loaded: 21,
                table_walks: 7,
                table_timings_loaded: 2,
            },
        },
        FromWorker::Fatal {
            message: "version mismatch".into(),
        },
    ]
    .iter()
    .map(|m| m.encode().into_bytes())
    .collect()
}

/// Runs `iterations` mutated decodes over `corpus` and returns how many
/// decoded to a value and how many to an error.
fn fuzz_frames<T>(
    seed: u64,
    iterations: usize,
    corpus: &[Vec<u8>],
    decode: impl Fn(&str) -> Result<T, String>,
) -> (usize, usize) {
    let mut rng = Rng(seed);
    let (mut ok, mut err) = (0, 0);
    for case in 0..iterations {
        let input = &corpus[rng.below(corpus.len())];
        let mutated = mutate(&mut rng, input, corpus);
        let text = String::from_utf8_lossy(&mutated);
        match catch_unwind(AssertUnwindSafe(|| decode(&text))) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => err += 1,
            Err(_) => panic!("seed {seed} case {case}: decoder panicked on {text:?}"),
        }
    }
    (ok, err)
}

#[test]
fn mutated_coordinator_frames_never_panic_the_decoder() {
    let corpus = to_worker_corpus();
    let (ok, err) = fuzz_frames(0x7057_0001, 20_000, &corpus, ToWorker::decode);
    // Both outcomes occur, so the mutations reach past the JSON parser.
    assert!(ok > 0 && err > 0, "ok {ok}, err {err}");
}

#[test]
fn mutated_worker_frames_never_panic_the_decoder() {
    let corpus = from_worker_corpus();
    let (ok, err) = fuzz_frames(0x7057_0002, 20_000, &corpus, FromWorker::decode);
    assert!(ok > 0 && err > 0, "ok {ok}, err {err}");
}

#[test]
fn mutated_journals_never_panic_the_reader() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("prism-hostile-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = KeyBuilder::new("hostile-journal").finish();
    let (journal, _) = SweepJournal::open(&dir, &sweep, false).expect("journal");
    for i in 0..4 {
        let label = format!("OOO2-{i}");
        journal
            .append_done(&label, &sample_result(&label))
            .expect("append");
    }
    journal
        .append_quarantined(
            "IO2-",
            &PipelineError::new("fft", Stage::Trace, "truncated"),
        )
        .expect("append");
    drop(journal);
    let path = journal_path(&dir, &sweep);
    let valid = std::fs::read(&path).expect("journal bytes");
    let clean = JournalReplay::read(&path, &sweep).expect("clean replay");
    assert_eq!((clean.records, clean.dropped, clean.stale), (5, 0, false));

    // Splice material: the journal's own lines plus the protocol frames.
    let mut corpus: Vec<Vec<u8>> = valid
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    corpus.extend(from_worker_corpus());
    let mut rng = Rng(0x7057_0003);
    let (mut replayed, mut stale) = (0, 0);
    for case in 0..2_000 {
        let mutated = mutate(&mut rng, &valid, &corpus);
        std::fs::write(&path, &mutated).expect("write mutated journal");
        match catch_unwind(|| JournalReplay::read(&path, &sweep)) {
            Ok(Ok(replay)) => {
                assert!(
                    replay.valid_bytes <= mutated.len() as u64,
                    "case {case}: replay claims more bytes than the file holds"
                );
                if replay.stale {
                    stale += 1;
                } else {
                    replayed += 1;
                }
            }
            // Invalid UTF-8 is an I/O error: typed, not a panic.
            Ok(Err(_)) => {}
            Err(_) => panic!(
                "case {case}: journal reader panicked on {:?}",
                String::from_utf8_lossy(&mutated)
            ),
        }
    }
    assert!(
        replayed > 0 && stale > 0,
        "replayed {replayed}, stale {stale}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
