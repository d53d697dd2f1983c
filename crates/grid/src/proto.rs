//! The coordinator ↔ worker wire protocol: newline-delimited JSON over
//! the worker's stdin/stdout.
//!
//! One message per line, each a JSON object with a `"type"` field. The
//! [`prism_pipeline::Json`] writer escapes every control character (`\n`
//! included), so a serialized message can never span lines and the framing
//! survives arbitrary workload names and panic payloads. Floats use
//! shortest-round-trip formatting, so a [`DesignResult`] that crosses the
//! wire is bit-identical to one computed in-process — the property behind
//! the grid-vs-single-process equivalence guarantee.
//!
//! Handshake: the coordinator opens with [`ToWorker::Hello`] carrying the
//! protocol version; the worker answers [`FromWorker::HelloAck`] (or
//! [`FromWorker::Fatal`] on a version mismatch) and then heartbeats every
//! [`HEARTBEAT_INTERVAL`] until shutdown.
//!
//! Remote shards do not share the coordinator's store, so
//! [`FromWorker::UnitResult`] names the design-point artifact the unit
//! settled into, the coordinator pulls it with [`ToWorker::Fetch`] when
//! its own store lacks it, and the worker ships the validated envelope
//! back in a [`FromWorker::Artifact`] frame keyed by hex `ContentHash`.
//! Shipping is pure cache warmth: the journal embeds full results, so
//! resume and correctness never depend on a shipped artifact arriving.

use std::ops::AddAssign;
use std::time::Duration;

use prism_exocore::DesignResult;
use prism_pipeline::{
    decode_design_result, decode_pipeline_error, encode_design_result, encode_pipeline_error, Json,
    PipelineError, SessionStats,
};

/// Version of this wire protocol. The coordinator sends it in
/// [`ToWorker::Hello`]; a worker built from different sources refuses the
/// handshake instead of silently misinterpreting messages. v3 dropped
/// v2's coordinator-to-worker `artifact` push, narrowed `fetch` and the
/// `result` frame's artifact to the one design-point key, and added the
/// table-walk counters to `bye`.
pub const PROTO_VERSION: u64 = 3;

/// How often a healthy worker emits [`FromWorker::Heartbeat`].
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// One session's timing-reuse counters: what a worker reports in
/// [`FromWorker::Bye`], and what the coordinator sums per host and
/// run-wide. The fields mean what the [`SessionStats`] fields of the
/// same names mean (`walks` is `trace_walks`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCounts {
    /// Trace walks performed for design points.
    pub walks: u64,
    /// Design-point walks skipped (shape-memo hits + timing artifacts
    /// loaded).
    pub walks_skipped: u64,
    /// In-memory shape-keyed timing memo hits.
    pub shape_memo_hits: u64,
    /// Design-point timing summaries loaded from the artifact store.
    pub timing_artifacts_loaded: u64,
    /// Trace walks performed for oracle-table timings no design point
    /// used.
    pub table_walks: u64,
    /// Oracle-table timings loaded from the store that no design point
    /// used.
    pub table_timings_loaded: u64,
}

impl WalkCounts {
    /// The counters of one session.
    #[must_use]
    pub fn of(stats: &SessionStats) -> Self {
        WalkCounts {
            walks: stats.trace_walks,
            walks_skipped: stats.walks_skipped,
            shape_memo_hits: stats.shape_memo_hits,
            timing_artifacts_loaded: stats.timing_artifacts_loaded,
            table_walks: stats.table_walks,
            table_timings_loaded: stats.table_timings_loaded,
        }
    }

    fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("walks", self.walks),
            ("walks_skipped", self.walks_skipped),
            ("shape_memo_hits", self.shape_memo_hits),
            ("timing_artifacts_loaded", self.timing_artifacts_loaded),
            ("table_walks", self.table_walks),
            ("table_timings_loaded", self.table_timings_loaded),
        ]
    }

    fn decode(json: &Json) -> Option<Self> {
        let field = |name: &str| json.get(name)?.as_u64();
        Some(WalkCounts {
            walks: field("walks")?,
            walks_skipped: field("walks_skipped")?,
            shape_memo_hits: field("shape_memo_hits")?,
            timing_artifacts_loaded: field("timing_artifacts_loaded")?,
            table_walks: field("table_walks")?,
            table_timings_loaded: field("table_timings_loaded")?,
        })
    }
}

impl AddAssign for WalkCounts {
    fn add_assign(&mut self, rhs: WalkCounts) {
        self.walks += rhs.walks;
        self.walks_skipped += rhs.walks_skipped;
        self.shape_memo_hits += rhs.shape_memo_hits;
        self.timing_artifacts_loaded += rhs.timing_artifacts_loaded;
        self.table_walks += rhs.table_walks;
        self.table_timings_loaded += rhs.table_timings_loaded;
    }
}

/// Messages the coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Handshake: protocol version, shard id, and the sweep parameters
    /// shared by every unit (workload set, trace length, artifact store).
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u64,
        /// This worker's shard id (also in `PRISM_GRID_SHARD`).
        shard: usize,
        /// Workload names (resolved against the registry worker-side).
        workloads: Vec<String>,
        /// Tracer instruction limit (the stage-1 cache key input).
        max_insts: u64,
        /// Content-addressed artifact store shared by all shards.
        artifact_dir: String,
    },
    /// One unit of work: evaluate design point (`core`, `bsas`).
    Assign {
        /// Coordinator-side unit id, echoed back in the outcome.
        id: u64,
        /// Core name (`IO2`, `OOO2`, `OOO4`, `OOO6`).
        core: String,
        /// BSA subset as Fig. 12 code letters (e.g. `"SDN"`, `""`).
        bsas: String,
    },
    /// Pull request: ship back the named artifact (hex `ContentHash`)
    /// from the worker's store. The worker answers one
    /// [`FromWorker::Artifact`], with an empty `doc` when it cannot
    /// export the key, so the coordinator can account for every request.
    Fetch {
        /// Hex content-hash key to ship.
        key: String,
    },
    /// Clean shutdown: finish in-flight units, say `Bye`, exit 0.
    Shutdown,
}

/// Messages a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum FromWorker {
    /// Handshake accepted.
    HelloAck {
        /// The worker's shard id.
        shard: usize,
        /// The worker's protocol version.
        proto: u64,
    },
    /// Liveness signal, sent every [`HEARTBEAT_INTERVAL`].
    Heartbeat {
        /// The worker's shard id.
        shard: usize,
        /// Units currently queued or evaluating on this worker.
        inflight: u64,
    },
    /// A unit evaluated successfully.
    UnitResult {
        /// The assigned unit id.
        id: u64,
        /// The evaluated design point.
        result: DesignResult,
        /// Hex content-hash key of the design-point artifact backing
        /// this result, so a coordinator on another host can pull it
        /// when its own store lacks it.
        artifact: String,
    },
    /// A unit (or a whole workload) was quarantined on this shard.
    UnitQuarantine {
        /// The assigned unit id; `None` for workload-level failures,
        /// which are not tied to one assignment.
        id: Option<u64>,
        /// Sweep unit key (design-point label or `workload:<name>`).
        key: String,
        /// The typed failure.
        error: PipelineError,
    },
    /// Answer to [`ToWorker::Fetch`]: one shipped store envelope.
    Artifact {
        /// Hex content-hash key.
        key: String,
        /// The raw envelope text (empty = the worker could not export
        /// this key; the coordinator just stops waiting for it).
        doc: String,
    },
    /// Clean shutdown acknowledgement (last message), carrying the
    /// session's timing-reuse counters so the coordinator can surface
    /// per-host walk savings in `--stats`.
    Bye {
        /// The worker session's walk counters.
        counts: WalkCounts,
    },
    /// The worker cannot continue (handshake mismatch, bad assignment).
    Fatal {
        /// Human-readable cause.
        message: String,
    },
}

fn obj(kind: &str, mut fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![("type".to_string(), Json::Str(kind.to_string()))];
    all.append(&mut fields);
    Json::Obj(all)
}

impl ToWorker {
    /// Serializes to one protocol line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            ToWorker::Hello {
                proto,
                shard,
                workloads,
                max_insts,
                artifact_dir,
            } => obj(
                "hello",
                vec![
                    ("proto".into(), Json::U64(*proto)),
                    ("shard".into(), Json::U64(*shard as u64)),
                    (
                        "workloads".into(),
                        Json::Arr(workloads.iter().map(|w| Json::Str(w.clone())).collect()),
                    ),
                    ("max_insts".into(), Json::U64(*max_insts)),
                    ("artifact_dir".into(), Json::Str(artifact_dir.clone())),
                ],
            ),
            ToWorker::Assign { id, core, bsas } => obj(
                "assign",
                vec![
                    ("id".into(), Json::U64(*id)),
                    ("core".into(), Json::Str(core.clone())),
                    ("bsas".into(), Json::Str(bsas.clone())),
                ],
            ),
            ToWorker::Fetch { key } => obj("fetch", vec![("key".into(), Json::Str(key.clone()))]),
            ToWorker::Shutdown => obj("shutdown", vec![]),
        }
        .to_string()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line.
    pub fn decode(line: &str) -> Result<Self, String> {
        let json = Json::parse(line)?;
        let kind = json.get("type").and_then(Json::as_str).unwrap_or_default();
        let shape = || format!("bad `{kind}` message: {line}");
        match kind {
            "hello" => (|| {
                Some(ToWorker::Hello {
                    proto: json.get("proto")?.as_u64()?,
                    shard: json.get("shard")?.as_u64()? as usize,
                    workloads: json
                        .get("workloads")?
                        .as_arr()?
                        .iter()
                        .map(|w| Some(w.as_str()?.to_string()))
                        .collect::<Option<_>>()?,
                    max_insts: json.get("max_insts")?.as_u64()?,
                    artifact_dir: json.get("artifact_dir")?.as_str()?.to_string(),
                })
            })()
            .ok_or_else(shape),
            "assign" => (|| {
                Some(ToWorker::Assign {
                    id: json.get("id")?.as_u64()?,
                    core: json.get("core")?.as_str()?.to_string(),
                    bsas: json.get("bsas")?.as_str()?.to_string(),
                })
            })()
            .ok_or_else(shape),
            "fetch" => (|| {
                Some(ToWorker::Fetch {
                    key: json.get("key")?.as_str()?.to_string(),
                })
            })()
            .ok_or_else(shape),
            "shutdown" => Ok(ToWorker::Shutdown),
            other => Err(format!("unknown coordinator message type `{other}`")),
        }
    }
}

impl FromWorker {
    /// Serializes to one protocol line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            FromWorker::HelloAck { shard, proto } => obj(
                "hello-ack",
                vec![
                    ("shard".into(), Json::U64(*shard as u64)),
                    ("proto".into(), Json::U64(*proto)),
                ],
            ),
            FromWorker::Heartbeat { shard, inflight } => obj(
                "heartbeat",
                vec![
                    ("shard".into(), Json::U64(*shard as u64)),
                    ("inflight".into(), Json::U64(*inflight)),
                ],
            ),
            FromWorker::UnitResult {
                id,
                result,
                artifact,
            } => obj(
                "result",
                vec![
                    ("id".into(), Json::U64(*id)),
                    ("result".into(), encode_design_result(result)),
                    ("artifact".into(), Json::Str(artifact.clone())),
                ],
            ),
            FromWorker::UnitQuarantine { id, key, error } => obj(
                "quarantine",
                vec![
                    ("id".into(), id.map_or(Json::Null, Json::U64)),
                    ("key".into(), Json::Str(key.clone())),
                    ("error".into(), encode_pipeline_error(error)),
                ],
            ),
            FromWorker::Artifact { key, doc } => obj(
                "artifact",
                vec![
                    ("key".into(), Json::Str(key.clone())),
                    ("doc".into(), Json::Str(doc.clone())),
                ],
            ),
            FromWorker::Bye { counts } => obj(
                "bye",
                counts
                    .fields()
                    .iter()
                    .map(|&(name, value)| (name.to_string(), Json::U64(value)))
                    .collect(),
            ),
            FromWorker::Fatal { message } => obj(
                "fatal",
                vec![("message".into(), Json::Str(message.clone()))],
            ),
        }
        .to_string()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line.
    pub fn decode(line: &str) -> Result<Self, String> {
        let json = Json::parse(line)?;
        let kind = json.get("type").and_then(Json::as_str).unwrap_or_default();
        let shape = || format!("bad `{kind}` message: {line}");
        match kind {
            "hello-ack" => (|| {
                Some(FromWorker::HelloAck {
                    shard: json.get("shard")?.as_u64()? as usize,
                    proto: json.get("proto")?.as_u64()?,
                })
            })()
            .ok_or_else(shape),
            "heartbeat" => (|| {
                Some(FromWorker::Heartbeat {
                    shard: json.get("shard")?.as_u64()? as usize,
                    inflight: json.get("inflight")?.as_u64()?,
                })
            })()
            .ok_or_else(shape),
            "result" => (|| {
                Some(FromWorker::UnitResult {
                    id: json.get("id")?.as_u64()?,
                    result: decode_design_result(json.get("result")?)?,
                    artifact: json.get("artifact")?.as_str()?.to_string(),
                })
            })()
            .ok_or_else(shape),
            "quarantine" => (|| {
                let id = match json.get("id")? {
                    Json::Null => None,
                    v => Some(v.as_u64()?),
                };
                Some(FromWorker::UnitQuarantine {
                    id,
                    key: json.get("key")?.as_str()?.to_string(),
                    error: decode_pipeline_error(json.get("error")?)?,
                })
            })()
            .ok_or_else(shape),
            "artifact" => (|| {
                Some(FromWorker::Artifact {
                    key: json.get("key")?.as_str()?.to_string(),
                    doc: json.get("doc")?.as_str()?.to_string(),
                })
            })()
            .ok_or_else(shape),
            "bye" => WalkCounts::decode(&json)
                .map(|counts| FromWorker::Bye { counts })
                .ok_or_else(shape),
            "fatal" => (|| {
                Some(FromWorker::Fatal {
                    message: json.get("message")?.as_str()?.to_string(),
                })
            })()
            .ok_or_else(shape),
            other => Err(format!("unknown worker message type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_exocore::WorkloadMetrics;
    use prism_pipeline::Stage;

    #[test]
    fn coordinator_messages_roundtrip() {
        let msgs = [
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
        ];
        for m in msgs {
            let line = m.encode();
            assert!(!line.contains('\n'), "framing broken: {line}");
            assert_eq!(ToWorker::decode(&line).unwrap(), m);
        }
    }

    #[test]
    fn worker_messages_roundtrip() {
        let result = DesignResult {
            label: "OOO2-SDN".into(),
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
        };
        let msgs = [
            FromWorker::HelloAck { shard: 1, proto: 2 },
            FromWorker::Heartbeat {
                shard: 1,
                inflight: 2,
            },
            FromWorker::UnitResult {
                id: 5,
                result,
                artifact: "12".repeat(32),
            },
            FromWorker::Artifact {
                key: "34".repeat(32),
                doc: String::new(),
            },
            FromWorker::Artifact {
                key: "ef".repeat(32),
                doc: "{\"schema\":2,\"payload\":\"with \\\"quotes\\\" and \\n newline\"}".into(),
            },
            FromWorker::UnitQuarantine {
                id: Some(6),
                key: "OOO4-T".into(),
                error: PipelineError::panicked("OOO4-T", Stage::Evaluate, "boom\nwith newline"),
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
        ];
        for m in msgs {
            let line = m.encode();
            assert!(!line.contains('\n'), "framing broken: {line}");
            assert_eq!(FromWorker::decode(&line).unwrap(), m);
        }
    }

    #[test]
    fn garbled_lines_are_typed_errors() {
        for bad in [
            "",
            "{",
            "{\"type\":\"warp\"}",
            "{\"type\":\"assign\"}",
            "{\"type\":\"fetch\"}",
            "{\"type\":\"artifact\",\"key\":7}",
        ] {
            assert!(FromWorker::decode(bad).is_err(), "{bad:?}");
            assert!(ToWorker::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn v3_frames_require_every_field() {
        // The handshake refuses any other version, so a `result` without
        // its artifact key or a `bye` without its counters is garbled.
        let result = FromWorker::UnitResult {
            id: 3,
            result: DesignResult {
                label: "IO2-".into(),
                core: "IO2".into(),
                bsas: String::new(),
                area_mm2: 1.0,
                per_workload: vec![],
            },
            artifact: "ab".repeat(32),
        }
        .encode();
        let stripped = result.replace(&format!(",\"artifact\":\"{}\"", "ab".repeat(32)), "");
        assert_ne!(result, stripped);
        assert!(FromWorker::decode(&stripped).is_err(), "{stripped}");
        let bye = FromWorker::Bye {
            counts: WalkCounts::default(),
        }
        .encode();
        let stripped = bye.replace(",\"table_timings_loaded\":0", "");
        assert_ne!(bye, stripped);
        assert!(FromWorker::decode(&stripped).is_err(), "{stripped}");
        assert!(FromWorker::decode("{\"type\":\"bye\"}").is_err());
    }
}
