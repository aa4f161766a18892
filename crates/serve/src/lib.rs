//! `modref-serve`: a long-lived analysis daemon multiplexing concurrent
//! incremental MOD/USE sessions over TCP.
//!
//! The batch CLI answers one question per process; real consumers (an
//! IDE, a build daemon) hold a program open, stream edits at it, and
//! query between keystrokes. This crate keeps one
//! [`IncrementalEngine`](modref_incr::IncrementalEngine) per named
//! *session* behind a dependency-free `std::net` server speaking
//! length-prefixed JSON-RPC:
//!
//! * [`frame`] — the wire framing: 4-byte big-endian length prefix +
//!   UTF-8 JSON payload, with typed rejection of zero-length, oversized,
//!   and truncated frames.
//! * [`proto`] — the request/response vocabulary (`open`, `edit`,
//!   `query`, `close`, `stats`) and the three-valued `ok` / `degraded` /
//!   `error` status that mirrors the CLI's 0/1/3 exit contract.
//! * [`server`] — the daemon: session table, per-connection handler
//!   threads, and per-request [`Guard`](modref_guard::Guard)
//!   budgets/deadlines so one pathological request degrades *its own
//!   response* (to sound, widened sets) instead of starving sibling
//!   sessions. Every request records an `incr.serve` trace span and
//!   feeds the latency counters that `stats` reports. At the live-session
//!   cap it parks (LRU-evicts) idle sessions and resurrects them
//!   transparently on next use; at the connection cap it sheds with a
//!   typed `overloaded` + retry hint instead of hanging.
//! * [`journal`] — per-session durability: an append-only,
//!   length-prefixed, checksummed record stream (program snapshot + one
//!   record per applied edit) under `--state-dir`, with a torn-tail scan
//!   that never panics on damaged bytes.
//! * [`recover`] — startup recovery: scan + truncate every journal,
//!   replay the newest into engines **verified bit-identical** against a
//!   from-scratch analysis, park the rest, quarantine what cannot be
//!   trusted.
//! * [`client`] — a synchronous client plus the drive-script interpreter
//!   behind the CLI `client` verb; `query <s> all` output is
//!   byte-identical to `modref analyze --json` on the same program
//!   state. [`RetryPolicy`](client::RetryPolicy) gives connects and
//!   `overloaded` refusals capped exponential backoff with decorrelated
//!   jitter.
//!
//! Degradation is never silent and never unsound: a response that could
//! not be computed exactly (guard trip, contained panic, poisoned
//! session) comes back `status:"degraded"` with a reason, and any sets
//! it carries are over-approximations of the exact answer. The protocol
//! spec lives in `docs/SERVER.md`; the test walls are
//! `tests/frame_props.rs` (protocol fuzz), `tests/journal_props.rs`
//! (journal round-trip/corruption properties), `tests/soak.rs`
//! (concurrent clients vs. scratch analyzer oracle, with churn),
//! `tests/recover.rs` (eviction/resurrection/recovery), and
//! `tests/faults.rs` (fault-injection containment).

pub mod client;
pub mod frame;
pub mod journal;
pub mod proto;
pub mod recover;
pub mod server;

pub use client::{run_drive, run_drive_with, Client, DriveOutcome, RetryPolicy};
pub use frame::{encode_frame, read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use journal::{
    scan_bytes, scan_journal, FsyncPolicy, Journal, JournalRecord, JournalScan, MAX_RECORD_LEN,
    RECORD_HEADER_LEN,
};
pub use proto::{Envelope, QueryTarget, Request, Response, StatsSnapshot, Status};
pub use recover::{recover_dir, recover_file, verify_engine, RecoveredSession, RecoveryStats};
pub use server::{Server, ServerConfig, ServerHandle};
