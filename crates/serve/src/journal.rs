//! The per-session durable edit journal.
//!
//! One file per session under the server's `--state-dir`, append-only.
//! The first record is a *snapshot* (the session name and the full
//! MiniProc source text it was opened with); every applied edit-script
//! line follows as its own *edit* record, in application order. Replaying
//! snapshot + edits through the same `Script::parse → resolve → apply`
//! pipeline the live server uses reconstructs the session bit-identically
//! (`recover.rs` proves it against a from-scratch analyzer).
//!
//! On-disk record framing mirrors the wire framing in [`crate::frame`],
//! with one addition — a checksum, because a file that survived a crash
//! is less trustworthy than a socket:
//!
//! ```text
//! [u32 len, big-endian][u32 FNV-1a of payload, big-endian][len payload bytes]
//! ```
//!
//! The scanner ([`scan_journal`]) reads records until the first byte that
//! does not form a complete, checksum-valid record and stops there: a
//! torn tail (crash mid-append) or any corruption yields the longest
//! clean *prefix*, never a panic and never trust in bytes after the
//! damage. Recovery truncates the file back to that prefix
//! ([`truncate_to`]) so the journal can keep appending.
//!
//! Crash-point injection for the kill-and-restart chaos wall reads
//! `MODREF_CRASH=<site>:<n>` — the process aborts at the `n`-th hit of
//! `<site>` (`serve.journal.append` aborts before a write,
//! `serve.journal.torn` writes a deliberately half-finished record first,
//! `serve.journal.fsync` aborts after the write but before the sync).
//! Like `MODREF_FAULT`, it is a test hook and never armed implicitly.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use modref_trace::{escape_json, parse_json, Json};

/// Hard cap on one journal record's payload. Program snapshots dominate;
/// 4 MiB is four times the wire frame cap, so anything a session could
/// legally be opened with fits.
pub const MAX_RECORD_LEN: usize = 4 << 20;

/// Bytes of framing overhead per record (length prefix + checksum).
pub const RECORD_HEADER_LEN: usize = 8;

/// One durable journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// The session's origin: name plus full program source. Always the
    /// first record of a journal.
    Snapshot {
        /// Session name (matches the filename's decoded form).
        session: String,
        /// MiniProc source text the session was opened with.
        program: String,
    },
    /// One applied edit-script line, in the `--edits` grammar.
    Edit {
        /// The raw script line, exactly as applied.
        line: String,
    },
}

impl JournalRecord {
    /// The JSON payload for this record.
    pub fn render(&self) -> String {
        match self {
            JournalRecord::Snapshot { session, program } => format!(
                "{{\"v\":1,\"type\":\"snapshot\",\"session\":\"{}\",\"program\":\"{}\"}}",
                escape_json(session),
                escape_json(program)
            ),
            JournalRecord::Edit { line } => {
                format!(
                    "{{\"v\":1,\"type\":\"edit\",\"line\":\"{}\"}}",
                    escape_json(line)
                )
            }
        }
    }

    /// Parses one record payload.
    ///
    /// # Errors
    ///
    /// Describes the malformation (bad JSON, unknown type, missing
    /// fields); scanning treats any of these as corruption.
    pub fn parse(payload: &[u8]) -> Result<JournalRecord, String> {
        let text =
            std::str::from_utf8(payload).map_err(|_| "journal record is not UTF-8".to_owned())?;
        let root = parse_json(text).map_err(|e| format!("bad journal JSON: {e}"))?;
        let field = |key: &str| {
            root.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("journal record is missing string `{key}`"))
        };
        match root.get("type").and_then(Json::as_str) {
            Some("snapshot") => Ok(JournalRecord::Snapshot {
                session: field("session")?,
                program: field("program")?,
            }),
            Some("edit") => Ok(JournalRecord::Edit {
                line: field("line")?,
            }),
            Some(other) => Err(format!("unknown journal record type `{other}`")),
            None => Err("journal record is missing `type`".to_owned()),
        }
    }
}

/// 32-bit FNV-1a over `bytes`. A one-byte change anywhere always changes
/// the digest (each step is a bijection on the running state), which is
/// exactly the corruption class a torn-write scanner must catch.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A record whose payload exceeds [`MAX_RECORD_LEN`]. Writing it anyway
/// would persist a length prefix the scanner rejects, so every record
/// after it on disk would read back as corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedRecord {
    /// The payload length that broke the cap.
    pub declared: usize,
}

impl std::fmt::Display for OversizedRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oversized journal record: {} bytes, limit {MAX_RECORD_LEN}",
            self.declared
        )
    }
}

impl std::error::Error for OversizedRecord {}

/// Encodes one record: length prefix, checksum, payload.
///
/// # Errors
///
/// [`OversizedRecord`] when the payload exceeds [`MAX_RECORD_LEN`] —
/// symmetric with the scanner, which treats such a prefix as torn.
pub fn encode_record(rec: &JournalRecord) -> Result<Vec<u8>, OversizedRecord> {
    let payload = rec.render().into_bytes();
    if payload.len() > MAX_RECORD_LEN {
        return Err(OversizedRecord {
            declared: payload.len(),
        });
    }
    debug_assert!(!payload.is_empty());
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_be_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append — an acknowledged edit survives even a
    /// power cut. The default.
    Always,
    /// Never `fsync` explicitly; appends reach the kernel page cache
    /// only. Survives a process crash (the kernel still holds the
    /// bytes), not a host crash. For benchmarks and tests.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag value.
    ///
    /// # Errors
    ///
    /// Anything other than `always` or `never`.
    pub fn parse(text: &str) -> Result<FsyncPolicy, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy `{other}` (expected always|never)"
            )),
        }
    }
}

/// The journal filename for `session` under `dir`: bytes outside
/// `[A-Za-z0-9_-]` are percent-encoded so any session name maps to a
/// distinct, filesystem-safe `<encoded>.journal`.
pub fn path_for(dir: &Path, session: &str) -> PathBuf {
    let mut name = String::with_capacity(session.len() + 8);
    for &b in session.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => name.push(b as char),
            other => {
                use std::fmt::Write as _;
                let _ = write!(name, "%{other:02x}");
            }
        }
    }
    name.push_str(".journal");
    dir.join(name)
}

/// Decodes a `path_for` filename back to the session name, if it is one.
pub fn session_for(path: &Path) -> Option<String> {
    let stem = path.file_name()?.to_str()?.strip_suffix(".journal")?;
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// An open, append-only session journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    appended: u64,
}

impl Journal {
    /// Creates (truncating any stale file) the journal for `session`
    /// under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(dir: &Path, session: &str, policy: FsyncPolicy) -> std::io::Result<Journal> {
        let path = path_for(dir, session);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Journal {
            file,
            path,
            policy,
            appended: 0,
        })
    }

    /// Reopens an existing journal for appending (resurrection and
    /// startup recovery — the caller has already scanned and, if needed,
    /// truncated it).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append_to(path: &Path, policy: FsyncPolicy) -> std::io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_owned(),
            policy,
            appended: 0,
        })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes appended through this handle (framing included).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one record (write only — [`Journal::commit`] applies the
    /// fsync policy, so the server can interleave its guard checkpoint
    /// between the two), returning the bytes written. Honors the
    /// `MODREF_CRASH` chaos hook.
    ///
    /// # Errors
    ///
    /// An [`OversizedRecord`] surfaces as `InvalidInput` *before* any
    /// byte reaches the file, so the journal stays clean. Otherwise
    /// propagates filesystem failures; after one, the caller must treat
    /// the journal as dead (the on-disk prefix is still valid, but no
    /// later record may ever be appended past a missing one).
    pub fn append(&mut self, rec: &JournalRecord) -> std::io::Result<u64> {
        maybe_crash("serve.journal.append");
        let bytes = encode_record(rec)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        if crash_armed("serve.journal.torn") {
            // Chaos: persist a deliberately torn tail — header plus half
            // the payload — exactly what a crash mid-`write` leaves.
            let cut = RECORD_HEADER_LEN + (bytes.len() - RECORD_HEADER_LEN) / 2;
            let _ = self.file.write_all(&bytes[..cut]);
            let _ = self.file.sync_all();
            std::process::abort();
        }
        self.file.write_all(&bytes)?;
        maybe_crash("serve.journal.fsync");
        self.appended += bytes.len() as u64;
        Ok(bytes.len() as u64)
    }

    /// Makes the last append durable per the fsync policy (a no-op under
    /// [`FsyncPolicy::Never`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn commit(&mut self) -> std::io::Result<()> {
        if matches!(self.policy, FsyncPolicy::Always) {
            self.file.sync_all()?;
        }
        Ok(())
    }

    /// Forces everything appended so far to disk regardless of policy
    /// (eviction and drain call this before letting go of a session).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// What a scan found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// Every complete, checksum-valid record, in order.
    pub records: Vec<JournalRecord>,
    /// Byte length of that clean prefix.
    pub good_bytes: u64,
    /// Whether anything (torn tail, corruption) followed the prefix.
    pub torn: bool,
}

/// Scans raw journal bytes into the longest clean record prefix. Pure,
/// total, and panic-free on arbitrary input — the property suite feeds
/// it cuts at every byte and seeded corruption.
pub fn scan_bytes(bytes: &[u8]) -> JournalScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let rest = &bytes[at..];
        if rest.is_empty() {
            return JournalScan {
                records,
                good_bytes: at as u64,
                torn: false,
            };
        }
        let torn = |records: Vec<JournalRecord>| JournalScan {
            records,
            good_bytes: at as u64,
            torn: true,
        };
        if rest.len() < RECORD_HEADER_LEN {
            return torn(records);
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len == 0 || len > MAX_RECORD_LEN || rest.len() < RECORD_HEADER_LEN + len {
            return torn(records);
        }
        let want = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        if fnv1a(payload) != want {
            return torn(records);
        }
        match JournalRecord::parse(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => return torn(records),
        }
        at += RECORD_HEADER_LEN + len;
    }
}

/// Reads and scans a journal file.
///
/// # Errors
///
/// Propagates filesystem failures (a *corrupt* file is not an error —
/// the scan reports the clean prefix and `torn`).
pub fn scan_journal(path: &Path) -> std::io::Result<JournalScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(scan_bytes(&bytes))
}

/// Truncates the journal file back to its clean prefix and syncs, so
/// appends resume from a record boundary.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn truncate_to(path: &Path, good_bytes: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(good_bytes)?;
    file.sync_all()
}

/// The parsed `MODREF_CRASH=<site>:<n>` spec, if armed. Read once.
fn crash_spec() -> Option<&'static (String, u64)> {
    static SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
    SPEC.get_or_init(|| {
        let raw = std::env::var("MODREF_CRASH").ok()?;
        let (site, n) = raw.rsplit_once(':')?;
        let n: u64 = n.parse().ok()?;
        (!site.is_empty() && n > 0).then(|| (site.to_owned(), n))
    })
    .as_ref()
}

/// Counts a hit at `site`; true exactly on the armed `n`-th hit.
fn crash_armed(site: &str) -> bool {
    let Some((armed_site, n)) = crash_spec() else {
        return false;
    };
    if armed_site != site {
        return false;
    }
    static HITS: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());
    let mut hits = HITS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (name, count) in hits.iter_mut() {
        if name == site {
            *count += 1;
            return *count == *n;
        }
    }
    hits.push((site.to_owned(), 1));
    1 == *n
}

/// Aborts the process at the armed hit of `site` — the chaos wall's
/// stand-in for `kill -9` at a precise point in the edit stream.
pub fn maybe_crash(site: &str) {
    if crash_armed(site) {
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let cases = vec![
            JournalRecord::Snapshot {
                session: "s \"quoted\"\n".into(),
                program: "var g;\nmain { call p(); }\np(x) { }\n".into(),
            },
            JournalRecord::Edit {
                line: "set-local p mod=g use=g\t# note".into(),
            },
        ];
        for rec in cases {
            let bytes = encode_record(&rec).expect("fits the cap");
            let scan = scan_bytes(&bytes);
            assert_eq!(scan.records, vec![rec]);
            assert_eq!(scan.good_bytes, bytes.len() as u64);
            assert!(!scan.torn);
        }
    }

    #[test]
    fn encode_enforces_the_record_cap_at_the_boundary() {
        // `line` is pure ASCII with nothing to escape, so the payload
        // length is the fixed JSON envelope plus the line length — that
        // lets the test hit the cap exactly.
        let envelope = JournalRecord::Edit {
            line: String::new(),
        }
        .render()
        .len();
        let at_cap = JournalRecord::Edit {
            line: "a".repeat(MAX_RECORD_LEN - envelope),
        };
        let bytes = encode_record(&at_cap).expect("cap-sized record encodes");
        assert_eq!(bytes.len(), RECORD_HEADER_LEN + MAX_RECORD_LEN);
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records, vec![at_cap]);
        assert!(!scan.torn);

        // One byte over: typed error, nothing encoded — and the scanner
        // agrees the declared length is illegal (symmetry).
        let over = JournalRecord::Edit {
            line: "a".repeat(MAX_RECORD_LEN - envelope + 1),
        };
        assert_eq!(
            encode_record(&over).unwrap_err(),
            OversizedRecord {
                declared: MAX_RECORD_LEN + 1
            }
        );

        // The append path surfaces it as InvalidInput before any write.
        let dir = std::env::temp_dir().join(format!("modref-oversize-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = path_for(&dir, "cap");
        let mut journal = Journal::create(&dir, "cap", FsyncPolicy::Never).expect("creates");
        let err = journal.append(&over).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(journal.appended(), 0, "no bytes reach the file");
        let scan = scan_journal(&path).expect("scans");
        assert!(scan.records.is_empty() && !scan.torn, "journal stays clean");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_stops_at_first_damage_without_panic() {
        let mut bytes = encode_record(&JournalRecord::Edit {
            line: "remove-call 0".into(),
        })
        .expect("fits the cap");
        let one = bytes.len();
        bytes.extend_from_slice(
            &encode_record(&JournalRecord::Edit {
                line: "add-call main p args=g".into(),
            })
            .expect("fits the cap"),
        );
        // Flip one payload byte of the second record.
        let flip = one + RECORD_HEADER_LEN + 3;
        bytes[flip] ^= 0x40;
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.good_bytes, one as u64);
        assert!(scan.torn);
    }

    #[test]
    fn filenames_encode_and_decode_any_session_name() {
        let dir = Path::new("/tmp/state");
        for name in [
            "plain",
            "has space",
            "dots.and/slash",
            "é-unicode",
            "%already",
        ] {
            let path = path_for(dir, name);
            let file = path.file_name().unwrap().to_str().unwrap();
            assert!(file.ends_with(".journal"));
            assert!(
                file.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"%_-.".contains(&b)),
                "unsafe byte in {file}"
            );
            assert_eq!(session_for(&path).as_deref(), Some(name));
        }
        assert_ne!(
            path_for(dir, "a/b").file_name(),
            path_for(dir, "a_b").file_name(),
            "distinct names must map to distinct files"
        );
    }
}
