//! Property wall for the durable edit journal (`modref_serve::journal`).
//!
//! The journal scanner must be total and prefix-exact: for *any* byte
//! stream — clean record sequences, streams cut at every byte, single
//! flipped bits, or pure garbage — [`scan_bytes`] yields exactly the
//! longest clean record prefix, never panics, and never trusts a byte
//! after the first damage. Failures replay with
//! `MODREF_SEED=<seed> cargo test -p modref-serve --test journal_props`.

use modref_check::prelude::*;
use modref_serve::journal::{
    encode_record, path_for, scan_bytes, scan_journal, session_for, truncate_to, FsyncPolicy,
    Journal, JournalRecord, RECORD_HEADER_LEN,
};

fn arb_record() -> BoxedStrategy<JournalRecord> {
    let snap = (arbitrary_text(0..40), arbitrary_text(0..200))
        .map(|(session, program)| JournalRecord::Snapshot { session, program })
        .boxed();
    let edit = arbitrary_text(0..60)
        .map(|line| JournalRecord::Edit { line })
        .boxed();
    one_of(vec![snap, edit]).boxed()
}

fn arb_records() -> BoxedStrategy<Vec<JournalRecord>> {
    vec_of(arb_record(), 1..6).boxed()
}

fn concat(records: &[JournalRecord]) -> Vec<u8> {
    records
        .iter()
        .flat_map(|r| encode_record(r).expect("fits the cap"))
        .collect()
}

/// How many whole records fit in the first `cut` bytes, and where that
/// last whole record ends.
fn prefix_at(records: &[JournalRecord], cut: usize) -> (usize, usize) {
    let (mut k, mut boundary) = (0usize, 0usize);
    for r in records {
        let next = boundary + encode_record(r).expect("fits the cap").len();
        if next > cut {
            break;
        }
        boundary = next;
        k += 1;
    }
    (k, boundary)
}

property! {
    #![cases = 256]

    /// Encode → scan round-trips any record sequence exactly, including
    /// control characters, quotes, and multi-byte text in every field.
    fn encode_scan_round_trip(records in arb_records()) {
        let stream = concat(&records);
        let scan = scan_bytes(&stream);
        prop_assert_eq!(&scan.records, &records);
        prop_assert_eq!(scan.good_bytes, stream.len() as u64);
        prop_assert!(!scan.torn, "clean stream reported torn");
    }

    /// Cutting a valid stream at an arbitrary byte yields exactly the
    /// whole records before the cut; the torn flag fires iff the cut is
    /// off a record boundary.
    fn cut_streams_recover_the_exact_record_prefix(case in (arb_records(), any_u64())) {
        let (records, cut_seed) = case;
        let stream = concat(&records);
        let cut = (cut_seed as usize) % (stream.len() + 1);
        let (k, boundary) = prefix_at(&records, cut);
        let scan = scan_bytes(&stream[..cut]);
        prop_assert_eq!(&scan.records[..], &records[..k], "wrong prefix at cut {}", cut);
        prop_assert_eq!(scan.good_bytes, boundary as u64);
        prop_assert_eq!(scan.torn, cut != boundary, "torn flag wrong at cut {}", cut);
    }

    /// Flipping a single bit anywhere invalidates exactly the record it
    /// lands in: the scan keeps every record before it, reports torn,
    /// and trusts nothing after. (FNV-1a catches every single-byte
    /// payload change; a flipped header fails its own length or
    /// checksum comparison.)
    fn single_bit_flips_are_always_detected(case in (arb_records(), any_u64(), any_u64())) {
        let (records, pos_seed, bit_seed) = case;
        let mut stream = concat(&records);
        let pos = (pos_seed as usize) % stream.len();
        stream[pos] ^= 1u8 << (bit_seed % 8);
        let (k, boundary) = prefix_at(&records, pos);
        let scan = scan_bytes(&stream);
        prop_assert_eq!(&scan.records[..], &records[..k], "flip at {} leaked past damage", pos);
        prop_assert_eq!(scan.good_bytes, boundary as u64);
        prop_assert!(scan.torn, "flip at {} not reported torn", pos);
    }

    /// Arbitrary garbage never panics the scanner, and whatever it
    /// accepts re-encodes to exactly the bytes it consumed.
    fn garbage_never_panics_and_accepted_prefixes_are_real(bytes in
        vec_of(ints_inclusive(0usize..=255), 0..200)
            .map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>())
            .boxed())
    {
        let scan = scan_bytes(&bytes);
        prop_assert!(scan.good_bytes as usize <= bytes.len());
        let reencoded = concat(&scan.records);
        prop_assert_eq!(
            &reencoded[..], &bytes[..scan.good_bytes as usize],
            "accepted prefix does not round-trip"
        );
    }
}

/// The exhaustive version of the cut property: every byte position of a
/// fixed two-record stream, no sampling.
#[test]
fn cut_at_every_byte_is_prefix_exact() {
    let records = vec![
        JournalRecord::Snapshot {
            session: "s".into(),
            program: "var g;\nmain { g = 1; }\n".into(),
        },
        JournalRecord::Edit {
            line: "set-local p mod=g use=g".into(),
        },
    ];
    let stream = concat(&records);
    for cut in 0..=stream.len() {
        let (k, boundary) = prefix_at(&records, cut);
        let scan = scan_bytes(&stream[..cut]);
        assert_eq!(&scan.records[..], &records[..k], "cut {cut}");
        assert_eq!(scan.good_bytes, boundary as u64, "cut {cut}");
        assert_eq!(scan.torn, cut != boundary, "cut {cut}");
    }
}

/// File-level torn-tail repair: a journal with trailing damage scans to
/// its clean prefix, truncates back to it, and accepts appends again.
#[test]
fn torn_tail_truncates_and_the_journal_resumes_appending() {
    let dir = std::env::temp_dir().join(format!("modref-journal-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");

    let mut journal = Journal::create(&dir, "torn", FsyncPolicy::Never).expect("journal creates");
    let first = JournalRecord::Snapshot {
        session: "torn".into(),
        program: "var g;\nmain { g = 1; }\n".into(),
    };
    let second = JournalRecord::Edit {
        line: "set-local p mod=g".into(),
    };
    journal.append(&first).expect("append 1");
    journal.append(&second).expect("append 2");
    journal.sync().expect("sync");
    let path = journal.path().to_owned();
    drop(journal);

    // Simulate a crash mid-append: a half-written third record.
    let torn = encode_record(&JournalRecord::Edit {
        line: "remove-call 0".into(),
    })
    .expect("fits the cap");
    let mut tail = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("reopens");
    std::io::Write::write_all(&mut tail, &torn[..RECORD_HEADER_LEN + 3]).expect("tears");
    drop(tail);

    let scan = scan_journal(&path).expect("scans");
    assert_eq!(scan.records.len(), 2, "clean prefix is the two records");
    assert!(scan.torn);
    truncate_to(&path, scan.good_bytes).expect("truncates");

    let rescan = scan_journal(&path).expect("rescans");
    assert_eq!(rescan.records, vec![first.clone(), second.clone()]);
    assert!(!rescan.torn, "truncated journal is clean");

    let mut resumed = Journal::append_to(&path, FsyncPolicy::Always).expect("reopens");
    let third = JournalRecord::Edit {
        line: "add-call main p args=g".into(),
    };
    resumed.append(&third).expect("appends past the repair");
    resumed.commit().expect("commits");
    drop(resumed);

    let last = scan_journal(&path).expect("scans again");
    assert_eq!(last.records, vec![first, second, third]);
    assert!(!last.torn);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The filename codec holds for names the property text generator emits.
#[test]
fn journal_paths_round_trip_generated_names() {
    let dir = std::path::Path::new("/tmp/state");
    for name in ["a", "sess-1", "UPPER_lower-9", "with space", "sl/ash", "é"] {
        let path = path_for(dir, name);
        assert_eq!(session_for(&path).as_deref(), Some(name), "name {name:?}");
    }
}
