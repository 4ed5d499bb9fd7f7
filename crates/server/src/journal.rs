//! `mf-journal v1` — the append-only durability log behind `serve --data-dir`.
//!
//! A durable server records every store mutation (`load`, `unload`) in one
//! plain-text journal file, `journal.mfj`, inside its data directory. On
//! boot the journal is **replayed**: the surviving instances, their exact
//! payload text, their generations and the monotone generation high-water
//! mark are reconstructed, so a restarted server answers requests
//! byte-identically to one that never died — including the
//! `(generation, fingerprint)`-keyed evaluate-cache semantics, because no
//! post-restart load can ever re-issue a pre-restart generation.
//!
//! The format follows the `mf-report v1` conventions: line-oriented plain
//! text, counted payloads, and canonical write→parse→write byte identity.
//!
//! ```text
//! mf-journal v1
//! mark 7
//! load alpha 3 5
//! tasks 1
//! machines 1
//! types 1
//! task 0 0
//! time 0 0 10
//! unload alpha
//! ```
//!
//! * `mark <floor>` — the generation floor: every generation ever issued by
//!   this data directory is **strictly below** `floor`. A replayed store
//!   resumes its counter at `max(counter, floor)`.
//! * `load <name> <generation> <count>` — followed by exactly `count`
//!   payload lines: the instance text as it arrived on the wire.
//! * `unload <name>` — the instance left the store (explicit `unload` or a
//!   byte-cap eviction).
//!
//! # Compaction
//!
//! The journal is **write-behind**: an in-memory shadow map of the live
//! instances is updated first, then the record is appended and flushed.
//! A load is encoded once, into one exactly-sized string, and the shadow
//! holds that string only while the record is **pending** — until its
//! append succeeds. From then on the shadow keeps just the record's span
//! (offset and length) in the current file, so the server never holds a
//! second copy of the instance text its store already holds parsed. Every
//! [`COMPACT_EVERY`] appends — and once on every boot — the file is
//! rewritten from the shadow as one snapshot: the header and `mark`, then
//! the live records in load order, oldest first. Durable records are read
//! back from the old file one at a time (seek plus `read_exact` into one
//! reused buffer), pending ones come from memory, and every entry takes its
//! span in the new file once the rewrite is in place. The rewrite goes
//! through a temp file and `rename`, so it is atomic, and the file stays
//! proportional to the live set instead of the full history. Only
//! [`Journal::live_instances`], on the boot path, splits records back into
//! payload lines. Keeping load order through compaction and replay lets a
//! restarted store approximate its pre-crash LRU recency (`get` touches are
//! not journaled, so eviction parity under byte-cap pressure is approximate,
//! not exact).
//!
//! # Crash safety
//!
//! Appends are flushed to the OS before the response leaves the server, but
//! the journal never calls `fsync` — a `SIGKILL` loses nothing, a power cut
//! may lose the OS write-back window. A record torn mid-append (the process
//! died inside `write`) is discarded at the next boot: replay stops at the
//! first undecodable record and the boot compaction rewrites the file from
//! exactly the state that survived.
//!
//! A *runtime* append failure (disk full mid-`write`) can tear the tail the
//! same way while the process lives on. The writer is then **poisoned**:
//! nothing is ever appended after possibly-torn bytes. The failed record
//! stays pending in the shadow, and the journal immediately tries to heal
//! by rewriting the file from the shadow: the pending record from memory,
//! every durable record from its span, all of which lie before the torn
//! bytes. If that also fails, the old file and its spans stay as they were,
//! and every subsequent append retries the rewrite first — so acknowledged
//! records can never end up stranded behind a tear that replay would
//! discard.
//!
//! A thread that panics while appending (the lock held, the tail perhaps
//! torn) does not take the journal with it: the next caller recovers the
//! lock and finds the writer poisoned and the record still pending, so its
//! append heals by compaction the same way.
//!
//! One process per data directory is enforced with an advisory `flock` on a
//! sibling [`LOCK_FILE`]: a second `Journal::open` on a locked directory
//! fails fast with [`JournalError::Locked`] instead of silently interleaving
//! appends. The lock follows the file description, so it releases the
//! moment the holder dies — `SIGKILL` included — and can never go stale.

use crate::proto::line_separators;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Format magic — the first line of every journal file.
pub const JOURNAL_FORMAT: &str = "mf-journal v1";

/// File name of the journal inside a `--data-dir` directory.
pub const JOURNAL_FILE: &str = "journal.mfj";

/// File name of the advisory lock inside a `--data-dir` directory. The lock
/// lives on its own file (not on the journal) because compaction replaces
/// the journal's inode on every atomic rename, which would silently drop a
/// lock held on it.
pub const LOCK_FILE: &str = "journal.lock";

/// Appends between automatic compactions. Each compaction rewrites the file
/// from the live shadow map, so the file length is bounded by
/// `live set + COMPACT_EVERY` records regardless of churn.
pub const COMPACT_EVERY: u64 = 64;

/// Errors raised when opening, appending to, or parsing a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io {
        /// One-line description of the failure.
        detail: String,
    },
    /// The file is not a journal in the expected format.
    Malformed {
        /// 1-based line number of the offending line (0 for global issues).
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// A name or payload line contained a newline (or a name contained
    /// whitespace) and cannot be journaled losslessly.
    UnencodableText {
        /// The offending text.
        text: String,
    },
    /// Another process already holds the data directory's journal lock —
    /// two servers appending to one journal would corrupt each other's
    /// state, so the second opener fails fast instead.
    Locked {
        /// The contended data directory.
        dir: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { detail } => write!(f, "journal io failed: {detail}"),
            JournalError::Malformed { line, detail } => {
                write!(f, "malformed journal at line {line}: {detail}")
            }
            JournalError::UnencodableText { text } => {
                write!(f, "text cannot be journaled losslessly: {text:?}")
            }
            JournalError::Locked { dir } => {
                write!(
                    f,
                    "data directory `{dir}` is locked by another server process"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(error: std::io::Error) -> Self {
        JournalError::Io {
            detail: error.to_string(),
        }
    }
}

/// Result alias for journal operations.
pub type JournalResult<T> = std::result::Result<T, JournalError>;

/// One journal record. The text forms are canonical: `records_from_text ∘
/// records_to_text` is the identity on records, and the reverse composition
/// is the identity on journal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// Generation floor: every generation ever issued is strictly below
    /// this value.
    Mark {
        /// The floor (the next generation a load may use).
        generation: u64,
    },
    /// An instance entered the store.
    Load {
        /// Store name (whitespace-free token).
        name: String,
        /// The generation the store issued for this load.
        generation: u64,
        /// The instance text, line by line, exactly as loaded.
        payload: Vec<String>,
    },
    /// An instance left the store (explicit unload or byte-cap eviction).
    Unload {
        /// Store name.
        name: String,
    },
}

fn check_name(name: &str) -> JournalResult<&str> {
    if name.is_empty() || name.contains(char::is_whitespace) {
        return Err(JournalError::UnencodableText {
            text: name.to_string(),
        });
    }
    Ok(name)
}

fn check_payload_line(line: &str) -> JournalResult<&str> {
    if line.contains('\n') || line.contains('\r') {
        return Err(JournalError::UnencodableText {
            text: line.to_string(),
        });
    }
    Ok(line)
}

/// Decimal digits of `value` — sizes a record head before writing it.
fn decimal_len(value: u64) -> usize {
    value.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// The canonical `load` record: the head line plus the counted payload
/// lines, each newline-terminated, built in one buffer reserved to its exact
/// length. Rejects an unencodable name or payload line instead of
/// corrupting the framing.
fn encode_load(name: &str, generation: u64, payload: &[String]) -> JournalResult<String> {
    let name = check_name(name)?;
    let head_len = "load   \n".len()
        + name.len()
        + decimal_len(generation)
        + decimal_len(payload.len() as u64);
    let payload_len: usize = payload.iter().map(|line| line.len() + 1).sum();
    let mut out = String::with_capacity(head_len + payload_len);
    let _ = writeln!(out, "load {name} {generation} {}", payload.len());
    for line in payload {
        out.push_str(line);
        out.push('\n');
    }
    debug_assert_eq!(out.len(), head_len + payload_len);
    // One pass over the block validates every line at once: it holds one
    // separator per line unless some line carries its own `\n` or `\r`.
    if line_separators(&out[head_len..]) != payload.len() {
        for line in payload {
            check_payload_line(line)?;
        }
    }
    Ok(out)
}

/// The canonical `unload` record.
fn encode_unload(name: &str) -> JournalResult<String> {
    Ok(format!("unload {}\n", check_name(name)?))
}

impl JournalRecord {
    /// The canonical text of this record (head line plus counted payload
    /// lines, each newline-terminated). Rejects unencodable names and
    /// payload lines instead of corrupting the framing.
    pub fn to_text(&self) -> JournalResult<String> {
        match self {
            JournalRecord::Mark { generation } => Ok(format!("mark {generation}\n")),
            JournalRecord::Load {
                name,
                generation,
                payload,
            } => encode_load(name, *generation, payload),
            JournalRecord::Unload { name } => encode_unload(name),
        }
    }
}

/// Serializes a full journal: the format header followed by the records.
pub fn records_to_text(records: &[JournalRecord]) -> JournalResult<String> {
    let mut out = String::from(JOURNAL_FORMAT);
    out.push('\n');
    for record in records {
        out.push_str(&record.to_text()?);
    }
    Ok(out)
}

/// Strictly parses a full journal (header plus records). Any torn or
/// unrecognized line is an error — the tolerant boot-replay path lives in
/// [`Journal::open`].
pub fn records_from_text(text: &str) -> JournalResult<Vec<JournalRecord>> {
    let mut cursor = LineCursor::new(text);
    match cursor.next_line() {
        Some(Some(header)) if header == JOURNAL_FORMAT => {}
        Some(Some(header)) => {
            return Err(JournalError::Malformed {
                line: 1,
                detail: format!("expected `{JOURNAL_FORMAT}` header, found `{header}`"),
            })
        }
        Some(None) | None => {
            return Err(JournalError::Malformed {
                line: 1,
                detail: format!("expected `{JOURNAL_FORMAT}` header"),
            })
        }
    }
    let mut records = Vec::new();
    while let Some(record) = parse_record(&mut cursor)? {
        records.push(record);
    }
    Ok(records)
}

/// Line iterator tracking the 1-based line number and the bytes consumed —
/// a final line without a terminating newline is reported as torn
/// (`Some(None)`), never silently treated as complete.
struct LineCursor<'a> {
    rest: std::str::SplitInclusive<'a, char>,
    line: usize,
    consumed: usize,
}

impl<'a> LineCursor<'a> {
    fn new(text: &'a str) -> Self {
        LineCursor {
            rest: text.split_inclusive('\n'),
            line: 0,
            consumed: 0,
        }
    }

    /// `None` at EOF, `Some(None)` for a torn (unterminated) final line,
    /// `Some(Some(line))` otherwise.
    fn next_line(&mut self) -> Option<Option<&'a str>> {
        let raw = self.rest.next()?;
        self.line += 1;
        self.consumed += raw.len();
        Some(raw.strip_suffix('\n'))
    }
}

fn parse_u64(token: &str, what: &str, line: usize) -> JournalResult<u64> {
    token.parse().map_err(|_| JournalError::Malformed {
        line,
        detail: format!("bad {what} `{token}`"),
    })
}

/// Parses one record at the cursor; `Ok(None)` at EOF, `Err` on a torn or
/// unrecognized record.
fn parse_record(cursor: &mut LineCursor<'_>) -> JournalResult<Option<JournalRecord>> {
    let Some(head) = cursor.next_line() else {
        return Ok(None);
    };
    let line = cursor.line;
    let Some(head) = head else {
        return Err(JournalError::Malformed {
            line,
            detail: "record head is torn (no trailing newline)".to_string(),
        });
    };
    let tokens: Vec<&str> = head.split(' ').collect();
    let record = match tokens.as_slice() {
        ["mark", generation] => JournalRecord::Mark {
            generation: parse_u64(generation, "mark", line)?,
        },
        ["unload", name] => JournalRecord::Unload {
            name: check_name(name)
                .map_err(|_| JournalError::Malformed {
                    line,
                    detail: format!("bad instance name in `{head}`"),
                })?
                .to_string(),
        },
        ["load", name, generation, count] => {
            let name = check_name(name)
                .map_err(|_| JournalError::Malformed {
                    line,
                    detail: format!("bad instance name in `{head}`"),
                })?
                .to_string();
            let generation = parse_u64(generation, "generation", line)?;
            let count = parse_u64(count, "payload count", line)? as usize;
            let mut payload = Vec::new();
            for _ in 0..count {
                match cursor.next_line() {
                    Some(Some(payload_line)) => payload.push(payload_line.to_string()),
                    Some(None) | None => {
                        return Err(JournalError::Malformed {
                            line: cursor.line,
                            detail: format!("payload of `{head}` is torn"),
                        })
                    }
                }
            }
            JournalRecord::Load {
                name,
                generation,
                payload,
            }
        }
        _ => {
            return Err(JournalError::Malformed {
                line,
                detail: format!("unrecognized record `{head}`"),
            })
        }
    };
    Ok(Some(record))
}

/// One instance recovered from a journal replay, ready to be re-inserted
/// into a store with its original generation pinned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredInstance {
    /// Store name.
    pub name: String,
    /// The generation the original load was issued.
    pub generation: u64,
    /// The instance text, line by line, exactly as originally loaded.
    pub payload: Vec<String>,
}

/// Where a live instance's encoded `load` record is.
#[derive(Debug)]
enum RecordText {
    /// Not yet durable: the encoded record, byte for byte as the file will
    /// hold it, kept until an append or a compaction writes it.
    Pending(String),
    /// Durable: `len` bytes at `offset` in the current journal file.
    Durable { offset: u64, len: u64 },
}

/// One live instance in the write-behind shadow.
#[derive(Debug)]
struct LiveEntry {
    generation: u64,
    /// The `load` record: compaction copies it into the new file unchanged.
    record: RecordText,
    /// Load-order stamp (bumped on every load, including same-name
    /// reloads): compaction and replay emit live instances in this order,
    /// so a restarted store approximates its pre-crash LRU recency.
    seq: u64,
}

/// The live shadow, keyed by store name.
type Shadow = BTreeMap<String, LiveEntry>;

/// Fault injection for the unit tests: tear the next appends mid-write,
/// fail the next compactions, or panic mid-append while the lock is held.
#[cfg(test)]
#[derive(Debug, Default)]
struct Faults {
    tear_appends: u64,
    fail_compactions: u64,
    panic_appends: u64,
}

/// The file side of the journal: the append handle and the compaction
/// schedule.
#[derive(Debug)]
struct Writer {
    path: PathBuf,
    file: BufWriter<File>,
    /// Length of the journal file: the offset of the next append (stale
    /// while poisoned, until a compaction resets it).
    len: u64,
    appends_since_compact: u64,
    /// Set when an append failed mid-write (or panicked with the lock
    /// held): the file tail may be torn, so nothing may be appended until a
    /// compaction rewrites the file from the shadow (compaction clears the
    /// flag).
    poisoned: bool,
    compactions: u64,
    #[cfg(test)]
    faults: Faults,
}

#[derive(Debug)]
struct Inner {
    writer: Writer,
    /// Held for the journal's lifetime: the advisory `flock` on
    /// [`LOCK_FILE`]. Releases automatically when the process dies,
    /// `SIGKILL` included, so it can never go stale.
    _lock: File,
    /// Shadow of the live instance set: what compactions snapshot, with
    /// each durable record's bytes read back from the file — deliberately
    /// independent of the engine stores, so a shared multi-worker journal
    /// needs no cross-shard coordination to compact.
    live: Shadow,
    /// The next [`LiveEntry::seq`] stamp.
    next_seq: u64,
    /// Generation floor (see [`JournalRecord::Mark`]).
    mark: u64,
    entries_replayed: u64,
    bytes_replayed: u64,
    torn_tail: bool,
}

/// Writes a compacted snapshot of `live` to `path` (atomically, via a temp
/// file and rename) and returns a fresh append handle on it with the new
/// file length: the header, `mark <floor>`, then the encoded load records,
/// oldest first, so replay reconstructs load-order recency. Durable records
/// are copied from the file being replaced, one at a time; once the rename
/// lands, every entry is durable at its span in the new file. A failure
/// before the rename leaves the old file and every entry untouched.
fn write_snapshot(
    path: &Path,
    mark: u64,
    live: &mut Shadow,
) -> JournalResult<(BufWriter<File>, u64)> {
    let mut ordered: Vec<&mut LiveEntry> = live.values_mut().collect();
    ordered.sort_by_key(|entry| entry.seq);
    let tmp = path.with_extension("mfj.tmp");
    let mut file = BufWriter::new(File::create(&tmp)?);
    let head = format!("{JOURNAL_FORMAT}\nmark {mark}\n");
    file.write_all(head.as_bytes())?;
    let mut old = None;
    let mut buf = Vec::new();
    let mut spans = Vec::with_capacity(ordered.len());
    let mut end = head.len() as u64;
    for entry in &ordered {
        let bytes = match &entry.record {
            RecordText::Pending(text) => text.as_bytes(),
            RecordText::Durable { offset, len } => {
                read_span(&mut old, path, *offset, *len, &mut buf)?;
                &buf[..]
            }
        };
        file.write_all(bytes)?;
        spans.push((end, bytes.len() as u64));
        end += bytes.len() as u64;
    }
    file.into_inner().map_err(|error| error.into_error())?;
    std::fs::rename(&tmp, path)?;
    for (entry, (offset, len)) in ordered.into_iter().zip(spans) {
        entry.record = RecordText::Durable { offset, len };
    }
    let file = BufWriter::new(OpenOptions::new().append(true).open(path)?);
    Ok((file, end))
}

/// Reads the `len` bytes at `offset` of the journal file at `path` into
/// `buf`, opening `file` on first use so a run of reads shares one handle.
fn read_span(
    file: &mut Option<File>,
    path: &Path,
    offset: u64,
    len: u64,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    if file.is_none() {
        *file = Some(File::open(path)?);
    }
    let file = file.as_mut().expect("opened above");
    file.seek(SeekFrom::Start(offset))?;
    buf.resize(len as usize, 0);
    file.read_exact(buf)
}

/// What one append makes durable.
enum Append<'a> {
    /// The pending `load` record of the named live entry.
    Load(&'a str),
    /// A record the shadow does not keep (an `unload`).
    Record(&'a str),
}

/// Takes the advisory exclusive lock, failing fast (`LOCK_NB`) when another
/// open file description — typically another server process — holds it.
#[cfg(unix)]
fn try_lock_exclusive(file: &File) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    // SAFETY: `flock` takes a valid fd (owned by `file` for the duration of
    // the call) and an operation flag; no pointers are involved.
    if unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Single-process-per-data-dir is only enforced on unix; elsewhere the lock
/// file is created but not held.
#[cfg(not(unix))]
fn try_lock_exclusive(_file: &File) -> std::io::Result<()> {
    Ok(())
}

impl Writer {
    fn compact(&mut self, mark: u64, live: &mut Shadow) -> JournalResult<()> {
        #[cfg(test)]
        if self.faults.fail_compactions > 0 {
            self.faults.fail_compactions -= 1;
            return Err(JournalError::Io {
                detail: "injected compaction failure".to_string(),
            });
        }
        (self.file, self.len) = write_snapshot(&self.path, mark, live)?;
        self.appends_since_compact = 0;
        self.poisoned = false;
        self.compactions += 1;
        Ok(())
    }

    /// Appends one encoded record to the file and flushes it to the OS.
    fn write_record(&mut self, text: &str) -> std::io::Result<()> {
        #[cfg(test)]
        if self.faults.tear_appends > 0 || self.faults.panic_appends > 0 {
            // A crash-grade failure: half the record reaches the file,
            // then the write errors out (or the thread panics).
            let _ = self.file.write_all(&text.as_bytes()[..text.len() / 2]);
            let _ = self.file.flush();
            if self.faults.panic_appends > 0 {
                self.faults.panic_appends -= 1;
                panic!("injected append panic");
            }
            self.faults.tear_appends -= 1;
            return Err(std::io::Error::other("injected append failure"));
        }
        self.file.write_all(text.as_bytes())?;
        self.file.flush()?;
        self.len += text.len() as u64;
        Ok(())
    }

    /// Makes one record durable. The shadow already reflects it, so when a
    /// compaction is due — periodically, or because the writer is poisoned
    /// and must never append after possibly-torn bytes — rewriting the file
    /// from the shadow carries the record instead of appending it. A load
    /// record that is appended becomes durable at its span; one whose
    /// append fails stays pending for the healing compaction.
    fn append(&mut self, record: Append<'_>, mark: u64, live: &mut Shadow) -> JournalResult<()> {
        self.appends_since_compact += 1;
        if self.poisoned || self.appends_since_compact >= COMPACT_EVERY {
            return self.compact(mark, live);
        }
        let written = match record {
            Append::Record(text) => self.write_record(text),
            Append::Load(name) => {
                let entry = live.get_mut(name).expect("a journaled load is live");
                let RecordText::Pending(text) = &entry.record else {
                    unreachable!("a fresh load record is pending");
                };
                let (offset, len) = (self.len, text.len() as u64);
                self.write_record(text)
                    .map(|()| entry.record = RecordText::Durable { offset, len })
            }
        };
        match written {
            Ok(()) => Ok(()),
            Err(error) => {
                // The tail may now hold a torn record, and replay stops at
                // the first undecodable byte — appending after it would
                // silently discard acknowledged records on the next boot.
                // Heal immediately by rewriting from the shadow; if that
                // also fails, stay poisoned so the next append compacts
                // before anything else touches the file.
                self.poisoned = true;
                if self.compact(mark, live).is_ok() {
                    Ok(())
                } else {
                    Err(error.into())
                }
            }
        }
    }
}

/// The write-behind journal of one data directory. Thread-safe: a router's
/// workers append to one shared journal. One server process per data
/// directory, enforced by an advisory `flock` on [`LOCK_FILE`] — a second
/// opener fails fast with [`JournalError::Locked`].
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<Inner>,
}

impl Journal {
    /// Opens (creating the directory and file as needed) and replays the
    /// journal of `data_dir`, then writes a compacted boot snapshot — which
    /// heals any tail torn by a crash mid-append. Replay is tolerant of a
    /// torn tail (it stops at the first undecodable record); a file whose
    /// *header* is not `mf-journal v1` is refused outright, so a foreign
    /// file is never silently overwritten.
    pub fn open(data_dir: impl AsRef<Path>) -> JournalResult<Journal> {
        let dir = data_dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let lock = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(dir.join(LOCK_FILE))?;
        try_lock_exclusive(&lock).map_err(|_| JournalError::Locked {
            dir: dir.display().to_string(),
        })?;
        let path = dir.join(JOURNAL_FILE);
        let mut live = Shadow::new();
        let mut next_seq = 0u64;
        let mut mark = 0u64;
        let mut entries_replayed = 0u64;
        let mut bytes_replayed = 0u64;
        let mut torn_tail = false;
        let existed = path.exists();
        if existed {
            // A crash can tear mid-write: decode lossily and let the torn
            // record (now containing replacement characters at worst) stop
            // the replay exactly where durability ended.
            let raw = std::fs::read(&path)?;
            let text = String::from_utf8_lossy(&raw);
            let mut cursor = LineCursor::new(&text);
            match cursor.next_line() {
                None => {} // zero-byte file: died between create and header
                Some(None) => torn_tail = true,
                Some(Some(header)) if header != JOURNAL_FORMAT => {
                    return Err(JournalError::Malformed {
                        line: 1,
                        detail: format!(
                            "expected `{JOURNAL_FORMAT}` header, found `{header}` — refusing \
                             to overwrite a foreign file"
                        ),
                    });
                }
                Some(Some(_)) => {
                    bytes_replayed = cursor.consumed as u64;
                    loop {
                        match parse_record(&mut cursor) {
                            Ok(None) => break,
                            Ok(Some(record)) => {
                                match record {
                                    JournalRecord::Mark { generation } => {
                                        mark = mark.max(generation);
                                    }
                                    JournalRecord::Load {
                                        name,
                                        generation,
                                        payload,
                                    } => {
                                        mark = mark.max(generation + 1);
                                        // Re-encoded, so the boot snapshot
                                        // writes the canonical bytes
                                        // whatever the file spelled.
                                        let record = RecordText::Pending(encode_load(
                                            &name, generation, &payload,
                                        )?);
                                        let seq = next_seq;
                                        next_seq += 1;
                                        live.insert(
                                            name,
                                            LiveEntry {
                                                generation,
                                                record,
                                                seq,
                                            },
                                        );
                                    }
                                    JournalRecord::Unload { name } => {
                                        live.remove(&name);
                                    }
                                }
                                entries_replayed += 1;
                                bytes_replayed = cursor.consumed as u64;
                            }
                            Err(_) => {
                                torn_tail = true;
                                break;
                            }
                        }
                    }
                }
            }
        }
        let (file, len) = write_snapshot(&path, mark, &mut live)?;
        Ok(Journal {
            inner: Mutex::new(Inner {
                writer: Writer {
                    path,
                    file,
                    len,
                    appends_since_compact: 0,
                    poisoned: false,
                    // The boot snapshot of a pre-existing journal is a
                    // compaction (it rewrote history); creating a fresh file
                    // is not.
                    compactions: u64::from(existed),
                    #[cfg(test)]
                    faults: Faults::default(),
                },
                _lock: lock,
                live,
                next_seq,
                mark,
                entries_replayed,
                bytes_replayed,
                torn_tail,
            }),
        })
    }

    /// Locks the journal state. A panic while the lock was held (a worker
    /// thread dying mid-append) does not take the journal down with it:
    /// the state is recovered and the writer marked poisoned, so the next
    /// append rewrites the file from the shadow instead of appending after
    /// bytes the panic may have torn.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poison| {
            self.inner.clear_poison();
            let mut inner = poison.into_inner();
            inner.writer.poisoned = true;
            inner
        })
    }

    /// Journals a `load`: `name` now holds `payload` under `generation`.
    pub fn record_load(
        &self,
        name: &str,
        generation: u64,
        payload: &[String],
    ) -> JournalResult<()> {
        // Encode (and validate) before touching the shadow, so an
        // unencodable record cannot leave the shadow and the file
        // disagreeing.
        let record = encode_load(name, generation, payload)?;
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.mark = inner.mark.max(generation + 1);
        let entry = LiveEntry {
            generation,
            record: RecordText::Pending(record),
            seq: inner.next_seq,
        };
        inner.next_seq += 1;
        // A same-name reload reuses the key; the old record is dropped here.
        match inner.live.get_mut(name) {
            Some(slot) => *slot = entry,
            None => {
                inner.live.insert(name.to_string(), entry);
            }
        }
        inner
            .writer
            .append(Append::Load(name), inner.mark, &mut inner.live)
    }

    /// Journals an `unload` (or byte-cap eviction) of `name`.
    pub fn record_unload(&self, name: &str) -> JournalResult<()> {
        let record = encode_unload(name)?;
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.live.remove(name);
        inner
            .writer
            .append(Append::Record(&record), inner.mark, &mut inner.live)
    }

    /// The generation floor: every generation ever issued through this
    /// journal is strictly below it. A replayed store must resume its
    /// counter at least here.
    pub fn mark(&self) -> u64 {
        self.lock().mark
    }

    /// The recovered live instances in original load order (oldest load
    /// first; a same-name reload refreshes) — what a booting engine (or
    /// each router shard, after hashing the names) re-inserts. Adopting
    /// them in this order stamps store recency the way the pre-crash loads
    /// did, so byte-cap eviction after a restart approximates the
    /// uninterrupted schedule. Reads each durable record back from the file
    /// and splits it into its payload lines, so it belongs on the boot path
    /// only.
    pub fn live_instances(&self) -> JournalResult<Vec<RecoveredInstance>> {
        let inner = self.lock();
        let mut entries: Vec<(&String, &LiveEntry)> = inner.live.iter().collect();
        entries.sort_by_key(|(_, entry)| entry.seq);
        let mut file = None;
        let mut buf = Vec::new();
        let mut recovered = Vec::with_capacity(entries.len());
        for (name, entry) in entries {
            let text = match &entry.record {
                RecordText::Pending(text) => text.as_str(),
                RecordText::Durable { offset, len } => {
                    read_span(&mut file, &inner.writer.path, *offset, *len, &mut buf)?;
                    std::str::from_utf8(&buf).map_err(|_| JournalError::Malformed {
                        line: 0,
                        detail: format!("the load record of `{name}` is not UTF-8"),
                    })?
                }
            };
            recovered.push(RecoveredInstance {
                name: name.clone(),
                generation: entry.generation,
                // Skip the head line; every payload line is
                // newline-terminated.
                payload: text
                    .split_terminator('\n')
                    .skip(1)
                    .map(str::to_string)
                    .collect(),
            });
        }
        Ok(recovered)
    }

    /// Test hook: makes the next `appends` record writes tear mid-write and
    /// the next `compactions` compaction attempts fail.
    #[cfg(test)]
    fn inject_failures(&self, appends: u64, compactions: u64) {
        let mut inner = self.lock();
        inner.writer.faults.tear_appends = appends;
        inner.writer.faults.fail_compactions = compactions;
    }

    /// Test hook: makes the next record write tear mid-write and then panic
    /// with the journal lock held.
    #[cfg(test)]
    fn inject_panic(&self) {
        self.lock().writer.faults.panic_appends = 1;
    }

    /// Test hook: bytes of record text the shadow still holds (the pending
    /// records).
    #[cfg(test)]
    fn pending_bytes(&self) -> usize {
        self.lock()
            .live
            .values()
            .map(|entry| match &entry.record {
                RecordText::Pending(text) => text.len(),
                RecordText::Durable { .. } => 0,
            })
            .sum()
    }

    /// Number of live instances in the shadow map.
    pub fn len(&self) -> usize {
        self.lock().live.len()
    }

    /// `true` when no instance is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the boot replay stopped at a torn or undecodable record
    /// (which the boot snapshot then healed).
    pub fn recovered_torn_tail(&self) -> bool {
        self.lock().torn_tail
    }

    /// Path of the journal file.
    pub fn path(&self) -> PathBuf {
        self.lock().writer.path.clone()
    }

    /// The recovery counters, in fixed presentation order — the `recovery`
    /// block of the `mf-stats v1` status-export report. Replay counters are
    /// fixed at open; `journal-compactions` and `journal-live-instances`
    /// keep moving with the workload.
    pub fn status_counters(&self) -> Vec<(String, u64)> {
        let inner = self.lock();
        vec![
            (
                "journal-entries-replayed".to_string(),
                inner.entries_replayed,
            ),
            ("journal-bytes-replayed".to_string(), inner.bytes_replayed),
            ("journal-compactions".to_string(), inner.writer.compactions),
            (
                "journal-live-instances".to_string(),
                inner.live.len() as u64,
            ),
            ("journal-generation-mark".to_string(), inner.mark),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("mf-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn payload() -> Vec<String> {
        vec!["tasks 1".to_string(), "machines 1".to_string()]
    }

    #[test]
    fn records_round_trip_byte_identically() {
        let records = vec![
            JournalRecord::Mark { generation: 7 },
            JournalRecord::Load {
                name: "alpha".to_string(),
                generation: 3,
                payload: payload(),
            },
            JournalRecord::Unload {
                name: "beta".to_string(),
            },
            JournalRecord::Load {
                name: "empty".to_string(),
                generation: 6,
                payload: Vec::new(),
            },
        ];
        let text = records_to_text(&records).unwrap();
        let parsed = records_from_text(&text).unwrap();
        assert_eq!(parsed, records, "parse ∘ write must be the identity");
        assert_eq!(
            records_to_text(&parsed).unwrap(),
            text,
            "write ∘ parse must be byte-identical"
        );
    }

    #[test]
    fn unencodable_names_and_payload_lines_are_rejected() {
        for name in ["", "two words", "tab\tbed", "new\nline"] {
            let record = JournalRecord::Unload {
                name: name.to_string(),
            };
            assert!(
                matches!(record.to_text(), Err(JournalError::UnencodableText { .. })),
                "{name:?}"
            );
        }
        for bad in ["torn\nline", "carriage\rreturn"] {
            let mut payload: Vec<String> = (0..400).map(|k| format!("line {k}")).collect();
            payload[300] = bad.to_string();
            let record = JournalRecord::Load {
                name: "ok".to_string(),
                generation: 0,
                payload,
            };
            assert_eq!(
                record.to_text(),
                Err(JournalError::UnencodableText {
                    text: bad.to_string()
                })
            );
        }
    }

    #[test]
    fn malformed_text_reports_the_line() {
        let err = records_from_text("not a journal\n").unwrap_err();
        assert!(
            matches!(err, JournalError::Malformed { line: 1, .. }),
            "{err:?}"
        );
        let text = format!("{JOURNAL_FORMAT}\nmark 0\nfrobnicate x\n");
        let err = records_from_text(&text).unwrap_err();
        assert!(
            matches!(err, JournalError::Malformed { line: 3, .. }),
            "{err:?}"
        );
        // A counted payload that runs past EOF is torn, not silently short.
        let text = format!("{JOURNAL_FORMAT}\nload a 0 3\nonly\n");
        let err = records_from_text(&text).unwrap_err();
        assert!(matches!(err, JournalError::Malformed { .. }), "{err:?}");
    }

    #[test]
    fn open_replay_append_reopen_recovers_the_live_set() {
        let dir = tempdir("reopen");
        {
            let journal = Journal::open(&dir).unwrap();
            assert_eq!(journal.mark(), 0);
            assert!(journal.is_empty());
            assert_eq!(journal.status_counters()[0].1, 0, "nothing to replay");
            journal.record_load("alpha", 0, &payload()).unwrap();
            journal.record_load("beta", 1, &payload()).unwrap();
            journal.record_unload("alpha").unwrap();
            assert_eq!(journal.mark(), 2);
        }
        let journal = Journal::open(&dir).unwrap();
        assert_eq!(journal.mark(), 2, "the floor survives the unload");
        let live = journal.live_instances().unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].name, "beta");
        assert_eq!(live[0].generation, 1);
        assert_eq!(live[0].payload, payload());
        assert!(!journal.recovered_torn_tail());
        let counters = journal.status_counters();
        let get = |key: &str| {
            counters
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no counter `{key}`"))
                .1
        };
        // Boot snapshot (mark) + 3 appends survived the first process.
        assert_eq!(get("journal-entries-replayed"), 4);
        assert!(get("journal-bytes-replayed") > 0);
        assert_eq!(get("journal-compactions"), 1, "boot snapshot compacts");
        assert_eq!(get("journal-live-instances"), 1);
        assert_eq!(get("journal-generation-mark"), 2);

        // The boot snapshot is canonical: a third open replays exactly the
        // compacted form (mark + one load).
        drop(journal);
        let journal = Journal::open(&dir).unwrap();
        assert_eq!(journal.status_counters()[0].1, 2);
        assert_eq!(journal.live_instances().unwrap().len(), 1);
    }

    #[test]
    fn a_torn_tail_is_discarded_and_healed() {
        let dir = tempdir("torn");
        {
            let journal = Journal::open(&dir).unwrap();
            journal.record_load("alpha", 0, &payload()).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        // Simulate a crash mid-append: a load head whose payload never made
        // it to disk.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"load beta 1 5\ntasks 1\n").unwrap();
        drop(file);
        let journal = Journal::open(&dir).unwrap();
        assert!(journal.recovered_torn_tail());
        let live = journal.live_instances().unwrap();
        assert_eq!(live.len(), 1, "the torn load must not survive");
        assert_eq!(live[0].name, "alpha");
        assert_eq!(
            journal.mark(),
            1,
            "the torn record's generation is not durable"
        );
        drop(journal);
        // The boot snapshot healed the file: re-opening sees no tear.
        let journal = Journal::open(&dir).unwrap();
        assert!(!journal.recovered_torn_tail());
        assert_eq!(journal.live_instances().unwrap().len(), 1);
    }

    /// A torn runtime append whose immediate heal succeeds: the record is
    /// durable, nothing was appended after the torn bytes, and the next
    /// boot replays every acknowledged record.
    #[test]
    fn a_failed_append_heals_by_compaction_instead_of_appending_after_the_tear() {
        let dir = tempdir("append-fail");
        let journal = Journal::open(&dir).unwrap();
        journal.record_load("alpha", 0, &payload()).unwrap();
        journal.inject_failures(1, 0);
        journal.record_load("beta", 1, &payload()).unwrap();
        journal.record_load("gamma", 2, &payload()).unwrap();
        drop(journal);
        let journal = Journal::open(&dir).unwrap();
        assert!(
            !journal.recovered_torn_tail(),
            "the heal must rewrite the torn tail away"
        );
        let names: Vec<String> = journal
            .live_instances()
            .unwrap()
            .into_iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
    }

    /// A torn append whose heal also fails poisons the writer: the failed
    /// record is reported, and the *next* append must compact from the
    /// shadow instead of appending after the torn bytes — so no later
    /// acknowledged record is ever stranded behind the tear.
    #[test]
    fn a_poisoned_writer_compacts_on_the_next_append() {
        let dir = tempdir("poisoned");
        let journal = Journal::open(&dir).unwrap();
        journal.record_load("alpha", 0, &payload()).unwrap();
        journal.inject_failures(1, 1);
        let err = journal.record_load("beta", 1, &payload()).unwrap_err();
        assert!(matches!(err, JournalError::Io { .. }), "{err:?}");
        journal.record_load("gamma", 2, &payload()).unwrap();
        drop(journal);
        let journal = Journal::open(&dir).unwrap();
        assert!(!journal.recovered_torn_tail(), "the healing compaction");
        let names: Vec<String> = journal
            .live_instances()
            .unwrap()
            .into_iter()
            .map(|r| r.name)
            .collect();
        // `beta` was answered with a journal-failed error but stayed live in
        // memory (the shadow mirrors the store), so the healing compaction
        // legitimately persists it alongside the acknowledged records.
        assert_eq!(names, ["alpha", "beta", "gamma"]);
    }

    /// A panic mid-append with the journal lock held must not take the
    /// journal down with the thread: the next append recovers the lock,
    /// rewrites the torn tail away from the shadow, and later appends go
    /// back to plain appends. The shadow took the panicking load before the
    /// write, so — like the store — it keeps `beta` live.
    #[test]
    fn an_append_after_a_panicking_append_succeeds() {
        let dir = tempdir("panicked");
        let journal = Journal::open(&dir).unwrap();
        journal.record_load("alpha", 0, &payload()).unwrap();
        journal.inject_panic();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            journal.record_load("beta", 1, &payload())
        }));
        assert!(panicked.is_err(), "the injected panic must unwind");
        assert!(journal.inner.is_poisoned());
        let compactions = |journal: &Journal| journal.status_counters()[2].1;
        assert_eq!(compactions(&journal), 0);
        journal.record_load("gamma", 2, &payload()).unwrap();
        assert!(!journal.inner.is_poisoned(), "recovery clears the poison");
        assert_eq!(compactions(&journal), 1, "recovery rewrites the file");
        journal.record_unload("alpha").unwrap();
        assert_eq!(compactions(&journal), 1, "then appends resume");
        drop(journal);
        let journal = Journal::open(&dir).unwrap();
        assert!(!journal.recovered_torn_tail(), "no torn bytes survive");
        let names: Vec<String> = journal
            .live_instances()
            .unwrap()
            .into_iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(names, ["beta", "gamma"]);
        assert_eq!(journal.mark(), 3);
    }

    /// Once an append succeeds, the shadow keeps only the record's span:
    /// no live instance's text stays in memory, through plain appends,
    /// periodic compactions and reloads alike.
    #[test]
    fn appended_records_leave_no_text_in_memory() {
        let dir = tempdir("pending");
        let journal = Journal::open(&dir).unwrap();
        for k in 0..(COMPACT_EVERY + 10) {
            let name = ["alpha", "beta", "gamma"][(k % 3) as usize];
            journal.record_load(name, k, &payload()).unwrap();
            assert_eq!(journal.pending_bytes(), 0, "after load {k}");
        }
        journal.record_unload("beta").unwrap();
        assert_eq!(journal.pending_bytes(), 0);
        assert_eq!(journal.status_counters()[2].1, 1, "one periodic compaction");
        let live = journal.live_instances().unwrap();
        let names: Vec<&str> = live.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["gamma", "alpha"]);
        assert!(live.iter().all(|r| r.payload == payload()));
    }

    /// A torn append whose heal fails keeps its record pending — the only
    /// copy of it — and the next append heals the file with it.
    #[test]
    fn a_torn_record_stays_pending_until_a_compaction_lands_it() {
        let dir = tempdir("pending-torn");
        let journal = Journal::open(&dir).unwrap();
        journal.record_load("alpha", 0, &payload()).unwrap();
        journal.inject_failures(1, 1);
        journal.record_load("beta", 1, &payload()).unwrap_err();
        let beta_len = encode_load("beta", 1, &payload()).unwrap().len();
        assert_eq!(journal.pending_bytes(), beta_len);
        journal.record_unload("alpha").unwrap();
        assert_eq!(journal.pending_bytes(), 0, "the heal made beta durable");
        drop(journal);
        let journal = Journal::open(&dir).unwrap();
        assert!(!journal.recovered_torn_tail());
        let live = journal.live_instances().unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!((live[0].name.as_str(), live[0].generation), ("beta", 1));
        assert_eq!(live[0].payload, payload());
    }

    /// Compaction and replay preserve load order (oldest first, reload
    /// refreshes), so a restarted store approximates pre-crash LRU recency
    /// instead of resetting it to name order.
    #[test]
    fn replay_and_compaction_preserve_load_order_for_recency() {
        let dir = tempdir("recency");
        {
            let journal = Journal::open(&dir).unwrap();
            journal.record_load("zeta", 0, &payload()).unwrap();
            journal.record_load("alpha", 1, &payload()).unwrap();
            journal.record_load("mid", 2, &payload()).unwrap();
            // Re-loading zeta makes it the most recent again.
            journal.record_load("zeta", 3, &payload()).unwrap();
        }
        let order = |journal: &Journal| -> Vec<String> {
            journal
                .live_instances()
                .unwrap()
                .into_iter()
                .map(|r| r.name)
                .collect()
        };
        let journal = Journal::open(&dir).unwrap();
        assert_eq!(order(&journal), ["alpha", "mid", "zeta"]);
        // The boot snapshot wrote the same order, so a third open agrees.
        drop(journal);
        let journal = Journal::open(&dir).unwrap();
        assert_eq!(order(&journal), ["alpha", "mid", "zeta"]);
    }

    /// Two journals on one data directory would interleave appends and
    /// corrupt each other; the second opener must be refused while the
    /// first lives, and succeed once the lock holder is gone.
    #[cfg(unix)]
    #[test]
    fn a_second_opener_of_the_same_data_dir_is_refused() {
        let dir = tempdir("locked");
        let first = Journal::open(&dir).unwrap();
        let err = Journal::open(&dir).unwrap_err();
        assert!(matches!(err, JournalError::Locked { .. }), "{err:?}");
        drop(first);
        Journal::open(&dir).expect("the lock must release with its holder");
    }

    #[test]
    fn foreign_files_are_refused() {
        let dir = tempdir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), "important notes\ndo not delete\n").unwrap();
        let err = Journal::open(&dir).unwrap_err();
        assert!(
            matches!(err, JournalError::Malformed { line: 1, .. }),
            "{err:?}"
        );
        // The file was not clobbered.
        let kept = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert!(kept.starts_with("important notes"), "{kept}");
    }

    #[test]
    fn churn_triggers_compaction_and_bounds_the_file() {
        let dir = tempdir("compact");
        let journal = Journal::open(&dir).unwrap();
        // 3 × COMPACT_EVERY loads of the same name: without compaction the
        // file would hold every historical load.
        for k in 0..(3 * COMPACT_EVERY) {
            journal.record_load("hot", k, &payload()).unwrap();
        }
        let counters = journal.status_counters();
        let compactions = counters
            .iter()
            .find(|(k, _)| k == "journal-compactions")
            .unwrap()
            .1;
        assert_eq!(compactions, 3);
        let text = std::fs::read_to_string(journal.path()).unwrap();
        let snapshot_len = records_to_text(&[
            JournalRecord::Mark {
                generation: journal.mark(),
            },
            JournalRecord::Load {
                name: "hot".to_string(),
                generation: 3 * COMPACT_EVERY - 1,
                payload: payload(),
            },
        ])
        .unwrap()
        .len();
        assert!(
            text.len() < snapshot_len + (COMPACT_EVERY as usize) * 64,
            "file must stay bounded by live set + one compaction window: {} bytes",
            text.len()
        );
        // And the compacted file replays to exactly the last load.
        drop(journal);
        let journal = Journal::open(&dir).unwrap();
        let live = journal.live_instances().unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].generation, 3 * COMPACT_EVERY - 1);
        assert_eq!(journal.mark(), 3 * COMPACT_EVERY);
    }
}
