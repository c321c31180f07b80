//! Structured query log: one JSON line per served request, written
//! through a bounded in-memory ring so the request hot path never
//! touches the filesystem.
//!
//! `push` takes the ring mutex for a vector push and returns — if the
//! ring is full (the writer fell behind the request rate) the record is
//! *dropped* and counted, never blocked on. A dedicated writer thread
//! drains the ring every flush interval and appends the lines through a
//! `BufWriter`; dropping the log stops the thread after a final drain,
//! so short-lived servers (tests, CLI runs) still land every record
//! that fit the ring.
//!
//! The line schema is [`QueryLogRecord`] (`gps_types::obs`).

use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use gps_types::{JsonCodec, QueryLogRecord};

/// Most records the ring holds before `push` starts dropping.
const RING_CAPACITY: usize = 8192;

/// How long the writer sleeps between drains.
const FLUSH_INTERVAL: Duration = Duration::from_millis(50);

struct Shared {
    ring: Mutex<Vec<QueryLogRecord>>,
    /// Wakes the writer early for shutdown or an explicit flush.
    wake: Condvar,
    stop: AtomicBool,
    dropped: AtomicU64,
    /// Bumped by the writer after every drain-and-fsync cycle; `flush`
    /// waits on it to know its records reached the file.
    cycles: Mutex<u64>,
    cycled: Condvar,
}

impl Shared {
    /// The full-ring decision, on a ring the caller holds locked: append,
    /// or drop and count once the writer is `RING_CAPACITY` behind.
    fn offer(&self, ring: &mut Vec<QueryLogRecord>, record: QueryLogRecord) {
        if ring.len() >= RING_CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            ring.push(record);
        }
    }
}

/// An open query log. Cheap to share (`Arc`); the embedded writer
/// thread is joined when the last handle drops.
pub struct QueryLog {
    shared: Arc<Shared>,
    path: PathBuf,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl QueryLog {
    /// Open (append) the log file at `path` and start the writer thread.
    pub fn open(path: &Path) -> io::Result<QueryLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let shared = Arc::new(Shared {
            ring: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            cycles: Mutex::new(0),
            cycled: Condvar::new(),
        });
        let worker = shared.clone();
        let writer = std::thread::Builder::new()
            .name("gps-query-log".to_string())
            .spawn(move || {
                let mut out = BufWriter::new(file);
                let mut batch = Vec::new();
                loop {
                    let stopping = worker.stop.load(Ordering::Acquire);
                    {
                        let mut ring = worker.ring.lock().expect("query log ring poisoned");
                        if ring.is_empty() && !stopping {
                            let (guard, _) = worker
                                .wake
                                .wait_timeout(ring, FLUSH_INTERVAL)
                                .expect("query log ring poisoned");
                            ring = guard;
                        }
                        std::mem::swap(&mut *ring, &mut batch);
                    }
                    let mut line = String::new();
                    for record in batch.drain(..) {
                        line.clear();
                        record.to_json().write(&mut line);
                        line.push('\n');
                        // A full disk only loses log lines, never requests.
                        let _ = out.write_all(line.as_bytes());
                    }
                    let _ = out.flush();
                    {
                        let mut cycles = worker.cycles.lock().expect("query log cycles poisoned");
                        *cycles += 1;
                        worker.cycled.notify_all();
                    }
                    if stopping {
                        return;
                    }
                }
            })
            .expect("spawn query log writer");
        Ok(QueryLog {
            shared,
            path: path.to_path_buf(),
            writer: Mutex::new(Some(writer)),
        })
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Enqueue one record; drops (and counts) instead of blocking when
    /// the ring is full.
    pub fn push(&self, record: QueryLogRecord) {
        let mut ring = self.shared.ring.lock().expect("query log ring poisoned");
        self.shared.offer(&mut ring, record);
    }

    /// Records dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Block until every record pushed before this call has been written
    /// and flushed to the file. Waits for two full writer cycles: the
    /// first may already have been mid-drain when we looked, the second
    /// is guaranteed to start after our records were in the ring.
    pub fn flush(&self) {
        let start = *self
            .shared
            .cycles
            .lock()
            .expect("query log cycles poisoned");
        self.shared.wake.notify_all();
        let mut cycles = self
            .shared
            .cycles
            .lock()
            .expect("query log cycles poisoned");
        while *cycles < start + 2 {
            if self.shared.stop.load(Ordering::Acquire) {
                return; // writer is exiting; Drop does the final drain
            }
            let (guard, _) = self
                .shared
                .cycled
                .wait_timeout(cycles, FLUSH_INTERVAL)
                .expect("query log cycles poisoned");
            cycles = guard;
            self.shared.wake.notify_all();
        }
    }
}

impl Drop for QueryLog {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        if let Some(writer) = self.writer.lock().ok().and_then(|mut w| w.take()) {
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_types::testutil::TestDir;
    use gps_types::Ip;

    fn record(n: u32) -> QueryLogRecord {
        QueryLogRecord {
            ts_ms: 1_700_000_000_000 + n as u64,
            model: "default".into(),
            wire: "json".into(),
            endpoint: "single".into(),
            ip: Ip(n),
            open: vec![80],
            asn: None,
            top: 8,
            latency_ns: 1000,
            generation: 1,
        }
    }

    #[test]
    fn writes_one_json_line_per_record() {
        let dir = TestDir::new("query-log-lines");
        let path = dir.path("queries.log");
        let log = QueryLog::open(&path).unwrap();
        for n in 0..100 {
            log.push(record(n));
        }
        drop(log); // final drain
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 100);
        for (n, line) in lines.iter().enumerate() {
            let parsed = QueryLogRecord::from_json(&gps_types::Json::parse(line).unwrap()).unwrap();
            assert_eq!(parsed, record(n as u32));
        }
    }

    #[test]
    fn full_ring_drops_instead_of_blocking() {
        let dir = TestDir::new("query-log-drop");
        let path = dir.path("queries.log");
        let log = QueryLog::open(&path).unwrap();
        // Flooding faster than one flush interval can plausibly drain
        // isn't deterministic — instead fill the ring and offer the extra
        // record within one lock window, so the writer cannot drain in
        // between.
        {
            let mut ring = log.shared.ring.lock().unwrap();
            for n in 0..RING_CAPACITY {
                log.shared.offer(&mut ring, record(n as u32));
            }
            assert_eq!(log.dropped(), 0);
            log.shared.offer(&mut ring, record(9_999_999));
        }
        assert_eq!(log.dropped(), 1);
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), RING_CAPACITY);
    }

    #[test]
    fn flush_lands_pushed_records_without_dropping_the_log() {
        let dir = TestDir::new("query-log-flush");
        let path = dir.path("queries.log");
        let log = QueryLog::open(&path).unwrap();
        for n in 0..10 {
            log.push(record(n));
        }
        log.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 10);
        // The log keeps working after a flush.
        log.push(record(10));
        log.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 11);
    }

    #[test]
    fn appends_across_reopens() {
        let dir = TestDir::new("query-log-append");
        let path = dir.path("queries.log");
        {
            let log = QueryLog::open(&path).unwrap();
            log.push(record(1));
        }
        {
            let log = QueryLog::open(&path).unwrap();
            log.push(record(2));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
    }
}
