//! Wire codec for the port-trait domain types and the framing layer.
//!
//! Messages are length-prefixed, request-correlated binary frames:
//!
//! ```text
//! varint length | varint request id | body (length − id bytes)
//! ```
//!
//! The length covers the request id and the body, so a peer can skip a
//! whole frame knowing only the prefix. The request id is chosen by the
//! client and echoed verbatim on the response frame; it is what lets many
//! in-flight requests share one TCP connection — the server may answer
//! out of order (a parked `wait_revealed` no longer blocks the answers
//! behind it) and the client's demux thread routes each response to the
//! waiter that sent the matching id. Bodies are built from the primitives
//! in [`blobseer_types::wire`] (varints, length-prefixed byte strings);
//! this module adds codecs for every composite type that crosses a port
//! boundary — tree nodes, node keys, write tickets (including the full
//! log chain), snapshot infos, block allocations — plus request framing
//! for the three services.
//!
//! Every decode validates its input and fails with
//! [`blobseer_types::Error::Transport`]; a malformed frame can never
//! panic a server or client thread.

use blobseer_core::gc::GcReport;
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::{LogChain, LogEntry, LogSegment};
use blobseer_core::provider_manager::BlockAllocation;
use blobseer_core::version_manager::{SnapshotInfo, WriteIntent, WriteTicket};
use blobseer_types::wire::{WireReader, WireWriter};
use blobseer_types::{BlobId, BlockId, Error, Result, Version};
use parking_lot::RwLock;
use std::io::{IoSlice, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on an accepted frame body (64 MB block + headroom). A
/// corrupt length prefix must not make a peer attempt a huge allocation.
pub const MAX_FRAME_LEN: u64 = 80 * 1024 * 1024;

/// Soft payload budget for one vectored (`*_many`) frame, comfortably
/// under [`MAX_FRAME_LEN`]. Clients chunk batched *puts* so each request
/// frame stays within it; servers answering batched *gets* stop encoding
/// payloads at it and mark the tail [`batch_status::DEFERRED`] for the
/// client to re-request — either way a batch of 64 MB blocks can never
/// assemble an over-cap frame.
pub const BATCH_BYTE_BUDGET: usize = 64 * 1024 * 1024;

/// Per-item status bytes of the vectored (`*_many`) response frames.
pub mod batch_status {
    /// The item succeeded; its payload (if any) follows.
    pub const OK: u8 = 0;
    /// The item failed; its encoded [`blobseer_types::Error`] follows.
    pub const ERR: u8 = 1;
    /// The item was *not processed*: including its payload would have
    /// pushed the response frame past [`super::BATCH_BYTE_BUDGET`]. The
    /// client re-requests deferred items in a follow-up frame.
    pub const DEFERRED: u8 = 2;
}

/// Encodes one per-item outcome (status byte, then the error payload for
/// failures; the caller writes any success payload itself).
pub fn put_item_status<T>(w: &mut WireWriter, result: &Result<T>) {
    match result {
        Ok(_) => w.put_u8(batch_status::OK),
        Err(e) => {
            w.put_u8(batch_status::ERR);
            w.put_error(e);
        }
    }
}

/// Maps an I/O failure into [`Error::Transport`] with context.
pub(crate) fn transport(context: &str, e: std::io::Error) -> Error {
    Error::Transport(format!("{context}: {e}"))
}

/// Capacity of the [`FrameReader`] in front of every connection's read
/// half. Kept small on purpose: a process holds one per connection
/// reader.
pub const READ_BUFFER_BYTES: usize = 4 * 1024;

/// The read half of a connection behind a [`READ_BUFFER_BYTES`] buffer,
/// for [`read_frame`]: the byte-at-a-time varint reads become memory
/// reads, several small frames arrive in one `read` syscall, and reads at
/// least as large as the buffer bypass it.
///
/// The buffer is an inline array, so it lives wherever the reader does —
/// on the stack of the connection's reader thread. A heap buffer
/// (`std::io::BufReader`) allocated when a connection is dialed mid-run
/// sits among the allocator's transient frame buffers and keeps that
/// heap from shrinking: with glibc malloc on a 2-vCPU VM it raised the
/// median peak RSS of perfbench's `small-rw` workload by about 11%.
pub struct FrameReader<R> {
    inner: R,
    buf: [u8; READ_BUFFER_BYTES],
    /// `buf[pos..filled]` holds bytes read but not yet consumed.
    pos: usize,
    filled: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a connection's read half.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: [0; READ_BUFFER_BYTES],
            pos: 0,
            filled: 0,
        }
    }
}

impl<R: Read> Read for FrameReader<R> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.filled {
            if out.len() >= self.buf.len() {
                return self.inner.read(out);
            }
            self.filled = self.inner.read(&mut self.buf)?;
            self.pos = 0;
        }
        let n = out.len().min(self.filled - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The most body bytes [`read_frame`] allocates before any of them
/// arrived. A length prefix alone must not pin a frame-sized buffer: the
/// rest is reserved only once this first chunk has been received.
pub const FRAME_ALLOC_CHUNK: usize = 1024 * 1024;

/// Encoded size of `v` as a LEB128 varint.
fn varint_len(v: u64) -> u64 {
    u64::from((64 - v.leading_zeros()).max(1).div_ceil(7))
}

/// Writes one length-prefixed frame tagged with `req_id`. The id varint
/// is part of the prefixed length, and a response frame must echo the id
/// of the request it answers.
///
/// Prefix, id and body go out in one vectored write (one `writev` on a
/// socket) without copying the body; the loop only repeats if the sink
/// accepts part of the frame.
pub fn write_frame(stream: &mut impl Write, req_id: u64, body: &[u8]) -> Result<()> {
    let mut header = WireWriter::new();
    header.put_u64(varint_len(req_id) + body.len() as u64);
    header.put_u64(req_id);
    let mut slices = [IoSlice::new(header.as_slice()), IoSlice::new(body)];
    let mut parts = &mut slices[..];
    while !parts.is_empty() {
        match stream.write_vectored(parts) {
            Ok(0) => {
                return Err(transport(
                    "write frame",
                    std::io::ErrorKind::WriteZero.into(),
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(transport("write frame", e)),
        }
    }
    stream.flush().map_err(|e| transport("write frame", e))
}

/// Reads one LEB128 varint byte by byte, consuming at most `limit` bytes.
/// Returns the value and its encoded length, or `Ok(None)` on EOF before
/// the first byte.
fn read_varint(stream: &mut impl Read, limit: u64, what: &str) -> Result<Option<(u64, u64)>> {
    let mut value = 0u64;
    let mut n = 0u64;
    loop {
        if n == limit {
            return Err(Error::Transport(format!("{what} runs past the frame")));
        }
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) if n == 0 => return Ok(None),
            Ok(0) => return Err(Error::Transport(format!("eof inside {what}"))),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(transport(&format!("read {what}"), e)),
        }
        let shift = 7 * n;
        if shift == 63 && byte[0] > 1 {
            return Err(Error::Transport(format!("{what} overflows u64")));
        }
        value |= u64::from(byte[0] & 0x7F) << shift;
        n += 1;
        if byte[0] & 0x80 == 0 {
            return Ok(Some((value, n)));
        }
    }
}

/// Reads one length-prefixed frame, returning its request id and body.
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer closed
/// the connection between requests).
///
/// The varints are read a byte at a time, so callers reading from a
/// socket should pass a [`FrameReader`].
/// At most [`FRAME_ALLOC_CHUNK`] body bytes are allocated up front; the
/// rest of a larger frame is reserved once that first chunk has arrived,
/// so a large block frame costs one reallocation and a bare length prefix
/// costs at most one chunk.
pub fn read_frame(stream: &mut impl Read) -> Result<Option<(u64, Vec<u8>)>> {
    let Some((len, _)) = read_varint(stream, 10, "frame length")? else {
        return Ok(None); // clean EOF
    };
    if len > MAX_FRAME_LEN {
        return Err(Error::Transport(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let (req_id, id_len) = read_varint(stream, len, "request id")?
        .ok_or_else(|| Error::Transport("eof inside request id".into()))?;
    let body_len = (len - id_len) as usize;
    let mut body = vec![0u8; body_len.min(FRAME_ALLOC_CHUNK)];
    stream
        .read_exact(&mut body)
        .map_err(|e| transport("read frame body", e))?;
    if body.len() < body_len {
        let head = body.len();
        body.reserve_exact(body_len - head);
        body.resize(body_len, 0);
        stream
            .read_exact(&mut body[head..])
            .map_err(|e| transport("read frame body", e))?;
    }
    Ok(Some((req_id, body)))
}

// --- composite-type codecs --------------------------------------------------

// The metadata domain codecs (positions, node keys, block ranges and
// descriptors, tree nodes) live in `blobseer_core::meta::codec` because
// the disk-backed metadata store persists records in the same encoding;
// re-exported here so wire call sites keep one import surface.
pub use blobseer_core::meta::codec::{
    get_block_descriptor, get_block_range, get_node_key, get_opt_node_ref, get_pos, get_tree_node,
    put_block_descriptor, put_block_range, put_node_key, put_opt_node_ref, put_pos, put_tree_node,
};

/// Encodes a write-log entry.
pub fn put_log_entry(w: &mut WireWriter, e: &LogEntry) {
    w.put_u64(e.version.raw());
    put_block_range(w, e.blocks);
    w.put_u64(e.cap_before);
    w.put_u64(e.cap_after);
    w.put_u64(e.size_after);
}

/// Decodes a write-log entry.
pub fn get_log_entry(r: &mut WireReader<'_>) -> Result<LogEntry> {
    Ok(LogEntry {
        version: Version::new(r.get_u64()?),
        blocks: get_block_range(r)?,
        cap_before: r.get_u64()?,
        cap_after: r.get_u64()?,
        size_after: r.get_u64()?,
    })
}

/// Encodes a snapshot info.
pub fn put_snapshot_info(w: &mut WireWriter, info: &SnapshotInfo) {
    w.put_u64(info.version.raw());
    w.put_u64(info.size);
    w.put_u64(info.cap);
    w.put_u64(info.root_blob.raw());
    w.put_bool(info.revealed);
}

/// Decodes a snapshot info.
pub fn get_snapshot_info(r: &mut WireReader<'_>) -> Result<SnapshotInfo> {
    Ok(SnapshotInfo {
        version: Version::new(r.get_u64()?),
        size: r.get_u64()?,
        cap: r.get_u64()?,
        root_blob: BlobId::new(r.get_u64()?),
        revealed: r.get_bool()?,
    })
}

/// Encodes a write intent.
pub fn put_write_intent(w: &mut WireWriter, intent: WriteIntent) {
    match intent {
        WriteIntent::Write { offset, size } => {
            w.put_u8(0);
            w.put_u64(offset);
            w.put_u64(size);
        }
        WriteIntent::Append { size } => {
            w.put_u8(1);
            w.put_u64(size);
        }
    }
}

/// Decodes a write intent.
pub fn get_write_intent(r: &mut WireReader<'_>) -> Result<WriteIntent> {
    Ok(match r.get_u8()? {
        0 => WriteIntent::Write {
            offset: r.get_u64()?,
            size: r.get_u64()?,
        },
        1 => WriteIntent::Append { size: r.get_u64()? },
        t => {
            return Err(Error::Transport(format!(
                "wire: unknown write-intent tag {t}"
            )))
        }
    })
}

/// Encodes a log chain as a point-in-time snapshot of its segments.
///
/// In-process deployments share the version manager's *live* log vectors
/// through `Arc`; over the wire the client receives a copy. That copy is
/// semantically sufficient for everything a ticket's chain is used for:
/// metadata weaving only consults entries with versions *below* the
/// ticket's, and the version manager appends those under the same per-BLOB
/// mutex that assigned the ticket — they are all present at encode time.
pub fn put_log_chain(w: &mut WireWriter, chain: &LogChain) {
    let segments = chain.segments();
    w.put_u64(segments.len() as u64);
    for seg in segments {
        w.put_u64(seg.blob.raw());
        w.put_u64(seg.vec_base.raw());
        w.put_u64(seg.lo.raw());
        w.put_u64(seg.hi.raw());
        let entries = seg.entries.read();
        w.put_u64(entries.len() as u64);
        for e in entries.iter() {
            put_log_entry(w, e);
        }
    }
}

/// Decodes a log chain (the segments own fresh entry vectors).
pub fn get_log_chain(r: &mut WireReader<'_>) -> Result<LogChain> {
    let n = r.get_u64()? as usize;
    if n == 0 {
        return Err(Error::Transport("wire: empty log chain".into()));
    }
    let mut segments = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let blob = BlobId::new(r.get_u64()?);
        let vec_base = Version::new(r.get_u64()?);
        let lo = Version::new(r.get_u64()?);
        let hi = Version::new(r.get_u64()?);
        let n_entries = r.get_u64()? as usize;
        let mut entries = Vec::with_capacity(n_entries.min(4096));
        for _ in 0..n_entries {
            entries.push(get_log_entry(r)?);
        }
        segments.push(LogSegment {
            blob,
            entries: Arc::new(RwLock::new(entries)),
            vec_base,
            lo,
            hi,
        });
    }
    Ok(LogChain::new(segments))
}

/// Encodes a write ticket (offset, entry and the full log chain).
pub fn put_write_ticket(w: &mut WireWriter, t: &WriteTicket) {
    w.put_u64(t.blob.raw());
    w.put_u64(t.version.raw());
    w.put_u64(t.offset);
    w.put_u64(t.prev_size);
    put_log_entry(w, &t.entry);
    put_log_chain(w, &t.chain);
}

/// Decodes a write ticket.
pub fn get_write_ticket(r: &mut WireReader<'_>) -> Result<WriteTicket> {
    Ok(WriteTicket {
        blob: BlobId::new(r.get_u64()?),
        version: Version::new(r.get_u64()?),
        offset: r.get_u64()?,
        prev_size: r.get_u64()?,
        entry: get_log_entry(r)?,
        chain: get_log_chain(r)?,
    })
}

/// Encodes a block allocation.
pub fn put_block_allocation(w: &mut WireWriter, a: &BlockAllocation) {
    w.put_u64(a.block_id.raw());
    w.put_u64(a.providers.len() as u64);
    for &p in &a.providers {
        w.put_u64(p as u64);
    }
}

/// Decodes a block allocation.
pub fn get_block_allocation(r: &mut WireReader<'_>) -> Result<BlockAllocation> {
    let block_id = BlockId::new(r.get_u64()?);
    let n = r.get_u64()? as usize;
    let mut providers = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        providers.push(r.get_u64()? as usize);
    }
    Ok(BlockAllocation {
        block_id,
        providers,
    })
}

/// Encodes a duration as whole nanoseconds (saturating at ~585 years).
pub fn put_duration(w: &mut WireWriter, d: Duration) {
    w.put_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

/// Decodes a duration.
pub fn get_duration(r: &mut WireReader<'_>) -> Result<Duration> {
    Ok(Duration::from_nanos(r.get_u64()?))
}

/// Encodes a list of versions.
pub fn put_versions(w: &mut WireWriter, versions: &[Version]) {
    w.put_u64(versions.len() as u64);
    for v in versions {
        w.put_u64(v.raw());
    }
}

/// Decodes a list of versions.
pub fn get_versions(r: &mut WireReader<'_>) -> Result<Vec<Version>> {
    let n = r.get_u64()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(Version::new(r.get_u64()?));
    }
    Ok(out)
}

/// Encodes a list of node keys.
pub fn put_node_keys(w: &mut WireWriter, keys: &[NodeKey]) {
    w.put_u64(keys.len() as u64);
    for k in keys {
        put_node_key(w, k);
    }
}

/// Decodes a list of node keys.
pub fn get_node_keys(r: &mut WireReader<'_>) -> Result<Vec<NodeKey>> {
    let n = r.get_u64()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(get_node_key(r)?);
    }
    Ok(out)
}

/// Encodes a GC report.
pub fn put_gc_report(w: &mut WireWriter, report: &GcReport) {
    w.put_u64(report.nodes_deleted);
    w.put_u64(report.blocks_deleted);
    w.put_u64(report.bytes_freed);
    w.put_u64(report.untracked_releases);
}

/// Decodes a GC report.
pub fn get_gc_report(r: &mut WireReader<'_>) -> Result<GcReport> {
    Ok(GcReport {
        nodes_deleted: r.get_u64()?,
        blocks_deleted: r.get_u64()?,
        bytes_freed: r.get_u64()?,
        untracked_releases: r.get_u64()?,
    })
}

// --- response envelope ------------------------------------------------------

/// Wraps a handler outcome into a response body: status byte `0` followed
/// by the payload, or status byte `1` followed by the encoded [`Error`].
pub fn encode_response(result: Result<WireWriter>) -> Vec<u8> {
    let mut out = WireWriter::new();
    match result {
        Ok(payload) => {
            out.put_u8(0);
            let mut v = out.into_vec();
            v.extend_from_slice(payload.as_slice());
            v
        }
        Err(e) => {
            out.put_u8(1);
            out.put_error(&e);
            out.into_vec()
        }
    }
}

/// Splits a response body into its payload, surfacing an encoded service
/// [`Error`] as itself — failures cross the wire as their real variants,
/// never degraded into transport errors.
pub fn decode_response(body: &[u8]) -> Result<WireReader<'_>> {
    let mut r = WireReader::new(body);
    match r.get_u8()? {
        0 => Ok(r),
        1 => {
            let e = r.get_error()?;
            r.finish()?;
            Err(e)
        }
        s => Err(Error::Transport(format!(
            "wire: unknown response status {s}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_core::meta::key::{BlockRange, Pos};
    use blobseer_core::meta::node::{BlockDescriptor, NodeRef, TreeNode};

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").unwrap();
        write_frame(&mut buf, u64::MAX, &[]).unwrap();
        let mut cursor = &buf[..];
        let (id, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((id, body.as_slice()), (7, &b"hello"[..]));
        let (id, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((id, body), (u64::MAX, Vec::new()));
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// A sink that records every call and accepts at most `max` bytes per
    /// call, gathering across slices like a socket's `writev`.
    struct Sink {
        bytes: Vec<u8>,
        calls: usize,
        max: usize,
    }

    impl Sink {
        fn new(max: usize) -> Self {
            Self {
                bytes: Vec::new(),
                calls: 0,
                max,
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.max - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source that yields at most `max` bytes per `read` and counts
    /// the calls.
    struct Source<'a> {
        bytes: &'a [u8],
        reads: usize,
        max: usize,
    }

    impl Read for Source<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.max).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_small_frame_is_one_write_call() {
        let mut sink = Sink::new(usize::MAX);
        write_frame(&mut sink, 300, b"a small request body").unwrap();
        assert_eq!(sink.calls, 1, "prefix, id and body in one vectored write");
        let mut whole = Vec::new();
        write_frame(&mut whole, 300, b"a small request body").unwrap();
        assert_eq!(sink.bytes, whole);
    }

    #[test]
    fn short_writes_still_produce_identical_frames() {
        for (id, body) in [
            (0u64, Vec::new()),
            (7, b"x".to_vec()),
            (u64::MAX, (0..=255u8).cycle().take(1000).collect()),
        ] {
            let mut whole = Vec::new();
            write_frame(&mut whole, id, &body).unwrap();
            let mut sink = Sink::new(3);
            write_frame(&mut sink, id, &body).unwrap();
            assert_eq!(sink.bytes, whole, "id {id}");
            assert_eq!(sink.calls, whole.len().div_ceil(3), "id {id}");
        }
    }

    #[test]
    fn a_byte_at_a_time_reader_decodes_the_frame() {
        let body: Vec<u8> = (0..200u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, 1 << 40, &body).unwrap();
        // Directly, and through the frame reader's buffer.
        for buffered in [false, true] {
            let mut source = Source {
                bytes: &buf,
                reads: 0,
                max: 1,
            };
            let mut reader: Box<dyn Read + '_> = if buffered {
                Box::new(FrameReader::new(&mut source))
            } else {
                Box::new(&mut source)
            };
            let (id, got) = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!((id, got), (1 << 40, body.clone()));
            assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
        }
    }

    #[test]
    fn frames_arriving_in_one_read_decode_in_order_through_the_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"first").unwrap();
        write_frame(&mut buf, 2, b"second").unwrap();
        let mut source = Source {
            bytes: &buf,
            reads: 0,
            max: usize::MAX,
        };
        let mut reader = FrameReader::new(&mut source);
        let first = read_frame(&mut reader).unwrap().unwrap();
        let second = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(first, (1, b"first".to_vec()));
        assert_eq!(second, (2, b"second".to_vec()));
        assert_eq!(source.reads, 1, "both frames came from one read");
    }

    #[test]
    fn bodies_larger_than_the_first_chunk_arrive_whole() {
        let body: Vec<u8> = (0..=255u8)
            .cycle()
            .take(FRAME_ALLOC_CHUNK + 12345)
            .collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, &body).unwrap();
        let mut source = Source {
            bytes: &buf,
            reads: 0,
            max: usize::MAX,
        };
        let mut reader = FrameReader::new(&mut source);
        let (id, got) = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(id, 9);
        assert!(got == body, "body survives the two-step allocation");
        // One read fills the buffer with the header and the body's start;
        // each of the two body reads then bypasses the buffer.
        assert_eq!(source.reads, 3);
        // A frame cut short inside its tail is a transport error.
        let cut = &buf[..buf.len() - 1];
        let err = read_frame(&mut &cut[..]).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err}");
    }

    #[test]
    fn truncated_request_id_is_a_transport_error() {
        // A frame whose length prefix says 1 byte, but that byte has its
        // continuation bit set: the id varint runs off the end.
        let buf = [1u8, 0x80];
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err}");
        // Length 0 cannot even hold an id.
        let buf = [0u8];
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err}");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut prefix = WireWriter::new();
        prefix.put_u64(MAX_FRAME_LEN + 1);
        let buf = prefix.into_vec();
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err}");
    }

    #[test]
    fn tree_nodes_roundtrip() {
        let nodes = [
            TreeNode::Inner {
                left: Some(NodeRef {
                    blob: BlobId::new(1),
                    version: Version::new(2),
                }),
                right: None,
            },
            TreeNode::Leaf(BlockDescriptor {
                block_id: BlockId::new(u64::MAX),
                providers: vec![0, 7, 300],
                len: u32::MAX,
            }),
            TreeNode::LeafAlias(None),
            TreeNode::LeafAlias(Some(NodeRef {
                blob: BlobId::new(9),
                version: Version::new(1),
            })),
        ];
        for node in &nodes {
            let mut w = WireWriter::new();
            put_tree_node(&mut w, node);
            let mut r = WireReader::new(w.as_slice());
            assert_eq!(&get_tree_node(&mut r).unwrap(), node);
            r.finish().unwrap();
        }
    }

    #[test]
    fn invalid_pos_is_a_transport_error() {
        // len 3 is not a power of two; start 2 is not aligned to len 4.
        for (start, len) in [(0u64, 3u64), (2, 4), (0, 0)] {
            let mut w = WireWriter::new();
            w.put_u64(start);
            w.put_u64(len);
            let mut r = WireReader::new(w.as_slice());
            assert!(matches!(get_pos(&mut r), Err(Error::Transport(_))));
        }
    }

    #[test]
    fn tickets_with_chains_roundtrip() {
        let entry = LogEntry {
            version: Version::new(3),
            blocks: BlockRange::new(2, 5),
            cap_before: 4,
            cap_after: 8,
            size_after: 320,
        };
        let chain = LogChain::new(vec![
            LogSegment {
                blob: BlobId::new(2),
                entries: Arc::new(RwLock::new(vec![entry])),
                vec_base: Version::new(2),
                lo: Version::new(2),
                hi: Version::new(u64::MAX),
            },
            LogSegment {
                blob: BlobId::new(1),
                entries: Arc::new(RwLock::new(vec![
                    LogEntry {
                        version: Version::new(1),
                        blocks: BlockRange::new(0, 2),
                        cap_before: 0,
                        cap_after: 2,
                        size_after: 128,
                    },
                    LogEntry {
                        version: Version::new(2),
                        blocks: BlockRange::new(0, 1),
                        cap_before: 2,
                        cap_after: 2,
                        size_after: 128,
                    },
                ])),
                vec_base: Version::ZERO,
                lo: Version::ZERO,
                hi: Version::new(2),
            },
        ]);
        let ticket = WriteTicket {
            blob: BlobId::new(2),
            version: Version::new(3),
            offset: 128,
            prev_size: 128,
            entry,
            chain,
        };
        let mut w = WireWriter::new();
        put_write_ticket(&mut w, &ticket);
        let mut r = WireReader::new(w.as_slice());
        let back = get_write_ticket(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.blob, ticket.blob);
        assert_eq!(back.version, ticket.version);
        assert_eq!(back.offset, ticket.offset);
        assert_eq!(back.prev_size, ticket.prev_size);
        assert_eq!(back.entry, ticket.entry);
        // The chain copy answers weaving queries identically.
        assert_eq!(back.chain.segments().len(), 2);
        for pos in [
            Pos::new(0, 1),
            Pos::new(1, 1),
            Pos::new(0, 2),
            Pos::new(4, 1),
        ] {
            assert_eq!(
                back.chain.materializer_before(pos, Version::new(3)),
                ticket.chain.materializer_before(pos, Version::new(3)),
                "weave divergence at {pos:?}"
            );
        }
        assert_eq!(
            back.chain.snapshot_geometry(Version::new(2)),
            ticket.chain.snapshot_geometry(Version::new(2))
        );
    }

    #[test]
    fn allocations_snapshots_intents_durations_roundtrip() {
        let a = BlockAllocation {
            block_id: BlockId::new(77),
            providers: vec![0, 3, 9],
        };
        let info = SnapshotInfo {
            version: Version::new(4),
            size: 1000,
            cap: 16,
            root_blob: BlobId::new(2),
            revealed: true,
        };
        let mut w = WireWriter::new();
        put_block_allocation(&mut w, &a);
        put_snapshot_info(&mut w, &info);
        put_write_intent(&mut w, WriteIntent::Write { offset: 5, size: 9 });
        put_write_intent(&mut w, WriteIntent::Append { size: 64 });
        put_duration(&mut w, Duration::from_millis(1500));
        let report = GcReport {
            nodes_deleted: 5,
            blocks_deleted: 3,
            bytes_freed: 4096,
            untracked_releases: 1,
        };
        put_gc_report(&mut w, &report);
        let mut r = WireReader::new(w.as_slice());
        assert_eq!(get_block_allocation(&mut r).unwrap(), a);
        assert_eq!(get_snapshot_info(&mut r).unwrap(), info);
        assert_eq!(
            get_write_intent(&mut r).unwrap(),
            WriteIntent::Write { offset: 5, size: 9 }
        );
        assert_eq!(
            get_write_intent(&mut r).unwrap(),
            WriteIntent::Append { size: 64 }
        );
        assert_eq!(get_duration(&mut r).unwrap(), Duration::from_millis(1500));
        assert_eq!(get_gc_report(&mut r).unwrap(), report);
        r.finish().unwrap();
    }

    #[test]
    fn response_envelope_carries_payloads_and_errors() {
        let mut payload = WireWriter::new();
        payload.put_u64(42);
        let body = encode_response(Ok(payload));
        let mut r = decode_response(&body).unwrap();
        assert_eq!(r.get_u64().unwrap(), 42);

        for e in blobseer_types::wire::error_fixture() {
            let body = encode_response(Err(e.clone()));
            let got = decode_response(&body).unwrap_err();
            assert_eq!(got, e, "error variant must survive the envelope");
        }
    }
}
