//! The line-oriented `heapdrag-log v1` text codec.
//!
//! One line per directive, whitespace-separated fields, `-` for absent
//! optional fields:
//!
//! ```text
//! heapdrag-log v1
//! chain 3 Juru.readDocument@12 "new char[]" <- Juru.run@4
//! obj 17 8 816 1024 204800 2048 3 5 0
//! gc 102400 81920 512
//! retain 3 816 102400 2 0 static Juru.cache -> char[]
//! end 1048576
//! ```
//!
//! A `retain` line is `retain <alloc-chain> <size> <time> <depth>
//! <truncated 0|1> <path...>` — the path is the rest of the line,
//! whitespace-normalized on both write and read.
//!
//! `StreamScanner` is the codec's half of the ingest engine: fed the input
//! block by block, it parses the header/`chain`/`end` directives in place
//! and batches `obj`/`gc`/`retain` lines into chunks for the decoders.
//! [`TextSink`] is the streaming encoder. See [`crate::log`] for the
//! strict/salvage semantics shared with the binary codec.

use std::io::{self, Write};

use heapdrag_vm::ids::{ChainId, ClassId, ObjectId};

use crate::log::{ErrorCode, LogError};
use crate::record::{GcSample, ObjectRecord, RetainRecord};

use super::{
    normalize_chain_name, ChunkOut, LineMeta, OwnedChunk, OwnedLines, StreamScanState, TraceSink,
};

/// The line-1 header every v1 text log starts with.
pub const TEXT_HEADER: &str = "heapdrag-log v1";

/// Streams a trace in the text format to any [`io::Write`].
#[derive(Debug)]
pub struct TextSink<W> {
    writer: W,
    /// Reused `obj` line buffer: each record is one `write_all`.
    line: Vec<u8>,
}

impl<W: Write> TextSink<W> {
    /// Wraps `writer` in a text-format sink.
    pub fn new(writer: W) -> Self {
        TextSink {
            writer,
            line: Vec::with_capacity(128),
        }
    }
}

/// Appends a space and the decimal digits of `v` to `line`.
fn push_u64(line: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    line.push(b' ');
    line.extend_from_slice(&digits[at..]);
}

/// [`push_u64`] for an optional field, `-` when absent.
fn push_opt(line: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => push_u64(line, v),
        None => line.extend_from_slice(b" -"),
    }
}

impl<W: Write> TraceSink for TextSink<W> {
    fn begin(&mut self) -> io::Result<()> {
        writeln!(self.writer, "{TEXT_HEADER}")
    }

    fn chain(&mut self, id: ChainId, name: &str) -> io::Result<()> {
        writeln!(self.writer, "chain {} {}", id.0, name)
    }

    fn record(&mut self, r: &ObjectRecord) -> io::Result<()> {
        let line = &mut self.line;
        line.clear();
        line.extend_from_slice(b"obj");
        push_u64(line, r.object.0);
        push_u64(line, r.class.0.into());
        push_u64(line, r.size);
        push_u64(line, r.created);
        push_u64(line, r.freed);
        push_opt(line, r.last_use);
        push_u64(line, r.alloc_site.0.into());
        push_opt(line, r.last_use_site.map(|c| c.0.into()));
        line.extend_from_slice(if r.at_exit { b" 1\n" } else { b" 0\n" });
        self.writer.write_all(line)
    }

    fn sample(&mut self, s: &GcSample) -> io::Result<()> {
        writeln!(
            self.writer,
            "gc {} {} {}",
            s.time, s.reachable_bytes, s.reachable_count
        )
    }

    fn retain(&mut self, r: &RetainRecord) -> io::Result<()> {
        writeln!(
            self.writer,
            "retain {} {} {} {} {} {}",
            r.alloc_site.0,
            r.size,
            r.time,
            r.depth,
            r.truncated as u8,
            normalize_chain_name(&r.path),
        )
    }

    fn end(&mut self, end_time: u64) -> io::Result<()> {
        writeln!(self.writer, "end {end_time}")
    }
}

fn field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<T, LogError> {
    let word = parts.next().ok_or_else(|| {
        LogError::new(
            ErrorCode::MissingField,
            line,
            format!("missing field `{what}`"),
        )
    })?;
    word.parse().map_err(|_| {
        LogError::new(
            ErrorCode::BadFieldValue,
            line,
            format!("bad value `{word}` for `{what}`"),
        )
    })
}

fn opt_field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<Option<T>, LogError> {
    let word = parts.next().ok_or_else(|| {
        LogError::new(
            ErrorCode::MissingField,
            line,
            format!("missing field `{what}`"),
        )
    })?;
    if word == "-" {
        return Ok(None);
    }
    word.parse().map(Some).map_err(|_| {
        LogError::new(
            ErrorCode::BadFieldValue,
            line,
            format!("bad value `{word}` for `{what}`"),
        )
    })
}

/// Fails with `E005` when a line carries a field past its last one: the
/// text counterpart of the binary codec's trailing-payload check.
fn no_extra<'a>(parts: &mut impl Iterator<Item = &'a str>, line: usize) -> Result<(), LogError> {
    match parts.next() {
        None => Ok(()),
        Some(word) => Err(LogError::new(
            ErrorCode::BadFieldValue,
            line,
            format!("extra field `{word}` after the last field"),
        )),
    }
}

/// Parses one `obj` line body (after the directive word).
#[inline(never)]
fn parse_obj<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    n: usize,
) -> Result<ObjectRecord, LogError> {
    let object = ObjectId(field(parts, n, "object id")?);
    let class = ClassId(field(parts, n, "class id")?);
    let size = field(parts, n, "size")?;
    let created = field(parts, n, "created")?;
    let freed = field(parts, n, "freed")?;
    let last_use = opt_field(parts, n, "last use")?;
    let alloc_site = ChainId(field(parts, n, "alloc chain")?);
    let last_use_site = opt_field::<u32>(parts, n, "use chain")?.map(ChainId);
    let at_exit: u8 = field(parts, n, "at-exit flag")?;
    no_extra(parts, n)?;
    Ok(ObjectRecord {
        object,
        class,
        size,
        created,
        freed,
        last_use,
        alloc_site,
        last_use_site,
        at_exit: at_exit != 0,
    })
}

/// Parses one `gc` line body (after the directive word).
#[inline(never)]
fn parse_gc<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    n: usize,
) -> Result<GcSample, LogError> {
    let sample = GcSample {
        time: field(parts, n, "time")?,
        reachable_bytes: field(parts, n, "reachable bytes")?,
        reachable_count: field(parts, n, "reachable count")?,
    };
    no_extra(parts, n)?;
    Ok(sample)
}

/// Parses one `end` line body (after the directive word).
fn parse_end<'a>(parts: &mut impl Iterator<Item = &'a str>, n: usize) -> Result<u64, LogError> {
    let end_time = field(parts, n, "end time")?;
    no_extra(parts, n)?;
    Ok(end_time)
}

/// Parses one `retain` line body (after the directive word). The path is
/// the rest of the line, re-joined with single spaces — the same
/// normalization the sink applies on write.
#[inline(never)]
fn parse_retain<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    n: usize,
) -> Result<RetainRecord, LogError> {
    let alloc_site = ChainId(field(parts, n, "alloc chain")?);
    let size = field(parts, n, "size")?;
    let time = field(parts, n, "time")?;
    let depth = field(parts, n, "depth")?;
    let truncated = match field::<u8>(parts, n, "truncated flag")? {
        0 => false,
        1 => true,
        flag => {
            return Err(LogError::new(
                ErrorCode::BadFieldValue,
                n,
                format!("bad truncated flag `{flag}`"),
            ))
        }
    };
    let rest: Vec<&str> = parts.collect();
    if rest.is_empty() {
        return Err(LogError::new(
            ErrorCode::MissingField,
            n,
            "missing field `path`".into(),
        ));
    }
    Ok(RetainRecord {
        alloc_site,
        size,
        time,
        depth,
        truncated,
        path: rest.join(" "),
    })
}

/// A cursor over the fields of a canonical record line: plain ASCII
/// digits, or `-` for an absent optional field, separated by single
/// spaces. Every read returns `None` on anything else (an empty field, a
/// sign, a non-digit, overflow, a doubled or missing separator), and the
/// caller falls back to the field-by-field parser.
struct Canonical<'a> {
    line: &'a [u8],
    pos: usize,
}

impl Canonical<'_> {
    /// The digits at the cursor as a `u64`; at least one digit.
    fn digits(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(&b) = self.line.get(self.pos) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            v = v.checked_mul(10)?.checked_add(u64::from(d))?;
            self.pos += 1;
        }
        (self.pos > start).then_some(v)
    }

    /// One separating space.
    fn space(&mut self) -> Option<()> {
        (self.line.get(self.pos) == Some(&b' ')).then(|| self.pos += 1)
    }

    /// A numeric field followed by its separator.
    fn field(&mut self) -> Option<u64> {
        let v = self.digits()?;
        self.space()?;
        Some(v)
    }

    /// A `u32` field followed by its separator.
    fn field_u32(&mut self) -> Option<u32> {
        u32::try_from(self.field()?).ok()
    }

    /// An optional field (`-` when absent) followed by its separator.
    fn opt(&mut self) -> Option<Option<u64>> {
        if self.line.get(self.pos) == Some(&b'-') {
            self.pos += 1;
            self.space()?;
            return Some(None);
        }
        self.field().map(Some)
    }
}

/// The fast path for one `obj` line: parses the canonical spelling the
/// [`TextSink`] writes straight from bytes, with no whitespace splitting
/// and no `FromStr`. `None` for any other spelling; [`parse_obj`] then
/// decides, and stays the only source of errors. Whenever this returns a
/// record, [`parse_obj`] returns the same one.
#[inline(never)]
fn parse_obj_canonical(line: &[u8]) -> Option<ObjectRecord> {
    let mut c = Canonical {
        line: line.strip_prefix(b"obj ")?,
        pos: 0,
    };
    let object = ObjectId(c.field()?);
    let class = ClassId(c.field_u32()?);
    let size = c.field()?;
    let created = c.field()?;
    let freed = c.field()?;
    let last_use = c.opt()?;
    let alloc_site = ChainId(c.field_u32()?);
    let last_use_site = match c.opt()? {
        None => None,
        Some(v) => Some(ChainId(u32::try_from(v).ok()?)),
    };
    let at_exit = u8::try_from(c.digits()?).ok()? != 0;
    (c.pos == c.line.len()).then_some(ObjectRecord {
        object,
        class,
        size,
        created,
        freed,
        last_use,
        alloc_site,
        last_use_site,
        at_exit,
    })
}

/// Decodes one chunk of `obj`/`gc`/`retain` lines. A canonical `obj` line
/// takes the byte-level fast path; every other line goes through the
/// field-by-field parsers. In strict mode the first bad line ends the
/// chunk (only the smallest line number is reported); in salvage mode bad
/// lines are dropped and counted, and decoding continues.
pub(crate) fn parse_chunk(lines: &OwnedLines, chunk: usize, salvage: bool) -> ChunkOut {
    let mut out = ChunkOut {
        records: Vec::with_capacity(lines.metas.len()),
        ..ChunkOut::default()
    };
    for m in &lines.metas {
        let text = &lines.buf[m.start..m.end];
        if let Some(r) = parse_obj_canonical(text.as_bytes()) {
            out.records.push(r);
            continue;
        }
        let mut parts = text.split_whitespace();
        let result = match parts.next() {
            Some("obj") => parse_obj(&mut parts, m.line).map(|r| out.records.push(r)),
            Some("gc") => parse_gc(&mut parts, m.line).map(|s| out.samples.push(s)),
            Some("retain") => parse_retain(&mut parts, m.line).map(|r| out.retains.push(r)),
            other => unreachable!("chunked line {} is not obj/gc/retain: {other:?}", m.line),
        };
        if let Err(mut e) = result {
            e.byte = m.byte;
            e.chunk = Some(chunk);
            out.errors.push(e);
            if !salvage {
                break;
            }
            out.units_dropped += 1;
            out.bytes_skipped += m.len;
        }
    }
    out
}

/// True for a line that starts `obj ` or `gc `: a record line, whatever
/// follows. The scanner classifies such a line by this raw prefix alone,
/// with no trimming or splitting; it reaches the same decision as the
/// directive-word match, since the first word of the line is the prefix.
fn is_record_prefix(line: &[u8]) -> bool {
    line.starts_with(b"obj ") || line.starts_with(b"gc ")
}

/// The index of the first `\n` in `bytes`, searched eight bytes at a
/// time: a word holds a newline exactly when `word ^ NEWLINES` has a zero
/// byte, and the lowest flagged byte of the zero-byte test is always a
/// true zero.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const NEWLINES: u64 = ONES * b'\n' as u64;
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(base + (zeros.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n');
    tail.map(|i| base + i)
}

/// The text codec's scan: one walk over the input on the coordinating
/// thread. Fed arbitrary byte blocks (however a reader happens to split
/// them), it cuts at raw `\n` bytes and lossy-decodes each line on its
/// own. The header and the `end`/`chain` directives are parsed in place
/// (they are rare and carry shared state), while `obj`/`gc`/`retain`
/// lines — the bulk of a trace — are batched into chunks of
/// `chunk_records` lines for the decoders. In strict mode the scan stops
/// at the first scan-level error; in salvage mode bad lines are dropped
/// and counted.
///
/// Cutting on raw `0x0A` before decoding is sound because `0x0A` never
/// occurs inside a multi-byte UTF-8 sequence and always terminates an
/// invalid run, so per-line lossy decoding concatenates to exactly the
/// whole-input lossy decoding: line numbers and (lossy) byte offsets do
/// not depend on where the blocks were cut.
#[derive(Debug)]
pub(crate) struct StreamScanner {
    chunk_records: usize,
    /// Raw bytes of the current, incomplete line.
    carry: Vec<u8>,
    /// Lines processed so far.
    line: usize,
    /// Cumulative lossy-decoded length, i.e. the byte offset (in lossy
    /// coordinates) of the next line.
    lossy_pos: u64,
    current: OwnedLines,
    /// The accumulated shared state; read it after [`Self::finish`].
    pub(crate) state: StreamScanState,
}

impl StreamScanner {
    pub(crate) fn new(salvage: bool, chunk_records: usize) -> Self {
        StreamScanner {
            chunk_records: chunk_records.max(1),
            carry: Vec::new(),
            line: 0,
            lossy_pos: 0,
            current: OwnedLines::default(),
            state: StreamScanState::new(salvage),
        }
    }

    /// Bytes currently held by the scanner itself (the torn-line carry
    /// plus the partially-filled chunk), for the peak-memory gauge.
    pub(crate) fn buffered_bytes(&self) -> u64 {
        (self.carry.len() + self.current.buf.len()) as u64
    }

    /// Feeds one block of input; completed chunks are appended to `out`.
    /// After a strict-mode error the scanner ignores further input.
    pub(crate) fn feed(&mut self, data: &[u8], out: &mut Vec<OwnedChunk>) {
        if self.state.aborted {
            return;
        }
        let mut rest = data;
        if !self.carry.is_empty() {
            match find_newline(rest) {
                None => {
                    self.carry.extend_from_slice(rest);
                    return;
                }
                Some(i) => {
                    self.carry.extend_from_slice(&rest[..i]);
                    let line = std::mem::take(&mut self.carry);
                    self.process_line(&line, true, out);
                    rest = &rest[i + 1..];
                }
            }
        }
        while let Some(i) = find_newline(rest) {
            if self.state.aborted {
                return;
            }
            self.process_line(&rest[..i], true, out);
            rest = &rest[i + 1..];
        }
        if !rest.is_empty() && !self.state.aborted {
            self.carry.extend_from_slice(rest);
        }
    }

    /// Signals end-of-input: classifies a torn tail, flushes the partial
    /// chunk, and finalises `next_position`.
    pub(crate) fn finish(&mut self, out: &mut Vec<OwnedChunk>) {
        if !self.state.aborted && !self.carry.is_empty() {
            let line = std::mem::take(&mut self.carry);
            self.process_line(&line, false, out);
        }
        if !self.current.metas.is_empty() {
            out.push(OwnedChunk::Lines(std::mem::take(&mut self.current)));
        }
        self.state.next_position = (self.line + 1, self.lossy_pos);
    }

    /// Appends one record-bearing line to the current chunk, handing the
    /// chunk off once it is full.
    fn push_record(
        &mut self,
        n: usize,
        byte: u64,
        len: u64,
        text: &str,
        out: &mut Vec<OwnedChunk>,
    ) {
        let start = self.current.buf.len();
        self.current.buf.push_str(text);
        self.current.metas.push(LineMeta {
            line: n,
            byte,
            len,
            start,
            end: self.current.buf.len(),
        });
        if self.current.metas.len() >= self.chunk_records {
            out.push(OwnedChunk::Lines(std::mem::take(&mut self.current)));
        }
    }

    fn process_line(&mut self, raw: &[u8], terminated: bool, out: &mut Vec<OwnedChunk>) {
        self.line += 1;
        let n = self.line;
        if terminated && n > 1 && is_record_prefix(raw) {
            if let Ok(text) = std::str::from_utf8(raw) {
                let (byte, len) = (self.lossy_pos, raw.len() as u64 + 1);
                self.lossy_pos += len;
                self.push_record(n, byte, len, text, out);
                return;
            }
        }
        let content = String::from_utf8_lossy(raw);
        let len = content.len() as u64 + u64::from(terminated);
        let byte = self.lossy_pos;
        self.lossy_pos += len;
        if !terminated {
            let mut e = LogError::new(
                ErrorCode::TornTail,
                n,
                "unterminated final line (torn write)".into(),
            );
            e.byte = byte;
            self.state.note(e, len);
            return;
        }
        let trimmed = content.trim();
        if n == 1 {
            if trimmed == TEXT_HEADER {
                return;
            }
            let mut e = LogError::new(
                ErrorCode::BadHeader,
                n,
                format!("unrecognised header `{trimmed}`"),
            );
            e.byte = byte;
            self.state.note(e, len);
            return;
        }
        if trimmed.is_empty() {
            return;
        }
        let mut parts = trimmed.split_whitespace();
        match parts.next() {
            Some("end") => match parse_end(&mut parts, n) {
                Ok(t) => {
                    self.state.end_time = t;
                    self.state.saw_end = true;
                }
                Err(mut e) => {
                    e.byte = byte;
                    self.state.note(e, len);
                }
            },
            Some("chain") => match field::<u32>(&mut parts, n, "chain id") {
                Ok(id) => {
                    let rest: Vec<&str> = parts.collect();
                    self.state.chain_names.insert(ChainId(id), rest.join(" "));
                }
                Err(mut e) => {
                    e.byte = byte;
                    self.state.note(e, len);
                }
            },
            Some("obj") | Some("gc") | Some("retain") => {
                self.push_record(n, byte, len, &content, out);
            }
            Some(other) => {
                let mut e = LogError::new(
                    ErrorCode::UnknownDirective,
                    n,
                    format!("unknown directive `{other}`"),
                );
                e.byte = byte;
                self.state.note(e, len);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::OwnedChunk;

    /// Runs the incremental scanner over `bytes` in blocks of `feed`
    /// bytes and decodes every chunk it produced.
    fn stream_scan(
        bytes: &[u8],
        salvage: bool,
        chunk_records: usize,
        feed: usize,
    ) -> (StreamScanner, Vec<ChunkOut>) {
        let mut scanner = StreamScanner::new(salvage, chunk_records);
        let mut chunks: Vec<OwnedChunk> = Vec::new();
        for block in bytes.chunks(feed.max(1)) {
            scanner.feed(block, &mut chunks);
        }
        scanner.finish(&mut chunks);
        let outs = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| c.decode(i, salvage).0)
            .collect();
        (scanner, outs)
    }

    /// The scanner fed the whole input in one block: the oracle every
    /// other feed size must agree with.
    fn whole_scan(
        bytes: &[u8],
        salvage: bool,
        chunk_records: usize,
    ) -> (StreamScanner, Vec<ChunkOut>) {
        stream_scan(bytes, salvage, chunk_records, bytes.len())
    }

    fn assert_same_out(a: &ChunkOut, b: &ChunkOut, ctx: &str) {
        assert_eq!(a.records, b.records, "{ctx}: records");
        assert_eq!(a.samples, b.samples, "{ctx}: samples");
        assert_eq!(a.retains, b.retains, "{ctx}: retains");
        assert_eq!(a.errors, b.errors, "{ctx}: errors");
        assert_eq!(a.units_dropped, b.units_dropped, "{ctx}: units_dropped");
        assert_eq!(a.bytes_skipped, b.bytes_skipped, "{ctx}: bytes_skipped");
    }

    /// Asserts the incremental scanner fed `bytes` in small blocks agrees
    /// with the same scanner fed the whole input at once, for every
    /// combination of mode, chunk size, and feed size.
    fn assert_stream_matches_batch(bytes: &[u8], label: &str) {
        for salvage in [false, true] {
            for chunk_records in [1, 3, 8192] {
                let (want, want_outs) = whole_scan(bytes, salvage, chunk_records);
                let want = want.state;
                for feed in [1, 2, 3, 7, 64, 4096] {
                    let ctx = format!(
                        "{label}: salvage={salvage} chunk_records={chunk_records} feed={feed}"
                    );
                    let (scanner, got_outs) = stream_scan(bytes, salvage, chunk_records, feed);
                    assert_eq!(want_outs.len(), got_outs.len(), "{ctx}: chunk count");
                    for (i, (a, b)) in want_outs.iter().zip(&got_outs).enumerate() {
                        assert_same_out(a, b, &format!("{ctx}: chunk {i}"));
                    }
                    assert_eq!(want.errors, scanner.state.errors, "{ctx}: scan errors");
                    if !scanner.state.aborted {
                        assert_eq!(want.chain_names, scanner.state.chain_names, "{ctx}");
                        assert_eq!(want.end_time, scanner.state.end_time, "{ctx}");
                        assert_eq!(want.saw_end, scanner.state.saw_end, "{ctx}");
                        assert_eq!(want.units_dropped, scanner.state.units_dropped, "{ctx}");
                        assert_eq!(want.bytes_skipped, scanner.state.bytes_skipped, "{ctx}");
                        assert_eq!(want.next_position, scanner.state.next_position, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_scan_matches_batch_on_clean_log() {
        let log = "heapdrag-log v1\n\
                   chain 0 Main.main@3 \"big array\"\n\
                   chain 1 Main.run@9\n\
                   obj 1 2 816 16 900 320 0 1 0\n\
                   obj 2 2 24 32 1000 - 1 - 1\n\
                   gc 500 840 2\n\
                   retain 0 816 500 2 0 static Main.cache -> char[]\n\
                   end 1000\n";
        assert_stream_matches_batch(log.as_bytes(), "clean");
    }

    #[test]
    fn retain_lines_roundtrip_and_normalize() {
        let record = RetainRecord {
            alloc_site: ChainId(7),
            size: 4096,
            time: 123456,
            depth: 3,
            truncated: true,
            path: "  static a.B.c  ->   d.E[3] ".into(),
        };
        let mut buf = Vec::new();
        {
            let mut sink = TextSink::new(&mut buf);
            sink.begin().unwrap();
            sink.retain(&record).unwrap();
            sink.end(200000).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("retain 7 4096 123456 3 1 static a.B.c -> d.E[3]\n"));
        let (s, outs) = whole_scan(text.as_bytes(), false, 8192);
        assert!(s.state.errors.is_empty());
        let out = &outs[0];
        assert!(out.errors.is_empty());
        assert_eq!(out.retains.len(), 1);
        assert_eq!(
            out.retains[0],
            RetainRecord {
                path: "static a.B.c -> d.E[3]".into(),
                ..record
            }
        );
    }

    /// The `obj` line spelled with `format!`: the oracle the byte-level
    /// encoder must match.
    fn obj_line_oracle(r: &ObjectRecord) -> String {
        format!(
            "obj {} {} {} {} {} {} {} {} {}\n",
            r.object.0,
            r.class.0,
            r.size,
            r.created,
            r.freed,
            r.last_use.map_or("-".to_string(), |t| t.to_string()),
            r.alloc_site.0,
            r.last_use_site.map_or("-".to_string(), |c| c.0.to_string()),
            r.at_exit as u8,
        )
    }

    #[test]
    fn obj_lines_match_the_format_oracle_at_field_bounds() {
        let base = ObjectRecord {
            object: ObjectId(17),
            class: ClassId(8),
            size: 816,
            created: 1024,
            freed: 204800,
            last_use: Some(2048),
            alloc_site: ChainId(3),
            last_use_site: Some(ChainId(5)),
            at_exit: false,
        };
        let mut records = Vec::new();
        // Every digit-count boundary a hand-rolled formatter can miss.
        for v in [0, 1, 9, 10, 99_999, 100_000, u64::MAX] {
            records.push(ObjectRecord { object: ObjectId(v), ..base });
            records.push(ObjectRecord { size: v, ..base });
            records.push(ObjectRecord { created: v, ..base });
            records.push(ObjectRecord { freed: v, ..base });
            records.push(ObjectRecord { last_use: Some(v), ..base });
        }
        for v in [0, 1, 9, 10, 99_999, u32::MAX] {
            records.push(ObjectRecord { class: ClassId(v), ..base });
            records.push(ObjectRecord { alloc_site: ChainId(v), ..base });
            records.push(ObjectRecord { last_use_site: Some(ChainId(v)), ..base });
        }
        records.push(ObjectRecord { last_use: None, last_use_site: None, ..base });
        records.push(ObjectRecord {
            object: ObjectId(u64::MAX),
            class: ClassId(u32::MAX),
            size: u64::MAX,
            created: u64::MAX,
            freed: u64::MAX,
            last_use: Some(u64::MAX),
            alloc_site: ChainId(u32::MAX),
            last_use_site: Some(ChainId(u32::MAX)),
            at_exit: true,
        });
        let flipped: Vec<ObjectRecord> = records
            .iter()
            .map(|r| ObjectRecord { at_exit: !r.at_exit, ..*r })
            .collect();
        records.extend(flipped);

        let mut buf = Vec::new();
        let mut sink = TextSink::new(&mut buf);
        sink.begin().unwrap();
        for r in &records {
            sink.record(r).unwrap();
        }
        sink.end(0).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let want: String = std::iter::once(format!("{TEXT_HEADER}\n"))
            .chain(records.iter().map(obj_line_oracle))
            .chain(std::iter::once("end 0\n".to_string()))
            .collect();
        assert_eq!(text, want);

        let (s, outs) = whole_scan(text.as_bytes(), false, 8192);
        assert!(s.state.errors.is_empty(), "{:?}", s.state.errors);
        let decoded: Vec<ObjectRecord> = outs
            .into_iter()
            .flat_map(|out| {
                assert!(out.errors.is_empty(), "{:?}", out.errors);
                out.records
            })
            .collect();
        assert_eq!(decoded, records);
    }

    /// The field-by-field decision on one line: the record, or the error
    /// (a line whose first word is not `obj` is not an `obj` record).
    fn slow_obj(line: &str) -> Result<ObjectRecord, String> {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("obj") => parse_obj(&mut parts, 1).map_err(|e| e.to_string()),
            other => Err(format!("not an obj line: {other:?}")),
        }
    }

    /// One seeded edit of a record line: a testkit fault, or a splice
    /// aimed at the canonical grammar's edges (separators, signs, digit
    /// overflow, extra fields).
    fn mutate_line(line: &str, rng: &mut heapdrag_testkit::Rng) -> String {
        use heapdrag_testkit::{inject, Fault};
        const SPLICES: [&str; 12] = [
            " ", "  ", "\t", "-", "+", "0", "9", "x", "\r", " 7",
            "18446744073709551616", "4294967296",
        ];
        let at = |rng: &mut heapdrag_testkit::Rng, s: &str| rng.range_usize(0, s.len() + 1);
        match rng.range_u32(0, 4) {
            0 => {
                let fault = *rng.choose(&Fault::ALL);
                let (faulted, _) = inject(&format!("{line}\n"), fault, rng);
                faulted.trim_end_matches('\n').to_string()
            }
            1 => {
                let i = at(rng, line);
                let splice = *rng.choose(&SPLICES);
                format!("{}{splice}{}", &line[..i], &line[i..])
            }
            2 if !line.is_empty() => {
                let i = rng.range_usize(0, line.len());
                format!("{}{}", &line[..i], &line[i + 1..])
            }
            _ => {
                // Replace one whole field with a splice.
                let mut words: Vec<&str> = line.split(' ').collect();
                let i = rng.range_usize(0, words.len());
                words[i] = *rng.choose(&SPLICES);
                words.join(" ")
            }
        }
    }

    #[test]
    fn canonical_obj_fast_path_never_disagrees_with_the_field_parser() {
        use std::cell::Cell;
        let (fast_hits, fallbacks) = (Cell::new(0u32), Cell::new(0u32));
        heapdrag_testkit::check("text obj fast path", 512, |rng| {
            let record = crate::codec::tests::random_record(rng);
            let mut buf = Vec::new();
            TextSink::new(&mut buf).record(&record).unwrap();
            let clean = String::from_utf8(buf).unwrap();
            let clean = clean.trim_end_matches('\n');
            assert_eq!(parse_obj_canonical(clean.as_bytes()), Some(record), "{clean}");

            let mut line = clean.to_string();
            for _ in 0..rng.range_u32(1, 4) {
                line = mutate_line(&line, rng);
                match (parse_obj_canonical(line.as_bytes()), slow_obj(&line)) {
                    (None, _) => fallbacks.set(fallbacks.get() + 1),
                    (Some(fast), Ok(slow)) => {
                        assert_eq!(fast, slow, "`{line}`");
                        fast_hits.set(fast_hits.get() + 1);
                    }
                    (Some(fast), Err(e)) => {
                        panic!("`{line}`: fast path returned {fast:?} where the parser errs: {e}")
                    }
                }
            }
        });
        assert!(
            fast_hits.get() > 0 && fallbacks.get() > 0,
            "both paths exercised"
        );
    }

    #[test]
    fn non_canonical_obj_lines_fall_back_to_the_same_record() {
        let canonical = "obj 17 8 816 1024 204800 2048 3 5 0";
        let want = slow_obj(canonical).unwrap();
        assert_eq!(parse_obj_canonical(canonical.as_bytes()), Some(want));
        for spelling in [
            "obj  17 8 816 1024 204800 2048 3 5 0",
            "obj\t17\t8\t816\t1024\t204800\t2048\t3\t5\t0",
            " obj 17 8 816 1024 204800 2048 3 5 0",
            "obj 17 8 816 1024 204800 2048 3 5 0 ",
            "obj 17 8 816 1024 204800 2048 3 5 0\r",
            "obj +17 8 816 1024 204800 2048 3 5 0",
            "obj 017 8 816 1024 204800 2048 3 5 00",
        ] {
            // `017` and `00` are canonical digits; the rest are not.
            let fast = parse_obj_canonical(spelling.as_bytes());
            assert!(fast.is_none() || fast == Some(want), "`{spelling}`");
            assert_eq!(slow_obj(spelling), Ok(want), "`{spelling}`");
        }
        let text = format!(
            "{TEXT_HEADER}\nobj  17 8 816 1024 204800 2048 3 5 0\nobj\t18 8 8 1 2 - 3 - 1\nend 9\n"
        );
        let (_, outs) = whole_scan(text.as_bytes(), false, 8192);
        let out = &outs[0];
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.records[0], want);
        assert_eq!(out.records[1].object, ObjectId(18));
    }

    #[test]
    fn retain_line_faults_are_classified() {
        // Bad truncated flag → E005; missing path → E004; both survive
        // salvage without taking neighbours.
        let log = "heapdrag-log v1\n\
                   retain 0 816 500 2 9 static Main.cache\n\
                   retain 0 816 500 2 0\n\
                   retain 0 24 600 1 1 static Main.pool -> int[]\n\
                   end 1000\n";
        let (s, outs) = whole_scan(log.as_bytes(), true, 8192);
        assert!(s.state.errors.is_empty());
        let out = &outs[0];
        assert_eq!(out.errors.len(), 2);
        assert_eq!(out.errors[0].code, ErrorCode::BadFieldValue);
        assert_eq!(out.errors[1].code, ErrorCode::MissingField);
        assert_eq!(out.retains.len(), 1);
        assert!(out.retains[0].truncated);
        assert_eq!(out.units_dropped, 2);
        assert_stream_matches_batch(log.as_bytes(), "retain faults");
    }

    #[test]
    fn incremental_scan_matches_batch_on_faults() {
        let cases: &[(&str, &str)] = &[
            ("torn tail", "heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\ngc 500 840"),
            ("bad header", "not a heapdrag log\nobj 1 2 816 16 900 320 0 1 0\nend 9\n"),
            ("unknown directive", "heapdrag-log v1\nwat 1 2 3\nobj 1 2 816 16 900 320 0 1 0\nend 9\n"),
            ("bad end value", "heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\nend soon\n"),
            ("bad chain id", "heapdrag-log v1\nchain x Main.main@3\nend 9\n"),
            ("blank lines", "heapdrag-log v1\n\n  \nobj 1 2 816 16 900 320 0 1 0\n\nend 9\n"),
            ("missing end", "heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\n"),
            ("bad obj field", "heapdrag-log v1\nobj 1 2 many 16 900 320 0 1 0\ngc 500 840 2\nend 9\n"),
            ("torn header", "heapdrag-log"),
            ("only header", "heapdrag-log v1\n"),
        ];
        for (label, log) in cases {
            assert_stream_matches_batch(log.as_bytes(), label);
        }
    }

    /// The scanner's outcome on `bytes` fed whole, in one line: scan-level
    /// errors and decode errors (each `code@line:byte`). In salvage mode
    /// also the kept records/samples/retains, drops and skipped bytes
    /// (scan + decode), `next_position` and the end marker.
    fn outcome(bytes: &[u8], salvage: bool) -> String {
        let (s, outs) = whole_scan(bytes, salvage, 8192);
        let s = s.state;
        let at = |e: &LogError| format!("{}@{}:{}", e.code, e.line, e.byte);
        let scan: Vec<String> = s.errors.iter().map(at).collect();
        let decode: Vec<String> = outs.iter().flat_map(|o| &o.errors).map(at).collect();
        let errors = format!("scan [{}] decode [{}]", scan.join(" "), decode.join(" "));
        if !salvage {
            return errors;
        }
        let sum = |f: fn(&ChunkOut) -> u64| outs.iter().map(f).sum::<u64>();
        format!(
            "{errors} kept {}/{}/{} dropped {}+{} skipped {}+{} next {}:{} end {}",
            sum(|o| o.records.len() as u64),
            sum(|o| o.samples.len() as u64),
            sum(|o| o.retains.len() as u64),
            s.units_dropped,
            sum(|o| o.units_dropped),
            s.bytes_skipped,
            sum(|o| o.bytes_skipped),
            s.next_position.0,
            s.next_position.1,
            if s.saw_end { s.end_time.to_string() } else { "-".into() },
        )
    }

    /// Fixed outcomes for each rung of the scanner's line ladder (header,
    /// blank line, `chain`, `end`, unknown directive, record line, torn
    /// tail), strict then salvage. The feed-size tests compare the
    /// scanner with itself; these pin what it decides. Offsets are in
    /// lossy-decoded coordinates, so the invalid-UTF-8 case places line 3
    /// at 16 + 27 bytes although its raw line 2 is 23 bytes long.
    #[test]
    fn scanner_outcomes_are_fixed_on_each_rung() {
        let cases: &[(&[u8], &str, &str)] = &[
            (
                b"heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\ngc 500 840",
                "scan [E007@3:45] decode []",
                "scan [E007@3:45] decode [] kept 1/0/0 dropped 1+0 skipped 10+0 next 4:55 end -",
            ),
            (
                b"not a heapdrag log\nobj 1 2 816 16 900 320 0 1 0\nend 9\n",
                "scan [E002@1:0] decode []",
                "scan [E002@1:0] decode [] kept 1/0/0 dropped 1+0 skipped 19+0 next 4:54 end 9",
            ),
            (
                b"heapdrag-log v1\nwat 1 2 3\nobj 1 2 816 16 900 320 0 1 0\nend 9\n",
                "scan [E003@2:16] decode []",
                "scan [E003@2:16] decode [] kept 1/0/0 dropped 1+0 skipped 10+0 next 5:61 end 9",
            ),
            (
                b"heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\nend soon\n",
                "scan [E005@3:45] decode []",
                "scan [E005@3:45] decode [] kept 1/0/0 dropped 1+0 skipped 9+0 next 4:54 end -",
            ),
            (
                b"heapdrag-log v1\nchain x Main.main@3\nend 9\n",
                "scan [E005@2:16] decode []",
                "scan [E005@2:16] decode [] kept 0/0/0 dropped 1+0 skipped 20+0 next 4:42 end 9",
            ),
            (
                b"heapdrag-log v1\n\n  \nobj 1 2 816 16 900 320 0 1 0\n\nend 9\n",
                "scan [] decode []",
                "scan [] decode [] kept 1/0/0 dropped 0+0 skipped 0+0 next 7:56 end 9",
            ),
            (
                b"heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\n",
                "scan [] decode []",
                "scan [] decode [] kept 1/0/0 dropped 0+0 skipped 0+0 next 3:45 end -",
            ),
            (
                b"heapdrag-log v1\nobj 1 2 many 16 900 320 0 1 0\ngc 500 840 2\nend 9\n",
                "scan [] decode [E005@2:16]",
                "scan [] decode [E005@2:16] kept 0/1/0 dropped 0+1 skipped 0+30 next 5:65 end 9",
            ),
            (
                b"heapdrag-log",
                "scan [E007@1:0] decode []",
                "scan [E007@1:0] decode [] kept 0/0/0 dropped 1+0 skipped 12+0 next 2:12 end -",
            ),
            (
                b"heapdrag-log v1\n",
                "scan [] decode []",
                "scan [] decode [] kept 0/0/0 dropped 0+0 skipped 0+0 next 2:16 end -",
            ),
            (
                b"heapdrag-log v1\nchain 0 Ma\xffin.m\xc3\x28ain@3\nobj 1 2 816 16 900 320 \xf0\x9f 0 1 0\nobj 2 2 24 32 1000 - 0 - 1\nend 1000\n",
                "scan [] decode [E005@3:43]",
                "scan [] decode [E005@3:43] kept 1/0/0 dropped 0+1 skipped 0+33 next 6:112 end 1000",
            ),
        ];
        for &(log, strict, salvage) in cases {
            let ctx = String::from_utf8_lossy(log);
            assert_eq!(outcome(log, false), strict, "strict: {ctx:?}");
            assert_eq!(outcome(log, true), salvage, "salvage: {ctx:?}");
        }
    }

    #[test]
    fn incremental_scan_matches_batch_on_invalid_utf8() {
        // Invalid UTF-8 inside a chain name and inside an obj line: the
        // per-line lossy decode must agree with the whole-input lossy
        // decode, offsets included.
        let mut log = b"heapdrag-log v1\nchain 0 Ma\xffin.m\xc3\x28ain@3\n".to_vec();
        log.extend_from_slice(b"obj 1 2 816 16 900 320 \xf0\x9f 0 1 0\n");
        log.extend_from_slice(b"obj 2 2 24 32 1000 - 0 - 1\nend 1000\n");
        assert_stream_matches_batch(&log, "invalid utf8");
        let (s, _) = whole_scan(&log, true, 8192);
        let lossy = String::from_utf8_lossy(&log);
        assert_eq!(s.state.next_position, (6, lossy.len() as u64));
    }

    #[test]
    fn find_newline_agrees_with_a_byte_search() {
        // Every offset of a newline inside and across eight-byte words,
        // next to the bytes a zero-byte test could confuse with it.
        let fillers = [b'a', b'\x0b', b'\x09', b'\x8a', b'\xff', b'\x00'];
        for len in 0..40 {
            for filler in fillers {
                let mut bytes = vec![filler; len];
                assert_eq!(find_newline(&bytes), None, "len {len} filler {filler:#x}");
                for at in 0..len {
                    bytes[at] = b'\n';
                    let want = bytes.iter().position(|&b| b == b'\n');
                    assert_eq!(find_newline(&bytes), want, "len {len} at {at} filler {filler:#x}");
                    bytes[at] = filler;
                }
            }
        }
    }

    #[test]
    fn scanner_buffered_bytes_tracks_carry_and_partial_chunk() {
        let mut scanner = StreamScanner::new(false, 8192);
        let mut out = Vec::new();
        scanner.feed(b"heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\npartial", &mut out);
        assert!(out.is_empty());
        // The obj line sits in the partial chunk, "partial" in the carry.
        assert_eq!(
            scanner.buffered_bytes(),
            ("obj 1 2 816 16 900 320 0 1 0".len() + "partial".len()) as u64
        );
    }
}
