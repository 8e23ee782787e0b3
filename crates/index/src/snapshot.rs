//! Checksummed binary snapshot files and the byte codec they carry.
//!
//! The reproduction pipeline builds its artifacts (ontology, corpus,
//! indexes) deterministically but not instantly; [`SnapshotStore`] lets a
//! service persist and reload them between runs, playing the role of the
//! paper's MySQL-loaded index tables. Three layers, none generic:
//!
//! * the frame ([`encode_frame`] / [`decode_frame`]) — magic, body
//!   length, and an `FxHash` checksum of the body, so a flipped bit or a
//!   torn write fails loudly instead of misdecoding;
//! * the store — a directory of named frames, each replaced atomically
//!   (tmp file + `sync_all` + rename + directory sync);
//! * [`Writer`] / [`Reader`] — little-endian primitives for the bodies.
//!   The reader checks every length word against the bytes that remain
//!   before it reserves anything, so a hostile length cannot drive an
//!   allocation larger than the input it arrived in.
//!
//! What a body *means* is the caller's business: `concept_rank::persist`
//! is the one module that knows what a saved engine is.

use std::fs;
use std::hash::Hasher;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"CBRSNAP2";
/// Header layout: magic (8) + body length (8) + body checksum (8).
const HEADER_LEN: usize = 24;

pub(crate) fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn checksum(body: &[u8]) -> u64 {
    let mut h = cbr_ontology::hash::FxHasher::default();
    h.write(body);
    h.finish()
}

/// Frames `body` with the snapshot header: magic, length, and checksum.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Validates a snapshot frame and returns the body it carries. Fails with
/// `InvalidData` on a bad magic, a length word that disagrees with the
/// bytes present (truncated or over-long), or a checksum mismatch — every
/// corruption class a round-trip can detect.
pub fn decode_frame(raw: &[u8]) -> io::Result<&[u8]> {
    let mut header = Reader::new(raw);
    if header.take(MAGIC.len())? != MAGIC {
        return Err(invalid("bad snapshot header"));
    }
    let len = header.u64()?;
    let expected = header.u64()?;
    let body = header.rest;
    if body.len() as u64 != len {
        return Err(invalid("snapshot length mismatch"));
    }
    if checksum(body) != expected {
        return Err(invalid("snapshot checksum mismatch"));
    }
    Ok(body)
}

/// A directory of named binary snapshots.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// A store over `dir`. Nothing is touched until the first
    /// [`save`](Self::save) creates the directory, so loading from a path
    /// that does not exist fails with `NotFound` and leaves no trace.
    pub fn open(dir: impl Into<PathBuf>) -> SnapshotStore {
        SnapshotStore { dir: dir.into() }
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.snap"))
    }

    /// Whether a snapshot named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.path(name).is_file()
    }

    /// Frames `body` and stores it under `name`, atomically replacing any
    /// previous snapshot: a crash leaves the old file or the new one.
    pub fn save(&self, name: &str, body: &[u8]) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&encode_frame(body))?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path(name))?;
        // The rename is durable only once the directory entry is.
        fs::File::open(&self.dir)?.sync_all()
    }

    /// Reads the snapshot `name` and returns its validated body.
    pub fn load(&self, name: &str) -> io::Result<Vec<u8>> {
        decode_frame(&fs::read(self.path(name))?).map(<[u8]>::to_vec)
    }

    /// Names of all snapshots in the store.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str().and_then(|n| n.strip_suffix(".snap")) {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }
}

/// Appends little-endian primitives to a snapshot body. Lengths are
/// `u64` words; [`Reader`] is the inverse, method for method.
#[derive(Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// Starts an empty body.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern, so it reads back to the bit.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.out.push(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.out.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed run of `u32`s.
    pub fn put_u32s(&mut self, v: impl ExactSizeIterator<Item = u32>) {
        self.put_u64(v.len() as u64);
        v.for_each(|x| self.put_u32(x));
    }

    /// The finished body.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Checked decoder over a snapshot body: every read is bounds-checked and
/// every failure is `InvalidData`, never a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `body`.
    pub fn new(body: &'a [u8]) -> Reader<'a> {
        Reader { rest: body }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let (head, tail) =
            self.rest.split_at_checked(n).ok_or_else(|| invalid("snapshot body truncated"))?;
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        self.take(N)?.try_into().map_err(|_| invalid("snapshot body truncated"))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> io::Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `bool`; any byte but `0`/`1` is rejected.
    pub fn bool(&mut self) -> io::Result<bool> {
        match self.array()? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(invalid("snapshot bool is neither 0 nor 1")),
        }
    }

    /// Reads an element count whose elements occupy at least
    /// `min_bytes_each`, rejecting any count the remaining bytes cannot
    /// hold — before the caller loops or reserves on it.
    pub fn seq_len(&mut self, min_bytes_each: usize) -> io::Result<usize> {
        let n = self.u64()?;
        match n.checked_mul(min_bytes_each.max(1) as u64) {
            // At least a byte each, so `n` is no larger than a slice length.
            Some(bytes) if bytes <= self.rest.len() as u64 => Ok(n as usize),
            _ => Err(invalid("snapshot length exceeds the bytes that remain")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> io::Result<&'a str> {
        let n = self.seq_len(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| invalid("snapshot string is not utf-8"))
    }

    /// Reads a length-prefixed run of `u32`s.
    pub fn u32s(&mut self) -> io::Result<impl ExactSizeIterator<Item = u32> + 'a> {
        let n = self.seq_len(4)?;
        // `seq_len` proved `n * 4` fits in what remains.
        Ok(self.take(n * 4)?.as_chunks::<4>().0.iter().map(|w| u32::from_le_bytes(*w)))
    }

    /// Ends decoding, rejecting trailing bytes.
    pub fn expect_end(self) -> io::Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(invalid("trailing bytes after snapshot body"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let body = b"the quick brown fox";
        let framed = encode_frame(body);
        assert_eq!(decode_frame(&framed).unwrap(), body);
        assert_eq!(decode_frame(&encode_frame(&[])).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn flipped_body_bit_fails_checksum() {
        let mut framed = encode_frame(b"payload");
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        let err = decode_frame(&framed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn garbage_and_truncation_fail_loudly() {
        assert!(decode_frame(b"garbage").is_err());
        let framed = encode_frame(b"payload");
        assert!(decode_frame(&framed[..framed.len() - 1]).is_err());
        let mut wrong_magic = framed.clone();
        wrong_magic[7] = b'9';
        assert!(decode_frame(&wrong_magic).is_err());
        let mut overlong = framed;
        overlong.push(0);
        assert!(decode_frame(&overlong).is_err(), "bytes past the declared body");
    }

    fn store(tag: &str) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!("cbr-snap-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::open(dir)
    }

    #[test]
    fn save_load_roundtrip() {
        let s = store("rt");
        s.save("corpus", b"first").unwrap();
        s.save("corpus", b"second, replacing the first").unwrap();
        assert!(s.contains("corpus"));
        assert_eq!(s.load("corpus").unwrap(), b"second, replacing the first");
        assert_eq!(s.list().unwrap(), vec!["corpus".to_string()], "no tmp file left behind");
        fs::remove_dir_all(s.dir()).unwrap();
    }

    #[test]
    fn list_names_snapshots() {
        let s = store("list");
        s.save("b", &[1]).unwrap();
        s.save("a", &[2]).unwrap();
        assert_eq!(s.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        fs::remove_dir_all(s.dir()).unwrap();
    }

    #[test]
    fn corrupt_snapshot_fails_loudly() {
        let s = store("corrupt");
        fs::create_dir_all(s.dir()).unwrap();
        fs::write(s.dir().join("x.snap"), b"garbage").unwrap();
        let err = s.load("x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(s.dir()).unwrap();
    }

    #[test]
    fn missing_snapshot_is_not_found() {
        let s = store("missing");
        assert!(!s.contains("nope"));
        assert_eq!(s.load("nope").unwrap_err().kind(), io::ErrorKind::NotFound);
        assert!(!s.dir().exists(), "a failed load must not create the directory");
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(42);
        w.put_u64(u64::MAX);
        w.put_f64(3.5);
        w.put_f64(f64::NEG_INFINITY);
        w.put_str("hello λ");
        w.put_str("");
        let body = w.finish();
        let mut r = Reader::new(&body);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 42);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.str().unwrap(), "hello λ");
        assert_eq!(r.str().unwrap(), "");
        r.expect_end().unwrap();
    }

    #[test]
    fn sequences_roundtrip() {
        let mut w = Writer::new();
        w.put_u32s([1u32, 2, 3].into_iter());
        w.put_u32s(std::iter::empty());
        w.put_u64(2);
        w.put_str("a");
        w.put_str("b");
        let body = w.finish();
        let mut r = Reader::new(&body);
        assert_eq!(r.u32s().unwrap().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(r.u32s().unwrap().len(), 0);
        let n = r.seq_len(8).unwrap();
        let strs: Vec<&str> = (0..n).map(|_| r.str()).collect::<io::Result<_>>().unwrap();
        assert_eq!(strs, vec!["a", "b"]);
        r.expect_end().unwrap();
    }

    #[test]
    fn rejects_truncated_input() {
        let mut w = Writer::new();
        w.put_u64(12345);
        let body = w.finish();
        let err = Reader::new(&body[..4]).u64().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut w = Writer::new();
        w.put_str("abcdef");
        let body = w.finish();
        assert!(Reader::new(&body[..body.len() - 1]).str().is_err());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut w = Writer::new();
        w.put_u32(1);
        let mut body = w.finish();
        body.push(0);
        let mut r = Reader::new(&body);
        r.u32().unwrap();
        assert_eq!(r.expect_end().unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_tags() {
        assert!(Reader::new(&[7]).bool().is_err());
        let mut w = Writer::new();
        w.put_u64(2);
        let mut body = w.finish();
        body.extend_from_slice(&[0xC3, 0x28]);
        assert!(Reader::new(&body).str().is_err(), "invalid utf-8");
    }

    /// A length word larger than what follows is refused before anything
    /// is sliced or reserved — `u64::MAX` (where `n * 4` overflows) is the
    /// pinned case.
    #[test]
    fn rejects_hostile_lengths() {
        for len in [u64::MAX, u64::MAX / 4, 1 << 40, 5] {
            let mut w = Writer::new();
            w.put_u64(len);
            w.put_u32(0);
            let body = w.finish();
            assert!(Reader::new(&body).str().is_err(), "str of {len}");
            assert!(Reader::new(&body).u32s().is_err(), "u32s of {len}");
            assert!(Reader::new(&body).seq_len(1).is_err(), "seq_len of {len}");
        }
        assert_eq!(Reader::new(&1u64.to_le_bytes()).seq_len(1).unwrap_err().kind(), {
            io::ErrorKind::InvalidData
        });
    }
}
