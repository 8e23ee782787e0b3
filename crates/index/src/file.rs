//! File-backed index image — the MySQL stand-in.
//!
//! The paper's measurements include the time spent fetching postings and
//! forward entries from a MySQL database (Section 6.1). [`FileSource`]
//! reproduces a disk-resident access path honestly: posting lists and
//! forward lists live in one flat file and every access issues a real
//! positioned read (`pread`), so the time the query engine attributes to
//! I/O is measured, not modeled. The two offset tables stay resident —
//! they are small and correspond to the database's primary-key index.
//!
//! Image layout (all little-endian):
//!
//! ```text
//! magic "CBRIDX1\0"                      8 bytes
//! num_concepts: u64                      8 bytes
//! num_docs: u64                          8 bytes
//! inv_offsets: (num_concepts+1) × u32
//! fwd_offsets: (num_docs+1) × u32
//! inv_docs:    total_postings × u32
//! fwd_concepts: total_forward × u32
//! ```

use crate::snapshot::{invalid, Reader};
use crate::source::IndexSource;
use crate::{ForwardIndex, InvertedIndex};
use bytes::{BufMut, BytesMut};
use cbr_corpus::DocId;
use cbr_ontology::ConceptId;
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

const MAGIC: &[u8; 8] = b"CBRIDX1\0";
/// Magic (8) + `num_concepts` (8) + `num_docs` (8).
const HEADER_LEN: u64 = 24;

/// Disk-resident inverted + forward index image with `pread` access.
#[derive(Debug)]
pub struct FileSource {
    file: File,
    inv_offsets: Vec<u32>,
    fwd_offsets: Vec<u32>,
    /// Byte position of the postings data region.
    inv_data_pos: u64,
    /// Byte position of the forward data region.
    fwd_data_pos: u64,
}

impl FileSource {
    /// Serializes the two indexes into an image file at `path`.
    pub fn write_image(
        path: &Path,
        inverted: &InvertedIndex,
        forward: &ForwardIndex,
    ) -> io::Result<()> {
        let (inv_offsets, inv_docs) = inverted.parts();
        let (fwd_offsets, fwd_concepts) = forward.parts();

        let mut buf = BytesMut::with_capacity(
            HEADER_LEN as usize
                + 4 * (inv_offsets.len() + fwd_offsets.len() + inv_docs.len() + fwd_concepts.len()),
        );
        buf.put_slice(MAGIC);
        buf.put_u64_le((inv_offsets.len() - 1) as u64);
        buf.put_u64_le((fwd_offsets.len() - 1) as u64);
        for &o in inv_offsets {
            buf.put_u32_le(o);
        }
        for &o in fwd_offsets {
            buf.put_u32_le(o);
        }
        for &d in inv_docs {
            buf.put_u32_le(d.0);
        }
        for &c in fwd_concepts {
            buf.put_u32_le(c.0);
        }
        let mut f = File::create(path)?;
        f.write_all(&buf)?;
        f.sync_all()
    }

    /// Opens an image, loading the offset tables and validating them
    /// against the file: the header's counts are held to the file length
    /// with checked arithmetic *before* any table is reserved, both tables
    /// must rise monotonically from 0, and header + tables + the two data
    /// regions they describe must account for every byte. A crafted or
    /// torn image is `InvalidData`, so the reads that follow stay in
    /// bounds.
    pub fn open(path: &Path) -> io::Result<FileSource> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN {
            return Err(invalid("index image shorter than its header"));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        let mut counts = Reader::new(
            header.strip_prefix(MAGIC).ok_or_else(|| invalid("bad index image magic"))?,
        );
        let (num_concepts, num_docs) = (counts.u64()?, counts.u64()?);

        // Bytes of an offset table of `n + 1` fence posts.
        let table_bytes = |n: u64| n.checked_add(1)?.checked_mul(4);
        let inv_data_pos = table_bytes(num_concepts)
            .zip(table_bytes(num_docs))
            .and_then(|(inv, fwd)| HEADER_LEN.checked_add(inv)?.checked_add(fwd))
            .filter(|&pos| pos <= file_len)
            .ok_or_else(|| invalid("index image header counts exceed the file"))?;

        // Both tables fit in the file, so these reservations are bounded by it.
        let mut read_offsets = |n: u64| -> io::Result<(Vec<u32>, u64)> {
            let mut raw = vec![0u8; (n as usize + 1) * 4];
            file.read_exact(&mut raw)?;
            let offsets: Vec<u32> =
                raw.as_chunks::<4>().0.iter().map(|w| u32::from_le_bytes(*w)).collect();
            match offsets.last() {
                Some(&total) if offsets.first() == Some(&0) && offsets.is_sorted() => {
                    Ok((offsets, 4 * u64::from(total)))
                }
                _ => Err(invalid("index image offsets are not monotone from 0")),
            }
        };
        let (inv_offsets, inv_bytes) = read_offsets(num_concepts)?;
        let (fwd_offsets, fwd_bytes) = read_offsets(num_docs)?;

        let fwd_data_pos = inv_data_pos + inv_bytes;
        if fwd_data_pos + fwd_bytes != file_len {
            return Err(invalid("index image data regions do not match its offsets"));
        }
        Ok(FileSource { file, inv_offsets, fwd_offsets, inv_data_pos, fwd_data_pos })
    }

    /// Positioned read of `count` u32 values at `pos`, appended to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the file was truncated after `open` validated it — a
    /// corrupted store cannot answer queries meaningfully.
    fn read_values(&self, pos: u64, count: usize, out: &mut Vec<u32>) {
        if count == 0 {
            return;
        }
        let mut raw = vec![0u8; count * 4];
        self.file.read_exact_at(&mut raw, pos).expect("index image truncated while in use");
        out.extend(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())));
    }
}

impl IndexSource for FileSource {
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
        let i = c.index();
        if i + 1 >= self.inv_offsets.len() {
            return;
        }
        let lo = self.inv_offsets[i] as usize;
        let hi = self.inv_offsets[i + 1] as usize;
        let mut vals = Vec::new();
        self.read_values(self.inv_data_pos + 4 * lo as u64, hi - lo, &mut vals);
        out.extend(vals.into_iter().map(DocId));
    }

    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
        let i = d.index();
        assert!(i + 1 < self.fwd_offsets.len(), "document {d} not in index image");
        let lo = self.fwd_offsets[i] as usize;
        let hi = self.fwd_offsets[i + 1] as usize;
        let mut vals = Vec::new();
        self.read_values(self.fwd_data_pos + 4 * lo as u64, hi - lo, &mut vals);
        out.extend(vals.into_iter().map(ConceptId));
    }

    fn doc_len(&self, d: DocId) -> usize {
        let i = d.index();
        (self.fwd_offsets[i + 1] - self.fwd_offsets[i]) as usize
    }

    fn num_docs(&self) -> usize {
        self.fwd_offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySource;
    use cbr_corpus::Corpus;

    fn corpus() -> Corpus {
        Corpus::from_concept_sets(vec![
            (vec![ConceptId(1), ConceptId(3)], 0),
            (vec![ConceptId(3), ConceptId(4)], 0),
            (vec![], 0),
        ])
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cbr-file-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn image_roundtrips_all_accesses() {
        let corpus = corpus();
        let mem = MemorySource::build(&corpus, 6);
        let path = tmp("roundtrip.idx");
        FileSource::write_image(&path, mem.inverted(), mem.forward()).unwrap();
        let fs = FileSource::open(&path).unwrap();

        assert_eq!(fs.num_docs(), mem.num_docs());
        for c in 0..6u32 {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            mem.postings(ConceptId(c), &mut a);
            fs.postings(ConceptId(c), &mut b);
            assert_eq!(a, b, "postings for concept {c}");
        }
        for d in corpus.doc_ids() {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            mem.doc_concepts(d, &mut a);
            fs.doc_concepts(d, &mut b);
            assert_eq!(a, b, "forward for {d}");
            assert_eq!(fs.doc_len(d), mem.doc_len(d));
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("badmagic.idx");
        std::fs::write(&path, b"NOTANIDXfollowed by junk that is long enough").unwrap();
        let err = FileSource::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_truncated_header() {
        let path = tmp("short.idx");
        std::fs::write(&path, b"CBRIDX1\0").unwrap();
        assert!(FileSource::open(&path).is_err());
        std::fs::remove_file(path).unwrap();
    }

    /// The pristine image of [`corpus`] over 6 concepts: 24-byte header,
    /// 7 + 4 offsets, 4 postings, 4 forward entries.
    fn image_bytes(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let mem = MemorySource::build(&corpus(), 6);
        let path = tmp(name);
        FileSource::write_image(&path, mem.inverted(), mem.forward()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 24 + 4 * (7 + 4 + 4 + 4));
        (path, bytes)
    }

    fn open_err(path: &Path, bytes: &[u8]) -> io::Error {
        std::fs::write(path, bytes).unwrap();
        let err = FileSource::open(path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err
    }

    #[test]
    fn rejects_absurd_header_counts() {
        let (path, good) = image_bytes("absurd.idx");
        // `num_concepts + 1` overflows, `(n + 1) * 4` overflows, the two
        // tables together overflow, or they merely outgrow the file —
        // refused before a table is reserved.
        for (at, count) in [
            (8, u64::MAX),
            (8, u64::MAX / 4),
            (16, u64::MAX / 4 - 8),
            (8, 1 << 40),
            (16, 1 << 40),
            (8, 20),
        ] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&count.to_le_bytes());
            let err = open_err(&path, &bad);
            assert!(err.to_string().contains("header counts"), "{count} at {at}: {err}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_an_image_torn_inside_any_region() {
        let (path, good) = image_bytes("torn.idx");
        // Mid-header, then inside inv_offsets, fwd_offsets, inv_docs and
        // fwd_concepts, on and off a word boundary — and one byte too many.
        for len in [12, 24, 24 + 10, 24 + 28 + 6, 24 + 44 + 8, 24 + 60 + 5, good.len() - 1] {
            open_err(&path, &good[..len]);
        }
        let mut long = good.clone();
        long.push(0);
        open_err(&path, &long);
        std::fs::write(&path, &good).unwrap();
        FileSource::open(&path).expect("the untouched image still opens");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_non_monotone_offsets() {
        let (path, good) = image_bytes("offsets.idx");
        let put = |at: usize, v: u32| {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            bad
        };
        // inv_offsets[0] != 0; a dip inside each table; and a last fence
        // post that points past the data the file holds.
        for bad in [put(24, 1), put(24 + 8, 9), put(24 + 28 + 4, 7), put(24 + 24, 400)] {
            open_err(&path, &bad);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn out_of_range_concept_reads_nothing() {
        let corpus = corpus();
        let mem = MemorySource::build(&corpus, 6);
        let path = tmp("oob.idx");
        FileSource::write_image(&path, mem.inverted(), mem.forward()).unwrap();
        let fs = FileSource::open(&path).unwrap();
        let mut out = Vec::new();
        fs.postings(ConceptId(999), &mut out);
        assert!(out.is_empty());
        std::fs::remove_file(path).unwrap();
    }
}
