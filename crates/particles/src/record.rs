//! Durable records: the one place that knows how a record on disk is framed
//! and checked.
//!
//! Three things are written to survive a crash — the campaign journal, the
//! campaign's run payloads and `mdsim` snapshots — and all three are checked
//! with the same splitmix64 [`fold`]. A record is *sealed* as one text line,
//!
//! ```text
//! {body} % {sum:016x}
//! ```
//!
//! where `sum = fold(chain, body)`. The chain is the previous line's sum (or
//! a fixed seed for a file's first line), so a sealed line is valid only in
//! its exact position: lines cannot be reordered, spliced from another file,
//! or survive a corrupted predecessor. [`write_durable`] is the one write
//! that returns only once the bytes are on disk. The fold is a checksum, not
//! a cryptographic hash: it catches truncation, bit flips and partial
//! overwrites, the realistic failure modes of a file cut by `kill -9`.

use std::io::Write;

use crate::systems::splitmix64;

/// Fold 64-bit words into a checksum starting from `seed`: one
/// [`splitmix64`] step per word. [`fold`] over the little-endian bytes of
/// the same words gives the same value.
pub fn fold_words(seed: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(seed, |h, w| splitmix64(h ^ w))
}

/// Fold bytes into a checksum starting from `seed`: [`fold_words`] over
/// 8-byte little-endian chunks, the last one zero-padded.
pub fn fold(seed: u64, bytes: &[u8]) -> u64 {
    fold_words(
        seed,
        bytes.chunks(8).map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        }),
    )
}

/// Seal `body` as one line chained from `chain`: returns the line, ending
/// in `\n`, and its sum — the chain of the line after it.
pub fn seal(chain: u64, body: &str) -> (String, u64) {
    debug_assert!(!body.contains('\n'), "a sealed body is one line");
    let sum = fold(chain, body.as_bytes());
    (format!("{body} % {sum:016x}\n"), sum)
}

/// Why [`unseal`] rejected a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SealError {
    /// Not a whole sealed line: no final `\n`, not UTF-8, or no
    /// ` % <hex>` tail.
    Torn,
    /// A well-formed line whose sum disagrees with its body under the chain.
    Mismatch {
        /// The sum written on the line.
        sealed: u64,
        /// The sum of the body under the chain.
        computed: u64,
    },
}

/// A line [`unseal`] accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unsealed<'a> {
    /// The body, without its sum.
    pub body: &'a str,
    /// The line's sum: the chain of the line after it.
    pub sum: u64,
    /// Bytes of `text` the line took, its `\n` included.
    pub len: usize,
}

/// Open the sealed line at the start of `text` under `chain` — the inverse
/// of [`seal`]. `text` is raw bytes, so that a bit flip which breaks UTF-8
/// is a torn line and not an unreadable file, and so that a caller can cut a
/// file back to the end of its last valid line.
pub fn unseal(text: &[u8], chain: u64) -> Result<Unsealed<'_>, SealError> {
    let nl = text.iter().position(|&b| b == b'\n').ok_or(SealError::Torn)?;
    let line = std::str::from_utf8(&text[..nl]).map_err(|_| SealError::Torn)?;
    let (body, hex) = line.rsplit_once(" % ").ok_or(SealError::Torn)?;
    let sealed = u64::from_str_radix(hex, 16).map_err(|_| SealError::Torn)?;
    let computed = fold(chain, body.as_bytes());
    if sealed != computed {
        return Err(SealError::Mismatch { sealed, computed });
    }
    Ok(Unsealed { body, sum: sealed, len: nl + 1 })
}

/// Write `bytes` to `file` and sync its data, so that a record written after
/// this returns never acknowledges bytes the filesystem could still lose.
/// `write_durable(&mut File::create(path)?, ..)` writes a whole file.
pub fn write_durable(file: &mut std::fs::File, bytes: &[u8]) -> std::io::Result<()> {
    file.write_all(bytes)?;
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_and_byte_folds_agree() {
        let words = [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fold_words(7, words), fold(7, &bytes));
        // A short tail is zero-padded to a whole word.
        assert_eq!(fold(7, &[1, 2, 3]), fold_words(7, [0x03_0201]));
        assert_eq!(fold(7, &[]), 7);
    }

    #[test]
    fn sealed_lines_chain_and_reject_damage() {
        let (a, sum_a) = seal(1, "first");
        let (b, sum_b) = seal(sum_a, "second % with the separator inside");
        let text = format!("{a}{b}");
        let first = unseal(text.as_bytes(), 1).unwrap();
        assert_eq!((first.body, first.sum, first.len), ("first", sum_a, a.len()));
        let second = unseal(&text.as_bytes()[first.len..], first.sum).unwrap();
        assert_eq!((second.body, second.sum), ("second % with the separator inside", sum_b));
        // Out of position, cut short, or flipped: never accepted.
        assert!(matches!(unseal(b.as_bytes(), 1), Err(SealError::Mismatch { .. })));
        assert_eq!(unseal(&a.as_bytes()[..a.len() - 1], 1), Err(SealError::Torn));
        let mut flipped = a.into_bytes();
        flipped[0] ^= 0x01;
        assert!(unseal(&flipped, 1).is_err());
        assert_eq!(unseal(b"no sum here\n", 1), Err(SealError::Torn));
    }
}
